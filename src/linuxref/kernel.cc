#include "linuxref/kernel.h"

#include <algorithm>
#include <utility>

#include "sim/log.h"

namespace m3v::linuxref {

LinuxProcess::LinuxProcess(LinuxKernel &kernel, tile::Core &core,
                           int pid, std::string name,
                           std::size_t footprint)
    : kernel_(kernel), pid_(pid), name_(std::move(name)),
      footprint_(footprint),
      thread_(core, name_ + ".thread", static_cast<std::uint64_t>(pid))
{
}

LinuxKernel::LinuxKernel(sim::EventQueue &eq, std::string name,
                         tile::Core &core, services::Nic *nic)
    : SimObject(eq, std::move(name)), core_(core), nic_(nic),
      l1i_(core.model().l1iBytes, 64, core.model().lineFillCycles)
{
    syscalls_ = statCounter("syscalls");
    switches_ = statCounter("ctx_switches");
    core_.setIrqHandler([this](tile::IrqKind k) { onIrq(k); });
    if (nic_) {
        nic_->setRxHandler(
            [this](os::Bytes frame) { onNicRx(std::move(frame)); });
    }
}

LinuxProcess *
LinuxKernel::createProcess(const std::string &name,
                           std::size_t footprint)
{
    int pid = nextPid_++;
    procs_.push_back(std::make_unique<LinuxProcess>(
        *this, core_, pid, name, footprint));
    return procs_.back().get();
}

void
LinuxKernel::start(LinuxProcess *p, sim::Task body)
{
    p->thread_.start(std::move(body));
    p->state_ = LinuxProcess::State::Ready;
    enqueue(p);
    if (core_.current() && !core_.timerArmed())
        core_.setTimer(kTimeSlice);
    if (!core_.inKernel() && !core_.current()) {
        core_.kernelEnter(kSchedPick,
                          [this]() { scheduleNext(); });
    }
}

void
LinuxKernel::enqueue(LinuxProcess *p)
{
    ready_.push_back(p);
}

sim::Cycles
LinuxKernel::touchKernel(tile::RegionId reg, std::size_t foot)
{
    return l1i_.touch(reg, foot);
}

sim::Cycles
LinuxKernel::touchApp(LinuxProcess &p)
{
    return l1i_.touch(kRegAppBase +
                          static_cast<tile::RegionId>(p.pid()),
                      p.footprint());
}

LinuxProcess *
LinuxKernel::pickNext()
{
    while (!ready_.empty()) {
        LinuxProcess *p = ready_.front();
        ready_.pop_front();
        if (p->state_ == LinuxProcess::State::Ready)
            return p;
    }
    return nullptr;
}

void
LinuxKernel::scheduleNext()
{
    core_.kernelWork(kSchedPick, [this]() {
        LinuxProcess *next = pickNext();
        if (!next) {
            current_ = nullptr;
            core_.cancelTimer();
            core_.kernelExitIdle();
            return;
        }
        switchTo(next);
    });
}

void
LinuxKernel::switchTo(LinuxProcess *next)
{
    sim::Cycles cost = 0;
    if (next != current_) {
        cost = kCtxSwitch + touchApp(*next);
        switches_->inc();
    }
    core_.kernelWork(cost, [this, next]() {
        current_ = next;
        next->state_ = LinuxProcess::State::Running;
        if (!ready_.empty())
            core_.setTimer(kTimeSlice);
        else
            core_.cancelTimer();
        core_.kernelExitTo(&next->thread_);
    });
}

void
LinuxKernel::onIrq(tile::IrqKind kind)
{
    if (current_ &&
        current_->state_ == LinuxProcess::State::Running) {
        current_->state_ = LinuxProcess::State::Ready;
        if (kind == tile::IrqKind::Timer)
            ready_.push_back(current_);
        else
            ready_.push_front(current_);
        current_ = nullptr;
    }
    switch (kind) {
      case tile::IrqKind::Timer:
        core_.kernelWork(touchKernel(kRegSched, kFootSched),
                         [this]() { scheduleNext(); });
        break;
      case tile::IrqKind::Device: {
        // NIC rx softirq: demux pending frames to sockets and wake
        // blocked receivers.
        sim::Cycles cost = touchKernel(kRegNet, kFootNet);
        for (const Bytes &f : rxPending_)
            cost += kUdpRxBase + f.size() / kNetBytesPerCycle;
        core_.kernelWork(cost, [this]() {
            auto frames = std::move(rxPending_);
            rxPending_.clear();
            for (Bytes &frame : frames)
                deliverFrame(std::move(frame));
            scheduleNext();
        });
        break;
      }
      case tile::IrqKind::CoreRequest:
        sim::panic("%s: core request on a Linux tile?",
                   name().c_str());
    }
}

void
LinuxKernel::onNicRx(Bytes frame)
{
    rxPending_.push_back(std::move(frame));
    core_.raiseIrq(tile::IrqKind::Device);
}

void
LinuxKernel::deliverFrame(Bytes frame)
{
    Bytes payload;
    services::UdpFrameHdr hdr = services::parseFrame(frame, &payload);
    auto it = ports_.find(hdr.dstPort);
    if (it == ports_.end())
        return; // no listener: dropped
    LinuxProcess *p = it->second.first;
    int fd = it->second.second;
    auto fit = p->fds_.find(fd);
    if (fit == p->fds_.end())
        return;
    fit->second.rxQueue.push_back(std::move(payload));
    if (p->state_ == LinuxProcess::State::Blocked &&
        p->waitingFd_ == fd) {
        p->state_ = LinuxProcess::State::Ready;
        p->waitingFd_ = -1;
        ready_.push_front(p);
    }
}

sim::Task
LinuxKernel::syscallSync(LinuxProcess &p, tile::RegionId reg,
                         std::size_t foot, sim::Cycles path_cost,
                         const std::function<void()> &apply)
{
    syscalls_->inc();
    // The referenced closure lives in the awaiting caller's frame, so
    // capturing the reference is safe until this coroutine completes.
    const std::function<void()> *fn = &apply;
    co_await p.thread().trapCall([this, &p, reg, foot, path_cost,
                                  fn]() {
        sim::Cycles c1 =
            kSyscallEntry + touchKernel(reg, foot) + path_cost;
        core_.kernelWork(c1, [this, &p, c1, fn]() {
            if (*fn)
                (*fn)();
            sim::Cycles c2 = kSyscallExit + touchApp(p);
            core_.kernelWork(c2, [this, &p, c1, c2]() {
                const auto &m = core_.model();
                p.systemTicks_ += core_.cyclesToTicks(
                    m.trapEnterCycles + c1 + c2 + m.trapExitCycles);
                p.state_ = LinuxProcess::State::Running;
                core_.kernelExitTo(&p.thread_);
            });
        });
    });
}

sim::Task
LinuxKernel::sysNoop(LinuxProcess &p)
{
    co_await syscallSync(p, kRegNoop, kFootNoop, 60, nullptr);
}

sim::Task
LinuxKernel::sysYield(LinuxProcess &p)
{
    syscalls_->inc();
    co_await p.thread().trapCall([this, &p]() {
        sim::Cycles c = kSyscallEntry +
                        touchKernel(kRegSched, kFootSched) + kSchedPick;
        core_.kernelWork(c, [this, &p, c]() {
            p.systemTicks_ += core_.cyclesToTicks(c);
            p.state_ = LinuxProcess::State::Ready;
            ready_.push_back(&p);
            current_ = nullptr;
            scheduleNext();
        });
    });
}

sim::Task
LinuxKernel::sysExit(LinuxProcess &p)
{
    syscalls_->inc();
    co_await p.thread().trapCall([this, &p]() {
        core_.kernelWork(kSyscallEntry, [this, &p]() {
            p.state_ = LinuxProcess::State::Dead;
            current_ = nullptr;
            if (p.onExit)
                eq_.schedule(0, [&p]() { p.onExit(); });
            scheduleNext();
        });
    });
    sim::panic("%s: exited process resumed", p.name().c_str());
}

sim::Task
LinuxKernel::sysOpen(LinuxProcess &p, const std::string &path,
                     std::uint32_t flags, int *fd)
{
    sim::Cycles cost =
        kVfsLookup *
        static_cast<sim::Cycles>(Tmpfs::components(path) + 1);
    co_await syscallSync(p, kRegFile, kFootFile, cost, [&]() {
        Tmpfs::Ino ino = fs_.lookup(path);
        if (ino == Tmpfs::kNoIno && (flags & kOCreate))
            ino = fs_.create(path, false);
        if (ino == Tmpfs::kNoIno || fs_.isDir(ino)) {
            *fd = -1;
            return;
        }
        if (flags & kOTrunc)
            fs_.truncate(ino);
        LinuxProcess::FdEntry e;
        e.kind = LinuxProcess::FdEntry::Kind::File;
        e.ino = ino;
        e.offset = 0;
        *fd = p.nextFd_++;
        p.fds_[*fd] = e;
    });
}

sim::Task
LinuxKernel::sysRead(LinuxProcess &p, int fd, std::size_t want,
                     Bytes *out)
{
    auto it = p.fds_.find(fd);
    if (it == p.fds_.end()) {
        out->clear();
        co_return;
    }
    // The copy size is known to the kernel before the copy.
    std::uint64_t size = fs_.size(it->second.ino);
    std::size_t n =
        it->second.offset >= size
            ? 0
            : std::min<std::size_t>(want, size - it->second.offset);
    sim::Cycles cost =
        kReadBase + static_cast<sim::Cycles>(n / kCopyBytesPerCycle);
    co_await syscallSync(p, kRegFile, kFootFile, cost, [&]() {
        out->resize(n);
        std::size_t got = fs_.read(it->second.ino,
                                   it->second.offset, out->data(), n);
        out->resize(got);
        it->second.offset += got;
    });
}

sim::Task
LinuxKernel::sysWrite(LinuxProcess &p, int fd, Bytes data,
                      std::size_t *written)
{
    auto it = p.fds_.find(fd);
    if (it == p.fds_.end()) {
        if (written)
            *written = 0;
        co_return;
    }
    std::uint64_t off = it->second.offset;
    std::uint64_t old_size = fs_.size(it->second.ino);
    std::uint64_t new_end = off + data.size();
    std::size_t fresh_pages =
        new_end > old_size
            ? (new_end + Tmpfs::kPage - 1) / Tmpfs::kPage -
                  (old_size + Tmpfs::kPage - 1) / Tmpfs::kPage
            : 0;
    sim::Cycles cost =
        kWriteBase +
        static_cast<sim::Cycles>(data.size() / kCopyBytesPerCycle) +
        static_cast<sim::Cycles>(
            fresh_pages *
            (kPageAlloc + Tmpfs::kPage / kClearBytesPerCycle));
    co_await syscallSync(p, kRegFile, kFootFile, cost, [&]() {
        fs_.write(it->second.ino, off, data.data(), data.size());
        it->second.offset += data.size();
        if (written)
            *written = data.size();
    });
}

sim::Task
LinuxKernel::sysLseek(LinuxProcess &p, int fd, std::uint64_t off)
{
    co_await syscallSync(p, kRegNoop, kFootNoop, 80, [&]() {
        auto it = p.fds_.find(fd);
        if (it != p.fds_.end())
            it->second.offset = off;
    });
}

sim::Task
LinuxKernel::sysClose(LinuxProcess &p, int fd)
{
    co_await syscallSync(p, kRegFile, kFootFile, 200, [&]() {
        auto it = p.fds_.find(fd);
        if (it == p.fds_.end())
            return;
        if (it->second.kind == LinuxProcess::FdEntry::Kind::Socket)
            ports_.erase(it->second.port);
        p.fds_.erase(it);
    });
}

sim::Task
LinuxKernel::sysStat(LinuxProcess &p, const std::string &path,
                     StatInfo *out)
{
    sim::Cycles cost =
        kVfsLookup *
        static_cast<sim::Cycles>(Tmpfs::components(path) + 1);
    co_await syscallSync(p, kRegFile, kFootFile, cost, [&]() {
        Tmpfs::Ino ino = fs_.lookup(path);
        out->exists = ino != Tmpfs::kNoIno;
        if (out->exists) {
            out->isDir = fs_.isDir(ino);
            out->size = fs_.size(ino);
        }
    });
}

sim::Task
LinuxKernel::sysReaddir(LinuxProcess &p, const std::string &path,
                        std::size_t idx, std::string *name_out,
                        bool *ok)
{
    sim::Cycles cost =
        kVfsLookup + 40 + static_cast<sim::Cycles>(idx / 4);
    co_await syscallSync(p, kRegFile, kFootFile, cost, [&]() {
        Tmpfs::Ino dir = fs_.lookup(path);
        Tmpfs::Ino child;
        *ok = dir != Tmpfs::kNoIno &&
              fs_.entryAt(dir, idx, name_out, &child);
    });
}

sim::Task
LinuxKernel::sysUnlink(LinuxProcess &p, const std::string &path,
                       bool *ok)
{
    sim::Cycles cost =
        kVfsLookup *
        static_cast<sim::Cycles>(Tmpfs::components(path) + 1);
    co_await syscallSync(p, kRegFile, kFootFile, cost,
                         [&]() { *ok = fs_.unlink(path); });
}

sim::Task
LinuxKernel::sysMkdir(LinuxProcess &p, const std::string &path,
                      bool *ok)
{
    co_await syscallSync(p, kRegFile, kFootFile,
                         kVfsLookup * 2, [&]() {
                             *ok = fs_.create(path, true) !=
                                   Tmpfs::kNoIno;
                         });
}

sim::Task
LinuxKernel::sysSocket(LinuxProcess &p, std::uint16_t local_port,
                       int *fd)
{
    co_await syscallSync(p, kRegNet, kFootNet, 600, [&]() {
        LinuxProcess::FdEntry e;
        e.kind = LinuxProcess::FdEntry::Kind::Socket;
        e.port = local_port;
        *fd = p.nextFd_++;
        p.fds_[*fd] = e;
        if (local_port)
            ports_[local_port] = {&p, *fd};
    });
}

sim::Task
LinuxKernel::sysSendTo(LinuxProcess &p, int fd, std::uint32_t dst_ip,
                       std::uint16_t dst_port, Bytes data)
{
    auto it = p.fds_.find(fd);
    sim::Cycles cost =
        kUdpTxBase +
        static_cast<sim::Cycles>(data.size() / kNetBytesPerCycle);
    co_await syscallSync(p, kRegNet, kFootNet, cost, [&]() {
        if (it == p.fds_.end() || !nic_)
            return;
        services::UdpFrameHdr hdr;
        hdr.srcIp = localIp_;
        hdr.dstIp = dst_ip;
        hdr.srcPort = it->second.port;
        hdr.dstPort = dst_port;
        nic_->transmit(services::makeFrame(hdr, data));
    });
}

sim::Task
LinuxKernel::sysRecvFrom(LinuxProcess &p, int fd, Bytes *out)
{
    for (;;) {
        bool got = false;
        syscalls_->inc();
        co_await p.thread().trapCall([this, &p, fd, out, &got]() {
            sim::Cycles c = kSyscallEntry +
                            touchKernel(kRegNet, kFootNet) +
                            400;
            core_.kernelWork(c, [this, &p, fd, out, &got, c]() {
                auto it = p.fds_.find(fd);
                if (it != p.fds_.end() &&
                    !it->second.rxQueue.empty()) {
                    *out = std::move(it->second.rxQueue.front());
                    it->second.rxQueue.pop_front();
                    got = true;
                    sim::Cycles c2 =
                        kSyscallExit + touchApp(p) +
                        static_cast<sim::Cycles>(
                            out->size() / kNetBytesPerCycle);
                    core_.kernelWork(c2, [this, &p, c, c2]() {
                        p.systemTicks_ +=
                            core_.cyclesToTicks(c + c2);
                        p.state_ = LinuxProcess::State::Running;
                        core_.kernelExitTo(&p.thread_);
                    });
                    return;
                }
                // Block until a datagram arrives.
                p.systemTicks_ += core_.cyclesToTicks(c);
                p.state_ = LinuxProcess::State::Blocked;
                p.waitingFd_ = fd;
                current_ = nullptr;
                scheduleNext();
            });
        });
        if (got)
            co_return;
    }
}

} // namespace m3v::linuxref
