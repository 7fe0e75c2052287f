#include "services/m3fs.h"

#include <cstring>
#include <utility>

#include "sim/log.h"

namespace m3v::services {

using dtu::Error;
using os::Bytes;
using os::SyscallReq;
using os::SyscallResp;

M3fs::M3fs(os::System &sys, unsigned tile_idx, M3fsParams params)
    : sys_(sys)
{
    app_ = sys.createApp(tile_idx, "m3fs", kM3fsFootprint);
    storage_ = sys.makeMgate(app_, params.storageBytes,
                             dtu::kPermRW);
    rgate_ = sys.makeRgate(app_, kM3fsReqSlotSize, kM3fsReqSlots);
    img_ = std::make_unique<FsImage>(
        params.storageBytes / dtu::kPageSize, dtu::kPageSize,
        kMaxExtentBlocks);
}

M3fs::Client
M3fs::addClient(os::System::App *client)
{
    Client c;
    c.id = nextClient_++;
    auto sg = sys_.makeSgate(client, app_, rgate_.ep, c.id, 2);
    c.sgateEp = sg.ep;
    auto rep = sys_.makeRgate(client, 128, 2);
    c.replyEp = rep.ep;
    for (unsigned i = 0; i < kFileEpPool; i++)
        c.fileEps.push_back(sys_.allocEp(client->tileIdx));

    ClientState cs;
    cs.actCap = sys_.grantActCap(app_, client);
    clients_.emplace(c.id, std::move(cs));
    return c;
}

void
M3fs::startService()
{
    sys_.start(app_, [this](os::MuxEnv &env) -> sim::Task {
        co_await body(env);
    });
}

sim::Task
M3fs::body(os::MuxEnv &env)
{
    for (;;) {
        int slot = -1;
        co_await env.recvOn(rgate_.ep, &slot);
        const dtu::Message &msg = env.msgAt(rgate_.ep, slot);
        requests_++;

        auto it = clients_.find(msg.label);
        if (it == clients_.end())
            sim::panic("m3fs: request from unknown client %llu",
                       static_cast<unsigned long long>(msg.label));

        FsReq req = os::podFrom<FsReq>(msg.payload);
        FsResp resp;
        co_await env.thread().compute(kM3fsOpBaseCost);
        co_await handle(env, it->second, req, &resp);
        co_await env.thread().compute(img_->takeOpCost());

        Error rerr = Error::None;
        co_await env.reply(rgate_.ep, slot, os::podBytes(resp),
                           &rerr);
        if (rerr != Error::None)
            sim::warn("m3fs: reply failed: %s", dtu::errorName(rerr));
    }
}

sim::Task
M3fs::grantExtent(os::MuxEnv &env, ClientState &cs, OpenFile &file,
                  const Extent &ext, std::uint8_t perms, Error *err)
{
    // Derive a capability for the extent's byte range...
    SyscallReq sc;
    SyscallResp sr;
    sc.op = SyscallReq::Op::DeriveMem;
    sc.arg0 = storage_.sel;
    sc.arg1 = static_cast<std::uint64_t>(ext.start) *
              img_->blockSize();
    sc.arg2 = static_cast<std::uint64_t>(ext.count) *
              img_->blockSize();
    sc.arg3 = perms;
    co_await env.syscall(sc, &sr);
    if (sr.err != Error::None) {
        *err = sr.err;
        co_return;
    }
    auto extent_cap = static_cast<os::CapSel>(sr.val);

    // ...and activate it into the client's file endpoint.
    sc = SyscallReq{};
    sc.op = SyscallReq::Op::ActivateFor;
    sc.arg0 = cs.actCap;
    sc.arg1 = file.fileEp;
    sc.arg2 = extent_cap;
    co_await env.syscall(sc, &sr);
    if (sr.err != Error::None) {
        *err = sr.err;
        co_return;
    }
    file.grantedCaps.push_back(extent_cap);
    *err = Error::None;
}

sim::Task
M3fs::zeroExtent(os::MuxEnv &env, const Extent &ext)
{
    // Clear freshly allocated blocks through our own memory gate,
    // one page-sized DTU write at a time (commands are single-page,
    // section 3.6). This is what makes writes slower than reads.
    Bytes zeros(img_->blockSize(), 0);
    for (std::uint32_t b = 0; b < ext.count; b++) {
        Error werr = Error::None;
        co_await env.writeMem(
            storage_.ep,
            static_cast<std::uint64_t>(ext.start + b) *
                img_->blockSize(),
            zeros, &werr);
        if (werr != Error::None)
            sim::panic("m3fs: zeroing failed: %s",
                       dtu::errorName(werr));
    }
}

sim::Task
M3fs::handle(os::MuxEnv &env, ClientState &cs, FsReq req,
             FsResp *resp)
{
    req.path[sizeof(req.path) - 1] = '\0';
    std::string path(req.path);

    switch (req.op) {
      case FsReq::Op::Open: {
        Ino ino = img_->lookup(path);
        if (ino == kNoIno && (req.flags & kOpenCreate))
            ino = img_->create(path, false);
        if (ino == kNoIno) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        Inode *node = img_->inode(ino);
        if (node->dir) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        if (req.flags & kOpenTrunc)
            img_->truncate(ino);
        OpenFile f;
        f.ino = ino;
        f.write = (req.flags & kOpenW) != 0;
        f.fileEp = static_cast<dtu::EpId>(req.arg);
        std::uint32_t fd = cs.nextFd++;
        cs.files.emplace(fd, std::move(f));
        resp->fd = fd;
        resp->size = node->size;
        resp->ino = ino;
        co_return;
      }

      case FsReq::Op::NextIn: {
        // arg = requested file offset: find the extent containing it
        // (supports sequential and random access).
        auto it = cs.files.find(req.fd);
        if (it == cs.files.end()) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        OpenFile &f = it->second;
        Inode *node = img_->inode(f.ino);
        std::uint64_t want = req.arg;
        if (want >= node->size) {
            resp->extLen = 0; // EOF
            co_return;
        }
        std::uint64_t off = 0;
        const Extent *ext = nullptr;
        for (const Extent &e : node->extents) {
            std::uint64_t bytes =
                static_cast<std::uint64_t>(e.count) *
                img_->blockSize();
            if (want < off + bytes) {
                ext = &e;
                break;
            }
            off += bytes;
        }
        if (!ext) {
            resp->extLen = 0;
            co_return;
        }
        Error gerr = Error::None;
        co_await grantExtent(env, cs, f, *ext, dtu::kPermR, &gerr);
        if (gerr != Error::None) {
            resp->err = gerr;
            co_return;
        }
        std::uint64_t ext_bytes =
            static_cast<std::uint64_t>(ext->count) *
            img_->blockSize();
        resp->extOff = off;
        // The last extent may extend past the file size.
        resp->extLen =
            std::min<std::uint64_t>(ext_bytes, node->size - off);
        co_return;
      }

      case FsReq::Op::NextOut: {
        auto it = cs.files.find(req.fd);
        if (it == cs.files.end() || !it->second.write) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        OpenFile &f = it->second;
        Extent ext;
        auto hint = static_cast<std::uint32_t>(req.arg);
        if (!img_->appendExtent(f.ino, &ext,
                                hint ? hint : ~0u)) {
            resp->err = Error::OutOfBounds; // no space
            co_return;
        }
        co_await zeroExtent(env, ext);
        Error gerr = Error::None;
        co_await grantExtent(env, cs, f, ext, dtu::kPermRW, &gerr);
        if (gerr != Error::None) {
            resp->err = gerr;
            co_return;
        }
        resp->extOff = f.winOff;
        resp->extLen =
            static_cast<std::uint64_t>(ext.count) * img_->blockSize();
        f.winOff += resp->extLen;
        f.extIdx++;
        co_return;
      }

      case FsReq::Op::Commit: {
        auto it = cs.files.find(req.fd);
        if (it == cs.files.end()) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        OpenFile &f = it->second;
        Inode *node = img_->inode(f.ino);
        // arg = file offset after the last written byte.
        node->size = std::max(node->size, req.arg);
        resp->size = node->size;
        co_return;
      }

      case FsReq::Op::Close: {
        auto it = cs.files.find(req.fd);
        if (it == cs.files.end()) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        // Revoke every extent capability granted for this fd.
        for (os::CapSel sel : it->second.grantedCaps) {
            SyscallReq sc;
            SyscallResp sr;
            sc.op = SyscallReq::Op::Revoke;
            sc.arg0 = sel;
            co_await env.syscall(sc, &sr);
        }
        cs.files.erase(it);
        co_return;
      }

      case FsReq::Op::Stat: {
        Ino ino = img_->lookup(path);
        if (ino == kNoIno) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        Inode *node = img_->inode(ino);
        resp->size = node->size;
        resp->ino = ino;
        resp->isDir = node->dir ? 1 : 0;
        co_return;
      }

      case FsReq::Op::Readdir: {
        Ino dir = img_->lookup(path);
        if (dir == kNoIno) {
            resp->err = Error::InvalidEp;
            co_return;
        }
        // Pack up to kReaddirBatch NUL-separated names (getdents
        // style: one RPC covers many entries).
        std::size_t off = 0;
        std::uint64_t idx = req.arg;
        resp->count = 0;
        while (resp->count < kReaddirBatch) {
            std::string name;
            Ino child = kNoIno;
            if (!img_->entryAt(dir, idx, &name, &child))
                break;
            if (off + name.size() + 1 > sizeof(resp->name))
                break;
            std::memcpy(resp->name + off, name.c_str(),
                        name.size() + 1);
            off += name.size() + 1;
            resp->count++;
            idx++;
        }
        resp->more = idx < img_->entryCount(dir) ? 1 : 0;
        co_return;
      }

      case FsReq::Op::Unlink:
        resp->err =
            img_->unlink(path) ? Error::None : Error::InvalidEp;
        co_return;

      case FsReq::Op::Mkdir:
        resp->err = img_->create(path, true) != kNoIno
                        ? Error::None
                        : Error::InvalidEp;
        co_return;

      case FsReq::Op::ReadAt:
      case FsReq::Op::WriteAt:
        // m3fs moves data through extent capabilities, never inline
        // (these ops exist for the M3x RPC file protocol).
        resp->err = Error::InvalidEp;
        co_return;
    }
    resp->err = Error::InvalidEp;
    co_return;
}

} // namespace m3v::services
