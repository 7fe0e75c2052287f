/**
 * @file
 * The Linux 5.11 reference model: a monolithic kernel on a single
 * tile (the paper's comparison baseline, section 6). Processes are
 * coroutine threads; system calls trap into the kernel, charge
 * path-specific costs plus instruction-cache pollution, and either
 * return or block (scheduler). tmpfs and a UDP stack over the shared
 * NIC model provide the file and network paths the paper measures.
 *
 * Linux runs on one tile only because the platform's tiles are not
 * cache-coherent (section 6).
 */

#ifndef M3VSIM_LINUXREF_KERNEL_H_
#define M3VSIM_LINUXREF_KERNEL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "linuxref/costs.h"
#include "linuxref/tmpfs.h"
#include "services/nic.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "tile/cache_model.h"
#include "tile/core.h"

namespace m3v::linuxref {

using Bytes = std::vector<std::uint8_t>;

class LinuxKernel;

/** Simplified stat result. */
struct StatInfo
{
    bool exists = false;
    bool isDir = false;
    std::uint64_t size = 0;
};

/** A Linux process. */
class LinuxProcess
{
  public:
    enum class State
    {
        Init,
        Ready,
        Running,
        Blocked,
        Dead,
    };

    LinuxProcess(LinuxKernel &kernel, tile::Core &core, int pid,
                 std::string name, std::size_t footprint);

    int pid() const { return pid_; }
    const std::string &name() const { return name_; }
    tile::Thread &thread() { return thread_; }
    State state() const { return state_; }
    std::size_t footprint() const { return footprint_; }
    LinuxKernel &kernel() { return kernel_; }

    /** getrusage: user time. */
    sim::Tick userTicks() const { return thread_.userTicks(); }

    /** getrusage: system time (kernel time on this process' calls). */
    sim::Tick systemTicks() const { return systemTicks_; }

    std::function<void()> onExit;

  private:
    friend class LinuxKernel;

    struct FdEntry
    {
        enum class Kind
        {
            File,
            Socket,
        };
        Kind kind = Kind::File;
        Tmpfs::Ino ino = Tmpfs::kNoIno;
        std::uint64_t offset = 0;
        bool append = false;
        // Socket state.
        std::uint16_t port = 0;
        std::deque<Bytes> rxQueue;
    };

    LinuxKernel &kernel_;
    int pid_;
    std::string name_;
    std::size_t footprint_;
    State state_ = State::Init;
    tile::Thread thread_;
    int nextFd_ = 3;
    std::map<int, FdEntry> fds_;
    sim::Tick systemTicks_ = 0;
    /** Socket fd a blocked recvfrom is waiting on; -1 if none. */
    int waitingFd_ = -1;
};

/** Open flags for sysOpen. */
enum LinuxOpenFlags : std::uint32_t
{
    kORead = 1,
    kOWrite = 2,
    kOCreate = 4,
    kOTrunc = 8,
};

/** The kernel. */
class LinuxKernel : public sim::SimObject
{
  public:
    LinuxKernel(sim::EventQueue &eq, std::string name,
                tile::Core &core, services::Nic *nic = nullptr);

    tile::Core &core() { return core_; }
    Tmpfs &fs() { return fs_; }

    LinuxProcess *createProcess(const std::string &name,
                                std::size_t footprint = 12 * 1024);

    /** Install the body and make the process runnable. */
    void start(LinuxProcess *p, sim::Task body);

    //
    // System calls (awaited from process bodies).
    //

    sim::Task sysNoop(LinuxProcess &p);
    sim::Task sysYield(LinuxProcess &p);
    sim::Task sysExit(LinuxProcess &p);

    sim::Task sysOpen(LinuxProcess &p, const std::string &path,
                      std::uint32_t flags, int *fd);
    sim::Task sysRead(LinuxProcess &p, int fd, std::size_t want,
                      Bytes *out);
    sim::Task sysWrite(LinuxProcess &p, int fd, Bytes data,
                       std::size_t *written);
    sim::Task sysLseek(LinuxProcess &p, int fd, std::uint64_t off);
    sim::Task sysClose(LinuxProcess &p, int fd);
    sim::Task sysStat(LinuxProcess &p, const std::string &path,
                      StatInfo *out);
    sim::Task sysReaddir(LinuxProcess &p, const std::string &path,
                         std::size_t idx, std::string *name,
                         bool *ok);
    sim::Task sysUnlink(LinuxProcess &p, const std::string &path,
                        bool *ok);
    sim::Task sysMkdir(LinuxProcess &p, const std::string &path,
                       bool *ok);

    sim::Task sysSocket(LinuxProcess &p, std::uint16_t local_port,
                        int *fd);
    sim::Task sysSendTo(LinuxProcess &p, int fd, std::uint32_t dst_ip,
                        std::uint16_t dst_port, Bytes data);
    sim::Task sysRecvFrom(LinuxProcess &p, int fd, Bytes *out);

    // Statistics.
    std::uint64_t syscalls() const { return syscalls_->value(); }
    std::uint64_t ctxSwitches() const { return switches_->value(); }
    sim::Tick kernelTicks() { return core_.kernelTicks(); }

  private:
    /** Kernel-path cache regions. */
    enum : tile::RegionId
    {
        kRegNoop = 1,
        kRegSched = 2,
        kRegFile = 3,
        kRegNet = 4,
        kRegAppBase = 16,
    };

    /**
     * Common synchronous syscall: trap, charge entry + path cost +
     * cache effects, run @p apply (zero-time semantic action), return
     * to the caller.
     */
    /* apply is passed by reference: the argument temporary lives in
     * the awaiting caller's coroutine frame for the whole call (GCC
     * 12 miscompiles non-trivial by-value coroutine parameters). */
    sim::Task syscallSync(LinuxProcess &p, tile::RegionId reg,
                          std::size_t foot, sim::Cycles path_cost,
                          const std::function<void()> &apply);

    sim::Cycles touchKernel(tile::RegionId reg, std::size_t foot);
    sim::Cycles touchApp(LinuxProcess &p);
    void onIrq(tile::IrqKind kind);
    void onNicRx(Bytes frame);
    void deliverFrame(Bytes frame);
    void scheduleNext();
    void switchTo(LinuxProcess *next);
    LinuxProcess *pickNext();
    void enqueue(LinuxProcess *p);

    tile::Core &core_;
    Tmpfs fs_;
    services::Nic *nic_;
    tile::CacheModel l1i_;
    std::uint32_t localIp_ = 0x0a000003;

    int nextPid_ = 1;
    std::vector<std::unique_ptr<LinuxProcess>> procs_;
    std::deque<LinuxProcess *> ready_;
    LinuxProcess *current_ = nullptr;
    std::map<std::uint16_t, std::pair<LinuxProcess *, int>> ports_;
    std::deque<Bytes> rxPending_;

    sim::Counter *syscalls_;
    sim::Counter *switches_;
};

} // namespace m3v::linuxref

#endif // M3VSIM_LINUXREF_KERNEL_H_
