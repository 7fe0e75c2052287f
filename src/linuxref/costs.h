/**
 * @file
 * Cost parameters of the Linux 5.11 reference model.
 *
 * The paper compares M3v against Linux running bare-metal on a single
 * BOOM tile (section 6). We model the paths its benchmarks exercise:
 * no-op system calls, sched_yield, tmpfs read/write, and UDP sockets.
 * Each syscall type carries an instruction-cache footprint; on the
 * 16 KiB L1I of the platform, the large kernel paths evict the
 * application's working set on every call — the effect the paper uses
 * to explain the scan anomaly of Figure 10.
 */

#ifndef M3VSIM_LINUXREF_COSTS_H_
#define M3VSIM_LINUXREF_COSTS_H_

#include <cstdint>

#include "sim/types.h"

namespace m3v::linuxref {

//
// Linux kernel path costs (cycles on the tile's core).
//

/** Trap entry bookkeeping beyond the hardware trap cost. */
constexpr sim::Cycles kSyscallEntry = 220;

/** Return path (restore, seccomp/audit stubs). */
constexpr sim::Cycles kSyscallExit = 180;

/** scheduler: pick_next_task + switch_to for sched_yield. */
constexpr sim::Cycles kSchedPick = 500;

/** Full process context switch (registers, mm, TLB flush). */
constexpr sim::Cycles kCtxSwitch = 900;

/** tmpfs path lookup per component. */
constexpr sim::Cycles kVfsLookup = 350;

/** read() path base cost (vfs + tmpfs + fdget). */
constexpr sim::Cycles kReadBase = 600;

/** write() path base cost. */
constexpr sim::Cycles kWriteBase = 900;

/** Allocate + clear one fresh tmpfs page. */
constexpr sim::Cycles kPageAlloc = 1200;

/** copy_to_user / copy_from_user bandwidth. */
constexpr std::size_t kCopyBytesPerCycle = 8;

/** memset (page clearing) bandwidth. */
constexpr std::size_t kClearBytesPerCycle = 8;

/** UDP transmit path (headers, checksum base, queueing). */
constexpr sim::Cycles kUdpTxBase = 1800;

/** UDP receive path (softirq, demux, queueing). */
constexpr sim::Cycles kUdpRxBase = 2100;

/** Checksum/copy bandwidth in the network stack. */
constexpr std::size_t kNetBytesPerCycle = 4;

/** I-cache footprints of kernel paths (bytes). */
constexpr std::size_t kFootNoop = 2 * 1024;
constexpr std::size_t kFootSched = 5 * 1024;
constexpr std::size_t kFootFile = 10 * 1024;
constexpr std::size_t kFootNet = 14 * 1024;

/** Scheduler time slice. */
constexpr sim::Tick kTimeSlice = 4 * sim::kTicksPerMs;

} // namespace m3v::linuxref

#endif // M3VSIM_LINUXREF_COSTS_H_
