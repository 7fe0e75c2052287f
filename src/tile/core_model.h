/**
 * @file
 * Cost models for the cores of the M3v platform.
 *
 * The paper's FPGA prototype uses Rocket (in-order, 100 MHz) and BOOM
 * (out-of-order, 80 MHz) RISC-V cores with 16 KiB L1I/L1D and 512 KiB
 * L2; the M3x comparison (Figure 9) runs on gem5's 3 GHz out-of-order
 * x86-64 model. Each model bundles the microarchitectural costs the
 * simulator charges for traps, interrupts, MMIO and cache refills.
 */

#ifndef M3VSIM_TILE_CORE_MODEL_H_
#define M3VSIM_TILE_CORE_MODEL_H_

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace m3v::tile {

/** Microarchitectural cost parameters of a core. */
struct CoreModel
{
    std::string name;

    /** Core clock frequency. */
    std::uint64_t freqHz = 100'000'000;

    /** Cycles for one uncached MMIO register read (e.g. vDTU regs). */
    sim::Cycles mmioReadCycles = 12;

    /** Cycles for one uncached MMIO register write. */
    sim::Cycles mmioWriteCycles = 8;

    /** Trap entry: pipeline flush + mode switch + vector fetch. */
    sim::Cycles trapEnterCycles = 150;

    /** Trap exit (sret/iret) back to user mode. */
    sim::Cycles trapExitCycles = 110;

    /** Extra cost of an asynchronous external interrupt. */
    sim::Cycles irqOverheadCycles = 80;

    /** Address-space switch (satp/CR3 write + TLB shootdown). */
    sim::Cycles addrSpaceSwitchCycles = 140;

    /** Save or restore one general-purpose register context. */
    sim::Cycles regContextCycles = 70;

    /** L1I size in bytes (footprint model, see CacheModel). */
    std::size_t l1iBytes = 16 * 1024;

    /** Refill cost per 64-byte line from the next level. */
    sim::Cycles lineFillCycles = 24;

    /** Rocket: 64-bit in-order RISC-V @ 100 MHz (paper section 4.1). */
    static CoreModel rocket();

    /** BOOM: out-of-order variant of Rocket @ 80 MHz. */
    static CoreModel boom();

    /** gem5-style 3 GHz out-of-order x86-64 (Figure 9 setting). */
    static CoreModel x86Ooo();
};

} // namespace m3v::tile

#endif // M3VSIM_TILE_CORE_MODEL_H_
