/**
 * @file
 * A memory tile: DDR4 DRAM behind a stripped-down DTU (Figure 5:
 * memory-tile DTUs omit all the dashed components). It serves
 * MemReadReq/MemWriteReq packets arriving over the NoC against its
 * DRAM, with DRAM queueing/latency/bandwidth modelled by tile::Dram.
 *
 * It also provides a simple region allocator that the controller uses
 * to hand out physical memory (PMP regions, receive buffers, file
 * system storage).
 */

#ifndef M3VSIM_DTU_MEMORY_TILE_H_
#define M3VSIM_DTU_MEMORY_TILE_H_

#include <memory>

#include "dtu/wire.h"
#include "noc/noc.h"
#include "sim/ring_deque.h"
#include "sim/sim_object.h"
#include "tile/dram.h"

namespace m3v::dtu {

/** A DRAM tile attached to the NoC. */
class MemoryTile : public sim::SimObject, public noc::HopTarget
{
  public:
    MemoryTile(sim::EventQueue &eq, std::string name, noc::Noc &noc,
               noc::TileId tile, tile::DramParams params = {});

    noc::TileId tileId() const { return tile_; }
    tile::Dram &dram() { return dram_; }

    /**
     * Allocate a region of physical memory (bump allocator; regions
     * are never freed — the controller partitions memory statically,
     * like the per-tile regions of paper section 4.3).
     */
    PhysAddr alloc(std::size_t size, std::size_t align = 64);

    // noc::HopTarget
    bool acceptPacket(noc::Packet &pkt,
                      sim::UniqueFunction<void()> on_space) override;

  private:
    void sendResp(noc::TileId dst, std::unique_ptr<WireData> wd);
    void pumpTx();

    noc::Noc &noc_;
    noc::TileId tile_;
    tile::Dram dram_;
    PhysAddr allocNext_ = 0;
    sim::RingDeque<noc::Packet> txQueue_;
};

} // namespace m3v::dtu

#endif // M3VSIM_DTU_MEMORY_TILE_H_
