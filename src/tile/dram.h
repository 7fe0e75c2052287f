/**
 * @file
 * Timing model of a memory tile's DDR4 interface: fixed access
 * latency plus bandwidth-limited transfer, with a single request
 * queue (requests are serviced in order, one at a time).
 *
 * The backing store is sparse: a table of fixed-size chunks, each
 * allocated (zeroed) on the first write or non-zero fill that touches
 * it. Untouched memory reads as zeros, so a platform costs the bytes
 * it touches, not its capacity.
 */

#ifndef M3VSIM_TILE_DRAM_H_
#define M3VSIM_TILE_DRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/clock.h"
#include "sim/ring_deque.h"
#include "sim/sim_object.h"
#include "sim/stats.h"
#include "sim/unique_function.h"

namespace m3v::tile {

/** DRAM fixed access latency (activate + CAS) in controller
 *  cycles. */
constexpr sim::Cycles kDramAccessCycles = 30;

/** DRAM transfer bandwidth in bytes per controller cycle. */
constexpr std::size_t kDramBytesPerCycle = 16;

/** Memory controller clock. */
constexpr std::uint64_t kDramFreqHz = 200'000'000;

/** DDR4 interface parameters. */
struct DramParams
{
    /** Backing-store capacity. */
    std::size_t capacityBytes = 64 * 1024 * 1024;
};

/**
 * A memory tile's DRAM: byte-addressable backing store plus an
 * in-order request queue with latency/bandwidth timing.
 */
class Dram : public sim::SimObject
{
  public:
    /** Granularity of the sparse backing store. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    Dram(sim::EventQueue &eq, std::string name, DramParams params);

    const DramParams &params() const { return params_; }
    std::size_t capacity() const { return params_.capacityBytes; }

    /** Host bytes held by allocated chunks. */
    std::size_t residentBytes() const { return resident_ * kChunkBytes; }

    /**
     * Queue an access of @p bytes at @p addr; @p done fires when the
     * data has been transferred. The data itself is moved through
     * read()/write() by the caller at completion time (timing and
     * content are decoupled for simplicity).
     */
    void access(std::size_t addr, std::size_t bytes,
                sim::UniqueFunction<void()> done);

    /** Copy bytes out of the backing store (no timing). */
    void read(std::size_t addr, void *dst, std::size_t bytes) const;

    /** Copy bytes into the backing store (no timing). */
    void write(std::size_t addr, const void *src, std::size_t bytes);

    /** Fill a range with a byte value (no timing). */
    void fill(std::size_t addr, std::uint8_t value, std::size_t bytes);

    std::uint64_t requests() const { return requests_->value(); }
    std::uint64_t bytesTransferred() const { return bytes_->value(); }

  private:
    void startNext();
    void checkRange(std::size_t addr, std::size_t bytes,
                    const char *what) const;
    /** Chunk @p idx, allocated zeroed if absent. */
    std::uint8_t *chunk(std::size_t idx);

    DramParams params_;
    sim::Clock clk_;
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    std::size_t resident_ = 0;
    struct Request
    {
        std::size_t bytes = 0;
        sim::UniqueFunction<void()> done;
    };
    sim::RingDeque<Request> queue_;
    bool busy_ = false;
    sim::Counter *requests_;
    sim::Counter *bytes_;
};

} // namespace m3v::tile

#endif // M3VSIM_TILE_DRAM_H_
