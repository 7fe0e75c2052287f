#include "tile/dram.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/log.h"

namespace m3v::tile {

namespace {

/**
 * Split [addr, addr + bytes) at chunk boundaries and call
 * @p fn(chunk index, offset in chunk, length, offset in range) for
 * each piece, in address order.
 */
template <typename Fn>
void
forEachPiece(std::size_t addr, std::size_t bytes, Fn fn)
{
    for (std::size_t pos = 0; pos < bytes;) {
        std::size_t off = (addr + pos) % Dram::kChunkBytes;
        std::size_t n = std::min(bytes - pos, Dram::kChunkBytes - off);
        fn((addr + pos) / Dram::kChunkBytes, off, n, pos);
        pos += n;
    }
}

} // namespace

Dram::Dram(sim::EventQueue &eq, std::string name, DramParams params)
    : SimObject(eq, std::move(name)), params_(params),
      clk_(params.freqHz),
      chunks_((params.capacityBytes + kChunkBytes - 1) / kChunkBytes)
{
    requests_ = statCounter("requests");
    bytes_ = statCounter("bytes");
}

void
Dram::checkRange(std::size_t addr, std::size_t bytes,
                 const char *what) const
{
    std::size_t cap = params_.capacityBytes;
    if (bytes > cap || addr > cap - bytes)
        sim::panic("%s: %s beyond capacity (0x%zx + %zu)",
                   name().c_str(), what, addr, bytes);
}

std::uint8_t *
Dram::chunk(std::size_t idx)
{
    auto &c = chunks_[idx];
    if (!c) {
        c = std::make_unique<std::uint8_t[]>(kChunkBytes);
        resident_++;
    }
    return c.get();
}

void
Dram::access(std::size_t addr, std::size_t bytes,
             sim::UniqueFunction<void()> done)
{
    checkRange(addr, bytes, "access");
    requests_->inc();
    bytes_->inc(bytes);
    queue_.push_back(Request{bytes, std::move(done)});
    if (!busy_)
        startNext();
}

void
Dram::startNext()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    Request &req = queue_.front();
    sim::Cycles xfer =
        (req.bytes + params_.bytesPerCycle - 1) / params_.bytesPerCycle;
    sim::Tick dur = clk_.cyclesToTicks(params_.accessCycles + xfer);
    eq_.schedule(dur, [this]() {
        auto done = std::move(queue_.front().done);
        queue_.pop_front();
        done();
        startNext();
    });
}

void
Dram::read(std::size_t addr, void *dst, std::size_t bytes) const
{
    checkRange(addr, bytes, "read");
    auto *out = static_cast<std::uint8_t *>(dst);
    forEachPiece(addr, bytes, [&](std::size_t idx, std::size_t off,
                                  std::size_t n, std::size_t pos) {
        if (const auto &c = chunks_[idx])
            std::memcpy(out + pos, c.get() + off, n);
        else
            std::memset(out + pos, 0, n);
    });
}

void
Dram::write(std::size_t addr, const void *src, std::size_t bytes)
{
    checkRange(addr, bytes, "write");
    auto *in = static_cast<const std::uint8_t *>(src);
    forEachPiece(addr, bytes, [&](std::size_t idx, std::size_t off,
                                  std::size_t n, std::size_t pos) {
        std::memcpy(chunk(idx) + off, in + pos, n);
    });
}

void
Dram::fill(std::size_t addr, std::uint8_t value, std::size_t bytes)
{
    checkRange(addr, bytes, "fill");
    forEachPiece(addr, bytes, [&](std::size_t idx, std::size_t off,
                                  std::size_t n, std::size_t) {
        if (value != 0 || chunks_[idx])
            std::memset(chunk(idx) + off, value, n);
    });
}

} // namespace m3v::tile
