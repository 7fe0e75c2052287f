#include "workloads/bitio.h"

#include "sim/log.h"

namespace m3v::workloads {

void
BitWriter::drain()
{
    while (accBits_ >= 8) {
        buf_.push_back(
            static_cast<std::uint8_t>(acc_ >> (accBits_ - 8)));
        accBits_ -= 8;
        acc_ &= (1ULL << accBits_) - 1;
    }
}

void
BitWriter::put(std::uint32_t value, unsigned bits)
{
    if (bits == 0)
        return;
    if (bits > 32)
        sim::panic("BitWriter: too many bits (%u)", bits);
    std::uint64_t mask =
        bits == 32 ? 0xffffffffULL : ((1ULL << bits) - 1);
    acc_ = (acc_ << bits) | (value & mask);
    accBits_ += bits;
    drain();
}

void
BitWriter::putUnary(std::uint32_t q)
{
    while (q >= 32) {
        put(0, 32);
        q -= 32;
    }
    // q zeros followed by a one.
    put(1, q + 1);
}

std::vector<std::uint8_t>
BitWriter::finish()
{
    if (accBits_ > 0) {
        buf_.push_back(static_cast<std::uint8_t>(
            acc_ << (8 - accBits_)));
        acc_ = 0;
        accBits_ = 0;
    }
    return std::move(buf_);
}

std::uint32_t
BitReader::get(unsigned bits)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < bits; i++) {
        std::size_t byte = pos_ >> 3;
        unsigned bit = 7 - (pos_ & 7);
        if (byte >= data_.size())
            sim::panic("BitReader: read past end");
        v = (v << 1) |
            ((data_[byte] >> bit) & 1u);
        pos_++;
    }
    return v;
}

std::uint32_t
BitReader::getUnary()
{
    std::uint32_t q = 0;
    while (get(1) == 0)
        q++;
    return q;
}

bool
BitReader::exhausted() const
{
    return pos_ >= data_.size() * 8;
}

} // namespace m3v::workloads
