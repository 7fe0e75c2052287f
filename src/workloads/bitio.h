/**
 * @file
 * Bit-level I/O for the flac-lite codec.
 */

#ifndef M3VSIM_WORKLOADS_BITIO_H_
#define M3VSIM_WORKLOADS_BITIO_H_

#include <cstdint>
#include <vector>

namespace m3v::workloads {

/** MSB-first bit writer. */
class BitWriter
{
  public:
    /** Append the low @p bits of @p value. */
    void put(std::uint32_t value, unsigned bits);

    /** Append a unary-coded quotient (q zeros, then a one). */
    void putUnary(std::uint32_t q);

    /** Flush to a byte boundary and take the buffer. */
    std::vector<std::uint8_t> finish();

  private:
    std::vector<std::uint8_t> buf_;
    std::uint64_t acc_ = 0;
    unsigned accBits_ = 0;

    void drain();
};

/** MSB-first bit reader. */
class BitReader
{
  public:
    explicit BitReader(const std::vector<std::uint8_t> &data)
        : data_(data)
    {
    }

    /** Read @p bits (up to 32). */
    std::uint32_t get(unsigned bits);

    /** Read a unary-coded value. */
    std::uint32_t getUnary();

    bool exhausted() const;

  private:
    const std::vector<std::uint8_t> &data_;
    std::size_t pos_ = 0; // bit position
};

} // namespace m3v::workloads

#endif // M3VSIM_WORKLOADS_BITIO_H_
