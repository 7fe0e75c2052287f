/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in the simulator flows from seeded Xoroshiro128++
 * instances so runs are reproducible bit-for-bit across platforms
 * (std::mt19937 distributions are not portable across standard
 * libraries, hence the hand-rolled distributions here).
 */

#ifndef M3VSIM_SIM_RNG_H_
#define M3VSIM_SIM_RNG_H_

#include <cstdint>

namespace m3v::sim {

/**
 * Xoroshiro128++ generator (Blackman & Vigna). Small, fast, and good
 * enough for workload generation; not for cryptography.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Split off an independent stream. The child is seeded from this
     * generator's output, so sub-components get decorrelated streams
     * while the whole run still derives from one root seed.
     */
    Rng split();

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_RNG_H_
