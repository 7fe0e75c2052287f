#include "sim/rng.h"

namespace m3v::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    s0_ = splitmix64(sm);
    s1_ = splitmix64(sm);
    // Avoid the all-zero state, which is a fixed point.
    if (s0_ == 0 && s1_ == 0)
        s1_ = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t t0 = s0_;
    std::uint64_t t1 = s1_;
    const std::uint64_t result = rotl(t0 + t1, 17) + t0;

    t1 ^= t0;
    s0_ = rotl(t0, 49) ^ t1 ^ (t1 << 21);
    s1_ = rotl(t1, 28);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound <= 1)
        return 0;
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    // 53 high-quality bits into the mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

Rng
Rng::split()
{
    return Rng(next());
}

} // namespace m3v::sim
