#include "workloads/flac.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"
#include "workloads/bitio.h"

namespace m3v::workloads {

namespace {

/** Fixed-predictor residual at index i for a given order. */
std::int64_t
residualAt(const std::int16_t *s, std::size_t i, unsigned order)
{
    std::int64_t x0 = s[i];
    switch (order) {
      case 0:
        return x0;
      case 1:
        return x0 - s[i - 1];
      case 2:
        return x0 - 2 * s[i - 1] + s[i - 2];
      case 3:
        return x0 - 3 * s[i - 1] + 3 * s[i - 2] - s[i - 3];
      case 4:
        return x0 - 4 * s[i - 1] + 6 * s[i - 2] - 4 * s[i - 3] +
               s[i - 4];
    }
    sim::panic("flac: bad predictor order %u", order);
}

/** Zig-zag mapping to unsigned. */
std::uint64_t
zigzag(std::int64_t v)
{
    return static_cast<std::uint64_t>((v << 1) ^ (v >> 63));
}

std::int64_t
unzigzag(std::uint64_t u)
{
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
}

/** Optimal-ish Rice parameter for a mean residual magnitude. */
std::uint8_t
riceParam(std::uint64_t sum, std::size_t n)
{
    if (n == 0)
        return 0;
    std::uint64_t mean = sum / n;
    std::uint8_t k = 0;
    while ((1ULL << (k + 1)) < mean + 1 && k < 30)
        k++;
    return k;
}

} // namespace

FlacFrame
flacEncodeFrame(const std::int16_t *samples, std::size_t n)
{
    if (n == 0 || n > 65535)
        sim::panic("flac: bad frame size %zu", n);

    // Pick the fixed predictor with the smallest residual magnitude.
    unsigned best_order = 0;
    std::uint64_t best_sum = ~0ULL;
    unsigned max_order = static_cast<unsigned>(std::min<std::size_t>(
        4, n > 0 ? n - 1 : 0));
    for (unsigned order = 0; order <= max_order; order++) {
        std::uint64_t sum = 0;
        for (std::size_t i = order; i < n; i++)
            sum += zigzag(residualAt(samples, i, order));
        if (sum < best_sum) {
            best_sum = sum;
            best_order = order;
        }
    }

    FlacFrame frame;
    frame.blockSize = static_cast<std::uint16_t>(n);
    frame.order = static_cast<std::uint8_t>(best_order);
    frame.riceK = riceParam(best_sum, n - best_order);

    BitWriter bw;
    // Warm-up samples verbatim.
    for (std::size_t i = 0; i < best_order; i++)
        bw.put(static_cast<std::uint16_t>(samples[i]), 16);
    // Rice-coded residuals.
    unsigned k = frame.riceK;
    for (std::size_t i = best_order; i < n; i++) {
        std::uint64_t u = zigzag(residualAt(samples, i, best_order));
        auto q = static_cast<std::uint32_t>(u >> k);
        bw.putUnary(q);
        if (k > 0)
            bw.put(static_cast<std::uint32_t>(u & ((1ULL << k) - 1)),
                   k);
    }
    frame.bits = bw.finish();
    return frame;
}

Samples
flacDecodeFrame(const FlacFrame &frame)
{
    Samples out(frame.blockSize);
    BitReader br(frame.bits);
    unsigned order = frame.order;
    for (std::size_t i = 0; i < order; i++)
        out[i] = static_cast<std::int16_t>(br.get(16));
    unsigned k = frame.riceK;
    for (std::size_t i = order; i < frame.blockSize; i++) {
        std::uint64_t q = br.getUnary();
        std::uint64_t u = (q << k) | (k > 0 ? br.get(k) : 0);
        std::int64_t res = unzigzag(u);
        std::int64_t x = res;
        switch (order) {
          case 0:
            break;
          case 1:
            x += out[i - 1];
            break;
          case 2:
            x += 2 * out[i - 1] - out[i - 2];
            break;
          case 3:
            x += 3 * out[i - 1] - 3 * out[i - 2] + out[i - 3];
            break;
          case 4:
            x += 4 * out[i - 1] - 6 * out[i - 2] + 4 * out[i - 3] -
                 out[i - 4];
            break;
        }
        out[i] = static_cast<std::int16_t>(x);
    }
    return out;
}

std::vector<FlacFrame>
flacEncode(const Samples &samples, std::size_t block_size)
{
    std::vector<FlacFrame> frames;
    for (std::size_t off = 0; off < samples.size();
         off += block_size) {
        std::size_t n =
            std::min(block_size, samples.size() - off);
        frames.push_back(flacEncodeFrame(samples.data() + off, n));
    }
    return frames;
}

Samples
flacDecode(const std::vector<FlacFrame> &frames)
{
    Samples out;
    for (const auto &f : frames) {
        Samples block = flacDecodeFrame(f);
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

std::size_t
flacBytes(const std::vector<FlacFrame> &frames)
{
    std::size_t total = 0;
    for (const auto &f : frames)
        total += f.bits.size() + 6; // header: size, order, k
    return total;
}

sim::Cycles
flacEncodeCost(const FlacFrame &frame)
{
    // Predictor search (five residual passes), Rice parameter
    // estimation and bit-serial entropy coding on a small in-order
    // pipeline: roughly a hundred cycles per sample plus a few
    // cycles per output byte.
    return static_cast<sim::Cycles>(frame.blockSize) * 100 +
           static_cast<sim::Cycles>(frame.bits.size()) * 6;
}

Samples
generateAudio(std::size_t n, const AudioParams &params,
              bool with_trigger)
{
    sim::Rng rng(params.seed);
    Samples out(n);
    double sr = kSampleRate;
    std::size_t trig_start = n / 3;
    std::size_t trig_end = with_trigger ? 2 * n / 3 : trig_start;

    for (std::size_t i = 0; i < n; i++) {
        double t = static_cast<double>(i) / sr;
        // Voice-ish: fundamental plus two harmonics with vibrato.
        double v = 0.30 * std::sin(2 * M_PI * kBaseHz * t) +
                   0.18 * std::sin(2 * M_PI * 2 * kBaseHz * t) +
                   0.08 * std::sin(2 * M_PI * 3 * kBaseHz * t);
        v *= 0.8 + 0.2 * std::sin(2 * M_PI * 5.0 * t);
        v += params.noise * (rng.nextDouble() * 2 - 1);
        if (i >= trig_start && i < trig_end) {
            // The trigger chirp: strong rising tone at 2-4 kHz.
            double u = static_cast<double>(i - trig_start) /
                       static_cast<double>(n / 3);
            double f = 2000.0 + 2000.0 * u;
            v += 0.55 * std::sin(2 * M_PI * f * t);
        }
        out[i] = static_cast<std::int16_t>(
            std::clamp(v, -0.99, 0.99) * 32767);
    }
    return out;
}

bool
scanForTrigger(const Samples &samples)
{
    // Sliding 32 ms windows: detect sustained high-band energy by
    // first-differencing (a crude high-pass) and comparing to the
    // total energy.
    constexpr std::size_t win = kSampleRate / 32;
    if (samples.size() < 2 * win)
        return false;
    unsigned hot = 0;
    for (std::size_t off = 0; off + win < samples.size();
         off += win / 2) {
        double hi = 0, total = 0;
        for (std::size_t i = off + 1; i < off + win; i++) {
            double d = static_cast<double>(samples[i]) -
                       static_cast<double>(samples[i - 1]);
            hi += d * d;
            total += static_cast<double>(samples[i]) *
                     static_cast<double>(samples[i]);
        }
        if (total > 1e3 && hi > 0.35 * total) {
            if (++hot >= 4)
                return true;
        } else {
            hot = 0;
        }
    }
    return false;
}

sim::Cycles
scanCost(std::size_t samples)
{
    // ~6 cycles per sample: difference, two MACs, compare.
    return static_cast<sim::Cycles>(samples) * 6;
}

} // namespace m3v::workloads
