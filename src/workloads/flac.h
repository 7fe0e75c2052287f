/**
 * @file
 * flac-lite: a real lossless audio codec standing in for libFLAC in
 * the voice-assistant scenario (paper section 6.5.1). Like FLAC it
 * encodes fixed-blocksize frames with fixed linear predictors
 * (orders 0-4, chosen per frame by residual magnitude) and Rice-codes
 * the residuals; decoding restores the exact samples.
 *
 * The codec does real work on real samples, so compressed sizes and
 * the simulated compute (cycles scale with encoded bits) track the
 * input's compressibility like the paper's compressor.
 */

#ifndef M3VSIM_WORKLOADS_FLAC_H_
#define M3VSIM_WORKLOADS_FLAC_H_

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace m3v::workloads {

using Samples = std::vector<std::int16_t>;

/** Encoded frame. */
struct FlacFrame
{
    std::uint16_t blockSize = 0;
    std::uint8_t order = 0;       ///< chosen predictor order
    std::uint8_t riceK = 0;       ///< Rice parameter
    std::vector<std::uint8_t> bits;
};

/** Encode one frame of samples (any length up to 65535). */
FlacFrame flacEncodeFrame(const std::int16_t *samples,
                          std::size_t n);

/** Decode a frame back to samples (exact reconstruction). */
Samples flacDecodeFrame(const FlacFrame &frame);

/** Encode a whole buffer in fixed-size blocks. */
std::vector<FlacFrame> flacEncode(const Samples &samples,
                                  std::size_t block_size = 4096);

/** Decode a sequence of frames. */
Samples flacDecode(const std::vector<FlacFrame> &frames);

/** Total encoded payload bytes (for transmission). */
std::size_t flacBytes(const std::vector<FlacFrame> &frames);

/**
 * Modelled encode cost in cycles for a frame: predictor search plus
 * per-bit entropy coding (used by the compressor activity).
 */
sim::Cycles flacEncodeCost(const FlacFrame &frame);

//
// Synthetic audio for the voice assistant.
//

/** Sample rate of the synthetic audio. */
constexpr unsigned kSampleRate = 16000;

/** Base pitch of the synthetic voice band. */
constexpr double kBaseHz = 220.0;

/** Audio generator parameters. */
struct AudioParams
{
    /** Background noise amplitude (0..1). */
    double noise = 0.02;
    std::uint64_t seed = 7;
};

/**
 * Generate @p n samples of voice-like audio (harmonics + noise).
 * If @p with_trigger, a distinctive high-energy chirp is embedded in
 * the middle third of the buffer.
 */
Samples generateAudio(std::size_t n, const AudioParams &params,
                      bool with_trigger);

/**
 * The trigger-word scanner: sliding-window energy + chirp-band
 * detection over @p samples at kSampleRate. Returns true if the
 * trigger is present.
 */
bool scanForTrigger(const Samples &samples);

/** Modelled scan cost in cycles (linear in the input). */
sim::Cycles scanCost(std::size_t samples);

} // namespace m3v::workloads

#endif // M3VSIM_WORKLOADS_FLAC_H_
