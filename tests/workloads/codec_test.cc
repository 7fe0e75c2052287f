/**
 * @file
 * Tests for flac-lite (lossless round trips, compression on voice
 * audio), the audio generator and trigger scanner, the Zipfian
 * generator and the YCSB workload generator.
 */

#include <gtest/gtest.h>

#include <map>

#include "workloads/flac.h"
#include "workloads/ycsb.h"

namespace m3v::workloads {
namespace {

TEST(BitIo, RoundTrip)
{
    // (Exercised through the codec below; direct checks here.)
    Samples s = {0, 1, -1, 1000, -1000, 32767, -32768, 5, 5, 5};
    FlacFrame f = flacEncodeFrame(s.data(), s.size());
    Samples back = flacDecodeFrame(f);
    EXPECT_EQ(back, s);
}

TEST(Flac, LosslessOnVoiceAudio)
{
    AudioParams params;
    Samples audio = generateAudio(16000, params, true);
    auto frames = flacEncode(audio);
    Samples back = flacDecode(frames);
    ASSERT_EQ(back.size(), audio.size());
    EXPECT_EQ(back, audio);
}

TEST(Flac, CompressesTonalAudio)
{
    AudioParams params;
    params.noise = 0.005;
    Samples audio = generateAudio(32000, params, false);
    auto frames = flacEncode(audio);
    std::size_t raw = audio.size() * 2;
    std::size_t enc = flacBytes(frames);
    // Tonal audio compresses well below raw PCM.
    EXPECT_LT(enc, raw * 8 / 10);
    EXPECT_GT(enc, raw / 20);
}

TEST(Flac, NoisyAudioCompressesWorse)
{
    AudioParams quiet;
    quiet.noise = 0.002;
    AudioParams loud;
    loud.noise = 0.4;
    auto enc_quiet = flacBytes(flacEncode(
        generateAudio(16000, quiet, false)));
    auto enc_loud = flacBytes(flacEncode(
        generateAudio(16000, loud, false)));
    EXPECT_LT(enc_quiet, enc_loud);
}

class FlacSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FlacSweep, RoundTripAtAnyBlockSize)
{
    AudioParams params;
    params.seed = GetParam();
    Samples audio = generateAudio(5000 + GetParam() * 37, params,
                                  GetParam() % 2 == 0);
    auto frames = flacEncode(audio, 512 + GetParam() * 100);
    EXPECT_EQ(flacDecode(frames), audio);
}

INSTANTIATE_TEST_SUITE_P(Blocks, FlacSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Audio, TriggerIsDetected)
{
    AudioParams params;
    Samples with = generateAudio(32000, params, true);
    Samples without = generateAudio(32000, params, false);
    EXPECT_TRUE(scanForTrigger(with));
    EXPECT_FALSE(scanForTrigger(without));
}

TEST(Zipf, SkewsTowardsLowRanks)
{
    sim::Rng rng(1);
    Zipfian z(100);
    std::map<std::uint64_t, unsigned> counts;
    for (int i = 0; i < 20000; i++)
        counts[z.next(rng)]++;
    // Rank 0 much more popular than rank 50.
    EXPECT_GT(counts[0], 20u * (counts[50] + 1));
    // All draws in range.
    for (auto &[rank, cnt] : counts)
        EXPECT_LT(rank, 100u);
}

TEST(Ycsb, MixProportionsRoughlyHold)
{
    YcsbConfig cfg;
    cfg.operations = 4000;
    auto w = ycsbGenerate(cfg, YcsbMix::mixed());
    EXPECT_EQ(w.load.size(), cfg.records);
    unsigned reads = 0, inserts = 0, updates = 0, scans = 0;
    for (const auto &op : w.run) {
        switch (op.kind) {
          case YcsbOp::Kind::Read: reads++; break;
          case YcsbOp::Kind::Insert: inserts++; break;
          case YcsbOp::Kind::Update: updates++; break;
          case YcsbOp::Kind::Scan: scans++; break;
        }
    }
    auto near = [&](unsigned n, unsigned pct) {
        double frac = static_cast<double>(n) / cfg.operations;
        EXPECT_NEAR(frac, pct / 100.0, 0.04);
    };
    near(reads, 50);
    near(inserts, 10);
    near(updates, 30);
    near(scans, 10);
}

TEST(Ycsb, DeterministicForSameSeed)
{
    YcsbConfig cfg;
    auto a = ycsbGenerate(cfg, YcsbMix::readHeavy());
    auto b = ycsbGenerate(cfg, YcsbMix::readHeavy());
    ASSERT_EQ(a.run.size(), b.run.size());
    for (std::size_t i = 0; i < a.run.size(); i++) {
        EXPECT_EQ(a.run[i].kind, b.run[i].kind);
        EXPECT_EQ(a.run[i].key, b.run[i].key);
    }
}

TEST(Ycsb, ScanHeavyHasScansAndNoUpdates)
{
    YcsbConfig cfg;
    cfg.operations = 1000;
    auto w = ycsbGenerate(cfg, YcsbMix::scanHeavy());
    unsigned scans = 0, updates = 0;
    for (const auto &op : w.run) {
        scans += op.kind == YcsbOp::Kind::Scan;
        updates += op.kind == YcsbOp::Kind::Update;
    }
    EXPECT_EQ(updates, 0u);
    EXPECT_GT(scans, 700u);
}

} // namespace
} // namespace m3v::workloads
