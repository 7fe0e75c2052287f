/**
 * @file
 * Unit tests for the cache footprint model and the DRAM timing model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tile/cache_model.h"
#include "tile/dram.h"

namespace m3v::tile {
namespace {

TEST(CacheModel, ColdTouchCostsFullFootprint)
{
    CacheModel c(16 * 1024, 64, 10);
    // 8 KiB footprint = 128 lines -> 1280 cycles.
    EXPECT_EQ(c.touch(1, 8 * 1024), 1280u);
    EXPECT_EQ(c.resident(1), 8u * 1024);
}

TEST(CacheModel, WarmTouchIsFree)
{
    CacheModel c(16 * 1024, 64, 10);
    c.touch(1, 8 * 1024);
    EXPECT_EQ(c.touch(1, 8 * 1024), 0u);
}

TEST(CacheModel, TwoSmallRegionsCoexist)
{
    CacheModel c(16 * 1024, 64, 10);
    c.touch(1, 6 * 1024);
    c.touch(2, 6 * 1024);
    EXPECT_EQ(c.touch(1, 6 * 1024), 0u);
    EXPECT_EQ(c.touch(2, 6 * 1024), 0u);
}

TEST(CacheModel, LargeRegionEvictsLru)
{
    CacheModel c(16 * 1024, 64, 10);
    c.touch(1, 8 * 1024);
    c.touch(2, 12 * 1024); // evicts part of region 1
    EXPECT_LT(c.resident(1), 8u * 1024);
    // Region 1 must now partially refill.
    EXPECT_GT(c.touch(1, 8 * 1024), 0u);
}

TEST(CacheModel, KernelThrashesAppLikeLinuxScan)
{
    // The Figure 10 story: a kernel footprint comparable to L1I wipes
    // the app's working set on every syscall.
    CacheModel l1i(16 * 1024, 64, 10);
    l1i.touch(1, 12 * 1024); // app
    sim::Cycles warm_kernel = 0;
    sim::Cycles app_refill = 0;
    for (int i = 0; i < 10; i++) {
        warm_kernel += l1i.touch(2, 14 * 1024); // syscall path
        app_refill += l1i.touch(1, 12 * 1024);
    }
    // Both thrash each round.
    EXPECT_GT(app_refill, 10u * 100);
    EXPECT_GT(warm_kernel, 10u * 100);

    // Small components (M3v style) do not thrash.
    CacheModel small(16 * 1024, 64, 10);
    small.touch(1, 6 * 1024);
    small.touch(2, 6 * 1024);
    sim::Cycles total = 0;
    for (int i = 0; i < 10; i++) {
        total += small.touch(2, 6 * 1024);
        total += small.touch(1, 6 * 1024);
    }
    EXPECT_EQ(total, 0u);
}

TEST(CacheModel, FootprintLargerThanCacheAlwaysMisses)
{
    CacheModel c(16 * 1024, 64, 10);
    sim::Cycles first = c.touch(1, 32 * 1024);
    sim::Cycles second = c.touch(1, 32 * 1024);
    EXPECT_GT(second, 0u);
    EXPECT_LT(second, first);
    EXPECT_EQ(c.resident(1), 16u * 1024);
}

TEST(CacheModel, FlushDropsEverything)
{
    CacheModel c(16 * 1024, 64, 10);
    c.touch(1, 8 * 1024);
    c.flush();
    EXPECT_EQ(c.resident(1), 0u);
    EXPECT_EQ(c.touch(1, 8 * 1024), 1280u);
}

class DramTest : public ::testing::Test
{
  protected:
    DramTest() : dram(eq, "mem0", DramParams{}) {}

    sim::EventQueue eq;
    Dram dram;
};

TEST_F(DramTest, AccessLatencyAndBandwidth)
{
    sim::Tick done_at = 0;
    dram.access(0, 4096, [&]() { done_at = eq.now(); });
    eq.run();
    // 30 cycles + 4096/16 = 256 cycles = 286 cycles @ 200 MHz (5ns).
    EXPECT_EQ(done_at, 286u * 5000u);
}

TEST_F(DramTest, RequestsAreServedInOrder)
{
    std::vector<int> order;
    dram.access(0, 64, [&]() { order.push_back(1); });
    dram.access(0, 64, [&]() { order.push_back(2); });
    dram.access(0, 64, [&]() { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(dram.requests(), 3u);
    EXPECT_EQ(dram.bytesTransferred(), 192u);
}

TEST_F(DramTest, QueueingDelaysLaterRequests)
{
    sim::Tick t1 = 0, t2 = 0;
    dram.access(0, 4096, [&]() { t1 = eq.now(); });
    dram.access(0, 4096, [&]() { t2 = eq.now(); });
    eq.run();
    EXPECT_EQ(t2 - t1, t1); // second takes as long again
}

TEST_F(DramTest, DataRoundTrips)
{
    const char msg[] = "m3v memory tile";
    dram.write(1000, msg, sizeof(msg));
    char buf[sizeof(msg)] = {};
    dram.read(1000, buf, sizeof(msg));
    EXPECT_STREQ(buf, msg);
    dram.fill(1000, 0, sizeof(msg));
    dram.read(1000, buf, sizeof(msg));
    EXPECT_EQ(buf[0], 0);
}

TEST_F(DramTest, UntouchedRangeReadsZeroWithoutAllocating)
{
    std::vector<std::uint8_t> buf(3 * Dram::kChunkBytes, 0xAA);
    dram.read(Dram::kChunkBytes / 2, buf.data(), buf.size());
    EXPECT_EQ(buf, std::vector<std::uint8_t>(buf.size(), 0));
    EXPECT_EQ(dram.residentBytes(), 0u);
}

TEST_F(DramTest, WriteAcrossChunkBoundaryRoundTrips)
{
    const std::string msg = "straddles two backing chunks";
    std::size_t addr = 5 * Dram::kChunkBytes - 10;
    dram.write(addr, msg.data(), msg.size());
    EXPECT_EQ(dram.residentBytes(), 2 * Dram::kChunkBytes);
    std::string got(msg.size(), '\0');
    dram.read(addr, got.data(), got.size());
    EXPECT_EQ(got, msg);
}

TEST_F(DramTest, ZeroFillAllocatesNothingNonZeroFillReadsBack)
{
    dram.fill(0, 0, 4 * Dram::kChunkBytes);
    EXPECT_EQ(dram.residentBytes(), 0u);

    std::size_t addr = 2 * Dram::kChunkBytes - 100;
    dram.fill(addr, 0x5A, 200);
    EXPECT_EQ(dram.residentBytes(), 2 * Dram::kChunkBytes);
    std::vector<std::uint8_t> buf(202);
    dram.read(addr - 1, buf.data(), buf.size());
    EXPECT_EQ(buf.front(), 0);
    EXPECT_EQ(buf.back(), 0);
    EXPECT_EQ(std::vector<std::uint8_t>(buf.begin() + 1, buf.end() - 1),
              std::vector<std::uint8_t>(200, 0x5A));
}

TEST_F(DramTest, FourGibCapacityTouchesOnlyItsLastChunk)
{
    DramParams p;
    p.capacityBytes = std::size_t{1} << 32;
    Dram big(eq, "big", p);
    EXPECT_EQ(big.capacity(), p.capacityBytes);
    EXPECT_EQ(big.residentBytes(), 0u);

    std::uint8_t v = 0x7E, got = 0;
    big.write(p.capacityBytes - 1, &v, 1);
    big.read(p.capacityBytes - 1, &got, 1);
    EXPECT_EQ(got, v);
    EXPECT_EQ(big.residentBytes(), Dram::kChunkBytes);
}

TEST_F(DramTest, WrappedAddressDies)
{
    // SIZE_MAX - 3 + 8 wraps to 4, which a naive addr + bytes check
    // would accept.
    char buf[8];
    EXPECT_DEATH(dram.read(SIZE_MAX - 3, buf, sizeof(buf)),
                 "read beyond capacity");
}

} // namespace
} // namespace m3v::tile
