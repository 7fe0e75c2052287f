/**
 * @file
 * Ownership and steady-state tests for the DTU message path, where a
 * payload has one owner at a time (DESIGN.md section 4g):
 *
 *  - after warm-up, a send/fetch/ack loop allocates only the payload
 *    buffer the sender hands in;
 *  - every stored message rings the notification hook inline, even
 *    several in one tick for one (ep, act), and schedules no event;
 *  - each thread recycles wire headers through its own bounded
 *    freelist, including headers another thread allocated.
 *
 * This binary counts heap allocations through tests/alloc_count.h.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "dtu/dtu.h"
#include "dtu/wire.h"

namespace m3v::dtu {
namespace {

constexpr noc::TileId kTileA = 0;
constexpr noc::TileId kTileB = 1;
constexpr std::uint64_t kFreq = 100'000'000;
constexpr EpId kSep = 4;
constexpr EpId kRep = 4;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/**
 * Two plain DTUs over the NoC with a pump that sends messages back to
 * back, each in a fresh payload buffer — the steady-state fixture.
 */
class MsgPathTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kPayloadBytes = 64;

    void
    build()
    {
        noc = std::make_unique<noc::Noc>(eq, noc::NocParams{});
        dtuA = std::make_unique<Dtu>(eq, "dtuA", *noc, kTileA, kFreq);
        dtuB = std::make_unique<Dtu>(eq, "dtuB", *noc, kTileB, kFreq);
        noc->finalize();
        dtuB->configEp(kRep, Endpoint::makeRecv(0, 256, 8));
        dtuA->configEp(kSep,
                       Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));
        dtuB->setMsgNotify([this](EpId ep, ActId) {
            int slot;
            while ((slot = dtuB->fetch(0, ep)) >= 0) {
                const Message &m = dtuB->slotMsg(ep, slot);
                if (m.payload == templ)
                    intact++;
                received++;
                dtuB->ack(0, ep, slot);
            }
        });
        templ.resize(kPayloadBytes);
        for (std::size_t i = 0; i < templ.size(); i++)
            templ[i] = static_cast<std::uint8_t>(i + 1);
    }

    /** Send `remaining` messages one after another, each in a fresh
     *  copy of the template (one allocation); every closure captures
     *  only `this`, so the pump itself allocates nothing more. */
    void
    pump()
    {
        if (remaining == 0)
            return;
        dtuA->cmdSend(0, kSep, 0x1000, templ, kInvalidEp,
                      [this](Error e) {
                          ASSERT_EQ(e, Error::None)
                              << "send failed: " << errorName(e);
                          remaining--;
                          pump();
                      });
    }

    /** Heap allocations made while sending @p n messages. */
    std::uint64_t
    runBatch(std::uint64_t n)
    {
        std::uint64_t a0 = test::allocCount.load();
        remaining = n;
        pump();
        eq.run();
        std::uint64_t a1 = test::allocCount.load();
        EXPECT_EQ(remaining, 0u);
        return a1 - a0;
    }

    sim::EventQueue eq;
    std::unique_ptr<noc::Noc> noc;
    std::unique_ptr<Dtu> dtuA;
    std::unique_ptr<Dtu> dtuB;
    std::vector<std::uint8_t> templ;
    std::uint64_t remaining = 0;
    std::uint64_t received = 0;
    std::uint64_t intact = 0;
};

/**
 * After warm-up, the DTUs and the NoC add no heap allocation to a
 * send/fetch/ack round trip: the one allocation per message is the
 * payload buffer the sender hands in, which moves from the command
 * to the wire packet to the receive slot without a copy. Every other
 * structure on the path — command state, wire headers, NoC queues,
 * recv slots, event records — is pooled or in recycled capacity.
 */
TEST_F(MsgPathTest, SteadyStateIsAllocAndCopyFree)
{
    build();
    // Warm every pool, ring and freelist, and grow the event
    // queue's heap vectors to their steady-state depth.
    runBatch(8192);

    EXPECT_EQ(runBatch(1024), 1024u)
        << "heap allocations beyond the payload buffer";
    EXPECT_EQ(received, 8192u + 1024u);
    EXPECT_EQ(intact, received);
}

/**
 * Notification is unbatched: each same-tick store for one (ep, act)
 * rings the hook inline, and none leaves an event behind.
 */
TEST(MsgPathDoorbellTest, SameTickStoresEachRingInline)
{
    sim::EventQueue eq;
    noc::NocParams params;
    noc::Noc noc(eq, params);
    Dtu dtu(eq, "dtu", noc, kTileA, kFreq);
    noc.finalize();
    dtu.configEp(kRep, Endpoint::makeRecv(0, 64, 8));

    std::vector<EpId> rung;
    dtu.setMsgNotify([&](EpId ep, ActId act) {
        EXPECT_EQ(act, 0u);
        rung.push_back(ep);
    });

    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("a")));
    EXPECT_EQ(rung.size(), 1u);
    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("b")));
    EXPECT_EQ(rung.size(), 2u);
    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("c")));
    EXPECT_EQ(rung, (std::vector<EpId>{kRep, kRep, kRep}));
    EXPECT_EQ(eq.pending(), 0u);
}

/**
 * A header freed on another thread than the one that allocated it
 * joins the freeing thread's freelist: that thread's next header
 * comes from the list, not from the heap.
 */
TEST(WireFreeListTest, HeaderFreedOnAnotherThreadIsReusedThere)
{
    WireData *hdr = nullptr;
    std::thread([&] { hdr = new WireData; }).join();
    std::uint64_t heap = ~0ull;
    std::thread([&] {
        delete hdr;
        std::uint64_t a0 = test::allocCount.load();
        WireData *again = new WireData;
        heap = test::allocCount.load() - a0;
        delete again;
    }).join();
    EXPECT_EQ(heap, 0u) << "a header freed here was not reused here";
}

/**
 * A thread keeps at most WireData::kFreeHeadersPerThread free
 * headers: of the bound plus k headers it frees, k go back to the
 * heap, so allocating as many again makes exactly k heap calls.
 */
TEST(WireFreeListTest, FreeListKeepsAtMostTheBound)
{
    constexpr std::uint64_t kExtra = 16;
    std::uint64_t heap = 0;
    std::thread([&] {
        std::vector<WireData *> hdrs(WireData::kFreeHeadersPerThread +
                                     kExtra);
        for (auto &h : hdrs)
            h = new WireData;
        for (WireData *h : hdrs)
            delete h;
        std::uint64_t a0 = test::allocCount.load();
        for (auto &h : hdrs)
            h = new WireData;
        heap = test::allocCount.load() - a0;
        for (WireData *h : hdrs)
            delete h;
    }).join();
    EXPECT_EQ(heap, kExtra);
}

} // namespace
} // namespace m3v::dtu
