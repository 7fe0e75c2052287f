/**
 * @file
 * Recovery from the reliable wire protocol's failures (DESIGN.md
 * section 4b).
 *
 * 1. DTU retransmission exhaustion under a total drop burst surfaces
 *    to file_client / net callers as a *typed* Error::Timeout: the
 *    file client retries it (idempotent ops) up to its attempt cap
 *    and then reports it; the UDP client surfaces it without
 *    re-sending (datagram semantics). Once the burst lifts, the same
 *    sessions recover without reconstruction.
 *
 * 2. Reply correlation: a send that times out after its request was
 *    delivered (every ack lost) leaves a late reply behind. When it
 *    arrives during the next call on the same reply EP, the per-call
 *    nonce makes that call's fetch loop ack and discard it as a stale
 *    drop instead of taking it for its own reply.
 *
 * 3. Reaping an activity that has in-flight retransmission state:
 *    the victim is crashed mid-retx, the controller must reclaim its
 *    credits, and the DTU invariants (credit conservation, engine
 *    quiescence) must hold at the end of the run — nothing the dead
 *    activity had in flight may leak.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dtu/dtu.h"
#include "os/system.h"
#include "services/file_client.h"
#include "services/m3fs.h"
#include "services/net.h"
#include "sim/fault.h"
#include "sim/invariants.h"

namespace m3v {
namespace {

using dtu::Error;
using os::Bytes;

/** Exact sleep to an absolute tick (one scheduled wake). */
sim::Task
sleepUntil(sim::EventQueue &eq, os::MuxEnv &env, sim::Tick at)
{
    tile::Thread &t = env.thread();
    t.clearWake();
    eq.scheduleAt(at, [&t]() { t.wake(); });
    co_await t.externalWait();
}

TEST(RetxRecoveryTest, RetxExhaustionSurfacesTypedTimeout)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(0xBEEF);
    // Total loss of everything the client tile injects during the
    // burst: every send attempt retransmits to exhaustion.
    const sim::Tick kBurstStart = 1 * sim::kTicksPerMs;
    const sim::Tick kBurstEnd = 20 * sim::kTicksPerMs;
    plan.addDrop("noc.tile1.inj", 1.0, kBurstStart, kBurstEnd);

    os::SystemParams params;
    params.userTiles = 3;
    params.noc.faults = &plan;
    // A full default retx exhaustion (8 attempts, exponential
    // backoff from 2000 cycles) spans several milliseconds; shrink
    // it so the file client's retries of the typed timeout also
    // exhaust well inside the drop window.
    params.dtuTiming.retxTimeoutCycles = 500;
    params.dtuTiming.retxMaxAttempts = 4;
    os::System sys(eq, params);

    services::M3fs fs(sys, 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Sink);
    nic.connect(&host);
    host.connect(&nic);
    services::NetService net(sys, 2, nic);

    auto *app = sys.createApp(1, "client");
    auto fsc = fs.addClient(app);
    auto netc = net.addClient(app);

    Error preErr = Error::Aborted;
    Error burstFsErr = Error::None;
    Error burstNetErr = Error::None;
    Error postErr = Error::Aborted;
    std::uint64_t fsRetries = 0, udpRetransmits = 0, udpTimeouts = 0;

    sys.start(app, [&, fsc, netc](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, fsc);
        services::UdpSocket sock(env, netc);
        services::FsResp resp;
        Error err = Error::None;

        co_await sock.create(4242, &err);
        co_await f.stat("/", &resp);
        preErr = resp.err;

        // Inside the drop burst: the fs RPC is idempotent, so the
        // client retries the typed timeout until its attempts run
        // out, then surfaces it.
        co_await sleepUntil(eq, env, kBurstStart + 50 * sim::kTicksPerUs);
        co_await f.stat("/", &resp);
        burstFsErr = resp.err;
        fsRetries = f.rpcRetries();

        // A UDP send is not idempotent at the datagram level: the
        // typed timeout surfaces without a single re-send, so the
        // client tile's DTU gives up on exactly one message.
        const std::uint64_t retx0 = sys.vdtu(1).retransmits();
        const std::uint64_t to0 = sys.vdtu(1).timeouts();
        co_await sock.sendTo(0x0a000001, 9, Bytes(32, 0x42),
                             &burstNetErr);
        udpRetransmits = sys.vdtu(1).retransmits() - retx0;
        udpTimeouts = sys.vdtu(1).timeouts() - to0;

        // After the burst lifts, the same session recovers.
        co_await sleepUntil(eq, env, kBurstEnd + sim::kTicksPerMs);
        co_await f.stat("/", &resp);
        postErr = resp.err;
    });

    fs.startService();
    net.startService();
    eq.run();

    EXPECT_EQ(preErr, Error::None);
    EXPECT_EQ(burstFsErr, Error::Timeout);
    // Four attempts is the cap: three retries.
    EXPECT_EQ(fsRetries, 3u);
    EXPECT_EQ(burstNetErr, Error::Timeout);
    // One send, retransmitted until it gave up, and never re-sent.
    EXPECT_EQ(udpTimeouts, 1u);
    EXPECT_EQ(udpRetransmits, params.dtuTiming.retxMaxAttempts - 1);
    EXPECT_EQ(postErr, Error::None);

    // The exhaustion really came from the wire protocol.
    EXPECT_GT(sys.vdtu(1).retransmits(), 0u);
    EXPECT_GT(sys.vdtu(1).timeouts(), 0u);
    EXPECT_GT(plan.drops().value(), 0u);
}

TEST(RetxRecoveryTest, LateReplyIsNotMisattributedToNextCall)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(0x1A7E);

    os::SystemParams params;
    params.userTiles = 3;
    params.noc.faults = &plan;
    // Retransmission timeouts of 500, 1000, 2000 and 4000 cycles: the
    // first send's last retransmission leaves 3500 cycles after the
    // send, and the client gives up 7500 cycles after it.
    params.dtuTiming.retxTimeoutCycles = 500;
    params.dtuTiming.retxMaxAttempts = 4;
    os::System sys(eq, params);

    const sim::Tick kCycle =
        sim::kTicksPerSec / params.userModel.freqHz;
    // The first call sends at kCallAt. Everything the server tile
    // injects until 5500 cycles later is lost: the acks of the first
    // request and of every retransmission of it, so that send times
    // out although the server holds the request. The window closes
    // before the first send gives up, so the second request's ack
    // gets through. The server answers the first request only at
    // kReplyAt, well after the window, and that reply lands in the
    // middle of the second call's fetch loop.
    const sim::Tick kCallAt = 100 * sim::kTicksPerUs;
    const sim::Tick kDropEnd = kCallAt + 5500 * kCycle;
    const sim::Tick kReplyAt = 2 * sim::kTicksPerMs;
    plan.addDrop("noc.tile2.inj", 1.0, kCallAt, kDropEnd);

    auto *server = sys.createApp(2, "server");
    auto ring = sys.makeRgate(server, 128, 4);
    auto *client = sys.createApp(1, "client");
    auto reply = sys.makeRgate(client, 128, 4);
    // Two credits, so the second call has one whatever became of the
    // first call's credit.
    auto sgate = sys.makeSgate(client, server, ring.ep, 7, 2);

    sys.start(server, [&](os::MuxEnv &env) -> sim::Task {
        Error rerr = Error::Aborted;
        int slot = -1;
        // First request: sit on it until long after the client gave
        // up and sent the second one, then answer it.
        co_await env.recvOn(ring.ep, &slot);
        co_await sleepUntil(eq, env, kReplyAt);
        co_await env.reply(ring.ep, slot, Bytes(1, 0xAA), &rerr);
        // Second request: answer immediately.
        co_await env.recvOn(ring.ep, &slot);
        co_await env.reply(ring.ep, slot, Bytes(1, 0xBB), &rerr);
    });

    Error firstErr = Error::None;
    Error secondErr = Error::Aborted;
    Bytes secondResp;
    std::uint64_t staleDrops = 0;
    sys.start(client, [&, sgate](os::MuxEnv &env) -> sim::Task {
        co_await sleepUntil(eq, env, kCallAt);
        Bytes resp;
        Error err = Error::Aborted;
        co_await env.call(sgate.ep, reply.ep, Bytes(1, 0x01), &resp,
                          &err);
        firstErr = err;
        co_await env.call(sgate.ep, reply.ep, Bytes(1, 0x02),
                          &secondResp, &secondErr);
        staleDrops = env.staleRepliesDropped();
    });

    eq.run();

    EXPECT_EQ(firstErr, Error::Timeout);
    // The second call must see the *second* reply, not the first
    // call's late one — which must be counted as a stale drop.
    EXPECT_EQ(secondErr, Error::None);
    ASSERT_EQ(secondResp.size(), 1u);
    EXPECT_EQ(secondResp[0], 0xBB);
    EXPECT_EQ(staleDrops, 1u);
}

TEST(RetxRecoveryTest, ReapWithInflightRetxReclaimsCredits)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(0xD00D);
    // Short total-loss window on the victim's injection port: long
    // enough that the victim is mid-retransmission when crashed,
    // short enough that the reap sidecalls (after the window) flow.
    const sim::Tick kDropStart = 1 * sim::kTicksPerMs;
    const sim::Tick kDropEnd = kDropStart + 400 * sim::kTicksPerUs;
    const sim::Tick kCrashAt = kDropStart + 200 * sim::kTicksPerUs;
    plan.addDrop("noc.tile1.inj", 1.0, kDropStart, kDropEnd);

    os::SystemParams params;
    params.userTiles = 3;
    params.noc.faults = &plan;
    os::System sys(eq, params);

    services::M3fs fs(sys, 0);

    // The victim: issues an RPC into the drop window so its DTU holds
    // live retransmission state, then is crashed mid-retx. It also
    // owns a receive ring holding an unread message whose sender paid
    // a credit — the reap must return that credit.
    auto *victim = sys.createApp(1, "victim");
    auto vc = fs.addClient(victim);
    auto vring = sys.makeRgate(victim, 128, 4);
    bool victimReturned = false;
    sys.start(victim, [&, vc](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, vc);
        services::FsResp resp;
        co_await sleepUntil(eq, env,
                            kDropStart + 20 * sim::kTicksPerUs);
        co_await f.stat("/", &resp);
        victimReturned = true; // must never run: killed mid-RPC
    });
    unsigned parkedPreCrash = 0;
    eq.scheduleAt(kCrashAt, [&]() {
        const dtu::Endpoint &rep = sys.vdtu(1).ep(vring.ep);
        if (rep.kind == dtu::EpKind::Receive)
            for (const auto &rs : rep.recv.slots)
                if (rs.occupied &&
                    rs.msg.creditEp != dtu::kInvalidEp)
                    parkedPreCrash++;
        sys.mux(1).crashActivity(victim->act->id());
    });

    // A bystander sharing the fs service: parks a message in the
    // victim's ring pre-crash (its credit must come back via the
    // reap sweep) and must keep completing fs RPCs after the reap.
    auto *bystander = sys.createApp(2, "bystander");
    auto bc = fs.addClient(bystander);
    auto bsg = sys.makeSgate(bystander, victim, vring.ep, 1, 2);
    unsigned bystanderOk = 0;
    Error serr = Error::Aborted;
    sys.start(bystander, [&, bc, bsg](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, bc);
        co_await env.send(bsg.ep, Bytes(16, 0x33), dtu::kInvalidEp,
                          &serr);
        for (int i = 0; i < 5; i++) {
            co_await sleepUntil(eq, env,
                                (i + 1) * 2 * sim::kTicksPerMs);
            services::FsResp resp;
            co_await f.stat("/", &resp);
            if (resp.err == Error::None)
                bystanderOk++;
        }
    });

    sim::Invariants inv;
    std::vector<const dtu::Dtu *> dtus;
    for (unsigned i = 0; i < params.userTiles; i++)
        dtus.push_back(&sys.vdtu(i));
    dtus.push_back(&sys.controller().env().dtu());
    dtu::registerDtuInvariants(inv, std::move(dtus));
    inv.attach(eq, 64);

    fs.startService();
    eq.run();
    inv.runAll(true);

    EXPECT_FALSE(victimReturned);
    EXPECT_EQ(serr, Error::None);
    EXPECT_EQ(parkedPreCrash, 1u);
    EXPECT_EQ(bystanderOk, 5u);
    EXPECT_EQ(sys.controller().activitiesReaped(), 1u);
    // The parked message's credit comes back through the crash-time
    // receive-ring sweep on the victim's own tile (TileMux resets the
    // activity's vDTU state before the controller's reap sidecall, so
    // the controller-side sweep finds the rings already drained).
    EXPECT_GT(sys.vdtu(1).creditsReclaimed() +
                  sys.controller().creditsReclaimed(),
              0u);
    // The victim really was mid-retransmission when it died.
    EXPECT_GT(sys.vdtu(1).retransmits(), 0u);
    // Nothing it had in flight may violate credit conservation or
    // leave an engine non-quiescent.
    EXPECT_TRUE(inv.ok()) << inv.violationCount() << " violations";
    EXPECT_EQ(inv.violationCount(), 0u);
}

} // namespace
} // namespace m3v
