/**
 * @file
 * Overload-resilience regression tests.
 *
 * 1. DTU retransmission exhaustion under a total drop burst surfaces
 *    to file_client / net callers as a *typed* Error::Timeout: the
 *    file client retries it (idempotent ops) within its budget and
 *    then reports it; the UDP client surfaces it without re-sending
 *    (datagram semantics). Once the burst lifts, the same sessions
 *    recover without reconstruction.
 *
 * 2. Reaping an activity that has in-flight retransmission state:
 *    the victim is crashed mid-retx, the controller must reclaim its
 *    credits, and the DTU invariants (credit conservation, engine
 *    quiescence) must hold at the end of the run — nothing the dead
 *    activity had in flight may leak.
 *
 * 3. Reply correlation: the late reply of a timed-out call() that
 *    arrives *after* the next call's pre-send drain must not be
 *    misattributed to that next call, timed or not — the per-call
 *    nonce makes the fetch loop ack-and-discard it as a stale drop.
 *
 * 4. Shed retries are capped: against a server that sheds every
 *    request, the file and UDP clients give up after four attempts,
 *    with or without an OverloadGuard.
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
#include "sim/overload.h"

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

TEST(OverloadRecoveryTest, RetxExhaustionSurfacesTypedTimeout)
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
    // the budget so client-side retries of the typed timeout also
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
    std::uint64_t fsRetries = 0, netRetries = 0, budgetSpent = 0;

    sim::OverloadGuard guard(0x7777);
    sys.start(app, [&, fsc, netc](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, fsc, 0, &guard);
        services::UdpSocket sock(env, netc);
        services::FsResp resp;
        Error err = Error::None;

        co_await sock.create(4242, &err);
        co_await f.stat("/", &resp);
        preErr = resp.err;

        // Inside the drop burst: the fs RPC is idempotent, so the
        // client retries the typed timeout until its budget/attempts
        // run out, then surfaces it.
        co_await sleepUntil(eq, env, kBurstStart + 50 * sim::kTicksPerUs);
        co_await f.stat("/", &resp);
        burstFsErr = resp.err;
        fsRetries = f.rpcRetries();
        budgetSpent = guard.budget().spent();

        // A UDP send is not idempotent at the datagram level: the
        // typed timeout surfaces without a single re-send.
        co_await sock.sendTo(0x0a000001, 9, Bytes(32, 0x42),
                             &burstNetErr);
        netRetries = sock.rpcRetries();

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
    EXPECT_GT(fsRetries, 0u);
    EXPECT_GT(budgetSpent, 0u);
    EXPECT_EQ(burstNetErr, Error::Timeout);
    EXPECT_EQ(netRetries, 0u);
    EXPECT_EQ(postErr, Error::None);

    // The exhaustion really came from the wire protocol.
    EXPECT_GT(sys.vdtu(1).retransmits(), 0u);
    EXPECT_GT(sys.vdtu(1).timeouts(), 0u);
    EXPECT_GT(plan.drops().value(), 0u);
}

/**
 * Time out a first call, then make a second one with @p deadline2
 * (0 = untimed) while the first call's late reply is still in flight.
 */
void
checkLateReplyIsDropped(sim::Tick deadline2)
{
    sim::EventQueue eq;
    os::SystemParams params;
    params.userTiles = 3;
    os::System sys(eq, params);

    // Client deadline for the first call; the server holds the first
    // reply until kReplyAt, well past the timeout, so it lands in the
    // middle of the *second* call's fetch loop — after a timed call's
    // pre-send drain.
    const sim::Tick kDeadline1 = 200 * sim::kTicksPerUs;
    const sim::Tick kReplyAt = 2 * sim::kTicksPerMs;

    auto *server = sys.createApp(2, "server");
    auto ring = sys.makeRgate(server, 128, 4);
    auto *client = sys.createApp(1, "client");
    auto reply = sys.makeRgate(client, 128, 4);
    // Two credits: the first call's credit only returns with its
    // (delayed) reply, and the second call must still be sendable.
    auto sgate = sys.makeSgate(client, server, ring.ep, 7, 2);

    sys.start(server, [&](os::MuxEnv &env) -> sim::Task {
        Error rerr = Error::Aborted;
        int slot = -1;
        // First request: sit on it until long after the client gave
        // up and re-sent, then answer it.
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
        Bytes resp;
        Error err = Error::Aborted;
        co_await env.call(sgate.ep, reply.ep, Bytes(1, 0x01), &resp,
                          &err, kDeadline1);
        firstErr = err;
        co_await env.call(sgate.ep, reply.ep, Bytes(1, 0x02),
                          &secondResp, &secondErr, deadline2);
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

TEST(OverloadRecoveryTest, LateReplyIsNotMisattributedToNextCall)
{
    for (sim::Tick deadline2 : {20 * sim::kTicksPerMs, sim::Tick{0}}) {
        SCOPED_TRACE("second call deadline " + std::to_string(deadline2));
        checkLateReplyIsDropped(deadline2);
    }
}

/** Outcome of one RPC against a server that sheds everything. */
struct ShedOutcome
{
    Error err = Error::None;
    std::uint64_t overloaded = 0;
    std::uint64_t retries = 0;
};

/**
 * One FileSession::stat (or, with @p udp, UdpSocket::create) against
 * a server that answers every request with Error::Overloaded;
 * @p guarded runs it under an OverloadGuard that cannot trip within
 * four attempts.
 */
ShedOutcome
runAgainstSheddingServer(bool udp, bool guarded)
{
    sim::EventQueue eq;
    os::SystemParams params;
    params.userTiles = 3;
    os::System sys(eq, params);

    auto *server = sys.createApp(2, "server");
    auto ring = sys.makeRgate(server, 512, 8);
    auto *client = sys.createApp(1, "client");
    auto reply = sys.makeRgate(client, 512, 4);
    auto sgate = sys.makeSgate(client, server, ring.ep, 1, 1);

    sys.start(server, [&, udp](os::MuxEnv &env) -> sim::Task {
        for (;;) {
            int slot = -1;
            co_await env.recvOn(ring.ep, &slot);
            Bytes shed = udp ? os::podBytes(services::NetRespHdr{
                                   Error::Overloaded})
                             : os::podBytes(services::FsResp{
                                   Error::Overloaded});
            Error rerr = Error::Aborted;
            co_await env.reply(ring.ep, slot, std::move(shed), &rerr);
        }
    });

    sim::OverloadGuard::Params gp;
    gp.breaker.failureThreshold = 5;
    gp.budget.initial = 8;
    gp.replyDeadline = sim::kTicksPerMs;
    sim::OverloadGuard guard(0x5EED, gp);

    ShedOutcome out;
    sys.start(client, [&, udp, guarded](os::MuxEnv &env) -> sim::Task {
        sim::OverloadGuard *g = guarded ? &guard : nullptr;
        if (udp) {
            services::NetService::Client c;
            c.sgateEp = sgate.ep;
            c.replyEp = reply.ep;
            services::UdpSocket sock(env, c, g);
            co_await sock.create(4242, &out.err);
            out.overloaded = sock.rpcOverloaded();
            out.retries = sock.rpcRetries();
        } else {
            services::M3fs::Client c;
            c.sgateEp = sgate.ep;
            c.replyEp = reply.ep;
            c.fileEps = {dtu::kInvalidEp};
            services::FileSession f(env, c, 0, g);
            services::FsResp resp;
            co_await f.stat("/", &resp);
            out.err = resp.err;
            out.overloaded = f.rpcOverloaded();
            out.retries = f.rpcRetries();
        }
    });

    eq.run();
    return out;
}

TEST(OverloadRecoveryTest, ShedRetriesStopAtAttemptCap)
{
    for (bool udp : {false, true}) {
        for (bool guarded : {true, false}) {
            SCOPED_TRACE(std::string(udp ? "udp" : "fs") +
                         (guarded ? " guarded" : " unguarded"));
            ShedOutcome o = runAgainstSheddingServer(udp, guarded);
            EXPECT_EQ(o.err, Error::Overloaded);
            EXPECT_EQ(o.overloaded, 4u);
            EXPECT_EQ(o.retries, 3u);
        }
    }
}

TEST(OverloadRecoveryTest, ReapWithInflightRetxReclaimsCredits)
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
