/**
 * @file
 * Fuzzer implementation: platform construction (single-queue and
 * laned), the activity-program interpreter, the reference model, the
 * observable-state digest, ddmin shrinking, and trace file I/O.
 */

#include "fuzz.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/tilemux.h"
#include "core/vdtu.h"
#include "dtu/memory_tile.h"
#include "sim/fault.h"
#include "sim/invariants.h"
#include "sim/lane.h"
#include "sim/overload.h"
#include "sim/rng.h"

namespace m3v::fuzz {
namespace {

using core::Activity;
using core::TileMux;
using core::VDtu;
using dtu::ActId;
using dtu::Endpoint;
using dtu::EpId;
using dtu::Error;

constexpr unsigned kCoreTiles = 2;
constexpr unsigned kActsPerTile = 3;
constexpr unsigned kNumActs = kCoreTiles * kActsPerTile;
constexpr noc::TileId kMemTile = 2;
/** One lane per router of the 2x2 mesh. Tile 0, tile 1 and the
 *  memory tile attach to routers 0, 1, 2 in that order, so each
 *  keeps the lane of its router; router 3 carries no tile. */
constexpr unsigned kNumLanes = 4;

/** EP layout per tile: recv EP of local activity li, plus one send EP
 *  to the next local activity and one to the remote partner. */
constexpr EpId kRecvEpBase = 8;    ///< 8 + li
constexpr EpId kLocalSepBase = 12; ///< 12 + li
constexpr EpId kRemoteSepBase = 15;

constexpr std::size_t kRecvSlots = 4;
constexpr std::size_t kSlotSize = 64;
constexpr std::uint32_t kCredits = 3;
constexpr dtu::VirtAddr kBufVa = 0x10000;

/** Payload-tag stride per op: a Burst op owns up to this many
 *  consecutive tags (one per sub-send), so tags stay globally
 *  unique and the at-most-once check keeps working. */
constexpr std::uint64_t kTagStride = 4;

/** Sub-sends of a Burst op (1..3), derived from its arg alone. */
unsigned
burstLen(const Op &op)
{
    return 1 + (op.arg >> 8) % 3;
}

/** Sub-sends of a FanIn op (2..4), derived from its arg alone. */
unsigned
fanInLen(const Op &op)
{
    return 2 + op.arg % 3;
}

ActId
actId(unsigned idx)
{
    return static_cast<ActId>(idx + 1);
}

unsigned
tileOf(unsigned idx)
{
    return idx / kActsPerTile;
}

/** Destination activity index of a send op of activity @p idx. */
unsigned
sendDst(unsigned idx, const Op &op)
{
    unsigned t = tileOf(idx);
    unsigned li2 = (idx % kActsPerTile + 1) % kActsPerTile;
    unsigned dt = (op.arg & 1) ? (1 - t) : t;
    return dt * kActsPerTile + li2;
}

/** Destination of a FanIn op: always the remote EP's target. */
unsigned
fanInDst(unsigned idx)
{
    unsigned t = tileOf(idx);
    unsigned li2 = (idx % kActsPerTile + 1) % kActsPerTile;
    return (1 - t) * kActsPerTile + li2;
}

/** Activity program: ops in scenario order, tagged with the op's
 *  global index (the unique payload tag). */
using Prog = std::vector<std::pair<Op, std::uint64_t>>;
using Progs = std::array<Prog, kNumActs>;

Progs
partition(const Scenario &sc)
{
    Progs progs;
    for (std::size_t i = 0; i < sc.ops.size(); i++)
        progs[sc.ops[i].actIdx % kNumActs].push_back(
            {sc.ops[i], i * kTagStride});
    return progs;
}

/** Small, twitchy overload knobs: short scenarios must still reach
 *  the interesting edges (shed, trip, half-open probe, reset). */
sim::AdmissionParams
fuzzAdmission()
{
    sim::AdmissionParams p;
    p.maxQueueDelay = 50 * sim::kTicksPerUs;
    p.highWater = 3;
    return p;
}

sim::CircuitBreakerParams
fuzzBreaker()
{
    sim::CircuitBreakerParams p;
    p.failureThreshold = 2;
    p.openInterval = 50 * sim::kTicksPerUs;
    p.halfOpenSuccesses = 1;
    return p;
}

sim::RetryBudgetParams
fuzzBudget()
{
    sim::RetryBudgetParams p;
    p.initial = 2;
    p.cap = 4;
    p.successesPerToken = 2;
    return p;
}

/** Per-run observations shared by all activity bodies. */
struct RunState
{
    struct ActRec
    {
        /** Payload tags in the order this activity fetched them. */
        std::vector<std::uint64_t> tags;
        /** Result of each *executed* send op, in program order. */
        std::vector<std::uint8_t> sendErrs;
    };
    /** Per-activity overload state machines driven by the burst/
     *  shed/trip ops; their end state folds into the digest. */
    struct Overload
    {
        sim::Admission adm{fuzzAdmission()};
        sim::CircuitBreaker breaker{fuzzBreaker()};
        sim::RetryBudget budget{fuzzBudget()};
    };
    std::array<ActRec, kNumActs> acts;
    std::array<Overload, kNumActs> over;
    std::uint64_t tile0SendsOk = 0;
    bool leaked = false;
};

/** The two-tile platform; pieces may live on different lanes. */
struct Platform
{
    tile::Core core0, core1;
    VDtu vdtu0, vdtu1;
    dtu::MemoryTile mem;
    TileMux mux0, mux1;
    std::array<Activity *, kNumActs> acts{};

    /** The fuzzer never reads DRAM contents (payloads travel with
     *  the messages): a small store avoids paying a fresh 64 MiB
     *  zeroed allocation per scenario. */
    static tile::DramParams
    smallDram()
    {
        tile::DramParams dp;
        dp.capacityBytes = 1 << 20;
        return dp;
    }

    Platform(sim::EventQueue &eq0, sim::EventQueue &eq1,
             sim::EventQueue &eqm, noc::Noc &noc)
        : core0(eq0, "core0", tile::CoreModel::boom(), 0),
          core1(eq1, "core1", tile::CoreModel::boom(), 1),
          vdtu0(eq0, "vdtu0", noc, 0, 80'000'000),
          vdtu1(eq1, "vdtu1", noc, 1, 80'000'000),
          mem(eqm, "mem", noc, kMemTile, smallDram()),
          mux0(eq0, "mux0", core0, vdtu0),
          mux1(eq1, "mux1", core1, vdtu1)
    {
    }

    TileMux &mux(unsigned t) { return t ? mux1 : mux0; }
    VDtu &vdtu(unsigned t) { return t ? vdtu1 : vdtu0; }

    void
    configure()
    {
        for (unsigned t = 0; t < kCoreTiles; t++) {
            VDtu &v = vdtu(t);
            v.configEp(0, Endpoint::makeMem(dtu::kTileMuxAct,
                                            kMemTile, 0, 1 << 20,
                                            dtu::kPermRW));
            for (unsigned li = 0; li < kActsPerTile; li++) {
                unsigned idx = t * kActsPerTile + li;
                ActId id = actId(idx);
                unsigned li2 = (li + 1) % kActsPerTile;
                v.configEp(kRecvEpBase + li,
                           Endpoint::makeRecv(id, kSlotSize,
                                              kRecvSlots));
                v.configEp(
                    kLocalSepBase + li,
                    Endpoint::makeSend(
                        id, t, kRecvEpBase + li2,
                        actId(t * kActsPerTile + li2), kCredits,
                        kSlotSize));
                v.configEp(
                    kRemoteSepBase + li,
                    Endpoint::makeSend(
                        id, 1 - t, kRecvEpBase + li2,
                        actId((1 - t) * kActsPerTile + li2),
                        kCredits, kSlotSize));
            }
        }
        for (unsigned idx = 0; idx < kNumActs; idx++) {
            unsigned t = tileOf(idx);
            ActId id = actId(idx);
            acts[idx] = mux(t).createActivity(
                id, "act" + std::to_string(id));
            mux(t).mapPage(id, kBufVa, 0x1000u * id, dtu::kPermRW);
        }
    }
};

std::uint64_t
parseTag(const std::vector<std::uint8_t> &payload)
{
    std::uint64_t tag = 0;
    for (std::size_t b = 0; b < payload.size() && b < 8; b++)
        tag |= static_cast<std::uint64_t>(payload[b]) << (8 * b);
    return tag;
}

/**
 * The deliberate credit-leak bug fixture (--buggy): siphon one credit
 * off the just-used send endpoint, as a buggy kernel reconfiguring an
 * endpoint in place might. The conservation invariant must trip.
 */
void
leakCredit(VDtu &v, EpId sep)
{
    Endpoint e = v.ep(sep);
    if (e.send.credits > 0) {
        e.send.credits--;
        v.configEp(sep, e);
    }
}

/** One wire send of @p tag on @p sep, with TlbMiss resolution. */
sim::Task
oneSend(Platform &plat, unsigned idx, EpId sep, std::uint64_t tag,
        Error &err_out)
{
    unsigned t = tileOf(idx);
    Activity &act = *plat.acts[idx];
    VDtu &vdtu = plat.vdtu(t);
    TileMux &mux = plat.mux(t);
    tile::Thread &th = act.thread();
    std::vector<std::uint8_t> payload(8);
    for (unsigned b = 0; b < 8; b++)
        payload[b] = (tag >> (8 * b)) & 0xff;
    Error err = Error::Aborted;
    for (int attempt = 0; attempt < 4; attempt++) {
        co_await th.compute(40); // MMIO command setup
        bool done = false;
        vdtu.cmdSend(act.id(), sep, kBufVa, payload, dtu::kInvalidEp,
                     [&](Error e) {
                         err = e;
                         done = true;
                         th.wake();
                     });
        while (!done)
            co_await th.externalWait();
        if (err != Error::TlbMiss)
            break;
        co_await mux.translCall(act, kBufVa, false);
    }
    err_out = err;
}

/** The activity body: interpret @p prog, then exit. */
sim::Task
actBody(Platform &plat, RunState &rs, bool buggy, Prog prog,
        unsigned idx)
{
    unsigned t = tileOf(idx);
    unsigned li = idx % kActsPerTile;
    Activity &act = *plat.acts[idx];
    VDtu &vdtu = plat.vdtu(t);
    TileMux &mux = plat.mux(t);
    tile::Thread &th = act.thread();
    EpId rep = kRecvEpBase + li;
    RunState::ActRec &rec = rs.acts[idx];
    RunState::Overload &ov = rs.over[idx];

    for (const auto &[op, tag] : prog) {
        switch (op.kind) {
        case OpKind::Noop:
            co_await th.compute(100 + op.arg % 4000);
            break;
        case OpKind::Send: {
            EpId sep = (op.arg & 1)
                           ? static_cast<EpId>(kRemoteSepBase + li)
                           : static_cast<EpId>(kLocalSepBase + li);
            Error err = Error::Aborted;
            co_await oneSend(plat, idx, sep, tag, err);
            rec.sendErrs.push_back(static_cast<std::uint8_t>(err));
            if (err == Error::None && t == 0) {
                rs.tile0SendsOk++;
                if (buggy && rs.tile0SendsOk == 2) {
                    leakCredit(vdtu, sep);
                    rs.leaked = true;
                }
            }
            break;
        }
        case OpKind::Burst: {
            // Arrival burst: back-to-back sends gated per attempt by
            // the breaker. A short-circuited attempt never reaches
            // the wire but still records a result so the reference
            // model's send-result stream stays aligned; a failed
            // attempt spends a retry token (a real client would
            // retry) without ever re-sending the tag.
            EpId sep = (op.arg & 1)
                           ? static_cast<EpId>(kRemoteSepBase + li)
                           : static_cast<EpId>(kLocalSepBase + li);
            unsigned k = burstLen(op);
            for (unsigned s = 0; s < k; s++) {
                if (!ov.breaker.allow(vdtu.eventQueue().now())) {
                    rec.sendErrs.push_back(
                        static_cast<std::uint8_t>(Error::Aborted));
                    co_await th.compute(20);
                    continue;
                }
                Error err = Error::Aborted;
                co_await oneSend(plat, idx, sep, tag + s, err);
                rec.sendErrs.push_back(
                    static_cast<std::uint8_t>(err));
                sim::Tick now = vdtu.eventQueue().now();
                if (err == Error::None) {
                    ov.breaker.recordSuccess(now);
                    ov.budget.recordSuccess();
                } else {
                    ov.breaker.recordFailure(now);
                    ov.budget.tryAcquire();
                }
            }
            break;
        }
        case OpKind::Shed: {
            // Non-blocking drain: run every pending request through
            // the admission decision (ring-age + occupancy) exactly
            // as the services do, acking either way — a shed is a
            // decode + typed-reject, modelled by the larger cost.
            for (;;) {
                co_await th.compute(14); // MMIO fetch
                int slot = vdtu.fetch(act.id(), rep);
                if (slot < 0)
                    break;
                const auto &msg = vdtu.slotMsg(rep, slot);
                std::size_t occ =
                    vdtu.ep(rep).recv.unreadCount() + 1;
                bool run = ov.adm.admit(vdtu.eventQueue().now(),
                                        msg.arrival, occ);
                rec.tags.push_back(parseTag(msg.payload));
                co_await th.compute(run ? 14 : 80);
                vdtu.ack(act.id(), rep, slot);
            }
            break;
        }
        case OpKind::Trip: {
            // Drive the breaker edges (trip, short-circuit, half-
            // open probe, reset) with an outcome pattern derived
            // from the op's arg; computes in between advance time so
            // the open interval can elapse across ops.
            unsigned n = 2 + op.arg % 3;
            for (unsigned s = 0; s < n; s++) {
                co_await th.compute(60 + (op.arg >> 4) % 200);
                sim::Tick now = vdtu.eventQueue().now();
                if (!ov.breaker.allow(now))
                    continue;
                if ((op.arg >> s) & 1)
                    ov.breaker.recordFailure(now);
                else
                    ov.breaker.recordSuccess(now);
            }
            if (op.arg & 8)
                ov.budget.tryAcquire();
            else
                ov.budget.recordSuccess();
            break;
        }
        case OpKind::FanIn: {
            // Fan-in burst: 2-4 ungated back-to-back sends on the
            // remote EP. Every tile's remote EPs target the same
            // destination, so concurrent FanIn ops converge on one
            // receive EP: many senders compete for its slots and
            // credits and, in laned mode, the stores from several
            // source lanes meet in the barrier's outbox merge. (The
            // router's exit port hands packets to the tile one at a
            // time.) Tags stay within this op's kTagStride window.
            EpId sep = static_cast<EpId>(kRemoteSepBase + li);
            unsigned k = fanInLen(op);
            for (unsigned s = 0; s < k; s++) {
                Error err = Error::Aborted;
                co_await oneSend(plat, idx, sep, tag + s, err);
                rec.sendErrs.push_back(
                    static_cast<std::uint8_t>(err));
            }
            break;
        }
        case OpKind::Wait: {
            co_await mux.waitForMsg(act, rep);
            for (;;) {
                co_await th.compute(14); // MMIO fetch
                int slot = vdtu.fetch(act.id(), rep);
                if (slot < 0)
                    break;
                rec.tags.push_back(
                    parseTag(vdtu.slotMsg(rep, slot).payload));
                co_await th.compute(14); // MMIO ack
                vdtu.ack(act.id(), rep, slot);
            }
            break;
        }
        case OpKind::Yield:
            co_await mux.yieldCall(act);
            break;
        case OpKind::Exit:
            co_await mux.exitCall(act);
            co_return; // not reached
        }
    }
    co_await mux.exitCall(act);
}

/** FNV-1a 64 accumulator over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (unsigned b = 0; b < 8; b++) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

void
appendf(std::vector<std::string> &errors, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::vector<std::string> &errors, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    errors.push_back(buf);
}

/** Reference-model checks over the end state. */
void
modelCheck(Platform &plat, const RunState &rs, const Scenario &sc,
           const Progs &progs, Outcome &out)
{
    // Tags still unread in receive rings, per destination activity.
    std::array<std::set<std::uint64_t>, kNumActs> unread;
    std::map<std::uint64_t, unsigned> observed; // tag -> count
    for (unsigned idx = 0; idx < kNumActs; idx++) {
        unsigned t = tileOf(idx);
        EpId rep = kRecvEpBase + idx % kActsPerTile;
        const dtu::RecvEp &re = plat.vdtu(t).ep(rep).recv;
        for (const dtu::RecvSlot &slot : re.slots) {
            if (slot.occupied && slot.unread) {
                std::uint64_t tag = parseTag(slot.msg.payload);
                unread[idx].insert(tag);
                observed[tag]++;
            }
        }
        for (std::uint64_t tag : rs.acts[idx].tags) {
            observed[tag]++;
            out.recvs++;
        }
    }

    // At-most-once: duplicate suppression must hold even under
    // faults — no tag may be observed (fetched or pending) twice.
    for (const auto &[tag, count] : observed) {
        if (count > 1)
            appendf(out.errors,
                    "model: tag %llu observed %u times "
                    "(duplicate delivery)",
                    static_cast<unsigned long long>(tag), count);
    }

    // Exactly-once (kill-free runs): each send completed with
    // Error::None was wire-acknowledged, so it must be fetched or
    // still pending — unless the receiver died (reset drops).
    std::array<std::set<std::uint64_t>, kNumActs> fetched;
    for (unsigned idx = 0; idx < kNumActs; idx++)
        fetched[idx] = {rs.acts[idx].tags.begin(),
                        rs.acts[idx].tags.end()};
    for (unsigned idx = 0; idx < kNumActs; idx++) {
        std::size_t si = 0;
        bool cut = false;
        for (const auto &[op, tag] : progs[idx]) {
            // Every op kind that appends to sendErrs must be
            // walked here, or the sequential err/tag pairing
            // drifts and later sends get checked against the
            // wrong outcome.
            if (op.kind != OpKind::Send &&
                op.kind != OpKind::Burst &&
                op.kind != OpKind::FanIn)
                continue;
            unsigned subs = op.kind == OpKind::Burst ? burstLen(op)
                            : op.kind == OpKind::FanIn
                                ? fanInLen(op)
                                : 1;
            for (unsigned s = 0; s < subs; s++) {
                if (si >= rs.acts[idx].sendErrs.size()) {
                    cut = true; // blocked or exited mid-program
                    break;
                }
                Error err = static_cast<Error>(
                    rs.acts[idx].sendErrs[si++]);
                if (err != Error::None)
                    continue;
                out.sendsOk++;
                if (!sc.kills.empty())
                    continue;
                unsigned dst = op.kind == OpKind::FanIn
                                   ? fanInDst(idx)
                                   : sendDst(idx, op);
                if (plat.acts[dst]->state() ==
                    Activity::State::Dead)
                    continue;
                if (!fetched[dst].count(tag + s) &&
                    !unread[dst].count(tag + s))
                    appendf(
                        out.errors,
                        "model: send tag %llu (act%u -> act%u) "
                        "acked but never delivered",
                        static_cast<unsigned long long>(tag + s),
                        idx, dst);
            }
            if (cut)
                break;
        }
    }
}

/** Digest of every observable the differential runner compares. */
std::uint64_t
computeDigest(Platform &plat, const RunState &rs,
              const noc::Noc &noc)
{
    Fnv f;
    for (unsigned idx = 0; idx < kNumActs; idx++) {
        const RunState::ActRec &rec = rs.acts[idx];
        f.add(0xA0 + idx);
        f.add(rec.tags.size());
        for (std::uint64_t tag : rec.tags)
            f.add(tag);
        f.add(rec.sendErrs.size());
        for (std::uint8_t e : rec.sendErrs)
            f.add(e);
        f.add(static_cast<std::uint64_t>(
            plat.acts[idx]->state()));
    }
    for (unsigned t = 0; t < kCoreTiles; t++) {
        VDtu &v = plat.vdtu(t);
        f.add(0xD0 + t);
        f.add(v.coreReqs());
        f.add(v.tlbMisses());
        f.add(v.tlbHits());
        f.add(v.foreignEpDenials());
        f.add(v.msgsSent());
        f.add(v.msgsReceived());
        f.add(v.retransmits());
        f.add(v.timeouts());
        f.add(v.duplicatesDropped());
        f.add(v.corruptDropped());
        f.add(v.straysDropped());
        f.add(v.creditsReclaimed());
        for (unsigned li = 0; li < kActsPerTile; li++) {
            f.add(v.ep(kLocalSepBase + li).send.credits);
            f.add(v.ep(kRemoteSepBase + li).send.credits);
            f.add(v.ep(kRecvEpBase + li).recv.unreadCount());
        }
        TileMux &m = plat.mux(t);
        f.add(m.ctxSwitches());
        f.add(m.coreReqIrqs());
        f.add(m.timerIrqs());
        f.add(m.tmCalls());
        f.add(m.crashes());
    }
    for (unsigned idx = 0; idx < kNumActs; idx++) {
        const RunState::Overload &ov = rs.over[idx];
        f.add(0xE0 + idx);
        f.h = ov.adm.digest(f.h);
        f.h = ov.breaker.digest(f.h);
        f.h = ov.budget.digest(f.h);
    }
    f.add(noc.delivered());
    f.add(noc.deliveredBytes());
    return f.h;
}

void
collectViolations(const sim::Invariants &inv, const char *where,
                  Outcome &out)
{
    for (const std::string &v : inv.violations())
        out.errors.push_back(std::string(where) + ": " + v);
    if (inv.violationCount() > inv.violations().size())
        appendf(out.errors, "%s: %llu further violations unrecorded",
                where,
                static_cast<unsigned long long>(
                    inv.violationCount() - inv.violations().size()));
}

void
startBodies(Platform &plat, RunState &rs, const Scenario &sc,
            Progs &progs)
{
    for (unsigned idx = 0; idx < kNumActs; idx++)
        plat.mux(tileOf(idx)).startActivity(
            plat.acts[idx],
            actBody(plat, rs, sc.buggy, progs[idx], idx));
}

void
scheduleKill(sim::EventQueue &eq, TileMux &mux, const KillEvent &k)
{
    ActId id = actId(k.actIdx % kNumActs);
    eq.schedule(k.tick, [&mux, id]() { mux.crashActivity(id); });
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 over (seed, index) for independent streams.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

const char *
opKindName(OpKind k)
{
    switch (k) {
    case OpKind::Noop: return "noop";
    case OpKind::Send: return "send";
    case OpKind::Wait: return "wait";
    case OpKind::Yield: return "yield";
    case OpKind::Exit: return "exit";
    case OpKind::Burst: return "burst";
    case OpKind::Shed: return "shed";
    case OpKind::Trip: return "trip";
    case OpKind::FanIn: return "fanin";
    }
    return "?";
}

Scenario
makeScenario(std::uint64_t seed, std::uint64_t index, bool faults,
             bool allow_kills)
{
    Scenario sc;
    sc.seed = mixSeed(seed, index);
    sc.faults = faults;
    sim::Rng rng(sc.seed);
    unsigned n = 8 + static_cast<unsigned>(rng.nextBounded(17));
    sc.ops.reserve(n);
    for (unsigned i = 0; i < n; i++) {
        Op op;
        op.actIdx =
            static_cast<std::uint8_t>(rng.nextBounded(kNumActs));
        std::uint64_t roll = rng.nextBounded(100);
        if (roll < 15)
            op.kind = OpKind::Noop;
        else if (roll < 44)
            op.kind = OpKind::Send;
        else if (roll < 62)
            op.kind = OpKind::Wait;
        else if (roll < 70)
            op.kind = OpKind::Yield;
        else if (roll < 75)
            op.kind = OpKind::Exit;
        else if (roll < 84)
            op.kind = OpKind::Burst;
        else if (roll < 92)
            op.kind = OpKind::Shed;
        else if (roll < 96)
            op.kind = OpKind::Trip;
        else
            op.kind = OpKind::FanIn;
        op.arg = static_cast<std::uint32_t>(rng.next());
        sc.ops.push_back(op);
    }
    if (allow_kills && rng.nextBounded(5) == 0) {
        unsigned kills = 1 + static_cast<unsigned>(rng.nextBounded(2));
        for (unsigned k = 0; k < kills; k++) {
            KillEvent ke;
            ke.tick = sim::kTicksPerMs / 50 +
                      rng.nextBounded(2 * sim::kTicksPerMs);
            ke.actIdx = static_cast<std::uint8_t>(
                rng.nextBounded(kNumActs));
            sc.kills.push_back(ke);
        }
    }
    return sc;
}

Outcome
runScenario(const Scenario &sc, RigMode mode, unsigned jobs,
            std::uint64_t inv_stride)
{
    Outcome out;
    RunState rs;
    Progs progs = partition(sc);

    // The plan is stateful (RNG, counters): fresh per run, same seed
    // per scenario so every mode/jobs variant sees identical faults.
    sim::FaultPlan plan(mixSeed(sc.seed, 0xfa17));
    if (sc.faults) {
        plan.addDrop("noc.", 0.05);
        plan.addCorrupt("noc.", 0.05);
    }
    noc::NocParams np;
    if (sc.faults)
        np.faults = &plan;

    if (mode == RigMode::Single) {
        sim::EventQueue eq;
        noc::Noc noc(eq, np);
        Platform plat(eq, eq, eq, noc);
        noc.finalize();
        plat.configure();

        sim::Invariants inv;
        dtu::registerDtuInvariants(inv, {&plat.vdtu0, &plat.vdtu1});
        plat.vdtu0.registerInvariants(inv);
        plat.vdtu1.registerInvariants(inv);
        plat.mux0.registerInvariants(inv);
        plat.mux1.registerInvariants(inv);
        noc.registerInvariants(inv);
        inv.attach(eq, inv_stride);

        startBodies(plat, rs, sc, progs);
        for (const KillEvent &k : sc.kills)
            scheduleKill(eq, plat.mux(tileOf(k.actIdx % kNumActs)),
                         k);
        eq.run();
        inv.runAll(true);
        collectViolations(inv, "single", out);
        modelCheck(plat, rs, sc, progs, out);
        out.digest = computeDigest(plat, rs, noc);
    } else {
        sim::LaneScheduler sched(kNumLanes, jobs,
                                 noc::Noc::minLinkLatency(np));
        noc::Noc noc(sched.lane(kNumLanes - 1), np);
        noc.setRouterLanePlan(sched, {0, 1, 2, 3});
        Platform plat(sched.lane(0), sched.lane(1), sched.lane(2),
                      noc);
        noc.finalize();
        plat.configure();

        // Per-lane registries hold only that lane's components
        // (checks run on the lane's worker thread); cross-lane laws
        // run single-threaded after the scheduler drains.
        std::array<sim::Invariants, kCoreTiles> lane_inv;
        for (unsigned t = 0; t < kCoreTiles; t++) {
            plat.vdtu(t).registerInvariants(lane_inv[t]);
            plat.mux(t).registerInvariants(lane_inv[t]);
            lane_inv[t].attach(sched.lane(t), inv_stride);
        }

        startBodies(plat, rs, sc, progs);
        for (const KillEvent &k : sc.kills)
            scheduleKill(sched.lane(tileOf(k.actIdx % kNumActs)),
                         plat.mux(tileOf(k.actIdx % kNumActs)), k);
        sched.run();
        for (unsigned t = 0; t < kCoreTiles; t++) {
            lane_inv[t].runAll(true);
            collectViolations(lane_inv[t],
                              t ? "lane1" : "lane0", out);
        }
        sim::Invariants cross;
        dtu::registerDtuInvariants(cross,
                                   {&plat.vdtu0, &plat.vdtu1});
        noc.registerInvariants(cross);
        cross.runAll(true);
        collectViolations(cross, "cross", out);
        modelCheck(plat, rs, sc, progs, out);
        out.digest = computeDigest(plat, rs, noc);
    }
    out.leaked = rs.leaked;
    return out;
}

Outcome
runDifferential(const Scenario &sc, std::uint64_t inv_stride)
{
    Outcome a = runScenario(sc, RigMode::Laned, 1, inv_stride);
    Outcome b = runScenario(sc, RigMode::Laned, 4, inv_stride);
    Outcome out = a;
    for (const std::string &e : b.errors)
        out.errors.push_back("jobs=4: " + e);
    if (a.digest != b.digest)
        appendf(out.errors,
                "differential: digest mismatch jobs=1 %016llx vs "
                "jobs=4 %016llx",
                static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest));
    return out;
}

Scenario
shrinkScenario(const Scenario &sc, RigMode mode, unsigned jobs)
{
    auto fails = [&](const Scenario &s) {
        return runScenario(s, mode, jobs).failed();
    };
    if (!fails(sc))
        return sc;
    Scenario cur = sc;
    if (!cur.kills.empty()) {
        Scenario t = cur;
        t.kills.clear();
        if (fails(t))
            cur = std::move(t);
    }
    // ddmin over ops: remove chunks of shrinking size while the
    // scenario keeps failing.
    for (std::size_t chunk = std::max<std::size_t>(
             1, cur.ops.size() / 2);
         ;) {
        bool removed = false;
        std::size_t start = 0;
        while (start < cur.ops.size()) {
            Scenario t = cur;
            std::size_t end =
                std::min(start + chunk, t.ops.size());
            t.ops.erase(t.ops.begin() + start, t.ops.begin() + end);
            if (fails(t)) {
                cur = std::move(t);
                removed = true; // same start now holds new ops
            } else {
                start = end;
            }
        }
        if (chunk == 1 && !removed)
            break;
        if (chunk > 1)
            chunk /= 2;
    }
    return cur;
}

void
writeTrace(const Scenario &sc, std::ostream &os)
{
    os << "# m3v fuzz trace v1\n";
    os << "seed " << sc.seed << "\n";
    os << "faults " << (sc.faults ? 1 : 0) << "\n";
    os << "buggy " << (sc.buggy ? 1 : 0) << "\n";
    for (const KillEvent &k : sc.kills)
        os << "kill " << k.tick << " "
           << static_cast<unsigned>(k.actIdx) << "\n";
    for (const Op &op : sc.ops)
        os << "op " << static_cast<unsigned>(op.actIdx) << " "
           << opKindName(op.kind) << " " << op.arg << "\n";
}

bool
readTrace(std::istream &is, Scenario &sc)
{
    sc = Scenario{};
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "seed") {
            ls >> sc.seed;
        } else if (word == "faults") {
            int v = 0;
            ls >> v;
            sc.faults = v != 0;
        } else if (word == "buggy") {
            int v = 0;
            ls >> v;
            sc.buggy = v != 0;
        } else if (word == "kill") {
            KillEvent k;
            unsigned idx = 0;
            ls >> k.tick >> idx;
            k.actIdx = static_cast<std::uint8_t>(idx);
            sc.kills.push_back(k);
        } else if (word == "op") {
            Op op;
            unsigned idx = 0;
            std::string kind;
            ls >> idx >> kind >> op.arg;
            op.actIdx = static_cast<std::uint8_t>(idx);
            if (kind == "noop")
                op.kind = OpKind::Noop;
            else if (kind == "send")
                op.kind = OpKind::Send;
            else if (kind == "wait")
                op.kind = OpKind::Wait;
            else if (kind == "yield")
                op.kind = OpKind::Yield;
            else if (kind == "exit")
                op.kind = OpKind::Exit;
            else if (kind == "burst")
                op.kind = OpKind::Burst;
            else if (kind == "shed")
                op.kind = OpKind::Shed;
            else if (kind == "trip")
                op.kind = OpKind::Trip;
            else if (kind == "fanin")
                op.kind = OpKind::FanIn;
            else
                return false;
            if (ls.fail())
                return false;
            sc.ops.push_back(op);
        } else {
            return false;
        }
    }
    return !sc.ops.empty();
}

bool
writeTraceFile(const Scenario &sc, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeTrace(sc, os);
    return static_cast<bool>(os);
}

bool
readTraceFile(const std::string &path, Scenario &sc)
{
    std::ifstream is(path);
    if (!is)
        return false;
    return readTrace(is, sc);
}

} // namespace m3v::fuzz
