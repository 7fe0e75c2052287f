#include "caps_fuzz.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "os/system.h"
#include "sim/lane.h"

namespace m3v::fuzz {
namespace {

using namespace m3v::os;
using dtu::Error;

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
appendf(std::vector<std::string> &errs, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    errs.push_back(buf);
}

/** Global identity of a capability: (shard, table, selector). */
struct Key
{
    unsigned shard = 0;
    dtu::ActId act = dtu::kInvalidAct;
    CapSel sel = kInvalidSel;

    bool
    operator<(const Key &o) const
    {
        if (shard != o.shard)
            return shard < o.shard;
        if (act != o.act)
            return act < o.act;
        return sel < o.sel;
    }
    bool
    operator==(const Key &o) const
    {
        return shard == o.shard && act == o.act && sel == o.sel;
    }
};

/**
 * The sharded reference model: the capability forest as it should
 * exist across all shard partitions, maintained op-by-op from
 * the syscall results. Delegation edges may cross shards;
 * the model is shard-agnostic about edges but keyed by the shard
 * that owns each node, exactly like the partitioned CapMgrs.
 */
struct Model
{
    struct Node
    {
        bool hasParent = false;
        Key parent;
        std::vector<Key> children;
    };

    std::map<Key, Node> nodes;

    Node &
    ensure(const Key &k)
    {
        return nodes[k];
    }

    void
    insertChild(const Key &parent, const Key &child)
    {
        ensure(parent).children.push_back(child);
        Node &c = ensure(child);
        c.hasParent = true;
        c.parent = parent;
    }

    /**
     * Remove the subtree rooted at @p root (the root itself only
     * when !keep_root), returning the removed keys. Mirrors
     * CapMgr::planRevoke + executeRevoke plus the cross-shard
     * cascade of Controller::revokeTree.
     */
    std::vector<Key>
    removeSubtree(const Key &root, bool keep_root)
    {
        std::vector<Key> removed;
        auto it = nodes.find(root);
        if (it == nodes.end())
            return removed;
        std::vector<Key> stack;
        if (keep_root) {
            stack = it->second.children;
        } else {
            stack.push_back(root);
        }
        while (!stack.empty()) {
            Key k = stack.back();
            stack.pop_back();
            auto n = nodes.find(k);
            if (n == nodes.end())
                continue;
            for (const Key &c : n->second.children)
                stack.push_back(c);
            removed.push_back(k);
            nodes.erase(n);
        }
        if (keep_root) {
            it->second.children.clear();
        } else if (!removed.empty()) {
            // Detach the dead root from its surviving parent, if
            // any (interior removals stay within the subtree).
            std::set<Key> gone(removed.begin(), removed.end());
            for (auto &[pk, pn] : nodes) {
                auto &ch = pn.children;
                ch.erase(std::remove_if(ch.begin(), ch.end(),
                                        [&](const Key &c) {
                                            return gone.count(c);
                                        }),
                         ch.end());
            }
        }
        return removed;
    }
};

/** A controller-side activity the driver created and populates. */
struct Storm
{
    CapSel actSel = kInvalidSel;
    dtu::ActId id = dtu::kInvalidAct;
    noc::TileId tile = 0;
    unsigned shard = 0;
};

struct Driver
{
    unsigned idx = 0;
    unsigned shard = 0;
    dtu::ActId id = dtu::kInvalidAct;
    std::uint64_t rng = 0;
    /** Boot-created mgate roots: revoked with keep_root only. */
    std::vector<CapSel> roots;
    std::vector<Storm> storms;
};

sim::Task
driverBody(MuxEnv &env, System &sys, Driver &d, Model &model,
           std::size_t nops, CapsOutcome &out)
{
    for (std::size_t i = 0; i < nops; i++) {
        std::uint64_t r = splitmix(d.rng) % 100;
        SyscallReq req;
        SyscallResp resp;

        if (r < 18 && d.storms.size() < 8) {
            auto tile = static_cast<noc::TileId>(
                splitmix(d.rng) % sys.params().userTiles);
            req.op = SyscallReq::Op::CreateAct;
            req.arg0 = tile;
            co_await env.syscall(req, &resp);
            if (resp.err != Error::None) {
                appendf(out.errors, "d%u op%zu: CreateAct -> %s",
                        d.idx, i, dtu::errorName(resp.err));
                continue;
            }
            out.opsOk++;
            Storm s;
            s.actSel = static_cast<CapSel>(resp.val >> 32);
            s.id = static_cast<dtu::ActId>(resp.val & 0xffff);
            s.tile = tile;
            s.shard = sys.shardMap().shardOfTile(tile);
            d.storms.push_back(s);
            model.ensure(Key{d.shard, d.id, s.actSel});
        } else if (r < 55 && !d.storms.empty()) {
            Storm &s = d.storms[splitmix(d.rng) % d.storms.size()];
            CapSel root = d.roots[splitmix(d.rng) % d.roots.size()];
            req.op = SyscallReq::Op::Delegate;
            req.arg0 = s.actSel;
            req.arg1 = root;
            co_await env.syscall(req, &resp);
            if (resp.err != Error::None) {
                appendf(out.errors, "d%u op%zu: Delegate -> %s",
                        d.idx, i, dtu::errorName(resp.err));
                continue;
            }
            out.opsOk++;
            auto child = static_cast<CapSel>(resp.val);
            if (selShard(child) != s.shard)
                appendf(out.errors,
                        "d%u op%zu: delegated sel %u minted by "
                        "shard %u, expected %u",
                        d.idx, i, child, selShard(child), s.shard);
            model.insertChild(Key{d.shard, d.id, root},
                              Key{s.shard, s.id, child});
        } else if (r < 88) {
            CapSel root = d.roots[splitmix(d.rng) % d.roots.size()];
            req.op = SyscallReq::Op::Revoke;
            req.arg0 = root;
            req.arg1 = 1;
            co_await env.syscall(req, &resp);
            if (resp.err != Error::None) {
                appendf(out.errors, "d%u op%zu: Revoke -> %s",
                        d.idx, i, dtu::errorName(resp.err));
                continue;
            }
            out.opsOk++;
            std::vector<Key> removed = model.removeSubtree(
                Key{d.shard, d.id, root}, true);
            if (resp.val != removed.size())
                appendf(out.errors,
                        "d%u op%zu: Revoke removed %llu caps, "
                        "model predicts %zu",
                        d.idx, i,
                        static_cast<unsigned long long>(resp.val),
                        removed.size());
        } else if (!d.storms.empty()) {
            std::size_t pick = splitmix(d.rng) % d.storms.size();
            Storm s = d.storms[pick];
            req.op = SyscallReq::Op::DestroyAct;
            req.arg0 = s.actSel;
            co_await env.syscall(req, &resp);
            if (resp.err != Error::None) {
                appendf(out.errors, "d%u op%zu: DestroyAct -> %s",
                        d.idx, i, dtu::errorName(resp.err));
                continue;
            }
            out.opsOk++;
            std::vector<Key> removed = model.removeSubtree(
                Key{d.shard, d.id, s.actSel}, false);
            if (resp.val != removed.size())
                appendf(out.errors,
                        "d%u op%zu: DestroyAct removed %llu caps, "
                        "model predicts %zu",
                        d.idx, i,
                        static_cast<unsigned long long>(resp.val),
                        removed.size());
            // Dropping the table revokes every remaining cap in it,
            // cascading to their descendants on other shards.
            std::vector<Key> table;
            for (auto &[k, n] : model.nodes)
                if (k.act == s.id)
                    table.push_back(k);
            for (const Key &k : table)
                model.removeSubtree(k, false);
            d.storms.erase(d.storms.begin() + pick);
        }
        // else: no eligible target this round; the op is a no-op.
    }
}

void
collectKeys(System &sys, std::set<Key> &out)
{
    for (unsigned s = 0; s < sys.ctrlShards(); s++) {
        sys.capsOf(s).forEachTable([&](CapTable &t) {
            t.forEachCap([&](Capability &c) {
                out.insert(Key{s, t.owner(), c.sel()});
            });
        });
    }
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

CapsOutcome
runCapsScenario(std::uint64_t seed, std::size_t ops_per_driver,
                unsigned shards)
{
    sim::EventQueue eq;
    SystemParams params;
    params.ctrlShards = shards;
    System sys(eq, params);
    sim::Invariants inv;
    registerControllerInvariants(inv, sys);

    CapsOutcome out;
    Model model;
    constexpr unsigned kDrivers = 4;
    std::vector<Driver> drivers(kDrivers);
    std::vector<System::App *> apps(kDrivers);
    for (unsigned i = 0; i < kDrivers; i++) {
        Driver &d = drivers[i];
        d.idx = i;
        // Tiles 0, 2, 4, 6: one driver per quadrant at four shards.
        unsigned tile = i * 2;
        d.shard = sys.shardMap().shardOfTile(tile);
        apps[i] = sys.createApp(tile, "drv" + std::to_string(i));
        d.id = apps[i]->act->id();
        d.rng = seed * 0x9e3779b97f4a7c15ull + i + 1;
        for (int r = 0; r < 3; r++) {
            auto h = sys.makeMgate(apps[i], 64 << 10, dtu::kPermRW);
            d.roots.push_back(h.sel);
        }
    }

    // Everything boot-time (syscall gates, mgate roots) is outside
    // the model; snapshot it so the final sweep can tell fuzz-created
    // caps from harness plumbing.
    std::set<Key> baseline;
    collectKeys(sys, baseline);

    for (unsigned i = 0; i < kDrivers; i++) {
        Driver &d = drivers[i];
        sys.start(apps[i], [&, ops_per_driver](MuxEnv &env)
                      -> sim::Task {
            return driverBody(env, sys, d, model, ops_per_driver,
                              out);
        });
    }
    eq.run();
    out.endTick = eq.now();
    out.events = eq.executed();

    inv.runAll(true);
    for (const std::string &v : inv.violations())
        out.errors.push_back("invariant: " + v);

    // Final sweep: the system's capability forest must be exactly
    // baseline + model, in both directions.
    std::set<Key> finals;
    collectKeys(sys, finals);
    for (const Key &k : finals) {
        if (!baseline.count(k) && !model.nodes.count(k))
            appendf(out.errors,
                    "leaked cap: shard %u act %u sel %u exists but "
                    "the model revoked it",
                    k.shard, k.act, k.sel);
    }
    for (const auto &[k, n] : model.nodes) {
        if (!finals.count(k))
            appendf(out.errors,
                    "lost cap: shard %u act %u sel %u revoked but "
                    "the model still holds it",
                    k.shard, k.act, k.sel);
    }

    out.digest = 0xcbf29ce484222325ull;
    for (const Key &k : finals) {
        out.digest = fnv(out.digest, k.shard);
        out.digest = fnv(out.digest, k.act);
        out.digest = fnv(out.digest, k.sel);
    }
    for (unsigned s = 0; s < sys.ctrlShards(); s++) {
        const Controller &c = sys.controllerOf(s);
        out.digest = fnv(out.digest, c.xshardSent());
        out.digest = fnv(out.digest, c.xshardHandled());
        out.digest = fnv(out.digest, c.activitiesReaped());
        const std::string stashed =
            sys.controllerOf(s).env().name() + ".kernel.xshard_stashed";
        out.stashed += eq.metrics().findCounter(stashed)->value();
    }
    out.digest = fnv(out.digest, out.opsOk);
    return out;
}

CapsOutcome
runCapsDifferential(std::uint64_t seed, std::size_t ops_per_driver,
                    unsigned cells)
{
    CapsOutcome merged;
    for (unsigned jobs : {1u, 4u}) {
        std::vector<CapsOutcome> res(cells);
        std::vector<sim::UniqueFunction<void()>> work;
        for (unsigned c = 0; c < cells; c++) {
            work.emplace_back([&res, c, seed, ops_per_driver]() {
                res[c] = runCapsScenario(seed + c, ops_per_driver, 4);
            });
        }
        sim::runCells(jobs, std::move(work));
        for (unsigned c = 0; c < cells; c++) {
            for (const std::string &e : res[c].errors)
                appendf(merged.errors, "jobs=%u cell=%u: %s", jobs,
                        c, e.c_str());
            merged.opsOk += res[c].opsOk;
        }
        if (jobs == 1) {
            merged.digest = 0xcbf29ce484222325ull;
            for (const CapsOutcome &r : res)
                merged.digest = fnv(merged.digest, r.digest);
        } else {
            std::uint64_t d4 = 0xcbf29ce484222325ull;
            for (const CapsOutcome &r : res)
                d4 = fnv(d4, r.digest);
            if (d4 != merged.digest)
                appendf(merged.errors,
                        "digest divergence: jobs=1 %016llx vs "
                        "jobs=4 %016llx",
                        static_cast<unsigned long long>(
                            merged.digest),
                        static_cast<unsigned long long>(d4));
        }
    }
    return merged;
}

} // namespace m3v::fuzz
