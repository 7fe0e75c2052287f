#include "os/system.h"

#include <algorithm>
#include <set>
#include <utility>

#include "sim/log.h"

namespace m3v::os {

using dtu::ActId;
using dtu::Endpoint;
using dtu::EpId;
using dtu::kPermRW;

namespace {

constexpr ActId kCtrlAct = 1;

/** Name of controller shard @p s: "ctrl", then "ctrl1", "ctrl2", ... */
std::string
ctrlName(unsigned s)
{
    return s == 0 ? "ctrl" : "ctrl" + std::to_string(s);
}

/** First endpoint available to applications (0-3 PMP, 4 TileMux
 *  sidecall, 5 reserved). */
constexpr EpId kFirstUserEp = 6;

sim::Task
appWrapper(MuxEnv *env, std::function<sim::Task(MuxEnv &)> body)
{
    co_await body(*env);
    if (env->activity().state() != core::Activity::State::Dead)
        co_await env->exit();
}

} // namespace

System::System(sim::EventQueue &eq, SystemParams params)
    : eq_(eq), params_(std::move(params))
{
    unsigned shards = params_.ctrlShards;
    if (shards == 0 || shards > params_.userTiles)
        sim::fatal("System: %u controller shards for %u user tiles",
                   shards, params_.userTiles);
    shardMap_ = ShardMap{shards, params_.userTiles};
    noc_ = std::make_unique<noc::Noc>(eq, noc::NocParams{});

    // User tiles: core + vDTU + TileMux.
    for (unsigned i = 0; i < params_.userTiles; i++) {
        auto tname = "tile" + std::to_string(i);
        auto mit = params_.tileModels.find(i);
        const tile::CoreModel &model = mit != params_.tileModels.end()
                                           ? mit->second
                                           : params_.userModel;
        cores_.push_back(std::make_unique<tile::Core>(
            eq, tname + ".core", model, userTile(i)));
        vdtus_.push_back(std::make_unique<core::VDtu>(
            eq, tname + ".vdtu", *noc_, userTile(i),
            model.freqHz, params_.vdtu));
        muxes_.push_back(std::make_unique<core::TileMux>(
            eq, tname + ".tilemux", *cores_[i], *vdtus_[i], params_.mux));
    }

    // Controller tile of shard 0: bare core + plain DTU.
    addCtrlTile(0);

    // Memory tiles.
    for (unsigned i = 0; i < params_.memTiles; i++) {
        memTiles_.push_back(std::make_unique<dtu::MemoryTile>(
            eq, "mem" + std::to_string(i), *noc_, memTileId(i),
            params_.dram));
    }

    // Controller tiles of shards 1..n-1, appended after the memory
    // tiles so the other tile ids do not depend on the shard count.
    for (unsigned s = 1; s < shards; s++)
        addCtrlTile(s);

    noc_->finalize();

    // The shared tile-to-DTU table every controller shard uses for
    // privileged cleanup (endpoint sweeps, credit reclaim).
    for (unsigned i = 0; i < params_.userTiles; i++)
        dtuMap_.set(userTile(i), vdtus_[i].get());
    for (unsigned s = 0; s < shards; s++)
        dtuMap_.set(ctrlTileOf(s), ctrls_[s].dtu.get());

    // Per-tile PMP windows out of memory tile 0 (section 4.3: the
    // first endpoint is a per-tile region, set up by the controller).
    nextEp_.assign(params_.userTiles, kFirstUserEp);
    pmpBump_.assign(params_.userTiles, 0);
    for (unsigned i = 0; i < params_.userTiles; i++) {
        dtu::PhysAddr base =
            memTiles_[0]->alloc(params_.perTilePmp, dtu::kPageSize);
        vdtus_[i]->configEp(
            0, Endpoint::makeMem(dtu::kTileMuxAct, memTileId(0), base,
                                 params_.perTilePmp, kPermRW));
    }

    // Controllers: per shard a syscall receive EP, a sidecall reply
    // EP, a bare environment and the controller (its main loop starts
    // once every channel is wired, below).
    constexpr EpId kSidecallRep = 4;   // on user tiles
    constexpr EpId kCtrlSideReply = 5; // on the controller tiles
    constexpr EpId kCtrlFirstSideSep = 8;
    for (unsigned s = 0; s < shards; s++) {
        CtrlShard &c = ctrls_[s];
        std::string cname = ctrlName(s);
        c.thread = std::make_unique<tile::Thread>(
            *c.core, cname + ".thread", 0);
        c.env = std::make_unique<BareEnv>(cname, *c.thread, *c.dtu,
                                          kCtrlAct);
        c.dtu->configEp(kSyscallRep,
                        Endpoint::makeRecv(kCtrlAct, 128, 64));
        c.caps = std::make_unique<CapMgr>(s);
        c.ctrl = std::make_unique<Controller>(
            *c.env, *c.caps, dtuMap_, shardMap_, s);
        c.dtu->configEp(kCtrlSideReply,
                        Endpoint::makeRecv(kCtrlAct, 64, 8));
        c.ctrl->setSidecallReplyEp(kCtrlSideReply);
    }

    // Sidecall channels: each quadrant's controller -> its TileMux
    // instances (EP 4 on the user tile) with replies on controller
    // EP 5. The per-tile send EP index restarts at each quadrant.
    for (unsigned i = 0; i < params_.userTiles; i++) {
        unsigned s = shardMap_.shardOfTile(userTile(i));
        dtu::Dtu *d = ctrls_[s].dtu.get();
        EpId sep = static_cast<EpId>(
            kCtrlFirstSideSep + (i - shardMap_.quadrantBegin(s)));
        vdtus_[i]->configEp(kSidecallRep,
                            Endpoint::makeRecv(dtu::kTileMuxAct, 64,
                                               4));
        d->configEp(sep, Endpoint::makeSend(kCtrlAct, userTile(i),
                                            kSidecallRep, i, 2));
        controllerOf(s).setSidecallChannel(userTile(i), sep);

        core::TileMux *mux = muxes_[i].get();
        core::VDtu *vd = vdtus_[i].get();
        Controller *ctl = &controllerOf(s);
        // Watchdog/crash upcall: the tile's owning controller shard
        // reaps the dead activity's endpoints, caps, and credits.
        mux->setCrashHandler([ctl](ActId id) {
            ctl->reapActivity(id);
        });
        mux->setSidecallEp(
            kSidecallRep,
            [mux, vd](const dtu::Message &msg, int slot) {
                SidecallReq req = podFrom<SidecallReq>(msg.payload);
                SidecallResp resp;
                mux->mapPage(req.act, req.virt, req.phys,
                             static_cast<std::uint8_t>(req.perms));
                vd->cmdReply(dtu::kTileMuxAct, 4, slot, 0,
                             podBytes(resp), [](dtu::Error) {});
            });
    }

    // Controller-to-controller channels (sharded platforms only):
    // per shard a request ring (EP 6), a reply ring (EP 7), and one
    // send EP per peer after the sidecall send EPs. Peer credits are
    // sized so all senders together cannot overrun the ring.
    if (shards > 1) {
        unsigned pcred = std::min<unsigned>(
            8, std::max<unsigned>(2, 64 / (shards - 1)));
        for (unsigned s = 0; s < shards; s++) {
            dtu::Dtu *d = ctrls_[s].dtu.get();
            d->configEp(kCtrlReqRep,
                        Endpoint::makeRecv(kCtrlAct, 512, 64));
            d->configEp(kCtrlReplyRep,
                        Endpoint::makeRecv(kCtrlAct, 512, 16));
        }
        for (unsigned s = 0; s < shards; s++) {
            dtu::Dtu *d = ctrls_[s].dtu.get();
            unsigned quad = shardMap_.quadrantEnd(s) -
                            shardMap_.quadrantBegin(s);
            for (unsigned p = 0; p < shards; p++) {
                if (p == s)
                    continue;
                EpId sep = static_cast<EpId>(kCtrlFirstSideSep +
                                             quad + p);
                if (sep >= dtu::kNumEps)
                    sim::fatal("System: controller %u out of "
                               "endpoints for peer channels",
                               s);
                d->configEp(sep,
                            Endpoint::makeSend(kCtrlAct,
                                               ctrlTileOf(p),
                                               kCtrlReqRep, s, pcred,
                                               512));
                controllerOf(s).setPeerChannel(p, sep);
            }
        }
    }

    for (CtrlShard &c : ctrls_) {
        c.thread->start(c.ctrl->run());
        c.core->dispatch(c.thread.get());
    }
}

System::~System() = default;

void
System::addCtrlTile(unsigned s)
{
    std::string cname = ctrlName(s);
    CtrlShard &c = ctrls_.emplace_back();
    c.core = std::make_unique<tile::Core>(eq_, cname + ".core",
                                          params_.ctrlModel,
                                          ctrlTileOf(s));
    c.dtu = std::make_unique<dtu::Dtu>(eq_, cname + ".dtu", *noc_,
                                       ctrlTileOf(s),
                                       params_.ctrlModel.freqHz);
}

System::App *
System::createApp(unsigned tile_idx, const std::string &name,
                  std::size_t footprint)
{
    if (tile_idx >= params_.userTiles)
        sim::fatal("System: tile %u out of range", tile_idx);
    ActId id = nextAct_++;
    auto app = std::make_unique<App>();
    app->tileIdx = tile_idx;
    app->act = muxes_[tile_idx]->createActivity(id, name, footprint);
    app->env = std::make_unique<MuxEnv>(name, *app->act,
                                        *vdtus_[tile_idx]);

    // Message buffer page.
    app->env->setMsgBuf(mapPages(app.get(), 1, kPermRW));

    // Syscall channel: send gate to the tile's owning controller
    // shard + reply EP.
    unsigned shard = shardMap_.shardOfTile(userTile(tile_idx));
    EpId sep = allocEp(tile_idx);
    EpId rep = allocEp(tile_idx);
    vdtus_[tile_idx]->configEp(
        sep, Endpoint::makeSend(id, ctrlTileOf(shard),
                                kSyscallRep, id, 1));
    vdtus_[tile_idx]->configEp(rep, Endpoint::makeRecv(id, 128, 2));
    app->env->setSyscallGates(sep, rep);

    // The app's capability table lives on its home shard from boot:
    // the controller answers a caller without one as reaped.
    controllerOf(shard).registerActivity(id, userTile(tile_idx));
    capsOf(shard).createTable(id);

    App *ptr = app.get();
    apps_.push_back(std::move(app));
    return ptr;
}

void
System::start(App *app, std::function<sim::Task(MuxEnv &)> body)
{
    muxes_[app->tileIdx]->startActivity(
        app->act, appWrapper(app->env.get(), std::move(body)));
}

EpId
System::allocEp(unsigned tile_idx)
{
    EpId ep = nextEp_.at(tile_idx)++;
    if (ep >= dtu::kNumEps)
        sim::fatal("System: tile %u out of endpoints", tile_idx);
    return ep;
}

System::RgateHandle
System::makeRgate(App *app, std::size_t slot_size, std::size_t slots)
{
    RgateHandle h;
    h.ep = allocEp(app->tileIdx);
    vdtus_[app->tileIdx]->configEp(
        h.ep,
        Endpoint::makeRecv(app->act->id(), slot_size, slots));
    RgateObj r;
    r.tile = userTile(app->tileIdx);
    r.act = app->act->id();
    r.ep = h.ep;
    r.slotSize = slot_size;
    r.slots = slots;
    h.sel = grantActivated(
        app, KObject(r), h.ep);
    return h;
}

System::SgateHandle
System::makeSgate(App *sender, App *recv_owner, EpId rep,
                  std::uint64_t label, std::uint32_t credits,
                  std::size_t max_msg)
{
    SgateHandle h;
    h.ep = allocEp(sender->tileIdx);
    vdtus_[sender->tileIdx]->configEp(
        h.ep, Endpoint::makeSend(sender->act->id(),
                                 userTile(recv_owner->tileIdx), rep,
                                 label, credits, max_msg));
    SgateObj s;
    s.target.tile = userTile(recv_owner->tileIdx);
    s.target.act = recv_owner->act->id();
    s.target.ep = rep;
    s.label = label;
    s.credits = credits;
    h.sel = grantActivated(
        sender, KObject(s), h.ep);
    return h;
}

System::MgateHandle
System::makeMgate(App *app, std::size_t size, std::uint8_t perms,
                  unsigned mem_idx)
{
    MgateHandle h;
    h.addr = memTiles_.at(mem_idx)->alloc(size, dtu::kPageSize);
    h.size = size;
    h.memIdx = mem_idx;
    h.ep = allocEp(app->tileIdx);
    vdtus_[app->tileIdx]->configEp(
        h.ep, Endpoint::makeMem(app->act->id(), memTileId(mem_idx),
                                h.addr, size, perms));
    h.sel = grantActivated(
        app,
        KObject(MemObj{memTileId(mem_idx), h.addr, size, perms}), h.ep);
    return h;
}

CapSel
System::grantActivated(App *app, const KObject &obj, EpId ep)
{
    noc::TileId tile = userTile(app->tileIdx);
    unsigned s = shardMap_.shardOfTile(tile);
    CapSel sel = controllerOf(s).grant(app->act->id(), obj);
    Capability *cap = capsOf(s).tableIfExists(app->act->id())->get(sel);
    cap->activated = true;
    cap->actTile = tile;
    cap->actEp = ep;
    return sel;
}

CapSel
System::grantActCap(App *holder, App *target)
{
    unsigned s = shardMap_.shardOfTile(userTile(holder->tileIdx));
    return controllerOf(s).grant(
        holder->act->id(),
        KObject(ActObj{target->act->id(), userTile(target->tileIdx)}));
}

dtu::PhysAddr
System::allocTilePhys(unsigned tile_idx, std::size_t pages)
{
    dtu::PhysAddr pa = pmpBump_.at(tile_idx);
    pmpBump_[tile_idx] += pages * dtu::kPageSize;
    if (pmpBump_[tile_idx] > params_.perTilePmp)
        sim::fatal("System: tile %u PMP window exhausted", tile_idx);
    return pa;
}

void
registerControllerInvariants(sim::Invariants &inv, System &sys)
{
    // Selector disjointness: shard s only mints selectors carrying s
    // in the shard byte, and an activity's table lives on exactly one
    // shard (its home quadrant's).
    inv.addCheck(
        "ctrl.shard.selectors",
        [&sys](sim::Invariants &iv) {
            std::set<dtu::ActId> seen;
            for (unsigned s = 0; s < sys.ctrlShards(); s++) {
                sys.capsOf(s).forEachTable([&](CapTable &t) {
                    if (!seen.insert(t.owner()).second) {
                        iv.fail("activity %u owns capability tables "
                                "on two controller shards",
                                t.owner());
                    }
                    t.forEachCap([&](Capability &c) {
                        if (selShard(c.sel()) != s) {
                            iv.fail("shard %u holds cap sel 0x%x "
                                    "(shard byte %u)",
                                    s, c.sel(), selShard(c.sel()));
                        }
                    });
                });
            }
        },
        sim::Invariants::When::QuiescentOnly);

    // Cross-shard message conservation: at quiescence every RPC was
    // acked (a call waits for its reply, so an unanswered one is a
    // hang and shows here) and every one-way notification that left a
    // controller was handled by its peer.
    inv.addCheck(
        "ctrl.shard.messages",
        [&sys](sim::Invariants &iv) {
            std::uint64_t oneway_sent = 0, oneway_handled = 0;
            for (unsigned s = 0; s < sys.ctrlShards(); s++) {
                Controller &c = sys.controllerOf(s);
                if (c.xshardSent() != c.xshardAcked()) {
                    iv.fail("shard %u: %llu cross-shard calls sent "
                            "but %llu acked",
                            s,
                            static_cast<unsigned long long>(
                                c.xshardSent()),
                            static_cast<unsigned long long>(
                                c.xshardAcked()));
                }
                oneway_sent += c.onewaySent();
                oneway_handled += c.onewayHandled();
            }
            if (oneway_sent != oneway_handled) {
                iv.fail("%llu one-way notifications sent but %llu "
                        "handled",
                        static_cast<unsigned long long>(oneway_sent),
                        static_cast<unsigned long long>(
                            oneway_handled));
            }
        },
        sim::Invariants::When::QuiescentOnly);

    // Share-record pairing: a capability is reachable from another
    // shard only through a matched (remoteChildren, remoteParent)
    // record pair. A dropped one-way notification legitimately
    // orphans one side, so the check stands down when any shard saw
    // one.
    inv.addCheck(
        "ctrl.shard.shares",
        [&sys](sim::Invariants &iv) {
            for (unsigned s = 0; s < sys.ctrlShards(); s++)
                if (sys.controllerOf(s).onewayDropped() != 0)
                    return;
            // The capability at the far end of a share record.
            auto capAt = [&sys](const RemoteRef &r) -> Capability * {
                CapTable *t = sys.capsOf(r.shard).tableIfExists(r.act);
                return t ? t->get(r.sel) : nullptr;
            };
            for (unsigned s = 0; s < sys.ctrlShards(); s++) {
                sys.capsOf(s).forEachTable([&](CapTable &t) {
                    t.forEachCap([&](Capability &c) {
                        const RemoteRef self{static_cast<std::uint8_t>(s),
                                             t.owner(), c.sel()};
                        for (const RemoteRef &r : c.remoteChildren) {
                            Capability *rc = capAt(r);
                            if (!rc || !rc->hasRemoteParent ||
                                !(rc->remoteParent == self)) {
                                iv.fail(
                                    "shard %u cap (%u, 0x%x) has a "
                                    "remote child record for shard "
                                    "%u (%u, 0x%x) with no matching "
                                    "remote parent",
                                    s, t.owner(), c.sel(), r.shard,
                                    r.act, r.sel);
                            }
                        }
                        if (!c.hasRemoteParent)
                            return;
                        const RemoteRef &p = c.remoteParent;
                        Capability *pc = capAt(p);
                        if (!pc || std::find(pc->remoteChildren.begin(),
                                             pc->remoteChildren.end(),
                                             self) ==
                                       pc->remoteChildren.end()) {
                            iv.fail("shard %u cap (%u, 0x%x) claims a "
                                    "remote parent on shard %u "
                                    "(%u, 0x%x) that does not record "
                                    "it",
                                    s, t.owner(), c.sel(), p.shard,
                                    p.act, p.sel);
                        }
                    });
                });
            }
        },
        sim::Invariants::When::QuiescentOnly);
}

dtu::VirtAddr
System::mapPages(App *app, std::size_t n, std::uint8_t perms)
{
    dtu::VirtAddr va = app->act->addrSpace().allocPages(n);
    for (std::size_t i = 0; i < n; i++) {
        dtu::PhysAddr pa = allocTilePhys(app->tileIdx, 1);
        muxes_[app->tileIdx]->mapPage(app->act->id(),
                                      va + i * dtu::kPageSize, pa,
                                      perms);
    }
    return va;
}

} // namespace m3v::os
