/**
 * @file
 * The controller's capability system (paper section 3.3): activities
 * derive, delegate and revoke capabilities through system calls; only
 * the controller establishes communication channels from them.
 *
 * Capabilities form a derivation tree: delegating or deriving creates
 * children, and revocation removes a whole subtree, invalidating any
 * DTU endpoints the revoked capabilities were activated into.
 *
 * The tree is partitioned per controller shard (DESIGN.md section 4i):
 * each shard owns the tables of the activities homed in its tile
 * quadrant, and selectors carry the shard id in their top byte.
 * Derivation edges within a shard are ordinary parent/child pointers;
 * edges that cross shards are explicit share records (RemoteRef) kept
 * on both sides, maintained by the cross-shard controller protocol.
 * Revocation is two-phase: the local subtree is first *marked*
 * (revoking = true, which fails new delegations from it), the remote
 * children are revoked over the wire, and only then is the marked
 * subtree reaped — so an in-flight delegation can never resurrect a
 * capability that a concurrent revoke already decided to kill.
 */

#ifndef M3VSIM_OS_CAPS_H_
#define M3VSIM_OS_CAPS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dtu/types.h"
#include "noc/packet.h"
#include "os/proto.h"

namespace m3v::os {

/** Kinds of kernel objects capabilities can refer to. */
enum class CapKind : std::uint8_t
{
    Activity,
    RecvGate,
    SendGate,
    MemGate,
};

/** A region of physical memory on some tile. */
struct MemObj
{
    noc::TileId tile = 0;
    dtu::PhysAddr addr = 0;
    std::size_t size = 0;
    std::uint8_t perms = 0;
};

/**
 * A receive gate: the receive endpoint the system builder configured
 * for it, and its slot geometry. Activating the capability installs
 * a receive endpoint of that geometry; it does not move the gate.
 */
struct RgateObj
{
    noc::TileId tile = 0;
    dtu::ActId act = dtu::kInvalidAct;
    dtu::EpId ep = dtu::kInvalidEp;
    std::size_t slotSize = 256;
    std::size_t slots = 8;
};

/** A send gate targeting a receive gate. */
struct SgateObj
{
    RgateObj target;
    std::uint64_t label = 0;
    std::uint32_t credits = 1;
};

/** An activity reference. */
struct ActObj
{
    dtu::ActId id = dtu::kInvalidAct;
    noc::TileId tile = 0;
};

/**
 * A kernel object, held by value in every capability that names it:
 * deriving or delegating a capability copies it, within a shard as
 * across shards. Its kind follows from the object it is built from.
 */
struct KObject
{
    KObject() = default;
    explicit KObject(MemObj m) : kind(CapKind::MemGate), mem(m) {}
    explicit KObject(RgateObj r) : kind(CapKind::RecvGate), rgate(r) {}
    explicit KObject(SgateObj s) : kind(CapKind::SendGate), sgate(s) {}
    explicit KObject(ActObj a) : kind(CapKind::Activity), act(a) {}

    CapKind kind;
    MemObj mem;
    RgateObj rgate;
    SgateObj sgate;
    ActObj act;
};

/**
 * One end of a cross-shard derivation edge: (shard, activity,
 * selector) of the capability on the other side. Kernel objects are
 * *copied* across shards (Corey explicit-share semantics); only these
 * records tie the two copies into one derivation tree.
 */
struct RemoteRef
{
    std::uint8_t shard = 0;
    dtu::ActId act = dtu::kInvalidAct;
    CapSel sel = kInvalidSel;

    bool
    operator==(const RemoteRef &o) const
    {
        return shard == o.shard && act == o.act && sel == o.sel;
    }
};

/** One capability in an activity's table. */
class Capability
{
  public:
    Capability(CapSel sel, dtu::ActId owner, const KObject &obj)
        : sel_(sel), owner_(owner), obj_(obj)
    {
    }

    CapSel sel() const { return sel_; }
    dtu::ActId owner() const { return owner_; }
    const KObject &obj() const { return obj_; }

    Capability *parent = nullptr;
    std::vector<Capability *> children;

    /** Where this cap is activated (tile, ep), if anywhere. */
    bool activated = false;
    noc::TileId actTile = 0;
    dtu::EpId actEp = dtu::kInvalidEp;

    /**
     * Marked for removal by an in-progress two-phase revoke: the cap
     * still resolves (idempotent re-revokes see it) but refuses to be
     * a delegation/derivation source, and exactly one revoke plan owns
     * its eventual reaping.
     */
    bool revoking = false;

    /** Derived from a capability on another shard. */
    bool hasRemoteParent = false;
    RemoteRef remoteParent{};

    /** Children delegated into other shards. */
    std::vector<RemoteRef> remoteChildren;

    /** Remove the share record matching @p ref (idempotent). */
    void
    dropRemoteChild(const RemoteRef &ref)
    {
        for (std::size_t i = 0; i < remoteChildren.size(); i++) {
            if (remoteChildren[i] == ref) {
                remoteChildren.erase(remoteChildren.begin() + i);
                return;
            }
        }
    }

  private:
    CapSel sel_;
    dtu::ActId owner_;
    KObject obj_;
};

/** Per-activity capability table with derivation-tree maintenance. */
class CapTable
{
  public:
    explicit CapTable(dtu::ActId owner, unsigned shard = 0)
        : owner_(owner), next_(makeSel(shard, 1))
    {
    }

    CapTable(const CapTable &) = delete;
    CapTable &operator=(const CapTable &) = delete;

    dtu::ActId owner() const { return owner_; }

    /** Insert a root capability; returns its selector. */
    CapSel insertRoot(const KObject &obj);

    /**
     * Insert a capability derived from @p parent (possibly in another
     * table); returns the new selector.
     */
    CapSel insertChild(const KObject &obj, Capability &parent);

    /**
     * Insert a copy of @p obj derived from @p parent, a capability on
     * another shard (cross-shard delegate); returns the new selector.
     */
    CapSel insertShared(const KObject &obj, const RemoteRef &parent);

    Capability *get(CapSel sel);
    const Capability *get(CapSel sel) const;

    std::size_t size() const { return caps_.size(); }

    /** Visit every capability in this table. */
    void
    forEachCap(const std::function<void(Capability &)> &fn)
    {
        for (auto &[sel, cap] : caps_)
            fn(*cap);
    }

  private:
    friend class CapMgr;

    dtu::ActId owner_;
    CapSel next_;
    std::map<CapSel, std::unique_ptr<Capability>> caps_;
};

/**
 * A marked revocation: the local part of the subtree, pre-order, with
 * every member's revoking flag set. Its cross-shard edges stay on the
 * marked caps (remoteChildren, remoteParent) for the controller to
 * sever before and after the reap.
 */
struct RevokePlan
{
    Capability *root = nullptr;
    bool keepRoot = false;
    /** Local subtree, pre-order (root first); excludes subtrees that
     *  were already marked by another in-progress revoke. */
    std::vector<Capability *> caps;
};

/**
 * One shard's view over the capability tables of the activities it
 * owns, with cross-table (same-shard) revocation. A default-built
 * CapMgr is shard 0, the whole capability space of a single
 * controller.
 */
class CapMgr
{
  public:
    explicit CapMgr(unsigned shard = 0) : shard_(shard) {}

    unsigned shard() const { return shard_; }

    /**
     * Create the table of a new activity (or fetch it if it exists).
     * Only activity creation calls this: every other lookup goes
     * through tableIfExists(), so a reaped activity stays without a
     * table.
     */
    CapTable &createTable(dtu::ActId act);

    /** The table of @p act, or nullptr (never creates). */
    CapTable *tableIfExists(dtu::ActId act);

    bool hasTable(dtu::ActId act) const;

    /** Remove an entire activity's table (activity exit). */
    void dropTable(dtu::ActId act,
                   const std::function<void(Capability &)> &on_revoke);

    /**
     * Phase one of a two-phase revoke: mark the local subtree rooted
     * at (act, sel) into @p plan.
     * Returns false when there is nothing to do — the root does not
     * exist or is already owned by another in-progress revoke (both
     * make re-revocation idempotent). Subtrees already marked by
     * another plan are skipped: that plan reaps them.
     */
    bool planRevoke(dtu::ActId act, CapSel sel, bool keep_root,
                    RevokePlan *plan);

    /**
     * Phase two: reap the marked caps (leaves first), invoking
     * @p on_revoke for each removed capability. Children that another
     * plan owns are detached (parent pointer cleared) instead of
     * freed. Returns the number removed.
     */
    std::size_t
    executeRevoke(const RevokePlan &plan,
                  const std::function<void(Capability &)> &on_revoke);

    /** Visit every live table (invariant checks, fuzz oracles). */
    void
    forEachTable(const std::function<void(CapTable &)> &fn)
    {
        for (auto &t : tables_)
            if (t)
                fn(*t);
    }

  private:
    unsigned shard_ = 0;
    /** Flat, ActId-indexed (hot path: every syscall resolves the
     *  caller's table; dtu::ActId is 16-bit so the spine stays small). */
    std::vector<std::unique_ptr<CapTable>> tables_;
};

} // namespace m3v::os

#endif // M3VSIM_OS_CAPS_H_
