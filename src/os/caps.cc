#include "os/caps.h"

#include <algorithm>

#include "sim/log.h"

namespace m3v::os {

CapSel
CapTable::insertRoot(const KObject &obj)
{
    CapSel sel = next_++;
    caps_.emplace(sel, std::make_unique<Capability>(sel, owner_, obj));
    return sel;
}

CapSel
CapTable::insertChild(const KObject &obj, Capability &parent)
{
    CapSel sel = next_++;
    auto cap = std::make_unique<Capability>(sel, owner_, obj);
    cap->parent = &parent;
    parent.children.push_back(cap.get());
    caps_.emplace(sel, std::move(cap));
    return sel;
}

CapSel
CapTable::insertShared(const KObject &obj, const RemoteRef &parent)
{
    CapSel sel = next_++;
    auto cap = std::make_unique<Capability>(sel, owner_, obj);
    cap->hasRemoteParent = true;
    cap->remoteParent = parent;
    caps_.emplace(sel, std::move(cap));
    return sel;
}

Capability *
CapTable::get(CapSel sel)
{
    auto it = caps_.find(sel);
    return it == caps_.end() ? nullptr : it->second.get();
}

const Capability *
CapTable::get(CapSel sel) const
{
    auto it = caps_.find(sel);
    return it == caps_.end() ? nullptr : it->second.get();
}

CapTable &
CapMgr::createTable(dtu::ActId act)
{
    if (act >= tables_.size())
        tables_.resize(act + 1);
    if (!tables_[act])
        tables_[act] = std::make_unique<CapTable>(act, shard_);
    return *tables_[act];
}

CapTable *
CapMgr::tableIfExists(dtu::ActId act)
{
    return act < tables_.size() ? tables_[act].get() : nullptr;
}

bool
CapMgr::hasTable(dtu::ActId act) const
{
    return act < tables_.size() && tables_[act] != nullptr;
}

bool
CapMgr::planRevoke(dtu::ActId act, CapSel sel, bool keep_root,
                   RevokePlan *plan)
{
    CapTable *table = tableIfExists(act);
    if (!table)
        return false;
    Capability *root = table->get(sel);
    // Idempotence: a missing root (already revoked, double revoke, a
    // crash reap's one-way revoke racing a syscall's) and a root
    // another in-progress revoke owns are both "nothing left for this
    // plan to do".
    if (!root || (root->revoking && !keep_root))
        return false;

    plan->root = root;
    plan->keepRoot = keep_root;

    // Mark the local subtree pre-order, skipping subtrees an earlier
    // plan already owns (it reaps them; marking twice would make two
    // plans free the same caps).
    std::vector<Capability *> stack;
    if (keep_root) {
        for (Capability *c : root->children)
            stack.push_back(c);
    } else {
        stack.push_back(root);
    }
    // Children are pushed in reverse so they pop in sibling order:
    // plan->caps is the exact recursive pre-order (root, first child's
    // subtree, ...), so the reap below invalidates EPs leaves first in
    // a deterministic order.
    std::reverse(stack.begin(), stack.end());
    while (!stack.empty()) {
        Capability *cap = stack.back();
        stack.pop_back();
        if (cap->revoking)
            continue;
        cap->revoking = true;
        plan->caps.push_back(cap);
        for (auto it = cap->children.rbegin();
             it != cap->children.rend(); ++it)
            stack.push_back(*it);
    }
    // A kept root with no local children can still have delegated
    // copies on other shards: the plan is then empty locally but the
    // caller must still sever the root's remote children.
    return !plan->caps.empty() ||
           (keep_root && !root->remoteChildren.empty());
}

std::size_t
CapMgr::executeRevoke(
    const RevokePlan &plan,
    const std::function<void(Capability &)> &on_revoke)
{
    std::size_t removed = 0;
    // Reverse plan order: every cap precedes its (unskipped) children,
    // so reaping back-to-front frees leaves first.
    for (auto it = plan.caps.rbegin(); it != plan.caps.rend(); ++it) {
        Capability *cap = *it;
        on_revoke(*cap);
        if (cap->parent) {
            auto &sib = cap->parent->children;
            sib.erase(std::remove(sib.begin(), sib.end(), cap),
                      sib.end());
        }
        // Children skipped at plan time (another revoke owns them)
        // are still linked: detach them so their own plan's reap does
        // not chase a dangling parent pointer.
        for (Capability *child : cap->children)
            child->parent = nullptr;
        CapTable *t = tableIfExists(cap->owner());
        if (!t)
            sim::panic("CapMgr: revoked cap of act %u without table",
                       cap->owner());
        t->caps_.erase(cap->sel());
        removed++;
    }
    return removed;
}

void
CapMgr::dropTable(dtu::ActId act,
                  const std::function<void(Capability &)> &on_revoke)
{
    CapTable *table = tableIfExists(act);
    if (!table)
        return;
    auto revoke = [&](CapSel sel) {
        RevokePlan plan;
        if (planRevoke(act, sel, false, &plan))
            executeRevoke(plan, on_revoke);
    };
    // Revoke every root (and thereby all delegated descendants).
    std::vector<CapSel> roots;
    for (auto &[sel, cap] : table->caps_)
        if (!cap->parent && !cap->revoking)
            roots.push_back(sel);
    for (CapSel sel : roots)
        revoke(sel);
    // Caps derived from other tables (delegated *to* this activity)
    // or detached by a concurrent plan may remain; they are reaped by
    // revoking their local parents, which dropTable must not wait
    // for — remove them now, bottom-up.
    for (;;) {
        Capability *leaf = nullptr;
        for (auto &[sel, cap] : table->caps_) {
            if (!cap->revoking) {
                leaf = cap.get();
                break;
            }
        }
        if (!leaf)
            break;
        revoke(leaf->sel());
    }
    if (table->caps_.empty())
        tables_[act].reset();
}

} // namespace m3v::os
