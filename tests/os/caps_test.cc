/**
 * @file
 * Unit tests for the capability system: derivation trees, delegation
 * across tables, and recursive revocation.
 */

#include <gtest/gtest.h>

#include "os/caps.h"

namespace m3v::os {
namespace {

KObject
memObj(std::size_t size)
{
    return KObject(MemObj{0, 0, size, dtu::kPermRW});
}

/** Revoke the way the controller does: plan (mark), then execute
 *  (reap). Returns the number of caps removed. */
std::size_t
revoke(CapMgr &mgr, dtu::ActId act, CapSel sel,
       const std::function<void(Capability &)> &on_revoke,
       bool keep_root = false)
{
    RevokePlan plan;
    if (!mgr.planRevoke(act, sel, keep_root, &plan))
        return 0;
    return mgr.executeRevoke(plan, on_revoke);
}

TEST(CapTable, InsertAndGet)
{
    CapTable t(1);
    CapSel sel = t.insertRoot(memObj(4096));
    ASSERT_NE(t.get(sel), nullptr);
    EXPECT_TRUE(std::holds_alternative<MemObj>(t.get(sel)->obj()));
    EXPECT_EQ(t.get(999), nullptr);
    EXPECT_EQ(t.size(), 1u);
}

TEST(CapTable, ChildrenTrackParent)
{
    CapTable t(1);
    CapSel root = t.insertRoot(memObj(4096));
    CapSel child = t.insertChild(memObj(1024), *t.get(root));
    EXPECT_EQ(t.get(child)->parent, t.get(root));
    EXPECT_EQ(t.get(root)->children.size(), 1u);
}

TEST(CapMgr, RevokeRemovesSubtree)
{
    CapMgr mgr;
    CapTable &t = mgr.createTable(1);
    CapSel root = t.insertRoot(memObj(4096));
    CapSel c1 = t.insertChild(memObj(1024), *t.get(root));
    t.insertChild(memObj(512), *t.get(c1));
    int revoked = 0;
    std::size_t n =
        revoke(mgr, 1, root, [&](Capability &) { revoked++; });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(revoked, 3);
    EXPECT_EQ(t.size(), 0u);
}

TEST(CapMgr, RevokeKeepRootSparesRoot)
{
    CapMgr mgr;
    CapTable &t = mgr.createTable(1);
    CapSel root = t.insertRoot(memObj(4096));
    t.insertChild(memObj(1024), *t.get(root));
    t.insertChild(memObj(1024), *t.get(root));
    std::size_t n = revoke(mgr, 1, root, [](Capability &) {}, true);
    EXPECT_EQ(n, 2u);
    ASSERT_NE(t.get(root), nullptr);
    EXPECT_TRUE(t.get(root)->children.empty());
    EXPECT_FALSE(t.get(root)->revoking);
    // The kept root stays a live revocation root.
    t.insertChild(memObj(1024), *t.get(root));
    EXPECT_EQ(revoke(mgr, 1, root, [](Capability &) {}, true), 1u);
}

TEST(CapMgr, DelegationCrossesTablesAndRevokes)
{
    CapMgr mgr;
    CapTable &ta = mgr.createTable(1);
    CapTable &tb = mgr.createTable(2);
    CapSel root = ta.insertRoot(memObj(4096));
    // Delegate: child in B's table holding a copy of the object.
    CapSel dsel = tb.insertChild(ta.get(root)->obj(), *ta.get(root));
    ASSERT_NE(tb.get(dsel), nullptr);

    // Revoking A's root removes B's delegated cap too.
    int revoked = 0;
    std::size_t n =
        revoke(mgr, 1, root, [&](Capability &) { revoked++; });
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(tb.get(dsel), nullptr);
    EXPECT_EQ(ta.get(root), nullptr);
}

TEST(CapMgr, DeepDelegationChainRevokesAll)
{
    CapMgr mgr;
    CapTable &first = mgr.createTable(1);
    CapSel prev_sel = first.insertRoot(memObj(1 << 20));
    Capability *prev = first.get(prev_sel);
    for (dtu::ActId act = 2; act <= 6; act++) {
        CapTable &t = mgr.createTable(act);
        prev = t.get(t.insertChild(prev->obj(), *prev));
    }
    std::size_t n = revoke(mgr, 1, prev_sel, [](Capability &) {});
    EXPECT_EQ(n, 6u);
    for (dtu::ActId act = 2; act <= 6; act++)
        EXPECT_EQ(mgr.tableIfExists(act)->size(), 0u);
}

TEST(CapMgr, DropTableRevokesDelegatedDescendants)
{
    CapMgr mgr;
    CapTable &ta = mgr.createTable(1);
    CapTable &tb = mgr.createTable(2);
    CapSel root = ta.insertRoot(memObj(4096));
    tb.insertChild(ta.get(root)->obj(), *ta.get(root));
    mgr.dropTable(1, [](Capability &) {});
    EXPECT_FALSE(mgr.hasTable(1));
    EXPECT_EQ(tb.size(), 0u);
}

TEST(CapMgr, SiblingSubtreesAreIndependent)
{
    CapMgr mgr;
    CapTable &t = mgr.createTable(1);
    CapSel root = t.insertRoot(memObj(8192));
    CapSel a = t.insertChild(memObj(4096), *t.get(root));
    CapSel b = t.insertChild(memObj(4096), *t.get(root));
    revoke(mgr, 1, a, [](Capability &) {});
    EXPECT_EQ(t.get(a), nullptr);
    ASSERT_NE(t.get(b), nullptr);
    ASSERT_NE(t.get(root), nullptr);
    EXPECT_EQ(t.get(root)->children.size(), 1u);
}

} // namespace
} // namespace m3v::os
