/**
 * @file
 * The virtualized DTU (vDTU) — the hardware half of M3v's
 * contribution (paper sections 3.4-3.8 and 4.1).
 *
 * The vDTU extends the plain DTU with a *privileged interface* that
 * only TileMux may use, enabling multiple activities to share the
 * DTU without saving/restoring its state:
 *
 *  - Every endpoint is tagged with the owning activity; using another
 *    activity's endpoint yields "unknown endpoint" (ForeignEp).
 *  - The CUR_ACT register holds the current activity id plus its
 *    number of unread messages. An atomic exchange command switches
 *    the activity and returns the old register value, so TileMux can
 *    block an activity without losing wake-ups (section 3.7).
 *  - A software-loaded TLB translates buffer addresses; commands are
 *    restricted to a single page and fail with TlbMiss instead of
 *    injecting an interrupt (section 3.6). TileMux refills the TLB
 *    through the privileged interface.
 *  - Physical-memory protection (PMP): translated addresses are
 *    checked against the first four (memory) endpoints; the PMP
 *    endpoint is selected by the upper two bits of the physical
 *    address (section 4.1).
 *  - Messages for *non-running* activities are always deliverable
 *    (fast path); the vDTU then enqueues a *core request* and injects
 *    an interrupt. The queue is small; when full, incoming messages
 *    are backpressured through the NoC's packet flow control
 *    (section 3.8).
 */

#ifndef M3VSIM_CORE_VDTU_H_
#define M3VSIM_CORE_VDTU_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "dtu/dtu.h"
#include "sim/ring_deque.h"

namespace m3v::core {

/** The CUR_ACT register: current activity and its unread messages. */
struct CurAct
{
    dtu::ActId act = dtu::kInvalidAct;
    std::uint16_t msgCount = 0;
};

/**
 * A core request: one or more messages arrived for a non-running
 * activity. Stores for an activity that already has a queued request
 * are coalesced into it (count goes up, no new queue slot, no new
 * IRQ) — TileMux wakes the activity once and it drains all unread
 * messages when it runs, so one request per activity is sufficient.
 */
struct CoreReq
{
    dtu::ActId act = dtu::kInvalidAct;
    /** Messages aggregated into this request. */
    std::uint32_t count = 1;
};

/** A software-loaded TLB entry. */
struct TlbEntry
{
    dtu::ActId act = dtu::kInvalidAct;
    dtu::VirtAddr page = 0;
    dtu::PhysAddr phys = 0;
    std::uint8_t perms = 0;
    std::uint64_t lastUse = 0;
};

/** Core-request queue depth (small, section 3.8). */
constexpr std::size_t kCoreReqQueue = 4;

/** vDTU-specific parameters. */
struct VDtuParams
{
    /** TLB capacity (entries). */
    std::size_t tlbEntries = 32;
};

/** The virtualized data transfer unit. */
class VDtu : public dtu::Dtu
{
  public:
    VDtu(sim::EventQueue &eq, std::string name, noc::Noc &noc,
         noc::TileId tile, std::uint64_t freq_hz,
         VDtuParams params = {}, dtu::DtuTiming timing = {});

    //
    // Privileged interface (TileMux only).
    //

    /** Read CUR_ACT. */
    CurAct curAct() const { return cur_; }

    /**
     * Atomically switch to @p next and return the old CUR_ACT. The
     * atomicity guarantees no message notification can interleave
     * with the switch (paper section 3.7).
     */
    CurAct xchgAct(dtu::ActId next);

    /** Insert a TLB entry (after a transl TMCall). */
    void tlbInsert(dtu::ActId act, dtu::VirtAddr virt,
                   dtu::PhysAddr phys, std::uint8_t perms);

    /** Remove all translations of an activity (activity teardown). */
    void tlbFlushAct(dtu::ActId act);

    /**
     * Full per-activity state teardown (activity kill/exit): flush
     * the TLB, forget the unread-message count, and purge queued core
     * requests for @p act. Without this a reused ActId inherits
     * phantom unread messages and dead activities keep raising
     * core-request IRQs. Purging may free core-request queue space,
     * so NoC backpressure waiters are notified.
     */
    void resetAct(dtu::ActId act);

    /** Number of valid TLB entries (for tests/ablations). */
    std::size_t tlbFill() const;

    /** True if a core request is pending. */
    bool coreReqPending() const { return !coreReqs_.empty(); }

    /** Read the head core request (privileged register read). */
    CoreReq coreReqGet() const;

    /**
     * Acknowledge the head core request. If more are queued, the
     * interrupt is raised again.
     */
    void coreReqAck();

    /**
     * Install the interrupt injection hook (TileMux wires this to
     * Core::raiseIrq(IrqKind::CoreRequest)).
     */
    void
    setCoreReqIrq(std::function<void()> cb)
    {
        coreReqIrq_ = std::move(cb);
    }

    /** Unread-message count of an arbitrary activity (priv. read). */
    std::size_t unreadOf(dtu::ActId act) const;

    // Statistics for the evaluation (registry-backed).
    std::uint64_t tlbMisses() const { return tlbMisses_->value(); }
    std::uint64_t tlbHits() const { return tlbHits_->value(); }
    std::uint64_t coreReqs() const { return coreReqCount_->value(); }
    /** Message stores absorbed into an already-queued request. */
    std::uint64_t coreReqsCoalesced() const
    {
        return coreReqsCoalesced_->value();
    }
    std::uint64_t foreignEpDenials() const
    {
        return foreignDenials_->value();
    }

    // noc::HopTarget override: backpressure when the core-request
    // queue is full and the incoming message would need a new one.
    bool acceptPacket(noc::Packet &pkt,
                      sim::UniqueFunction<void()> on_space) override;

    /**
     * Register this vDTU's state-machine laws with @p inv (tests
     * only): CUR_ACT's message count equals the current activity's
     * queued unread messages, the unread_ bookkeeping matches the
     * receive-endpoint slots, backpressure waiters exist only while
     * the core-request queue is full (every boundary); and at
     * quiescence the core-request queue has drained.
     */
    void registerInvariants(sim::Invariants &inv);

  protected:
    dtu::Error checkEpAccess(dtu::ActId act,
                             const dtu::Endpoint &ep) const override;
    dtu::Error translate(dtu::ActId act, dtu::VirtAddr buf, bool write,
                         dtu::PhysAddr &phys) override;
    void onMessageStored(dtu::EpId ep_id, dtu::ActId owner) override;
    void onMessageFetched(dtu::EpId ep_id, dtu::ActId owner) override;

  private:
    TlbEntry *tlbLookup(dtu::ActId act, dtu::VirtAddr page);
    dtu::Error pmpCheck(dtu::PhysAddr phys, bool write) const;
    void notifySpaceWaiters();
    /** Queued request for @p act, or nullptr. */
    CoreReq *findCoreReq(dtu::ActId act);

    VDtuParams params_;
    CurAct cur_;
    std::vector<TlbEntry> tlb_;
    std::uint64_t tlbClock_ = 0;
    sim::RingDeque<CoreReq> coreReqs_;
    std::function<void()> coreReqIrq_;
    std::unordered_map<dtu::ActId, std::size_t> unread_;
    std::vector<sim::UniqueFunction<void()>> spaceWaiters_;

    sim::Counter *tlbMisses_;
    sim::Counter *tlbHits_;
    sim::Counter *coreReqCount_;
    sim::Counter *coreReqsCoalesced_;
    sim::Counter *foreignDenials_;
};

} // namespace m3v::core

#endif // M3VSIM_CORE_VDTU_H_
