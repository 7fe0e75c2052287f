/**
 * @file
 * A slab pool of reference-counted payload extents.
 *
 * The zero-copy message path threads one payload buffer from the
 * sender's SEND command through the NoC packet, the lane outbox and
 * the receiver's recv-ring slot without ever copying the bytes: every
 * hop holds a PayloadRef, a {slot, generation} handle into this pool
 * (the same discipline as the event core's pooled records, see
 * sim/event_queue.h). The retransmission engine keeps a message alive
 * by holding a second reference instead of a deep copy, and
 * fault-injected corruption mutates a copy-on-write clone so the
 * retx-held original stays clean.
 *
 * Extents recycle their byte buffers: a released extent keeps its
 * vector's capacity, so a warmed-up pool serves make() without heap
 * allocation. Handles are validated by generation — releasing a stale
 * handle (slot already recycled) is detected and counted instead of
 * corrupting the freelist.
 *
 * Thread safety: one pool is shared by every tile of a platform, and
 * in lane mode tiles run on different worker threads. All slot-state
 * transitions (allocate, addRef, release, COW) take the pool mutex;
 * the bytes themselves are only touched by the current owner, with
 * the lane barrier between a post and its merge providing the
 * happens-before edge.
 */

#ifndef M3VSIM_SIM_SLAB_POOL_H_
#define M3VSIM_SIM_SLAB_POOL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/log.h"

namespace m3v::sim {

class SlabPool;

/**
 * A shared reference to one pooled payload extent. Copying bumps the
 * refcount; destruction releases it. An empty (default) ref reads as
 * a zero-length byte vector, so it converts seamlessly wherever a
 * `const std::vector<uint8_t> &` is expected.
 */
class PayloadRef
{
  public:
    using Bytes = std::vector<std::uint8_t>;

    PayloadRef() = default;
    PayloadRef(const PayloadRef &o);
    PayloadRef &operator=(const PayloadRef &o);

    PayloadRef(PayloadRef &&o) noexcept
        : pool_(o.pool_), slot_(o.slot_), gen_(o.gen_)
    {
        o.pool_ = nullptr;
    }

    PayloadRef &
    operator=(PayloadRef &&o) noexcept
    {
        if (this != &o) {
            reset();
            pool_ = o.pool_;
            slot_ = o.slot_;
            gen_ = o.gen_;
            o.pool_ = nullptr;
        }
        return *this;
    }

    ~PayloadRef() { reset(); }

    /** The referenced bytes (a shared static empty vector if null). */
    const Bytes &bytes() const;

    /** Read anywhere a byte vector is expected (read-only). */
    operator const Bytes &() const { return bytes(); }

    const std::uint8_t *data() const { return bytes().data(); }
    std::size_t size() const { return bytes().size(); }
    bool empty() const { return size() == 0; }
    auto begin() const { return bytes().begin(); }
    auto end() const { return bytes().end(); }
    std::uint8_t operator[](std::size_t i) const { return bytes()[i]; }

    /**
     * Copy-on-write mutable access: with a single holder this is the
     * extent's buffer itself; with the extent shared, the bytes are
     * cloned into a fresh extent first and this ref is repointed, so
     * other holders keep the unmodified original.
     */
    Bytes &mutableBytes();

    /** Holds an extent (empty refs do not). */
    bool valid() const { return pool_ != nullptr; }

    /** Drop the reference (extent freed when the last ref drops). */
    void reset();

    // Handle internals, exposed for the lifetime tests.
    std::uint32_t debugSlot() const { return slot_; }
    std::uint32_t debugGen() const { return gen_; }

  private:
    friend class SlabPool;

    PayloadRef(SlabPool *pool, std::uint32_t slot, std::uint32_t gen)
        : pool_(pool), slot_(slot), gen_(gen)
    {
    }

    SlabPool *pool_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/** The pool. One per platform (owned by the NoC facade). */
class SlabPool
{
  public:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    SlabPool() = default;
    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    /** A fresh extent of @p n zeroed bytes (n == 0 -> empty ref). */
    PayloadRef
    make(std::size_t n)
    {
        if (n == 0)
            return PayloadRef();
        std::lock_guard<std::mutex> lock(mu_);
        std::uint32_t slot = allocSlotLocked();
        Extent &e = slot_ref(slot);
        e.bytes.assign(n, 0);
        return PayloadRef(this, slot, e.gen);
    }

    /** A fresh extent holding a copy of @p n bytes at @p p. */
    PayloadRef
    copy(const std::uint8_t *p, std::size_t n)
    {
        if (n == 0)
            return PayloadRef();
        std::lock_guard<std::mutex> lock(mu_);
        std::uint32_t slot = allocSlotLocked();
        Extent &e = slot_ref(slot);
        e.bytes.resize(n);
        std::memcpy(e.bytes.data(), p, n);
        byteCopies_++;
        copiedBytes_ += n;
        return PayloadRef(this, slot, e.gen);
    }

    /**
     * Move @p v into a fresh extent (no byte copy). The extent's
     * recycled capacity is replaced by the adopted buffer, so prefer
     * make() + fill on paths that must stay allocation-free.
     */
    PayloadRef
    adopt(std::vector<std::uint8_t> &&v)
    {
        if (v.empty())
            return PayloadRef();
        std::lock_guard<std::mutex> lock(mu_);
        std::uint32_t slot = allocSlotLocked();
        Extent &e = slot_ref(slot);
        e.bytes = std::move(v);
        return PayloadRef(this, slot, e.gen);
    }

    /** Snapshot of the conservation counters (one consistent view). */
    struct Stats
    {
        /** Extent slots ever created (== live + free, always). */
        std::size_t allocated = 0;
        /** Slots currently referenced. */
        std::size_t live = 0;
        /** Slots on the freelist. */
        std::size_t free = 0;
        /** Releases rejected by the generation check. */
        std::uint64_t staleReleases = 0;
        /** Byte-copy operations performed (copy() calls + COW). */
        std::uint64_t byteCopies = 0;
        /** Total bytes those operations copied. */
        std::uint64_t copiedBytes = 0;
        /** COW clones (a shared extent was mutated). */
        std::uint64_t cowClones = 0;
    };

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        Stats s;
        s.allocated = allocated_;
        s.live = live_;
        s.free = free_;
        s.staleReleases = staleReleases_;
        s.byteCopies = byteCopies_;
        s.copiedBytes = copiedBytes_;
        s.cowClones = cowClones_;
        return s;
    }

    /**
     * Release a raw handle (test hook for the double-release check):
     * returns false — and counts a stale release — when @p gen does
     * not match the slot's current generation, i.e. the handle was
     * already released and the slot possibly recycled.
     */
    bool
    releaseHandle(std::uint32_t slot, std::uint32_t gen)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return releaseLocked(slot, gen);
    }

  private:
    friend class PayloadRef;

    struct Extent
    {
        std::vector<std::uint8_t> bytes;
        std::uint32_t refs = 0;
        std::uint32_t gen = 1;
        std::uint32_t nextFree = kNoSlot;
    };

    static constexpr std::size_t kSlabExtents = 64;

    /**
     * The slab table is a fixed array of slab pointers (not a
     * vector): readers dereference it without the pool mutex, and a
     * vector reallocation during growth would move the pointers under
     * them. A published handle orders the slab's construction before
     * any unlocked read (lane-barrier handover), so the plain loads
     * are race-free.
     */
    static constexpr std::size_t kMaxSlabs = 8192;

    Extent &
    slot_ref(std::uint32_t slot)
    {
        return slabs_[slot / kSlabExtents][slot % kSlabExtents];
    }

    /** Pop the freelist or grow a slab. Pool mutex held. */
    std::uint32_t
    allocSlotLocked()
    {
        if (freeHead_ == kNoSlot) {
            if (numSlabs_ == kMaxSlabs)
                panic("SlabPool: out of extent slots (%zu slabs)",
                      numSlabs_);
            slabs_[numSlabs_] =
                std::make_unique<Extent[]>(kSlabExtents);
            std::uint32_t base = static_cast<std::uint32_t>(
                numSlabs_ * kSlabExtents);
            for (std::size_t i = kSlabExtents; i-- > 0;) {
                Extent &e = slabs_[numSlabs_][i];
                e.nextFree = freeHead_;
                freeHead_ = base + static_cast<std::uint32_t>(i);
            }
            numSlabs_++;
            allocated_ += kSlabExtents;
            free_ += kSlabExtents;
        }
        std::uint32_t slot = freeHead_;
        Extent &e = slot_ref(slot);
        freeHead_ = e.nextFree;
        e.nextFree = kNoSlot;
        e.refs = 1;
        free_--;
        live_++;
        return slot;
    }

    void
    addRef(std::uint32_t slot, std::uint32_t gen)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Extent &e = slot_ref(slot);
        if (e.gen != gen || e.refs == 0)
            panic("SlabPool: addRef on stale handle (slot %u gen %u, "
                  "extent gen %u refs %u)",
                  slot, gen, e.gen, e.refs);
        e.refs++;
    }

    /** Pool mutex held. */
    bool
    releaseLocked(std::uint32_t slot, std::uint32_t gen)
    {
        if (slot / kSlabExtents >= numSlabs_) {
            staleReleases_++;
            return false;
        }
        Extent &e = slot_ref(slot);
        if (e.gen != gen || e.refs == 0) {
            staleReleases_++;
            return false;
        }
        if (--e.refs == 0) {
            // Recycle: bump the generation so stale handles are
            // detectable, keep the buffer's capacity for reuse.
            e.gen++;
            e.bytes.clear();
            e.nextFree = freeHead_;
            freeHead_ = slot;
            live_--;
            free_++;
        }
        return true;
    }

    void
    release(std::uint32_t slot, std::uint32_t gen)
    {
        std::lock_guard<std::mutex> lock(mu_);
        releaseLocked(slot, gen);
    }

    const std::vector<std::uint8_t> &
    bytesOf(std::uint32_t slot) const
    {
        return slabs_[slot / kSlabExtents][slot % kSlabExtents].bytes;
    }

    /**
     * COW support: returns the extent's buffer if @p slot is solely
     * owned; otherwise clones the bytes into a fresh extent, drops
     * one ref from the original, and updates @p slot / @p gen.
     */
    std::vector<std::uint8_t> &
    mutableBytesOf(std::uint32_t &slot, std::uint32_t &gen)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Extent &e = slot_ref(slot);
        if (e.gen != gen || e.refs == 0)
            panic("SlabPool: mutable access through stale handle");
        if (e.refs == 1)
            return e.bytes;
        std::uint32_t fresh = allocSlotLocked();
        Extent &f = slot_ref(fresh);
        // allocSlotLocked may have grown a slab; re-resolve e.
        Extent &orig = slot_ref(slot);
        f.bytes.resize(orig.bytes.size());
        std::memcpy(f.bytes.data(), orig.bytes.data(),
                    orig.bytes.size());
        byteCopies_++;
        copiedBytes_ += orig.bytes.size();
        cowClones_++;
        orig.refs--;
        slot = fresh;
        gen = f.gen;
        return f.bytes;
    }

    mutable std::mutex mu_;
    std::unique_ptr<Extent[]> slabs_[kMaxSlabs];
    std::size_t numSlabs_ = 0;
    std::uint32_t freeHead_ = kNoSlot;
    std::size_t allocated_ = 0;
    std::size_t live_ = 0;
    std::size_t free_ = 0;
    std::uint64_t staleReleases_ = 0;
    std::uint64_t byteCopies_ = 0;
    std::uint64_t copiedBytes_ = 0;
    std::uint64_t cowClones_ = 0;
};

inline PayloadRef::PayloadRef(const PayloadRef &o)
    : pool_(o.pool_), slot_(o.slot_), gen_(o.gen_)
{
    if (pool_)
        pool_->addRef(slot_, gen_);
}

inline PayloadRef &
PayloadRef::operator=(const PayloadRef &o)
{
    if (this != &o) {
        if (o.pool_)
            o.pool_->addRef(o.slot_, o.gen_);
        reset();
        pool_ = o.pool_;
        slot_ = o.slot_;
        gen_ = o.gen_;
    }
    return *this;
}

inline const PayloadRef::Bytes &
PayloadRef::bytes() const
{
    static const Bytes kEmpty;
    if (!pool_)
        return kEmpty;
    return pool_->bytesOf(slot_);
}

inline PayloadRef::Bytes &
PayloadRef::mutableBytes()
{
    if (!pool_)
        panic("PayloadRef: mutableBytes on an empty ref");
    return pool_->mutableBytesOf(slot_, gen_);
}

inline void
PayloadRef::reset()
{
    if (pool_) {
        pool_->release(slot_, gen_);
        pool_ = nullptr;
    }
}

} // namespace m3v::sim

#endif // M3VSIM_SIM_SLAB_POOL_H_
