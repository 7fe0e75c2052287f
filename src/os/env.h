/**
 * @file
 * The libm3 layer: the environment application code runs against.
 *
 * An Env binds an execution context (a tile::Thread) to its DTU and
 * offers coroutine operations with realistic software costs (MMIO
 * register accesses, command polling) and the TLB-miss retry protocol
 * of section 3.6: a failed command triggers a transl TMCall to
 * TileMux, which refills the vDTU TLB, and the command is retried.
 *
 * Two flavours exist:
 *  - MuxEnv: an activity on a multiplexed user tile (TileMux+vDTU);
 *    blocking waits go through TileMux (or poll, section 3.7).
 *  - BareEnv: a bare-metal context on a dedicated tile (the
 *    controller tile); waits poll the DTU directly.
 */

#ifndef M3VSIM_OS_ENV_H_
#define M3VSIM_OS_ENV_H_

#include <functional>
#include <string>
#include <vector>

#include "core/tilemux.h"
#include "core/vdtu.h"
#include "dtu/dtu.h"
#include "os/proto.h"
#include "sim/task.h"
#include "tile/core.h"

namespace m3v::os {

/** Base application environment. */
class Env
{
  public:
    Env(std::string name, tile::Thread &thread, dtu::Dtu &dtu,
        dtu::ActId act);
    virtual ~Env() = default;

    Env(const Env &) = delete;
    Env &operator=(const Env &) = delete;

    const std::string &name() const { return name_; }
    tile::Thread &thread() { return *thread_; }
    dtu::Dtu &dtu() { return *dtu_; }
    dtu::ActId actId() const { return act_; }
    noc::TileId tileId() const { return dtu_->tileId(); }

    /** Virtual address of the activity's message buffer page. */
    dtu::VirtAddr msgBuf() const { return msgBuf_; }
    void setMsgBuf(dtu::VirtAddr va) { msgBuf_ = va; }

    /** Install the syscall channel (send to controller + reply EP). */
    void
    setSyscallGates(dtu::EpId sep, dtu::EpId rep)
    {
        syscSep_ = sep;
        syscRep_ = rep;
    }

    //
    // Messaging (all with MMIO costs and TLB-miss retry).
    //

    /** Send @p msg through send EP @p sep; replies arrive at
     *  @p reply_ep (kInvalidEp for one-way messages). @p nonce is
     *  echoed back in the reply, which lets calls sharing one reply
     *  EP match their replies (see dtu::Message::nonce); 0 means
     *  "unused". */
    sim::Task send(dtu::EpId sep, Bytes msg, dtu::EpId reply_ep,
                   dtu::Error *err, std::uint64_t nonce = 0);

    /** Reply to the message in @p slot of @p rep. */
    sim::Task reply(dtu::EpId rep, int slot, Bytes msg,
                    dtu::Error *err);

    /** Wait for and fetch the next message on @p rep. */
    sim::Task recvOn(dtu::EpId rep, int *slot);

    /**
     * Wait for a message on any of @p reps; returns the EP and slot.
     * This is the workloop primitive services use.
     */
    sim::Task recvAny(std::vector<dtu::EpId> reps, dtu::EpId *which,
                      int *slot);

    /** Copy out a fetched message's payload. */
    const dtu::Message &msgAt(dtu::EpId rep, int slot) const;

    /** Acknowledge (free) a fetched message. */
    sim::Task ackMsg(dtu::EpId rep, int slot);

    /**
     * Full RPC: send, await the reply, copy it out, acknowledge. The
     * reply EP must be used by one caller at a time. A call whose
     * send fails returns at once; the NoC loses nothing, so its
     * request was never delivered and no late reply can follow.
     */
    sim::Task call(dtu::EpId sep, dtu::EpId rep, Bytes req,
                   Bytes *resp, dtu::Error *err);

    //
    // Memory gates.
    //

    sim::Task readMem(dtu::EpId mep, std::uint64_t off,
                      std::size_t size, Bytes *out, dtu::Error *err);

    sim::Task writeMem(dtu::EpId mep, std::uint64_t off, Bytes data,
                       dtu::Error *err);

    //
    // System calls.
    //

    sim::Task syscall(SyscallReq req, SyscallResp *resp);

    /**
     * Like syscall(), but a transport failure (e.g. the caller's
     * endpoints were reset because it was killed mid-call) surfaces
     * as @p err instead of a panic; a null @p err panics as syscall()
     * does. For code that must survive its own activity's crash, such
     * as fault-injection tests.
     */
    sim::Task trySyscall(SyscallReq req, SyscallResp *resp,
                         dtu::Error *err);

    //
    // Scheduling.
    //

    /** Voluntarily yield the core. */
    virtual sim::Task yield() = 0;

    /** Terminate this context (never returns on mux tiles). */
    virtual sim::Task exit() = 0;

  protected:
    /**
     * Block/poll until an unread message exists for this context —
     * on @p ep if given, on any endpoint otherwise.
     */
    virtual sim::Task waitImpl(dtu::EpId ep) = 0;

    /** Resolve a TLB miss for @p va (no-op on bare tiles). */
    virtual sim::Task translFix(dtu::VirtAddr va) = 0;

    /** MMIO cost shorthands (cycles from the core model). */
    sim::Cycles mmioR(unsigned n = 1) const;
    sim::Cycles mmioW(unsigned n = 1) const;

    std::string name_;
    tile::Thread *thread_;
    dtu::Dtu *dtu_;
    dtu::ActId act_;
    dtu::VirtAddr msgBuf_ = 0;
    dtu::EpId syscSep_ = dtu::kInvalidEp;
    dtu::EpId syscRep_ = dtu::kInvalidEp;

  private:
    /** One DTU command: @p setup MMIO cycles, @p launch(done), wait for
     *  done(Error), an optional status read, and a transl retry on a
     *  TLB miss of the message buffer. */
    template <typename Launch>
    sim::Task command(sim::Cycles setup, bool status_read,
                      Launch launch, dtu::Error *err);
};

/** Environment of an activity on a multiplexed tile. */
class MuxEnv : public Env
{
  public:
    MuxEnv(std::string name, core::Activity &act, core::VDtu &vdtu);

    core::Activity &activity() { return *act_; }
    core::TileMux &mux() { return act_->mux(); }

    sim::Task yield() override;
    sim::Task exit() override;

  protected:
    sim::Task waitImpl(dtu::EpId ep) override;
    sim::Task translFix(dtu::VirtAddr va) override;

  private:
    core::Activity *act_;
};

/** Environment of a bare-metal context on a dedicated tile. */
class BareEnv : public Env
{
  public:
    BareEnv(std::string name, tile::Thread &thread, dtu::Dtu &dtu,
            dtu::ActId act);

    /** EPs this context receives on (for the poll check). */
    void addRecvEp(dtu::EpId ep) { reps_.push_back(ep); }

    /**
     * Block until one of @p eps has an unread message. Wakeups may be
     * spurious (a message on another EP); callers re-check state. The
     * cross-shard controller call loop uses this to wait for its reply
     * while staying responsive to incoming peer requests.
     */
    sim::Task waitEps(const std::vector<dtu::EpId> &eps);

    sim::Task yield() override;
    sim::Task exit() override;

  protected:
    sim::Task waitImpl(dtu::EpId ep) override;
    sim::Task translFix(dtu::VirtAddr va) override;

  private:
    bool anyUnread() const;

    std::vector<dtu::EpId> reps_;
    bool waiting_ = false;
};

} // namespace m3v::os

#endif // M3VSIM_OS_ENV_H_
