/**
 * @file
 * The pager service (paper section 4.3): an OS service activity that
 * manages other activities' address-space layouts. Clients ask it to
 * back fresh virtual ranges; the pager picks physical pages and asks
 * the controller (MapFor syscall) to forward the mapping to the
 * responsible TileMux as a sidecall — the controller itself never
 * touches page tables.
 */

#ifndef M3VSIM_SERVICES_PAGER_H_
#define M3VSIM_SERVICES_PAGER_H_

#include <map>

#include "os/system.h"

namespace m3v::services {

/** Pager request. */
struct PagerReq
{
    enum class Op : std::uint32_t
    {
        AllocMap, ///< back [va, va + pages) with fresh memory
    };

    Op op = Op::AllocMap;
    std::uint32_t pages = 0;
    std::uint64_t va = 0;
};

/** Pager response. */
struct PagerResp
{
    dtu::Error err = dtu::Error::None;
};

/** Pager instruction footprint (cache competition model). */
constexpr std::size_t kPagerFootprint = 6 * 1024;

/** Pager request ring slots. */
constexpr std::size_t kPagerReqSlots = 8;

/** The pager service. */
class PagerService
{
  public:
    /** Boot wiring of one client. */
    struct Client
    {
        std::uint64_t id = 0;
        dtu::EpId sgateEp = dtu::kInvalidEp;
        dtu::EpId replyEp = dtu::kInvalidEp;
    };

    PagerService(os::System &sys, unsigned tile_idx);

    os::System::App *app() { return app_; }

    Client addClient(os::System::App *client);
    void startService();

    std::uint64_t requests() const { return requests_; }
    std::uint64_t pagesMapped() const { return pagesMapped_; }

  private:
    struct ClientState
    {
        os::CapSel actCap = os::kInvalidSel;
        unsigned tileIdx = 0;
    };

    sim::Task body(os::MuxEnv &env);

    os::System &sys_;
    os::System::App *app_;
    os::System::RgateHandle rgate_;
    std::map<std::uint64_t, ClientState> clients_;
    std::uint64_t nextClient_ = 1;
    std::uint64_t requests_ = 0;
    std::uint64_t pagesMapped_ = 0;
};

/**
 * Client helper: allocate @p pages of virtual address space in the
 * caller's activity and have the pager back and map them.
 */
sim::Task pagerAllocMap(os::MuxEnv &env, const PagerService::Client &c,
                        std::size_t pages, dtu::VirtAddr *va,
                        dtu::Error *err);

} // namespace m3v::services

#endif // M3VSIM_SERVICES_PAGER_H_
