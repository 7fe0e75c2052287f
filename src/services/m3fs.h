/**
 * @file
 * The m3fs service: the extent-based in-memory file system of M3v,
 * run as an ordinary activity (an "OS service on a user tile",
 * Figure 3). File content lives in a DRAM storage region owned by
 * the service; clients get *direct* DTU access to whole extents via
 * derived memory capabilities, so the service (and the controller)
 * are only involved once per extent, not once per read/write —
 * the design the paper credits for Figure 7's results.
 */

#ifndef M3VSIM_SERVICES_M3FS_H_
#define M3VSIM_SERVICES_M3FS_H_

#include <map>
#include <memory>
#include <vector>

#include "os/system.h"
#include "services/fs_image.h"
#include "services/fs_proto.h"

namespace m3v::services {

/** Extent size cap in blocks (the paper's benchmarks use 64). */
constexpr std::uint32_t kMaxExtentBlocks = 64;

/** m3fs instruction footprint (cache competition model). */
constexpr std::size_t kM3fsFootprint = 10 * 1024;

/** m3fs fixed request handling cost (decode, fd table). */
constexpr sim::Cycles kM3fsOpBaseCost = 500;

/** m3fs request ring: slot size in bytes and slot count. */
constexpr std::size_t kM3fsReqSlotSize = 128;
constexpr std::size_t kM3fsReqSlots = 16;

/** m3fs configuration. */
struct M3fsParams
{
    /** DRAM storage region size. */
    std::size_t storageBytes = 32 << 20;
};

/** The m3fs service instance. */
class M3fs
{
  public:
    /** Boot wiring of one client. */
    struct Client
    {
        std::uint64_t id = 0;
        /** Client-side EPs: request send gate and reply EP. */
        dtu::EpId sgateEp = dtu::kInvalidEp;
        dtu::EpId replyEp = dtu::kInvalidEp;
        /** Pool of file EPs; each open file binds one (Open.arg). */
        std::vector<dtu::EpId> fileEps;
    };

    M3fs(os::System &sys, unsigned tile_idx, M3fsParams params = {});

    os::System::App *app() { return app_; }
    FsImage &image() { return *img_; }

    /** Wire up a client app (boot time). */
    Client addClient(os::System::App *client);

    /** Start the service loop. */
    void startService();

    std::uint64_t requests() const { return requests_; }

  private:
    struct OpenFile
    {
        Ino ino = kNoIno;
        bool write = false;
        /** Client endpoint extents are activated into. */
        dtu::EpId fileEp = dtu::kInvalidEp;
        /** Next extent index to hand out. */
        std::uint32_t extIdx = 0;
        /** File offset where the current window starts. */
        std::uint64_t winOff = 0;
        /** Capabilities granted for this fd (revoked on close). */
        std::vector<os::CapSel> grantedCaps;
    };

    struct ClientState
    {
        os::CapSel actCap = os::kInvalidSel;
        std::uint32_t nextFd = 3;
        std::map<std::uint32_t, OpenFile> files;
    };

    sim::Task body(os::MuxEnv &env);
    sim::Task handle(os::MuxEnv &env, ClientState &cs, FsReq req,
                     FsResp *resp);
    sim::Task grantExtent(os::MuxEnv &env, ClientState &cs,
                          OpenFile &file, const Extent &ext,
                          std::uint8_t perms, dtu::Error *err);
  public:
    /** Number of file EPs in each client's pool. */
    static constexpr unsigned kFileEpPool = 8;

  private:
    sim::Task zeroExtent(os::MuxEnv &env, const Extent &ext);

    os::System &sys_;
    os::System::App *app_;
    os::System::MgateHandle storage_;
    os::System::RgateHandle rgate_;
    std::unique_ptr<FsImage> img_;
    std::map<std::uint64_t, ClientState> clients_;
    std::uint64_t nextClient_ = 1;
    std::uint64_t requests_ = 0;
};

} // namespace m3v::services

#endif // M3VSIM_SERVICES_M3FS_H_
