/**
 * @file
 * Client-side file sessions over the m3fs protocol — the GenericFile
 * equivalent of the M3v libraries. A session holds an extent window:
 * after one NextIn/NextOut RPC, all reads/writes within the window go
 * straight through the DTU memory endpoint without involving the
 * file system again (paper section 6.3).
 */

#ifndef M3VSIM_SERVICES_FILE_CLIENT_H_
#define M3VSIM_SERVICES_FILE_CLIENT_H_

#include <string>
#include <vector>

#include "os/env.h"
#include "services/fs_proto.h"
#include "services/m3fs.h"

namespace m3v::services {

/** One open file on a client. */
class FileSession
{
  public:
    /**
     * @param env    the client's environment
     * @param client the boot wiring to the FS service
     * @param ep_idx which EP of the client's file-EP pool to bind
     */
    FileSession(os::Env &env, const M3fs::Client &client,
                unsigned ep_idx = 0);

    std::uint64_t size() const { return size_; }
    std::uint64_t offset() const { return off_; }

    /** Open @p path with FsOpenFlags. */
    sim::Task open(const std::string &path, std::uint32_t flags,
                   dtu::Error *err);

    /** Set the file offset for the next read. */
    void seek(std::uint64_t off) { off_ = off; }

    /**
     * Read up to @p want bytes (at most one page per call) at the
     * current offset. Empty result at EOF.
     */
    sim::Task read(std::size_t want, os::Bytes *out, dtu::Error *err);

    /** Append @p data (at most one page per call). */
    sim::Task write(os::Bytes data, dtu::Error *err);

    /** Commit the size and release extent capabilities. */
    sim::Task close(dtu::Error *err);

    //
    // Path operations (stateless).
    //

    sim::Task stat(const std::string &path, FsResp *out);

    /** Fetch a batch of up to kReaddirBatch entries from @p idx. */
    sim::Task readdir(const std::string &path, std::uint64_t idx,
                      FsResp *out);

    /** Unpack a readdir response's names. */
    static std::vector<std::string> readdirNames(const FsResp &resp);
    sim::Task mkdir(const std::string &path, dtu::Error *err);
    sim::Task unlink(const std::string &path, dtu::Error *err);

    /** Number of NextIn/NextOut RPCs performed (extent switches). */
    std::uint64_t extentRpcs() const { return extentRpcs_; }

  private:
    /** Send one m3fs RPC. A transport failure surfaces in resp->err,
     *  typed instead of a panic. */
    sim::Task rpc(FsReq req, FsResp *resp);

    os::Env &env_;
    dtu::EpId sgate_;
    dtu::EpId reply_;
    dtu::EpId fileEp_;

    std::uint32_t fd_ = 0;
    bool write_ = false;
    std::uint64_t size_ = 0;
    std::uint64_t off_ = 0;
    /** Current extent window [winOff_, winOff_+winLen_). */
    std::uint64_t winOff_ = 0;
    std::uint64_t winLen_ = 0;
    bool winValid_ = false;
    std::uint64_t extentRpcs_ = 0;
    /** Next NextOut allocation hint in blocks. */
    std::uint32_t nextHint_ = 4;
};

} // namespace m3v::services

#endif // M3VSIM_SERVICES_FILE_CLIENT_H_
