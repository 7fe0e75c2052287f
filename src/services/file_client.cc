#include "services/file_client.h"

#include <cstring>

#include "sim/log.h"

namespace m3v::services {

using dtu::Error;
using os::Bytes;

FileSession::FileSession(os::Env &env, const M3fs::Client &client,
                         unsigned ep_idx)
    : env_(env), sgate_(client.sgateEp), reply_(client.replyEp),
      fileEp_(client.fileEps.at(ep_idx))
{
}

sim::Task
FileSession::rpc(FsReq req, FsResp *resp)
{
    Bytes respb;
    Error err = Error::Aborted;
    co_await env_.call(sgate_, reply_, os::podBytes(req), &respb, &err);
    *resp = err == Error::None ? os::podFrom<FsResp>(respb)
                               : FsResp{err};
}

sim::Task
FileSession::open(const std::string &path, std::uint32_t flags,
                  Error *err)
{
    FsReq req;
    req.op = FsReq::Op::Open;
    req.flags = flags;
    req.arg = fileEp_;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    FsResp resp;
    co_await rpc(req, &resp);
    if (resp.err == Error::None) {
        fd_ = resp.fd;
        size_ = resp.size;
        write_ = (flags & kOpenW) != 0;
        off_ = 0;
        winValid_ = false;
    }
    *err = resp.err;
}

sim::Task
FileSession::read(std::size_t want, Bytes *out, Error *err)
{
    out->clear();
    if (off_ >= size_) {
        *err = Error::None; // EOF
        co_return;
    }
    if (!winValid_ || off_ < winOff_ || off_ >= winOff_ + winLen_) {
        FsReq req;
        req.op = FsReq::Op::NextIn;
        req.fd = fd_;
        req.arg = off_;
        FsResp resp;
        extentRpcs_++;
        co_await rpc(req, &resp);
        if (resp.err != Error::None) {
            *err = resp.err;
            co_return;
        }
        if (resp.extLen == 0) {
            *err = Error::None; // EOF
            co_return;
        }
        winOff_ = resp.extOff;
        winLen_ = resp.extLen;
        winValid_ = true;
    }
    std::size_t in_window = static_cast<std::size_t>(
        winOff_ + winLen_ - off_);
    std::size_t n = std::min(want, in_window);
    n = std::min(n, static_cast<std::size_t>(dtu::kPageSize));
    co_await env_.readMem(fileEp_, off_ - winOff_, n, out, err);
    if (*err == Error::None)
        off_ += n;
}

sim::Task
FileSession::write(Bytes data, Error *err)
{
    if (!write_) {
        *err = Error::PmpFault;
        co_return;
    }
    if (data.size() > dtu::kPageSize)
        sim::panic("FileSession: write larger than a page");
    if (!winValid_ || off_ < winOff_ ||
        off_ + data.size() > winOff_ + winLen_) {
        FsReq req;
        req.op = FsReq::Op::NextOut;
        req.fd = fd_;
        // Growing allocation hint (like LevelDB-style doubling):
        // small files stay small, streams converge to full extents.
        req.arg = nextHint_;
        nextHint_ = std::min<std::uint32_t>(nextHint_ * 4, 64);
        FsResp resp;
        extentRpcs_++;
        co_await rpc(req, &resp);
        if (resp.err != Error::None) {
            *err = resp.err;
            co_return;
        }
        winOff_ = resp.extOff;
        winLen_ = resp.extLen;
        winValid_ = true;
        off_ = winOff_;
    }
    std::size_t n = data.size();
    co_await env_.writeMem(fileEp_, off_ - winOff_, std::move(data),
                           err);
    if (*err == Error::None) {
        off_ += n;
        size_ = std::max(size_, off_);
    }
}

sim::Task
FileSession::close(Error *err)
{
    if (fd_ == 0) {
        *err = Error::None;
        co_return;
    }
    if (write_) {
        FsReq creq;
        creq.op = FsReq::Op::Commit;
        creq.fd = fd_;
        creq.arg = size_;
        FsResp cresp;
        co_await rpc(creq, &cresp);
    }
    FsReq req;
    req.op = FsReq::Op::Close;
    req.fd = fd_;
    FsResp resp;
    co_await rpc(req, &resp);
    *err = resp.err;
    fd_ = 0;
    winValid_ = false;
}

sim::Task
FileSession::stat(const std::string &path, FsResp *out)
{
    FsReq req;
    req.op = FsReq::Op::Stat;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    co_await rpc(req, out);
}

sim::Task
FileSession::readdir(const std::string &path, std::uint64_t idx,
                     FsResp *out)
{
    FsReq req;
    req.op = FsReq::Op::Readdir;
    req.arg = idx;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    co_await rpc(req, out);
}

std::vector<std::string>
FileSession::readdirNames(const FsResp &resp)
{
    std::vector<std::string> names;
    std::size_t off = 0;
    for (unsigned i = 0; i < resp.count; i++) {
        const char *base = resp.name + off;
        std::size_t len = std::strlen(base);
        names.emplace_back(base, len);
        off += len + 1;
    }
    return names;
}

sim::Task
FileSession::mkdir(const std::string &path, Error *err)
{
    FsReq req;
    req.op = FsReq::Op::Mkdir;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    FsResp resp;
    co_await rpc(req, &resp);
    *err = resp.err;
}

sim::Task
FileSession::unlink(const std::string &path, Error *err)
{
    FsReq req;
    req.op = FsReq::Op::Unlink;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    FsResp resp;
    co_await rpc(req, &resp);
    *err = resp.err;
}

} // namespace m3v::services
