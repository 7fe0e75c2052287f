#include "services/pager.h"

#include "sim/log.h"

namespace m3v::services {

using dtu::Error;
using os::Bytes;

PagerService::PagerService(os::System &sys, unsigned tile_idx)
    : sys_(sys)
{
    app_ = sys.createApp(tile_idx, "pager", kPagerFootprint);
    rgate_ = sys.makeRgate(app_, 64, kPagerReqSlots);
}

PagerService::Client
PagerService::addClient(os::System::App *client)
{
    Client c;
    c.id = nextClient_++;
    auto sg = sys_.makeSgate(client, app_, rgate_.ep, c.id, 2);
    c.sgateEp = sg.ep;
    auto rep = sys_.makeRgate(client, 64, 2);
    c.replyEp = rep.ep;

    ClientState cs;
    cs.actCap = sys_.grantActCap(app_, client);
    cs.tileIdx = client->tileIdx;
    clients_.emplace(c.id, cs);
    return c;
}

void
PagerService::startService()
{
    sys_.start(app_, [this](os::MuxEnv &env) -> sim::Task {
        co_await body(env);
    });
}

sim::Task
PagerService::body(os::MuxEnv &env)
{
    for (;;) {
        int slot = -1;
        co_await env.recvOn(rgate_.ep, &slot);
        const dtu::Message &msg = env.msgAt(rgate_.ep, slot);
        requests_++;

        auto it = clients_.find(msg.label);
        if (it == clients_.end())
            sim::panic("pager: unknown client %llu",
                       static_cast<unsigned long long>(msg.label));
        ClientState &cs = it->second;

        PagerReq req = os::podFrom<PagerReq>(msg.payload);
        PagerResp resp;

        // Policy decision: pick physical pages (modelled cost).
        co_await env.thread().compute(120 + 30 * req.pages);

        for (std::uint32_t i = 0;
             i < req.pages && resp.err == Error::None; i++) {
            dtu::PhysAddr pa = sys_.allocTilePhys(cs.tileIdx, 1);
            os::SyscallReq sc;
            os::SyscallResp sr;
            sc.op = os::SyscallReq::Op::MapFor;
            sc.arg0 = cs.actCap;
            sc.arg1 = req.va + i * dtu::kPageSize;
            sc.arg2 = pa;
            sc.arg3 = dtu::kPermRW;
            co_await env.syscall(sc, &sr);
            resp.err = sr.err;
            if (sr.err == Error::None)
                pagesMapped_++;
        }

        Error rerr = Error::None;
        co_await env.reply(rgate_.ep, slot, os::podBytes(resp),
                           &rerr);
        if (rerr != Error::None)
            sim::warn("pager: reply failed: %s", dtu::errorName(rerr));
    }
}

sim::Task
pagerAllocMap(os::MuxEnv &env, const PagerService::Client &c,
              std::size_t pages, dtu::VirtAddr *va, Error *err)
{
    *va = env.activity().addrSpace().allocPages(pages);
    PagerReq req;
    req.op = PagerReq::Op::AllocMap;
    req.pages = static_cast<std::uint32_t>(pages);
    req.va = *va;
    Bytes respb;
    Error cerr = Error::Aborted;
    co_await env.call(c.sgateEp, c.replyEp, os::podBytes(req), &respb,
                      &cerr);
    if (cerr != Error::None) {
        *err = cerr;
        co_return;
    }
    *err = os::podFrom<PagerResp>(respb).err;
}

} // namespace m3v::services
