#include "services/net.h"

#include <cstring>

#include "sim/log.h"

namespace m3v::services {

using dtu::Error;
using os::Bytes;

namespace {

/** Concatenate a POD header and payload bytes. */
template <typename T>
Bytes
withPayload(const T &hdr, const Bytes &payload)
{
    Bytes b(sizeof(T) + payload.size());
    std::memcpy(b.data(), &hdr, sizeof(T));
    if (!payload.empty())
        std::memcpy(b.data() + sizeof(T), payload.data(),
                    payload.size());
    return b;
}

template <typename T>
T
splitPayload(const Bytes &msg, Bytes *payload)
{
    if (msg.size() < sizeof(T))
        sim::panic("net: truncated message (%zu bytes)", msg.size());
    T hdr;
    std::memcpy(&hdr, msg.data(), sizeof(T));
    if (payload)
        payload->assign(msg.begin() + static_cast<long>(sizeof(T)),
                        msg.end());
    return hdr;
}

} // namespace

NetService::NetService(os::System &sys, unsigned tile_idx, Nic &nic,
                       NetParams params)
    : sys_(sys), params_(params), nic_(nic),
      admission_(params.admission)
{
    app_ = sys.createApp(tile_idx, "net", kNetFootprint);
    rgate_ = sys.makeRgate(app_, 1600, params.reqSlots);

    // Driver mailbox: the NIC DMAs received frames here and signals
    // the driver (deviceMessage models the MSI path).
    rxEp_ = sys.allocEp(tile_idx);
    sys.vdtu(tile_idx).configEp(
        rxEp_,
        dtu::Endpoint::makeRecv(app_->act->id(), 1600, 16));
    core::VDtu *vd = &sys.vdtu(tile_idx);
    dtu::EpId rx = rxEp_;
    std::uint64_t *dropped = &rxDropped_;
    nic_.setRxHandler([vd, rx, dropped](Bytes frame) {
        if (!vd->deviceMessage(rx, std::move(frame)))
            (*dropped)++;
    });
}

NetService::Client
NetService::addClient(os::System::App *client)
{
    Client c;
    c.id = nextClient_++;
    auto sg = sys_.makeSgate(client, app_, rgate_.ep, c.id, 4, 1500);
    c.sgateEp = sg.ep;
    auto rep = sys_.makeRgate(client, 128, 2);
    c.replyEp = rep.ep;
    auto data = sys_.makeRgate(client, 1600, 8);
    c.dataRep = data.ep;
    auto dsg = sys_.makeSgate(app_, client, data.ep, c.id, 8, 1500);
    dataSgates_[c.id] = dsg.ep;
    return c;
}

void
NetService::startService()
{
    sys_.start(app_, [this](os::MuxEnv &env) -> sim::Task {
        co_await body(env);
    });
}

sim::Task
NetService::body(os::MuxEnv &env)
{
    // GCC is picky about initializer lists living across suspension
    // points: build the workloop EP set up front.
    std::vector<dtu::EpId> reps;
    reps.push_back(rgate_.ep);
    reps.push_back(rxEp_);
    for (;;) {
        dtu::EpId which = dtu::kInvalidEp;
        int slot = -1;
        co_await env.recvAny(reps, &which, &slot);

        if (which == rxEp_) {
            // Frame from the wire.
            dtu::Message msg = env.msgAt(rxEp_, slot);
            Bytes frame = msg.payload;
            co_await env.ackMsg(rxEp_, slot);
            pktRx_++;
            co_await env.thread().compute(
                kNetPerPacketCost + frame.size() / kNetBytesPerCycle);

            Bytes payload;
            UdpFrameHdr hdr = parseFrame(frame, &payload);
            auto pit = ports_.find(hdr.dstPort);
            if (pit == ports_.end()) {
                rxDropped_++;
                continue;
            }
            Socket &sock = sockets_[pit->second];
            NetDataHdr dh;
            dh.sock = pit->second;
            dh.srcIp = hdr.srcIp;
            dh.srcPort = hdr.srcPort;
            dh.len = hdr.len;
            Error serr = Error::None;
            co_await env.send(dataSgates_[sock.client],
                              withPayload(dh, payload),
                              dtu::kInvalidEp, &serr);
            if (serr != Error::None)
                rxDropped_++;
            continue;
        }

        // Client request.
        dtu::Message msg = env.msgAt(rgate_.ep, slot);

        // Admission control over the bounded request ring: reject
        // aged or over-occupancy requests early and typed.
        if (!env.admit(admission_, rgate_.ep, msg)) {
            co_await env.shed(admission_, rgate_.ep, slot,
                              os::podBytes(NetRespHdr{Error::Overloaded}));
            continue;
        }

        Bytes payload;
        NetReqHdr req = splitPayload<NetReqHdr>(msg.payload,
                                                &payload);
        NetRespHdr resp;
        co_await env.thread().compute(kNetPerPacketCost);

        switch (req.op) {
          case NetReqHdr::Op::Create: {
            std::uint32_t id = nextSock_++;
            sockets_[id] = Socket{msg.label, req.localPort};
            if (req.localPort)
                ports_[req.localPort] = id;
            resp.sock = id;
            break;
          }
          case NetReqHdr::Op::SendTo: {
            auto sit = sockets_.find(req.sock);
            if (sit == sockets_.end()) {
                resp.err = Error::InvalidEp;
                break;
            }
            co_await env.thread().compute(
                payload.size() / kNetBytesPerCycle);
            UdpFrameHdr fh;
            fh.srcIp = kNetLocalIp;
            fh.dstIp = req.dstIp;
            fh.srcPort = sit->second.port;
            fh.dstPort = req.dstPort;
            nic_.transmit(makeFrame(fh, payload));
            pktTx_++;
            break;
          }
          case NetReqHdr::Op::Close: {
            auto sit = sockets_.find(req.sock);
            if (sit != sockets_.end()) {
                ports_.erase(sit->second.port);
                sockets_.erase(sit);
            }
            break;
          }
        }

        Error rerr = Error::None;
        co_await env.reply(rgate_.ep, slot, os::podBytes(resp),
                           &rerr);
        if (rerr != Error::None)
            sim::warn("net: reply failed: %s", dtu::errorName(rerr));
    }
}

UdpSocket::UdpSocket(os::Env &env, const NetService::Client &client,
                     sim::OverloadGuard *guard)
    : env_(env), wiring_(client), guard_(guard)
{
}

sim::Task
UdpSocket::rpc(NetReqHdr hdr, Bytes payload, NetRespHdr *resp)
{
    // UDP semantics: a timed-out request is a lost datagram and is
    // never re-sent; only a server shed is retried.
    return guardedRpc(env_, wiring_.sgateEp, wiring_.replyEp,
                      withPayload(hdr, payload), false, guard_,
                      &counters_, resp);
}

sim::Task
UdpSocket::create(std::uint16_t local_port, Error *err)
{
    NetReqHdr req;
    req.op = NetReqHdr::Op::Create;
    req.localPort = local_port;
    NetRespHdr resp;
    co_await rpc(req, {}, &resp);
    if (resp.err == Error::None)
        sock_ = resp.sock;
    *err = resp.err;
}

sim::Task
UdpSocket::sendTo(std::uint32_t dst_ip, std::uint16_t dst_port,
                  Bytes payload, Error *err)
{
    NetReqHdr req;
    req.op = NetReqHdr::Op::SendTo;
    req.sock = sock_;
    req.dstIp = dst_ip;
    req.dstPort = dst_port;
    req.len = static_cast<std::uint32_t>(payload.size());
    NetRespHdr resp;
    co_await rpc(req, std::move(payload), &resp);
    *err = resp.err;
}

sim::Task
UdpSocket::close(Error *err)
{
    NetReqHdr req;
    req.op = NetReqHdr::Op::Close;
    req.sock = sock_;
    NetRespHdr resp;
    co_await rpc(req, {}, &resp);
    if (resp.err == Error::None)
        sock_ = 0;
    *err = resp.err;
}

sim::Task
UdpSocket::recv(Bytes *payload, Error *err)
{
    int slot = -1;
    co_await env_.recvOn(wiring_.dataRep, &slot);
    const dtu::Message &m = env_.msgAt(wiring_.dataRep, slot);
    co_await env_.thread().compute(m.payload.size() / 8 + 2);
    splitPayload<NetDataHdr>(m.payload, payload);
    co_await env_.ackMsg(wiring_.dataRep, slot);
    *err = Error::None;
}

} // namespace m3v::services
