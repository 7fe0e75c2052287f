#include "services/net.h"

#include "sim/log.h"

namespace m3v::services {

using dtu::Error;
using os::Bytes;
using os::splitPayload;
using os::withPayload;

NetService::NetService(os::System &sys, unsigned tile_idx, Nic &nic)
    : sys_(sys), nic_(nic)
{
    app_ = sys.createApp(tile_idx, "net", kNetFootprint);
    rgate_ = sys.makeRgate(app_, 1600, kNetReqSlots);

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
            Bytes frame = env.msgAt(rxEp_, slot).payload;
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

        // Client request, read in its slot. Everything the handler
        // needs is taken out before its first suspension.
        const dtu::Message &msg = env.msgAt(rgate_.ep, slot);
        const std::uint64_t label = msg.label;

        Bytes payload;
        NetReqHdr req = splitPayload<NetReqHdr>(msg.payload,
                                                &payload);
        NetRespHdr resp;
        co_await env.thread().compute(kNetPerPacketCost);

        switch (req.op) {
          case NetReqHdr::Op::Create: {
            std::uint32_t id = nextSock_++;
            sockets_[id] = Socket{label, req.localPort};
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
        }

        Error rerr = Error::None;
        co_await env.reply(rgate_.ep, slot, os::podBytes(resp),
                           &rerr);
        if (rerr != Error::None)
            sim::warn("net: reply failed: %s", dtu::errorName(rerr));
    }
}

UdpSocket::UdpSocket(os::Env &env, const NetService::Client &client)
    : env_(env), wiring_(client)
{
}

sim::Task
UdpSocket::rpc(NetReqHdr hdr, Bytes payload, NetRespHdr *resp)
{
    Bytes respb;
    Error err = Error::Aborted;
    co_await env_.call(wiring_.sgateEp, wiring_.replyEp,
                       withPayload(hdr, payload), &respb, &err);
    *resp = err == Error::None ? os::podFrom<NetRespHdr>(respb)
                               : NetRespHdr{err};
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
