#include "services/nic.h"

#include <algorithm>
#include <cstring>

#include "sim/log.h"

namespace m3v::services {

os::Bytes
makeFrame(const UdpFrameHdr &hdr, const os::Bytes &payload)
{
    UdpFrameHdr h = hdr;
    h.len = static_cast<std::uint16_t>(payload.size());
    os::Bytes frame(sizeof(UdpFrameHdr) + payload.size());
    std::memcpy(frame.data(), &h, sizeof(h));
    std::memcpy(frame.data() + sizeof(h), payload.data(),
                payload.size());
    return frame;
}

UdpFrameHdr
parseFrame(const os::Bytes &frame, os::Bytes *payload)
{
    if (frame.size() < sizeof(UdpFrameHdr))
        sim::panic("parseFrame: truncated frame (%zu bytes)",
                   frame.size());
    UdpFrameHdr hdr;
    std::memcpy(&hdr, frame.data(), sizeof(hdr));
    if (payload) {
        payload->assign(frame.begin() +
                            static_cast<long>(sizeof(hdr)),
                        frame.end());
    }
    return hdr;
}

Nic::Nic(sim::EventQueue &eq, std::string name)
    : SimObject(eq, std::move(name))
{
    tx_ = statCounter("tx_frames");
    rx_ = statCounter("rx_frames");
}

sim::Tick
Nic::serTime(std::size_t bytes) const
{
    // bits / bps, in picoseconds.
    return (bytes + kWireOverhead) * 8 * sim::kTicksPerSec / kLinkBps;
}

void
Nic::transmit(os::Bytes frame)
{
    if (!host_)
        sim::panic("%s: transmit with no connected host",
                   name().c_str());
    tx_->inc();
    sim::Tick start = std::max(now() + kDmaLatency, txBusyUntil_);
    sim::Tick ser = serTime(frame.size());
    txBusyUntil_ = start + ser;
    sim::Tick arrival = txBusyUntil_ + kPropagation - now();
    eq_.schedule(arrival, [this, frame = std::move(frame)]() mutable {
        host_->onFrame(std::move(frame));
    });
}

void
Nic::setRxHandler(std::function<void(os::Bytes)> h)
{
    rxHandler_ = std::move(h);
}

void
Nic::hostDeliver(os::Bytes frame)
{
    sim::Tick ser = serTime(frame.size());
    eq_.schedule(kPropagation + ser + kDmaLatency,
                 [this, frame = std::move(frame)]() mutable {
                     rx_->inc();
                     if (rxHandler_)
                         rxHandler_(std::move(frame));
                 });
}

ExtHost::ExtHost(sim::EventQueue &eq, std::string name, Mode mode)
    : SimObject(eq, std::move(name)), mode_(mode)
{
    frames_ = statCounter("frames");
    bytes_ = statCounter("bytes");
}

void
ExtHost::onFrame(os::Bytes frame)
{
    frames_->inc();
    bytes_->inc(frame.size());
    if (mode_ != Mode::Echo)
        return;
    if (!nic_)
        sim::panic("%s: echo with no connected NIC", name().c_str());
    os::Bytes payload;
    UdpFrameHdr hdr = parseFrame(frame, &payload);
    UdpFrameHdr back;
    back.srcIp = hdr.dstIp;
    back.dstIp = hdr.srcIp;
    back.srcPort = hdr.dstPort;
    back.dstPort = hdr.srcPort;
    os::Bytes reply = makeFrame(back, payload);
    eq_.schedule(kTurnaround,
                 [this, reply = std::move(reply)]() mutable {
                     nic_->hostDeliver(std::move(reply));
                 });
}

} // namespace m3v::services
