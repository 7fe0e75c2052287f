#include "dtu/memory_tile.h"

#include <utility>

#include "sim/log.h"

namespace m3v::dtu {

MemoryTile::MemoryTile(sim::EventQueue &eq, std::string name,
                       noc::Noc &noc, noc::TileId tile,
                       tile::DramParams params)
    : SimObject(eq, name), noc_(noc), tile_(tile),
      dram_(eq, name + ".dram", params)
{
    noc_.attachTile(tile, this);
}

PhysAddr
MemoryTile::alloc(std::size_t size, std::size_t align)
{
    PhysAddr base = (allocNext_ + align - 1) & ~(align - 1);
    if (base + size > dram_.capacity())
        sim::fatal("%s: out of memory (%zu requested)",
                   name().c_str(), size);
    allocNext_ = base + size;
    return base;
}

bool
MemoryTile::acceptPacket(noc::Packet &pkt, sim::UniqueFunction<void()>)
{
    if (pkt.corrupted) {
        // Link CRC failure: drop; the requester retransmits.
        noc::Packet consumed = std::move(pkt);
        return true;
    }
    auto *wd = dynamic_cast<WireData *>(pkt.data.get());
    if (!wd)
        sim::panic("%s: foreign packet payload", name().c_str());
    noc::TileId src = pkt.src;
    auto owned = std::unique_ptr<WireData>(
        static_cast<WireData *>(pkt.data.release()));
    noc::Packet consumed = std::move(pkt);

    switch (owned->kind) {
      case WireKind::MemReadReq: {
        PhysAddr addr = owned->addr;
        std::size_t size = owned->size;
        std::uint64_t req_id = owned->reqId;
        std::uint64_t seq = owned->seq;
        dram_.access(addr, size,
                     [this, src, addr, size, req_id, seq]() {
            auto resp = std::make_unique<WireData>();
            resp->kind = WireKind::MemReadResp;
            resp->reqId = req_id;
            resp->seq = seq;
            resp->data = noc_.payloadPool().make(size);
            if (size > 0)
                dram_.read(addr, resp->data.mutableBytes().data(),
                           size);
            sendResp(src, std::move(resp));
        });
        break;
      }
      case WireKind::MemWriteReq: {
        PhysAddr addr = owned->addr;
        std::uint64_t req_id = owned->reqId;
        auto *raw = owned.release();
        dram_.access(addr, raw->data.size(),
                     [this, src, addr, req_id, raw]() {
            std::unique_ptr<WireData> req(raw);
            dram_.write(addr, req->data.data(), req->data.size());
            auto resp = std::make_unique<WireData>();
            resp->kind = WireKind::MemWriteAck;
            resp->reqId = req_id;
            resp->seq = req->seq;
            sendResp(src, std::move(resp));
        });
        break;
      }
      default:
        sim::panic("%s: unexpected packet kind %d", name().c_str(),
                   static_cast<int>(owned->kind));
    }
    return true;
}

void
MemoryTile::sendResp(noc::TileId dst, std::unique_ptr<WireData> wd)
{
    noc::Packet pkt;
    pkt.src = tile_;
    pkt.dst = dst;
    pkt.bytes = wd->wireBytes();
    pkt.data = std::move(wd);
    txQueue_.push_back(std::move(pkt));
    pumpTx();
}

void
MemoryTile::pumpTx()
{
    while (!txQueue_.empty()) {
        noc::Packet &head = txQueue_.front();
        if (!noc_.inject(head, [this]() { pumpTx(); }))
            return;
        txQueue_.pop_front();
    }
}

} // namespace m3v::dtu
