/**
 * @file
 * The net service (paper section 4.4): a smoltcp-like UDP stack run
 * as an activity on the NIC-attached tile. Clients get POSIX-like
 * sockets; packets travel between client and service as vDTU
 * messages over per-socket channels; the service drives the NIC.
 */

#ifndef M3VSIM_SERVICES_NET_H_
#define M3VSIM_SERVICES_NET_H_

#include <map>

#include "os/system.h"
#include "services/nic.h"
#include "services/rpc.h"
#include "sim/overload.h"

namespace m3v::services {

/** Client request header (payload bytes may follow). */
struct NetReqHdr
{
    enum class Op : std::uint32_t
    {
        Create, ///< create a socket bound to localPort
        SendTo, ///< send the trailing payload
        Close,
    };

    Op op = Op::Create;
    std::uint32_t sock = 0;
    std::uint16_t localPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t dstIp = 0;
    std::uint32_t len = 0;
};

/** Service response. */
struct NetRespHdr
{
    dtu::Error err = dtu::Error::None;
    std::uint32_t sock = 0;
};

/** Header of data messages delivered to a client. */
struct NetDataHdr
{
    std::uint32_t sock = 0;
    std::uint32_t srcIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t pad = 0;
    std::uint32_t len = 0;
};

/** Net service: fixed per-packet stack cost (headers, socket
 *  lookup). */
constexpr sim::Cycles kNetPerPacketCost = 3200;

/** Net service: per-byte cost (checksums, copies) in bytes per
 *  cycle. */
constexpr std::size_t kNetBytesPerCycle = 3;

/** Net service instruction footprint. */
constexpr std::size_t kNetFootprint = 12 * 1024;

/** The net service's IP address (cosmetic). */
constexpr std::uint32_t kNetLocalIp = 0x0a000002;

/** Net service parameters. */
struct NetParams
{
    /** Client-request ring slots (the bounded admission queue). */
    std::size_t reqSlots = 8;

    /** Admission control over the client-request ring (default off). */
    sim::AdmissionParams admission;
};

/** The net service. */
class NetService
{
  public:
    /** Boot wiring of one client. */
    struct Client
    {
        std::uint64_t id = 0;
        dtu::EpId sgateEp = dtu::kInvalidEp;
        dtu::EpId replyEp = dtu::kInvalidEp;
        /** Client-side EP where socket data arrives. */
        dtu::EpId dataRep = dtu::kInvalidEp;
    };

    NetService(os::System &sys, unsigned tile_idx, Nic &nic,
               NetParams params = {});

    os::System::App *app() { return app_; }

    Client addClient(os::System::App *client);
    void startService();

    std::uint64_t packetsTx() const { return pktTx_; }
    std::uint64_t packetsRx() const { return pktRx_; }
    std::uint64_t rxDropped() const { return rxDropped_; }

    /** Admission decision state (shed/admit counters). */
    const sim::Admission &admission() const { return admission_; }

  private:
    struct Socket
    {
        std::uint64_t client = 0;
        std::uint16_t port = 0;
    };

    sim::Task body(os::MuxEnv &env);

    os::System &sys_;
    NetParams params_;
    Nic &nic_;
    os::System::App *app_;
    os::System::RgateHandle rgate_;
    dtu::EpId rxEp_ = dtu::kInvalidEp;

    /** Net-side send EP towards each client's data EP. */
    std::map<std::uint64_t, dtu::EpId> dataSgates_;
    std::map<std::uint32_t, Socket> sockets_;
    std::map<std::uint16_t, std::uint32_t> ports_;
    std::uint32_t nextSock_ = 1;
    std::uint64_t nextClient_ = 1;

    std::uint64_t pktTx_ = 0;
    std::uint64_t pktRx_ = 0;
    std::uint64_t rxDropped_ = 0;
    sim::Admission admission_;
};

/** Client-side UDP socket over a net-service channel. */
class UdpSocket
{
  public:
    /**
     * @param guard optional per-destination overload discipline; null
     *              retries a server shed with a fixed doubling backoff
     *              and waits for every reply.
     */
    UdpSocket(os::Env &env, const NetService::Client &client,
              sim::OverloadGuard *guard = nullptr);

    sim::Task create(std::uint16_t local_port, dtu::Error *err);
    sim::Task sendTo(std::uint32_t dst_ip, std::uint16_t dst_port,
                     os::Bytes payload, dtu::Error *err);

    /** Close the socket (for connection-churn workloads). */
    sim::Task close(dtu::Error *err);

    /** Receive the next datagram for this socket. */
    sim::Task recv(os::Bytes *payload, dtu::Error *err);

    /** RPCs re-sent after a server shed. */
    std::uint64_t rpcRetries() const { return counters_.retries; }

    /** Server-side Error::Overloaded rejections observed. */
    std::uint64_t rpcOverloaded() const { return counters_.overloaded; }

  private:
    sim::Task rpc(NetReqHdr hdr, os::Bytes payload,
                  NetRespHdr *resp);

    os::Env &env_;
    NetService::Client wiring_;
    sim::OverloadGuard *guard_;
    std::uint32_t sock_ = 0;
    RpcCounters counters_;
};

} // namespace m3v::services

#endif // M3VSIM_SERVICES_NET_H_
