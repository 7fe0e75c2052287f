/**
 * @file
 * The client retry loop shared by the service clients (FileSession,
 * UdpSocket): one request/reply RPC under an optional per-destination
 * OverloadGuard, re-sent a bounded number of times.
 */

#ifndef M3VSIM_SERVICES_RPC_H_
#define M3VSIM_SERVICES_RPC_H_

#include <cstdint>

#include "os/env.h"
#include "os/proto.h"
#include "sim/overload.h"

namespace m3v::services {

/** Retry counters of one client, filled by guardedRpc(). */
struct RpcCounters
{
    std::uint64_t retries = 0;    ///< re-sent after a timeout or shed
    std::uint64_t overloaded = 0; ///< server Overloaded sheds seen
};

/**
 * Send @p req on (@p sgate, @p rep) and decode the reply into
 * @p resp, a POD with an `err` field, in at most four attempts. A
 * server shed (Error::Overloaded: the request had no effect) is
 * retried, a transport timeout only if @p retry_timeout (the op is
 * idempotent); anything else, a spent retry budget or the last
 * attempt surfaces in resp->err.
 *
 * A @p guard gates each attempt by its breaker (a denied attempt
 * never reaches the wire and spends no retry token), pays each retry
 * from its budget, jitters the backoff and bounds the reply wait.
 * Without one the backoff doubles from 4096 cycles and the reply
 * wait is unbounded.
 */
template <typename Resp>
sim::Task
guardedRpc(os::Env &env, dtu::EpId sgate, dtu::EpId rep, os::Bytes req,
           bool retry_timeout, sim::OverloadGuard *guard,
           RpcCounters *counters, Resp *resp)
{
    constexpr unsigned kAttempts = 4;
    sim::Cycles backoff = 4096;
    for (unsigned attempt = 0;; attempt++) {
        bool sent = false;
        dtu::Error err = dtu::Error::Overloaded;
        if (guard == nullptr || guard->breaker().allow(env.dtu().now())) {
            sent = true;
            os::Bytes respb;
            err = dtu::Error::Aborted;
            co_await env.call(sgate, rep, req, &respb, &err,
                              guard ? guard->replyDeadline() : 0);
            if (err == dtu::Error::None) {
                *resp = os::podFrom<Resp>(respb);
                if (resp->err != dtu::Error::Overloaded) {
                    // Success or a typed server error: the channel
                    // is healthy.
                    if (guard) {
                        guard->breaker().recordSuccess(env.dtu().now());
                        guard->budget().recordSuccess();
                        guard->backoff().reset();
                    }
                    co_return;
                }
                counters->overloaded++;
                err = dtu::Error::Overloaded;
            }
        }
        if (sent && guard)
            guard->breaker().recordFailure(env.dtu().now());
        bool retryable =
            err == dtu::Error::Overloaded ||
            (err == dtu::Error::Timeout && retry_timeout);
        if (!retryable || attempt + 1 >= kAttempts ||
            (sent && guard && !guard->budget().tryAcquire())) {
            *resp = Resp{};
            resp->err = err;
            co_return;
        }
        counters->retries++;
        co_await env.thread().compute(guard ? guard->backoff().next()
                                            : backoff);
        backoff *= 2;
    }
}

} // namespace m3v::services

#endif // M3VSIM_SERVICES_RPC_H_
