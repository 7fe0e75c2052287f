/**
 * @file
 * Open-loop arrival generator: a Poisson process at a fixed rate.
 * Open-loop means arrivals are scheduled by the clock, not by
 * completions — when the system slows down, work keeps arriving and
 * queues grow, which closed-loop harnesses can never show.
 *
 * Fully deterministic: arrivals are a pure function of the seed and
 * the rate.
 */

#ifndef M3VSIM_SIM_OPEN_LOOP_H_
#define M3VSIM_SIM_OPEN_LOOP_H_

#include <cmath>

#include "sim/rng.h"
#include "sim/types.h"

namespace m3v::sim {

/** One open-loop arrival schedule. */
class OpenLoopSource
{
  public:
    /**
     * @param seed          arrival-jitter seed
     * @param rate_per_sec  arrival rate (events per simulated s)
     * @param start         tick of the first possible arrival
     */
    OpenLoopSource(std::uint64_t seed, double rate_per_sec,
                   Tick start = 0)
        : rng_(seed), rate_(rate_per_sec > 0.0 ? rate_per_sec : 1e-9),
          now_(start)
    {
    }

    /** Tick of the next arrival (strictly advancing): exponential
     *  inter-arrivals at the rate. */
    Tick
    next()
    {
        // Inverse-CDF draw; clamp u away from 0 so log() is finite.
        double u = rng_.nextDouble();
        if (u < 1e-12)
            u = 1e-12;
        double gap_sec = -std::log(u) / rate_;
        auto gap = static_cast<Tick>(
            gap_sec * static_cast<double>(kTicksPerSec));
        now_ += gap > 0 ? gap : 1;
        return now_;
    }

  private:
    Rng rng_;
    double rate_;
    Tick now_;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_OPEN_LOOP_H_
