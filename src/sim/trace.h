/**
 * @file
 * Timeline tracing in Chrome trace-event format (loadable in Perfetto
 * / chrome://tracing): scoped spans ("B"/"E" duration events) and
 * instant events ("i"), grouped into tracks by (pid, tid).
 *
 * Conventions used by the simulator:
 *  - pid = tile id; tid = activity id for activity-level events
 *    (TMCall spans, switch instants);
 *  - tid = kTraceTidDtu for the tile's DTU engine track (command
 *    spans);
 *  - tid = kTraceTidMux for the TileMux kernel track (IRQ instants,
 *    switches, watchdog kills);
 *  - pid = kTracePidNoc with tid = router id for NoC hop instants;
 *  - timestamps are the event queue's ticks (1 tick = 1 ps) converted
 *    to the format's microseconds.
 *
 * Tracing is off by default and gated per category at runtime:
 * every emit site is `if (trc->enabled(cat)) trc->begin(...)`, so a
 * disabled tracer costs one load+branch and never allocates (event
 * names must be string literals / static storage).
 *
 * Span nesting: ends are matched to begins per (pid, tid) stack, so
 * the emitted B/E pairs always nest properly; an end() without an
 * open span is dropped (and counted), and spans still open when the
 * trace is rendered are auto-closed at the current time, keeping the
 * output loadable no matter when the simulation stopped.
 */

#ifndef M3VSIM_SIM_TRACE_H_
#define M3VSIM_SIM_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.h"

namespace m3v::sim {

class EventQueue;

/** Trace categories (bitmask). */
enum class TraceCat : std::uint32_t
{
    Sched = 1u << 0,  ///< activity switches, scheduling
    TmCall = 1u << 1, ///< TMCall enter/exit spans
    Irq = 1u << 2,    ///< timer / core-request interrupts
    Dtu = 1u << 3,    ///< DTU command lifetime
    Noc = 1u << 4,    ///< NoC hops
    Fault = 1u << 5,  ///< watchdog kills, crashes
    M3x = 1u << 6,    ///< M3x baseline kernel events
};

/** All categories enabled. */
constexpr std::uint32_t kTraceAll = 0x7f;

/** tid of the per-tile DTU engine track. */
constexpr std::uint32_t kTraceTidDtu = 0xFFFF;

/** tid of the per-tile TileMux kernel track. */
constexpr std::uint32_t kTraceTidMux = 0xFFFE;

/** pid of the NoC fabric (tid = router id). */
constexpr std::uint32_t kTracePidNoc = 0xFFFF0000;

/** Collects trace events for one EventQueue. */
class Tracer
{
  public:
    explicit Tracer(const EventQueue &eq) : eq_(eq) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** One-branch gate used by every emit site. */
    bool
    enabled(TraceCat cat) const
    {
        return (mask_ & static_cast<std::uint32_t>(cat)) != 0;
    }

    /** Any category enabled? */
    bool anyEnabled() const { return mask_ != 0; }

    /** Replace the category mask (bitwise OR of TraceCat). */
    void setMask(std::uint32_t mask) { mask_ = mask; }
    std::uint32_t mask() const { return mask_; }

    void enableAll() { mask_ = kTraceAll; }

    /**
     * Open a span. @p name must have static storage duration (a
     * string literal); the tracer stores the pointer.
     */
    void begin(TraceCat cat, std::uint32_t pid, std::uint32_t tid,
               const char *name);

    /** Close the innermost open span of (pid, tid). */
    void end(TraceCat cat, std::uint32_t pid, std::uint32_t tid);

    /** Emit an instant event. Same lifetime rule for @p name. */
    void instant(TraceCat cat, std::uint32_t pid, std::uint32_t tid,
                 const char *name);

    /** Name the (pid) process track (metadata event). */
    void setProcessName(std::uint32_t pid, std::string name);

    /** Name the (pid, tid) thread track (metadata event). */
    void setThreadName(std::uint32_t pid, std::uint32_t tid,
                       std::string name);

    /** Recorded events so far (metadata not included). */
    std::size_t events() const { return events_.size(); }

    /** end() calls that found no open span (likely a bug). */
    std::uint64_t droppedEnds() const { return droppedEnds_; }

    /** Spans currently open on (pid, tid). */
    std::size_t openSpans(std::uint32_t pid, std::uint32_t tid) const;

    /**
     * Render the Chrome trace JSON ({"traceEvents": [...]}). Spans
     * still open are closed at the current simulated time first, so
     * the result is always properly nested.
     */
    std::string toJson();

    /** Write toJson() to @p file (panics on I/O failure). */
    void writeJsonFile(const std::string &file);

    /**
     * Fold @p other's events into this tracer: other's still-open
     * spans are closed at its own current time first, then its events
     * and track names are appended. Tracks are disjoint across lanes
     * (pid = tile id), so simple concatenation in lane order keeps
     * every per-track B/E sequence intact and the merged trace
     * deterministic. @p other keeps its events (it is only closed).
     */
    void absorb(Tracer &other);

  private:
    struct Event
    {
        Tick ts = 0;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        char ph = 'i';
        TraceCat cat = TraceCat::Sched;
        const char *name = nullptr;
    };

    static std::uint64_t
    trackKey(std::uint32_t pid, std::uint32_t tid)
    {
        return (static_cast<std::uint64_t>(pid) << 32) | tid;
    }

    void closeOpenSpans();

    const EventQueue &eq_;
    std::uint32_t mask_ = 0;
    std::vector<Event> events_;
    /** Open-span name stacks per (pid, tid). */
    std::map<std::uint64_t, std::vector<const char *>> open_;
    std::uint64_t droppedEnds_ = 0;
    std::map<std::uint32_t, std::string> processNames_;
    std::map<std::uint64_t, std::string> threadNames_;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_TRACE_H_
