/**
 * @file
 * C++20 coroutine tasks for modelling software inside the simulator.
 *
 * Applications, OS services and benchmark drivers are written as
 * coroutines returning sim::Task. They co_await:
 *   - sub-tasks (structured composition),
 *   - Delay (simulated time passes).
 *
 * All resumptions are funnelled through the EventQueue (never inline)
 * so stack depth stays bounded and same-tick ordering is deterministic.
 *
 * A top-level task is started with kick() and owned by whoever holds
 * its Task (e.g. tile::Thread): the frame lives until that Task is
 * destroyed, finished or not.
 */

#ifndef M3VSIM_SIM_TASK_H_
#define M3VSIM_SIM_TASK_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/types.h"

namespace m3v::sim {

/**
 * A lazily-started coroutine task with void result. Awaiting a Task
 * resumes it and suspends the awaiter until the task completes.
 */
class [[nodiscard]] Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) noexcept
        {
            auto &p = h.promise();
            p.done = true;
            // Save the continuation before running the completion hook:
            // the hook may destroy the Task that owns this frame.
            std::coroutine_handle<> cont = p.continuation;
            if (p.onDone) {
                auto hook = std::move(p.onDone);
                hook();
            }
            // Symmetric transfer to the awaiter. The continuation
            // typically owns this Task as a temporary and destroys
            // it right after resuming — which is why destroy()
            // defers the actual frame deallocation (see below):
            // GCC's symmetric transfer is not a guaranteed tail
            // call, so this frame's resume() may still be on the
            // stack at that point.
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        std::coroutine_handle<> continuation{};
        bool done = false;
        UniqueFunction<void()> onDone{};

        Task
        get_return_object()
        {
            return Task(Handle::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a sim::Task");
        }
    };

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept : handle_(other.handle_)
    {
        other.handle_ = {};
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = other.handle_;
            other.handle_ = {};
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return static_cast<bool>(handle_); }
    bool done() const { return handle_ && handle_.promise().done; }

    /**
     * Install a completion hook. Used by owners (e.g. tile::Thread)
     * that keep the Task alive and need to observe its completion.
     */
    void
    setOnDone(UniqueFunction<void()> cb)
    {
        if (!handle_)
            panic("Task::setOnDone on invalid task");
        handle_.promise().onDone = std::move(cb);
    }

    /** Start (or continue) the coroutine. Owner-driven alternative to
     *  co_await for lazily-started tasks. */
    void
    kick()
    {
        if (!handle_ || handle_.promise().done)
            panic("Task::kick on invalid or finished task");
        handle_.resume();
    }

    /** Awaiting a task starts it and waits for completion. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter
        {
            Handle handle;

            bool
            await_ready() const noexcept
            {
                return !handle || handle.promise().done;
            }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                handle.promise().continuation = cont;
                return handle;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (!handle_)
            return;
        Handle h = handle_;
        handle_ = {};
        // Inside event execution, defer the deallocation until the
        // current event's stack has unwound: the frame's own
        // resume() may still be live below us (non-tail symmetric
        // transfer). The frame is suspended, so a later destroy is
        // safe; all of its resume paths are guarded by owner state.
        if (EventQueue *q = EventQueue::running()) {
            q->schedule(0, [h]() { h.destroy(); });
        } else {
            h.destroy();
        }
    }

    Handle handle_{};
};

/**
 * Run a callable that returns a Task, keeping the callable (and its
 * captures) alive for the coroutine's whole lifetime. Immediately
 * invoking a capturing lambda coroutine is undefined behaviour (the
 * closure dies at the end of the full expression); route such bodies
 * through invoke() instead.
 */
namespace detail {

inline Task
invokeImpl(UniqueFunction<Task()> fn)
{
    // fn lives in this coroutine's frame, so the inner coroutine's
    // references into the closure stay valid.
    co_await fn();
}

} // namespace detail

inline Task
invoke(UniqueFunction<Task()> f)
{
    return detail::invokeImpl(std::move(f));
}

/** co_await Delay{eq, ticks}: resume after simulated time passes. */
struct Delay
{
    EventQueue &eq;
    Tick ticks;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.schedule(ticks, [h]() { h.resume(); });
    }

    void await_resume() const noexcept {}
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_TASK_H_
