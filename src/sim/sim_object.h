/**
 * @file
 * Base class for named simulation components.
 */

#ifndef M3VSIM_SIM_SIM_OBJECT_H_
#define M3VSIM_SIM_SIM_OBJECT_H_

#include <string>
#include <utility>

#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace m3v::sim {

/**
 * A named component bound to the simulation's event queue. Components
 * form a loose hierarchy through dotted names ("tile3.vdtu").
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : eq_(eq), name_(std::move(name))
    {
    }

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;
    virtual ~SimObject() = default;

    const std::string &name() const { return name_; }
    EventQueue &eventQueue() const { return eq_; }
    Tick now() const { return eq_.now(); }

  protected:
    /** Register (or look up) this object's counter "<name>.<leaf>". */
    Counter *
    statCounter(const char *leaf)
    {
        return eq_.metrics().counter(name_ + "." + leaf);
    }

    EventQueue &eq_;

  private:
    std::string name_;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_SIM_OBJECT_H_
