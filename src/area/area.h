/**
 * @file
 * FPGA area model reproducing Table 1 of the paper: hierarchical
 * LUT/FF/BRAM descriptors for the platform's hardware components,
 * with the leaf numbers taken from the paper's synthesis results and
 * aggregates computed from the hierarchy.
 *
 * The model also answers the paper's derived claims: the vDTU's size
 * relative to the BOOM/Rocket cores (10.6% / 32.6% of LUTs) and the
 * cost of virtualization (the privileged interface adds ~6% logic to
 * the DTU).
 */

#ifndef M3VSIM_AREA_AREA_H_
#define M3VSIM_AREA_AREA_H_

#include <memory>
#include <string>
#include <vector>

namespace m3v::area {

/** LUTs (thousands), flip-flops (thousands), 36 kbit BRAMs. */
struct AreaNumbers
{
    double lutsK = 0;
    double ffsK = 0;
    double brams = 0;

    AreaNumbers
    operator+(const AreaNumbers &o) const
    {
        return {lutsK + o.lutsK, ffsK + o.ffsK, brams + o.brams};
    }
};

/** A hardware component with optional subcomponents. */
class Component
{
  public:
    Component(std::string name, AreaNumbers own = {})
        : name_(std::move(name)), own_(own)
    {
    }

    const std::string &name() const { return name_; }

    Component &addChild(std::string name, AreaNumbers own = {});

    const std::vector<std::unique_ptr<Component>> &children() const
    {
        return children_;
    }

    /** Find a descendant by name (depth-first), or nullptr. */
    const Component *find(const std::string &name) const;

    /** Own resources plus all descendants. */
    AreaNumbers total() const;

  private:
    std::string name_;
    AreaNumbers own_;
    std::vector<std::unique_ptr<Component>> children_;
};

/** BOOM core (Table 1 row 1). */
Component boomCore();

/** Rocket core (Table 1 row 2). */
Component rocketCore();

/** NoC router (Table 1 row 3). */
Component nocRouter();

/**
 * The vDTU with the full feature set (Table 1 rows 4-12); leaf
 * numbers from the paper, aggregates computed. @p virtualized false
 * drops the privileged interface (the plain DTU of the controller
 * and accelerator tiles, Figure 5's dashed blocks).
 */
Component dtu(bool virtualized);

/**
 * Logic (LUT) overhead of virtualization: privileged-interface LUTs
 * relative to the non-virtualized DTU (the paper reports ~6%).
 */
double virtualizationOverheadPct();

/** vDTU LUTs as a percentage of the given core's LUTs. */
double vdtuVsCorePct(const Component &core);

} // namespace m3v::area

#endif // M3VSIM_AREA_AREA_H_
