/**
 * @file
 * Per-activity address spaces: a page-table model plus a simple
 * virtual-address allocator. TileMux manipulates page-table entries
 * on behalf of the controller/pager (paper section 4.3); the vDTU's
 * software-loaded TLB is refilled from here on transl TMCalls.
 */

#ifndef M3VSIM_CORE_ADDRSPACE_H_
#define M3VSIM_CORE_ADDRSPACE_H_

#include <cstdint>
#include <unordered_map>

#include "dtu/types.h"

namespace m3v::core {

/** A page-table entry. */
struct PageMapping
{
    dtu::PhysAddr phys = 0;
    std::uint8_t perms = 0;
};

/** An activity's address space. */
class AddrSpace
{
  public:
    AddrSpace() = default;

    /**
     * Allocate @p pages of contiguous virtual address space (no
     * mappings are created). Returns the base address.
     */
    dtu::VirtAddr allocPages(std::size_t pages);

    /** Install or replace a mapping for the page containing @p va. */
    void map(dtu::VirtAddr va, dtu::PhysAddr pa, std::uint8_t perms);

    /**
     * Look up the page containing @p va. Returns nullptr if unmapped
     * (a page fault).
     */
    const PageMapping *lookup(dtu::VirtAddr va) const;

  private:
    static dtu::VirtAddr
    pageOf(dtu::VirtAddr va)
    {
        return va & ~(dtu::kPageSize - 1);
    }

    /** Start user VAs above the null-guard/text area. */
    dtu::VirtAddr next_ = 0x100000;
    std::unordered_map<dtu::VirtAddr, PageMapping> table_;
};

} // namespace m3v::core

#endif // M3VSIM_CORE_ADDRSPACE_H_
