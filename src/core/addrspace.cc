#include "core/addrspace.h"

#include "sim/log.h"

namespace m3v::core {

dtu::VirtAddr
AddrSpace::allocPages(std::size_t pages)
{
    dtu::VirtAddr base = next_;
    next_ += pages * dtu::kPageSize;
    return base;
}

void
AddrSpace::map(dtu::VirtAddr va, dtu::PhysAddr pa, std::uint8_t perms)
{
    table_[pageOf(va)] =
        PageMapping{pa & ~static_cast<dtu::PhysAddr>(dtu::kPageSize - 1),
                    perms};
}

const PageMapping *
AddrSpace::lookup(dtu::VirtAddr va) const
{
    auto it = table_.find(pageOf(va));
    return it == table_.end() ? nullptr : &it->second;
}

} // namespace m3v::core
