#include "dram/storage.hpp"

#include <algorithm>
#include <cstring>

namespace cachecraft {

SparseMemory::Page &
SparseMemory::pageForWrite(Addr page_base)
{
    auto [page, inserted] = pages_.tryEmplace(page_base);
    if (inserted) {
        page = std::make_unique<Page>();
        page->fill(fill_);
    }
    return *page;
}

void
SparseMemory::read(Addr addr, std::span<std::uint8_t> out) const
{
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr cur = addr + done;
        const Addr page_base = alignDown(cur, kPageBytes);
        const std::size_t off = offsetIn(cur, kPageBytes);
        const std::size_t run =
            std::min(out.size() - done, kPageBytes - off);
        if (const auto *page = pages_.find(page_base))
            std::memcpy(out.data() + done, (*page)->data() + off, run);
        else
            std::memset(out.data() + done, fill_, run);
        done += run;
    }
}

void
SparseMemory::write(Addr addr, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr cur = addr + done;
        const Addr page_base = alignDown(cur, kPageBytes);
        const std::size_t off = offsetIn(cur, kPageBytes);
        const std::size_t run = std::min(in.size() - done, kPageBytes - off);
        Page &page = pageForWrite(page_base);
        std::memcpy(page.data() + off, in.data() + done, run);
        done += run;
    }
}

void
SparseMemory::flipBit(Addr addr, unsigned bit_in_byte)
{
    const Addr page_base = alignDown(addr, kPageBytes);
    Page &page = pageForWrite(page_base);
    page[offsetIn(addr, kPageBytes)] ^=
        static_cast<std::uint8_t>(1u << (bit_in_byte & 7));
}

} // namespace cachecraft
