#include "dram/storage.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace cachecraft {

SparseMemory::Page &
SparseMemory::pageForWrite(Addr page_base)
{
    // Set-up writes each region chunk by chunk in address order, so
    // a write usually lands in the page written last: reuse it
    // without a probe. Pages are heap-held and never freed, so the
    // pointer stays valid when the index rehashes.
    if (page_base == lastWriteBase_)
        return *lastWritePage_;
    auto [page, inserted] = pages_.tryEmplace(page_base);
    if (inserted) {
        // for_overwrite: the fill is the page's only initialization.
        page = std::make_unique_for_overwrite<Page>();
        page->fill(fill_);
    }
    lastWriteBase_ = page_base;
    lastWritePage_ = page.get();
    return *page;
}

void
SparseMemory::read(Addr addr, std::span<std::uint8_t> out) const
{
    const std::size_t off = offsetIn(addr, kPageBytes);
    if (out.size() <= kPageBytes - off) {
        // One page (every sector and chunk access): one probe, one
        // copy.
        if (const auto *page = pages_.find(addr - off))
            std::memcpy(out.data(), (*page)->data() + off, out.size());
        else
            std::memset(out.data(), fill_, out.size());
        return;
    }
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr cur = addr + done;
        const Addr page_base = alignDown(cur, kPageBytes);
        const std::size_t cur_off = offsetIn(cur, kPageBytes);
        const std::size_t run =
            std::min(out.size() - done, kPageBytes - cur_off);
        if (const auto *page = pages_.find(page_base))
            std::memcpy(out.data() + done, (*page)->data() + cur_off, run);
        else
            std::memset(out.data() + done, fill_, run);
        done += run;
    }
}

void
SparseMemory::write(Addr addr, std::span<const std::uint8_t> in)
{
    const std::size_t off = offsetIn(addr, kPageBytes);
    if (in.size() <= kPageBytes - off) {
        std::memcpy(pageForWrite(addr - off).data() + off, in.data(),
                    in.size());
        return;
    }
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr cur = addr + done;
        const Addr page_base = alignDown(cur, kPageBytes);
        const std::size_t cur_off = offsetIn(cur, kPageBytes);
        const std::size_t run =
            std::min(in.size() - done, kPageBytes - cur_off);
        Page &page = pageForWrite(page_base);
        std::memcpy(page.data() + cur_off, in.data() + done, run);
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
