/**
 * @file
 * Sparse backing store for simulated DRAM contents.
 *
 * The protection path operates on *real bytes*: data sectors and ECC
 * chunks are actually stored, fault injection actually flips bits,
 * and decode actually runs over what is read back. A sparse page map
 * keeps multi-GiB simulated capacities cheap to host.
 */

#ifndef CACHECRAFT_DRAM_STORAGE_HPP
#define CACHECRAFT_DRAM_STORAGE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/addr_table.hpp"
#include "common/types.hpp"

namespace cachecraft {

/**
 * Byte-addressable sparse memory. Unwritten locations read as a
 * deterministic background pattern (zero by default) so runs are
 * reproducible regardless of access order.
 */
class SparseMemory
{
  public:
    /** @param fill background byte for untouched memory. */
    explicit SparseMemory(std::uint8_t fill = 0) : fill_(fill) {}

    /** Read @p out.size() bytes starting at @p addr. */
    void read(Addr addr, std::span<std::uint8_t> out) const;

    /** Write @p in.size() bytes starting at @p addr. */
    void write(Addr addr, std::span<const std::uint8_t> in);

    /** XOR a single bit (fault injection hook). */
    void flipBit(Addr addr, unsigned bit_in_byte);

    /** Number of materialized pages (footprint metric). */
    std::size_t numPages() const { return pages_.size(); }

    /** Page granularity of the sparse map. */
    static constexpr std::size_t kPageBytes = 4096;

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    /** Get a page for writing, materializing it on first touch. */
    Page &pageForWrite(Addr page_base);

    std::uint8_t fill_;
    /** Page base -> page; pages are heap-held so the flat index stays
     *  small and rehashing never copies page bytes. */
    AddrTable<std::unique_ptr<Page>> pages_;
    /** @{ The page pageForWrite() returned last (base ~0: none). */
    Addr lastWriteBase_ = ~Addr{0};
    Page *lastWritePage_ = nullptr;
    /** @} */
};

} // namespace cachecraft

#endif // CACHECRAFT_DRAM_STORAGE_HPP
