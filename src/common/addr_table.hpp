/**
 * @file
 * Flat open-addressed map from an address to a small value.
 *
 * The per-sector miss path (MSHR files, the MRC fetch-merge table and
 * the sparse DRAM page index) only ever looks up, inserts and erases
 * single addresses; it never iterates. A node-based std::unordered_map
 * pays a hash, a pointer chase and a heap node for each of those.
 * AddrTable keeps keys and values in two flat power-of-two arrays
 * instead: a multiplicative (Fibonacci) hash picks the home slot,
 * collisions probe linearly, and erase shifts the rest of the cluster
 * back so no tombstones accumulate. There is deliberately no iteration
 * API, so slot order can never leak into simulated behaviour.
 */

#ifndef CACHECRAFT_COMMON_ADDR_TABLE_HPP
#define CACHECRAFT_COMMON_ADDR_TABLE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace cachecraft {

/** Open-addressed Addr -> V map; see file comment. Key ~0 is reserved
 *  as the empty-slot marker (every caller keys by an aligned address). */
template <class V>
class AddrTable
{
  public:
    /** The reserved empty-slot key. */
    static constexpr Addr kEmptyKey = ~Addr{0};

    std::size_t size() const { return size_; }

    /** Size the table so @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        std::size_t slots = kMinSlots;
        while (slots * kMaxLoadNum < n * kMaxLoadDen)
            slots *= 2;
        if (slots > keys_.size())
            rehash(slots);
    }

    /** The value stored for @p key, or nullptr. */
    V *
    find(Addr key)
    {
        const std::size_t slot = locate(key);
        return slot == kNotFound ? nullptr : &vals_[slot];
    }

    const V *
    find(Addr key) const
    {
        const std::size_t slot = locate(key);
        return slot == kNotFound ? nullptr : &vals_[slot];
    }

    /**
     * The value for @p key, inserting a default-constructed one if
     * absent. The flag is true when this call inserted. The reference
     * is invalidated by the next insertion or erase.
     */
    std::pair<V &, bool>
    tryEmplace(Addr key)
    {
        if (key == kEmptyKey)
            panic("AddrTable key ~0 is reserved");
        if ((size_ + 1) * kMaxLoadDen > keys_.size() * kMaxLoadNum)
            rehash(keys_.empty() ? kMinSlots : keys_.size() * 2);
        std::size_t slot = home(key, keys_.size());
        while (keys_[slot] != kEmptyKey) {
            if (keys_[slot] == key)
                return {vals_[slot], false};
            slot = (slot + 1) & mask();
        }
        keys_[slot] = key;
        ++size_;
        return {vals_[slot], true};
    }

    /** Remove @p key and return its value (nullopt if absent). */
    std::optional<V>
    extract(Addr key)
    {
        std::size_t hole = locate(key);
        if (hole == kNotFound)
            return std::nullopt;
        std::optional<V> out(std::move(vals_[hole]));
        // Backward-shift deletion: walk the rest of the cluster and
        // pull back every entry whose probe path crosses the hole, so
        // lookups never need tombstones.
        for (std::size_t next = (hole + 1) & mask();
             keys_[next] != kEmptyKey; next = (next + 1) & mask()) {
            const std::size_t want = home(keys_[next], keys_.size());
            if (((next - want) & mask()) >= ((next - hole) & mask())) {
                keys_[hole] = keys_[next];
                vals_[hole] = std::move(vals_[next]);
                hole = next;
            }
        }
        keys_[hole] = kEmptyKey;
        vals_[hole] = V{};
        --size_;
        return out;
    }

    /** Home slot of @p key in a table of @p slots (a power of two):
     *  the top bits of a Fibonacci multiplicative hash. */
    static std::size_t
    home(Addr key, std::size_t slots)
    {
        const int shift = 64 - std::countr_zero(slots);
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> (shift & 63)) &
            (slots - 1);
    }

    /** Current slot count (tests use it to force collisions). */
    std::size_t slotCount() const { return keys_.size(); }

  private:
    static constexpr std::size_t kMinSlots = 16;
    /** Grow past a 1/2 load factor: short probe runs on misses. */
    static constexpr std::size_t kMaxLoadNum = 1;
    static constexpr std::size_t kMaxLoadDen = 2;
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    std::size_t mask() const { return keys_.size() - 1; }

    std::size_t
    locate(Addr key) const
    {
        if (size_ == 0 || key == kEmptyKey)
            return kNotFound;
        std::size_t slot = home(key, keys_.size());
        while (keys_[slot] != kEmptyKey) {
            if (keys_[slot] == key)
                return slot;
            slot = (slot + 1) & mask();
        }
        return kNotFound;
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Addr> old_keys =
            std::exchange(keys_, std::vector<Addr>(slots, kEmptyKey));
        std::vector<V> old_vals = std::exchange(vals_, std::vector<V>(slots));
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey)
                continue;
            std::size_t slot = home(old_keys[i], slots);
            while (keys_[slot] != kEmptyKey)
                slot = (slot + 1) & mask();
            keys_[slot] = old_keys[i];
            vals_[slot] = std::move(old_vals[i]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> vals_;
    std::size_t size_ = 0;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_ADDR_TABLE_HPP
