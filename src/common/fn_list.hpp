/**
 * @file
 * FIFO lists of callbacks in a recycled, chunked node slab.
 *
 * The event queue's wheel buckets, MSHR waiter lists and the MRC
 * fetch-merge lists all hold callbacks that run later in arrival
 * order. FnListSlab keeps every such callback in one node of a
 * per-owner slab (fixed 256-node chunks, a LIFO free list threaded
 * through the same next links); a list is a {head, tail} pair of node
 * indices. Chunks never move, so a callback runs in place in its node:
 * whatever it appends while running — to another list, or to a fresh
 * list for the same key — cannot invalidate it, even when that grows
 * the slab. Each node also carries a tag its owner may use (16 bits by
 * default; the event queue keeps the event's engine domain and a
 * message's canonical key there). A list is FIFO unless its owner
 * links a node into its middle (insertAfter), which the event queue
 * does to keep each wheel slot's messages sorted by key. Node indices
 * are host bookkeeping and never reach the simulation.
 */

#ifndef CACHECRAFT_COMMON_FN_LIST_HPP
#define CACHECRAFT_COMMON_FN_LIST_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cachecraft {

/** Chunked slab of callback nodes linked into FIFO lists. */
template <class Fn, class Tag = std::uint16_t>
class FnListSlab
{
  public:
    /** Null node index: end of a list or of the free list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** A FIFO of nodes (both kNil when empty). */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;

        bool empty() const { return head == kNil; }
    };

    /** Move @p fn into a free node, unlinked; returns its index. */
    std::uint32_t
    acquire(Fn &&fn)
    {
        std::uint32_t node;
        if (freeHead_ != kNil) {
            node = freeHead_;
            freeHead_ = nextOf(node);
        } else {
            if (used_ == chunks_.size() * kChunkNodes)
                chunks_.push_back(std::make_unique<Chunk>());
            node = used_++;
        }
        fnOf(node) = std::move(fn);
        nextOf(node) = kNil;
        return node;
    }

    /** Destroy @p node's callback and recycle the node. */
    void
    release(std::uint32_t node)
    {
        fnOf(node) = nullptr;
        nextOf(node) = freeHead_;
        freeHead_ = node;
    }

    /** Append @p fn at the tail of @p list; returns its node. */
    std::uint32_t
    pushBack(List &list, Fn &&fn)
    {
        const std::uint32_t node = acquire(std::move(fn));
        insertAfter(list, list.tail, node);
        return node;
    }

    /** Link unlinked @p node into @p list right after @p prev, a node
     *  of that list, or at its head when @p prev is kNil. */
    void
    insertAfter(List &list, std::uint32_t prev, std::uint32_t node)
    {
        std::uint32_t &link = prev == kNil ? list.head : nextOf(prev);
        nextOf(node) = link;
        link = node;
        if (list.tail == prev)
            list.tail = node;
    }

    /** Unlink and return the head node of non-empty @p list; the
     *  caller runs fnOf() in place and then release()s it. */
    std::uint32_t
    popFront(List &list)
    {
        const std::uint32_t node = list.head;
        list.head = nextOf(node);
        if (list.head == kNil)
            list.tail = kNil;
        return node;
    }

    /** Run every callback of detached @p list in order, each in place,
     *  releasing its node afterwards. */
    template <class... Args>
    void
    drain(List list, Args... args)
    {
        while (!list.empty()) {
            const std::uint32_t node = popFront(list);
            fnOf(node)(args...);
            release(node);
        }
    }

    Fn &
    fnOf(std::uint32_t node)
    {
        return chunks_[node / kChunkNodes]->fn[node % kChunkNodes];
    }

    /** The owner's tag of @p node (unset until written). */
    Tag &
    tagOf(std::uint32_t node)
    {
        return chunks_[node / kChunkNodes]->tag[node % kChunkNodes];
    }

    /** The node after @p node in its list (kNil at the tail). */
    std::uint32_t
    nextNode(std::uint32_t node)
    {
        return nextOf(node);
    }

  private:
    static constexpr std::uint32_t kChunkNodes = 256;

    /** kChunkNodes nodes, split into callbacks (one cache line each
     *  for SmallFn), next links (live and free lists share them) and
     *  owner tags. */
    struct alignas(64) Chunk
    {
        std::array<Fn, kChunkNodes> fn;
        std::array<std::uint32_t, kChunkNodes> next;
        std::array<Tag, kChunkNodes> tag;
    };

    std::uint32_t &
    nextOf(std::uint32_t node)
    {
        return chunks_[node / kChunkNodes]->next[node % kChunkNodes];
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint32_t used_ = 0; //!< nodes ever handed out
    std::uint32_t freeHead_ = kNil;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_FN_LIST_HPP
