/**
 * @file
 * RingQueue: a growable circular FIFO for the simulator's hot queues
 * (SM ready and blocked-sector queues, L2 blocked reads, the DRAM
 * channel's arrival queue).
 *
 * std::deque allocates and frees a chunk every few hundred pushes as
 * a queue slides through memory; a ring reuses one power-of-two
 * buffer. It grows by doubling and never shrinks, so a queue stops
 * allocating once it has seen its peak depth. Besides the FIFO ends
 * it offers push_front (GTO's continue-same-warp) and erase at an
 * index (FR-FCFS picks from inside the scheduler window).
 *
 * Popped slots keep a moved-from element until overwritten, so T
 * must be default-constructible and move-assignable.
 */

#ifndef CACHECRAFT_COMMON_RING_QUEUE_HPP
#define CACHECRAFT_COMMON_RING_QUEUE_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace cachecraft {

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The @p i-th element from the front (i < size()). */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(T value)
    {
        growIfFull();
        buf_[wrap(head_ + size_)] = std::move(value);
        ++size_;
    }

    void
    push_front(T value)
    {
        growIfFull();
        head_ = wrap(head_ + buf_.size() - 1);
        buf_[head_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the @p i-th element, keeping the others in order. The
     *  elements before it shift back one slot, so erasing near the
     *  front (the scheduler window) is cheap. */
    void
    erase(std::size_t i)
    {
        for (; i > 0; --i)
            (*this)[i] = std::move((*this)[i - 1]);
        pop_front();
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

    void
    growIfFull()
    {
        if (size_ < buf_.size())
            return;
        std::vector<T> bigger(buf_.empty() ? 16 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_; //!< capacity: zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_RING_QUEUE_HPP
