/**
 * @file
 * A fixed-capacity, allocation-free callable: the event engine's
 * replacement for std::function on the hot path.
 *
 * std::function heap-allocates any capture larger than its small-buffer
 * (two pointers on libstdc++), which makes every scheduled event an
 * allocator round trip. InplaceFunction stores the callable inline in
 * Capacity bytes and simply refuses — at overload resolution, not at
 * runtime — anything that does not fit. Rejection by SFINAE rather
 * than static_assert keeps the contract testable:
 * !std::is_constructible_v<SmallFn, TooBig> holds.
 *
 * Deliberately minimal: move-only, no heap fallback, no target-type
 * queries. If a capture does not fit, park it in a SlabArena
 * (common/arena.hpp) and capture the 4-byte handle instead.
 *
 * A callback is moved several times on its way through the engine
 * (crossbar staging, the event slab, MSHR waiter lists). Most captures
 * are a few pointers and integers, so a trivially copyable callable
 * has no manager: moving it copies the buffer and destroying it does
 * nothing, with no indirect call.
 */

#ifndef CACHECRAFT_COMMON_INPLACE_FUNCTION_HPP
#define CACHECRAFT_COMMON_INPLACE_FUNCTION_HPP

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hpp"

namespace cachecraft {

template <class Sig, std::size_t Capacity> class InplaceFunction;

/** Move-only callable with inline storage and no heap fallback. */
template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
    enum class Op { kRelocate, kDestroy };

    /** A callable is accepted only when it fits the inline buffer and
     *  can be relocated without throwing (moves happen inside the
     *  event queue's noexcept machinery). */
    template <class F>
    static constexpr bool kFits =
        sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

  public:
    InplaceFunction() noexcept = default;
    InplaceFunction(std::nullptr_t) noexcept {}

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<D, InplaceFunction> &&
                  std::is_invocable_r_v<R, D &, Args...> && kFits<D>>>
    InplaceFunction(F &&fn) noexcept(
        std::is_nothrow_constructible_v<D, F &&>)
    {
        ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
        invoke_ = [](void *obj, Args... args) -> R {
            return (*static_cast<D *>(obj))(std::forward<Args>(args)...);
        };
        if constexpr (!std::is_trivially_copyable_v<D>) {
            manage_ = [](void *dst, void *src, Op op) noexcept {
                if (op == Op::kRelocate)
                    ::new (dst) D(std::move(*static_cast<D *>(src)));
                static_cast<D *>(src)->~D();
            };
        }
    }

    InplaceFunction(InplaceFunction &&other) noexcept
        : invoke_(other.invoke_), manage_(other.manage_)
    {
        relocateFrom(other);
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this == &other)
            return *this;
        reset();
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        relocateFrom(other);
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    R
    operator()(Args... args)
    {
        if (invoke_ == nullptr)
            panic("call through an empty InplaceFunction");
        return invoke_(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

  private:
    /** Take @p other's callable (whose invoke_/manage_ this already
     *  copied) and leave @p other empty. */
    void
    relocateFrom(InplaceFunction &other) noexcept
    {
        if (invoke_ == nullptr)
            return;
        if (manage_ != nullptr)
            manage_(storage_, other.storage_, Op::kRelocate);
        else
            std::memcpy(storage_, other.storage_, Capacity);
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (manage_ != nullptr)
            manage_(nullptr, storage_, Op::kDestroy);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    R (*invoke_)(void *, Args...) = nullptr;
    void (*manage_)(void *, void *, Op) noexcept = nullptr;
};

// Defined in protect/scheme.hpp; hot-path callbacks only ever take it
// by reference, so the incomplete type suffices here.
struct SectorFetchResult;

/** Inline capture budget for hot-path callbacks: enough for a `this`
 *  pointer plus a handful of words (an address, a tag, a handle). */
inline constexpr std::size_t kSmallFnCapacity = 48;

/** Event-queue / wakeup-list callback. */
using SmallFn = InplaceFunction<void(), kSmallFnCapacity>;

/** MRC check-field wakeup: bool = check field resident in cache. */
using WakeFn = InplaceFunction<void(bool), kSmallFnCapacity>;

/** Protection-scheme sector-read completion. */
using FetchFn =
    InplaceFunction<void(const SectorFetchResult &), kSmallFnCapacity>;

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_INPLACE_FUNCTION_HPP
