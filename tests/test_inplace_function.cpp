/**
 * @file
 * Tests for InplaceFunction: invocation, move semantics (managed and
 * trivially copyable captures), capture lifetime (destructors run
 * exactly once), the capacity boundary
 * (exercised under ASan in the sanitizer CI job), and the SFINAE
 * rejection of callables that cannot live in the inline buffer.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/inplace_function.hpp"

namespace cachecraft {
namespace {

TEST(InplaceFunction, InvokesAndReturns)
{
    InplaceFunction<int(int, int), 16> add =
        [](int a, int b) { return a + b; };
    EXPECT_TRUE(static_cast<bool>(add));
    EXPECT_EQ(add(2, 3), 5);
}

TEST(InplaceFunction, DefaultConstructedIsEmpty)
{
    SmallFn fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    fn = [] {};
    EXPECT_TRUE(static_cast<bool>(fn));
    fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InplaceFunction, MoveTransfersTargetAndEmptiesSource)
{
    int calls = 0;
    SmallFn a = [&calls] { ++calls; };
    SmallFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    SmallFn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InplaceFunction, TriviallyCopyableCaptureSurvivesMoves)
{
    // A capture of plain values has no manager: moves copy the
    // buffer. Its exact values must arrive, through construction,
    // assignment and a chain of moves.
    std::uint64_t seen = 0;
    const std::uint64_t a = 0x0123456789ABCDEFull;
    const std::uint32_t b = 0xCAFEF00Du;
    auto closure = [a, b, out = &seen] { *out = a ^ b; };
    static_assert(std::is_trivially_copyable_v<decltype(closure)>);
    SmallFn first = closure;
    SmallFn second = std::move(first);
    SmallFn third;
    third = std::move(second);
    EXPECT_FALSE(static_cast<bool>(first));
    EXPECT_FALSE(static_cast<bool>(second));
    third();
    EXPECT_EQ(seen, a ^ b);
}

TEST(InplaceFunction, MoveOnlyCapturesWork)
{
    auto owned = std::make_unique<int>(41);
    SmallFn fn = [p = std::move(owned)] { ++*p; };
    SmallFn moved = std::move(fn);
    moved();
}

/** Counts live instances to pin destructor behaviour. */
struct Tracked
{
    static int live;
    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(InplaceFunction, DestroysCaptureExactlyOnce)
{
    ASSERT_EQ(Tracked::live, 0);
    {
        SmallFn fn = [t = Tracked{}] { (void)t; };
        EXPECT_EQ(Tracked::live, 1);
        SmallFn moved = std::move(fn);
        // Relocation destroys the source's capture.
        EXPECT_EQ(Tracked::live, 1);
        moved = nullptr;
        EXPECT_EQ(Tracked::live, 0);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InplaceFunction, ReassignmentDestroysOldTarget)
{
    ASSERT_EQ(Tracked::live, 0);
    SmallFn fn = [t = Tracked{}] { (void)t; };
    EXPECT_EQ(Tracked::live, 1);
    fn = [] {};
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InplaceFunction, CapacityBoundaryCaptureIsUsable)
{
    // A closure of exactly kSmallFnCapacity bytes: the largest
    // callable the engine's hot-path type accepts. Every byte is
    // written through the stored copy (and again after a move), so
    // under the sanitizer CI job an out-of-buffer write faults
    // instead of silently corrupting a neighbour.
    std::array<unsigned char, kSmallFnCapacity - sizeof(int *)>
        payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<unsigned char>(i);
    int sum = 0;
    int *sum_ptr = &sum;
    auto closure = [payload, sum_ptr]() mutable {
        for (auto &b : payload) {
            b = static_cast<unsigned char>(b + 1);
            *sum_ptr += b;
        }
    };
    static_assert(sizeof(closure) == kSmallFnCapacity);
    SmallFn fn = closure;
    fn();
    const int first = sum;
    EXPECT_GT(first, 0);
    SmallFn moved = std::move(fn);
    moved();
    EXPECT_GT(sum, first);
}

TEST(InplaceFunction, OversizedCallableIsRejectedAtCompileTime)
{
    // The converting constructor must SFINAE away (not static_assert)
    // so unconstructibility is itself testable.
    struct Big
    {
        std::array<unsigned char, kSmallFnCapacity + 1> bytes;
        void operator()() const {}
    };
    static_assert(!std::is_constructible_v<SmallFn, Big>);

    struct ThrowingMove
    {
        ThrowingMove() = default;
        ThrowingMove(ThrowingMove &&) {} // not noexcept
        void operator()() const {}
    };
    static_assert(!std::is_constructible_v<SmallFn, ThrowingMove>);

    struct Fits
    {
        void operator()() const {}
    };
    static_assert(std::is_constructible_v<SmallFn, Fits>);
}

TEST(InplaceFunction, SignatureMismatchIsRejectedAtCompileTime)
{
    auto wrong = [](int) {};
    static_assert(!std::is_constructible_v<SmallFn, decltype(wrong)>);
    using TakesBool = InplaceFunction<void(bool), kSmallFnCapacity>;
    static_assert(std::is_constructible_v<TakesBool, decltype(wrong)>);
}

TEST(InplaceFunctionDeathTest, CallingEmptyPanics)
{
    SmallFn fn;
    EXPECT_DEATH(fn(), "empty InplaceFunction");
}

} // namespace
} // namespace cachecraft
