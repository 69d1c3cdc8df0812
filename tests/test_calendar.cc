/**
 * @file
 * Differential tests of the delivery calendar (common/calendar.h)
 * against a std::priority_queue keyed by (cycle, insertion number) —
 * the order arch::System applied remote stores in before the calendar
 * replaced its heap. Every drained sequence must match the reference
 * exactly: across the ring/overflow boundary, for same-cycle ties on
 * both sides of it, at random drain points, at kCycleNever, and after
 * a full drain. The Fabric's late-push contract is checked at the end.
 */

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/calendar.h"
#include "common/rng.h"
#include "net/fabric.h"

using namespace cyclops;

namespace
{

/** The reference: a min-heap on (cycle, insertion number). */
class Reference
{
  public:
    void push(Cycle at, u64 id) { heap_.push({at, seq_++, id}); }

    std::vector<u64>
    drain(Cycle upTo)
    {
        std::vector<u64> out;
        while (!heap_.empty() && heap_.top().at <= upTo) {
            out.push_back(heap_.top().id);
            heap_.pop();
        }
        return out;
    }

    size_t size() const { return heap_.size(); }

  private:
    struct Entry
    {
        Cycle at;
        u64 seq;
        u64 id;
        bool
        operator>(const Entry &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    u64 seq_ = 0;
};

template <u32 W>
std::vector<u64>
drainAll(Calendar<u64, W> &cal, Cycle upTo)
{
    std::vector<u64> out;
    cal.drain(upTo, [&](u64 id) { out.push_back(id); });
    return out;
}

/**
 * Seeded pushes at horizons up to 3W past the base (so about two
 * thirds land in the overflow heap), drawn from a few cycles at a
 * time so ties are common, then drains at random points — some short
 * of every entry, some past all of them, some at kCycleNever.
 */
template <u32 W>
void
differential(u64 seed)
{
    Rng rng(seed);
    Calendar<u64, W> cal;
    Reference ref;
    u64 id = 0;
    for (u32 round = 0; round < 400; ++round) {
        const u32 pushes = u32(rng.below(12));
        const Cycle anchor = cal.base() + rng.below(3 * W);
        for (u32 i = 0; i < pushes; ++i) {
            // Half the pushes share the round's anchor cycle: ties.
            const Cycle at = rng.below(2) ? anchor
                                          : cal.base() + rng.below(3 * W);
            cal.push(at, id);
            ref.push(at, id);
            ++id;
        }
        Cycle upTo;
        switch (rng.below(8)) {
          case 0: upTo = kCycleNever; break;
          case 1: upTo = cal.base() + 4 * W; break;
          default: upTo = cal.base() + rng.below(W / 2 + 8); break;
        }
        const Cycle before = cal.base();
        ASSERT_EQ(drainAll(cal, upTo), ref.drain(upTo))
            << "seed " << seed << " round " << round;
        ASSERT_EQ(cal.size(), ref.size());
        if (upTo == kCycleNever) {
            ASSERT_TRUE(cal.empty());
            ASSERT_EQ(cal.base(), before); // full drain keeps the base
        } else {
            ASSERT_EQ(cal.base(), std::max(before, upTo));
        }
    }
    EXPECT_EQ(drainAll(cal, kCycleNever), ref.drain(kCycleNever));
}

} // namespace

TEST(Calendar, MatchesHeapReferenceSmallWindow)
{
    for (u64 seed : {1ull, 2ull, 3ull, 2002ull})
        differential<16>(seed);
}

TEST(Calendar, MatchesHeapReferenceDefaultWindow)
{
    for (u64 seed : {7ull, 11ull})
        differential<1024>(seed);
}

TEST(Calendar, SameCycleTiesAcrossTheOverflowBoundary)
{
    // Cycle 40 is beyond the 8-cycle window at first: its first two
    // entries go to the overflow heap. After a drain moves the base to
    // 36, cycle 40 is inside the window and the next two go to its
    // bucket. All four must come out in push order.
    Calendar<u64, 8> cal;
    cal.push(40, 0);
    cal.push(40, 1);
    cal.push(3, 100);
    EXPECT_EQ(drainAll(cal, 36), std::vector<u64>({100}));
    EXPECT_EQ(cal.base(), 36u);
    cal.push(40, 2);
    cal.push(39, 200);
    cal.push(40, 3);
    EXPECT_EQ(drainAll(cal, 40), std::vector<u64>({200, 0, 1, 2, 3}));
    EXPECT_TRUE(cal.empty());
}

TEST(Calendar, EmptyRingJumpsToOverflowAndPushAtBaseIsLegal)
{
    Calendar<u64, 4> cal;
    cal.push(1'000'000, 1);
    cal.push(1'000'000, 2);
    cal.push(1'000'001, 3);
    EXPECT_TRUE(drainAll(cal, 999'999).empty());
    EXPECT_EQ(cal.base(), 999'999u);
    EXPECT_EQ(drainAll(cal, 1'000'000), std::vector<u64>({1, 2}));
    // A push at the cycle just drained waits for the next drain.
    cal.push(1'000'000, 4);
    EXPECT_EQ(drainAll(cal, 1'000'000), std::vector<u64>({4}));
    EXPECT_EQ(drainAll(cal, kCycleNever), std::vector<u64>({3}));
    EXPECT_EQ(cal.base(), 1'000'000u);
}

TEST(Calendar, PushesAfterAFullDrain)
{
    Calendar<u64, 16> cal;
    Reference ref;
    for (u64 i = 0; i < 50; ++i) {
        cal.push(10 + i * 7, i);
        ref.push(10 + i * 7, i);
    }
    EXPECT_EQ(drainAll(cal, 20), ref.drain(20));
    EXPECT_EQ(drainAll(cal, kCycleNever), ref.drain(kCycleNever));
    // The base is where the last partial drain left it: pushes the
    // caller could make before the full drain are still legal.
    EXPECT_EQ(cal.base(), 20u);
    for (u64 i = 0; i < 30; ++i) {
        cal.push(20 + (i * 13) % 50, 100 + i);
        ref.push(20 + (i * 13) % 50, 100 + i);
    }
    EXPECT_EQ(drainAll(cal, 45), ref.drain(45));
    EXPECT_EQ(drainAll(cal, kCycleNever), ref.drain(kCycleNever));
}

TEST(Calendar, PushBeforeBasePanics)
{
    Calendar<u64, 16> cal;
    cal.drain(100, [](u64) {});
    EXPECT_DEATH(cal.push(99, 0), "before its base");
}

TEST(Calendar, FabricRetiresALatePushAtTheNextAdvance)
{
    // An inject whose delivery is behind an earlier advance: its
    // flight is filed at the calendar's base, so the next advance at
    // the same or a later cycle retires it and conservation closes.
    net::FabricConfig fc;
    fc.net.dimX = 2;
    fc.net.dimY = 2;
    fc.net.dimZ = 1;
    net::Fabric fabric(fc);
    fabric.advance(1000);
    const net::Delivery d = fabric.inject(0, 0, 1, 64);
    ASSERT_LT(d.delivered, Cycle(1000));
    EXPECT_GT(fabric.flitsInFlight(), 0u);
    fabric.advance(1000);
    EXPECT_EQ(fabric.flitsInFlight(), 0u);
    EXPECT_EQ(fabric.flitsDelivered(), fabric.flitsInjected());

    // And one that completes after the advance waits for its cycle.
    const net::Delivery late = fabric.inject(995, 0, 1, 64);
    ASSERT_GT(late.delivered, Cycle(1001));
    fabric.advance(1001);
    EXPECT_GT(fabric.flitsInFlight(), 0u);
    fabric.advance(late.delivered);
    EXPECT_EQ(fabric.flitsInFlight(), 0u);
}
