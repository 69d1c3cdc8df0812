/**
 * @file
 * Delivery calendar: a queue of values keyed by cycle, drained in
 * (cycle, insertion order).
 *
 * The multi-chip lockstep retires fabric flights and applies remote
 * stores at every epoch boundary, a few cycles at a time, and almost
 * every entry is due within a few hundred cycles of its push. A binary
 * heap pays log n per push and pop for that; this calendar pays O(1).
 *
 * Layout: a ring of W per-cycle buckets covers the window
 * [base, base + W); an entry due in the window is appended to its
 * cycle's bucket. An entry due later goes to an overflow min-heap
 * keyed by (cycle, insertion number). drain(upTo, fn) walks the cycles
 * from base through upTo and, for each cycle, hands fn that cycle's
 * overflow entries first and then its bucket in insertion order. When
 * the ring is empty it jumps straight to the top of the overflow heap
 * instead of walking empty buckets.
 *
 * Why that is exactly insertion order within a cycle c: base only
 * grows while the calendar holds entries. An entry for c lands in the
 * overflow heap only while c >= base + W, and in the bucket only once
 * c < base + W; since base never decreases, every overflow entry for c
 * was pushed before every bucket entry for c. The heap orders its own
 * entries for c by insertion number and a bucket is appended in
 * order, so overflow-then-bucket is insertion order. (arch::System
 * relies on this: its stores apply in (delivery cycle, injection
 * sequence) order, the order the binary heap it replaced gave.)
 *
 * Contracts: drain(upTo) leaves base at upTo, so a push at the cycle
 * just drained is still legal and waits for the next drain, as it
 * would in a heap. A push before base is a caller bug and panics
 * (callers that may push late clamp to base() first). fn must not
 * push. A full drain (upTo == kCycleNever) empties the calendar and
 * leaves base where it was before the drain, so any push that was
 * legal before it stays legal.
 */

#ifndef CYCLOPS_COMMON_CALENDAR_H
#define CYCLOPS_COMMON_CALENDAR_H

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace cyclops
{

template <typename T, u32 W = 1024>
class Calendar
{
    static_assert(W > 0 && (W & (W - 1)) == 0,
                  "calendar window must be a power of two");

  public:
    Calendar() : ring_(W) {}

    /** First cycle an entry may still be pushed at. */
    Cycle base() const { return base_; }

    size_t size() const { return ringCount_ + overflow_.size(); }
    bool empty() const { return size() == 0; }

    /** Queue @p value for cycle @p at (at >= base()). */
    void
    push(Cycle at, const T &value)
    {
        if (at < base_)
            panic("calendar push at cycle %llu before its base %llu",
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(base_));
        if (at - base_ < W) {
            ring_[at & (W - 1)].push_back(value);
            ++ringCount_;
            return;
        }
        overflow_.push_back({at, overflowSeq_++, value});
        std::push_heap(overflow_.begin(), overflow_.end(), later);
    }

    /**
     * Hand every entry due at or before @p upTo to @p fn(const T &),
     * in (cycle, insertion order), and remove it. Afterwards base() is
     * upTo (or where it was, if that is later), except after a full
     * drain (see the file comment).
     */
    template <typename Fn>
    void
    drain(Cycle upTo, Fn &&fn)
    {
        const Cycle start = base_;
        while (true) {
            if (ringCount_ == 0) {
                // Nothing in the window: jump to the next overflow
                // cycle (any base is valid for an empty ring).
                if (overflow_.empty() || overflow_.front().at > upTo)
                    break;
                base_ = overflow_.front().at;
            } else if (base_ > upTo) {
                break;
            }
            const Cycle c = base_;
            while (!overflow_.empty() && overflow_.front().at == c) {
                std::pop_heap(overflow_.begin(), overflow_.end(), later);
                fn(std::as_const(overflow_.back().value));
                overflow_.pop_back();
            }
            std::vector<T> &bucket = ring_[c & (W - 1)];
            if (!bucket.empty()) {
                for (const T &v : bucket)
                    fn(v);
                ringCount_ -= bucket.size();
                bucket.clear();
            }
            base_ = c + 1;
        }
        // Every entry left is due after upTo, and the ring's entries
        // lie in (upTo, start + W), so the window may start at upTo.
        base_ = upTo == kCycleNever ? start : std::max(start, upTo);
    }

  private:
    struct Late
    {
        Cycle at;
        u64 seq; ///< insertion number among overflow entries
        T value;
    };

    /** Heap order: the top is the smallest (at, seq). */
    static bool
    later(const Late &a, const Late &b)
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }

    std::vector<std::vector<T>> ring_; ///< bucket of cycle c: c & (W-1)
    std::vector<Late> overflow_;       ///< min-heap on (at, seq)
    Cycle base_ = 0;
    size_t ringCount_ = 0;
    u64 overflowSeq_ = 0;
};

} // namespace cyclops

#endif // CYCLOPS_COMMON_CALENDAR_H
