/**
 * @file
 * SPLASH-2-style radix sort on the execution-driven frontend
 * (Figure 3).
 *
 * Least-significant-digit radix sort of 32-bit keys with an 8-bit
 * digit (four passes). Each pass: per-thread local histograms of the
 * key slice; a parallel global prefix (threads own digit slices, with
 * one short serial scan over the 256 digit totals); and the rank-and-
 * permute phase whose scattered stores generate the heavy remote
 * cache traffic radix sort is known for.
 */

#include <algorithm>
#include <cstring>
#include <vector>

#include "arch/chip.h"
#include "arch/interest_group.h"
#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"
#include "workloads/splash.h"

namespace cyclops::workloads
{

namespace
{

using arch::igAddr;
using arch::kIgDefault;
using exec::GuestCtx;
using exec::GuestTask;
using exec::MicroOp;
using exec::OpBatch;

constexpr u32 kDigitBits = 8;
constexpr u32 kRadix = 1u << kDigitBits;
constexpr u32 kPasses = 32 / kDigitBits;

struct RadixWorld
{
    u32 keys = 0;
    u32 threads = 0;
    Addr src = 0, dst = 0;   ///< ping-pong key arrays (u32 each)
    Addr hist = 0;           ///< threads x kRadix u32 counters
    detail::SplashSync sync;
    arch::Chip *chip = nullptr;

    Addr key(Addr arr, u32 i) const { return arr + i * 4; }
    Addr
    counter(u32 thread, u32 digit) const
    {
        return hist + (thread * kRadix + digit) * 4;
    }

    Addr totals = 0; ///< kRadix digit-total words (prefix phase)

    Addr digitTotal(u32 digit) const { return totals + digit * 4; }
};

GuestTask
radixWorker(GuestCtx &ctx, RadixWorld &w)
{
    const u32 me = ctx.index();
    const detail::Range mine = detail::splitRange(w.keys, w.threads, me);
    Addr src = w.src, dst = w.dst;

    for (u32 pass = 0; pass < kPasses; ++pass) {
        const u32 shift = pass * kDigitBits;

        // --- Local histogram ------------------------------------------
        for (u32 d = 0; d < kRadix; ++d)
            co_await ctx.store(w.counter(me, d), 0, 4);
        constexpr u32 kChunk = 8; // keys loaded per batch
        for (u32 i = mine.begin; i < mine.end; i += kChunk) {
            const u32 chunk = std::min(kChunk, mine.end - i);
            OpBatch<kChunk> loads;
            for (u32 k = 0; k < chunk; ++k)
                loads.push_back(MicroOp::load(w.key(src, i + k), 4,
                                              true));
            co_await ctx.batch(loads);
            for (u32 k = 0; k < chunk; ++k) {
                const u32 digit =
                    (u32(loads[k].result) >> shift) & (kRadix - 1);
                const u64 count =
                    co_await ctx.load(w.counter(me, digit), 4);
                co_await ctx.store(w.counter(me, digit), count + 1, 4);
                co_await ctx.alu(2);
            }
        }
        co_await detail::barrier(ctx, w.sync);

        // --- Global prefix (parallel, SPLASH-2 style) -------------------
        // ranks[t][d] = sum of all counts of digits < d, plus the
        // counts of digit d on threads < t. Step 1: each thread sums
        // its slice of digits over all threads. Step 2: thread 0
        // prefixes the 256 digit totals. Step 3: each thread rewrites
        // the counters of its digit slice into rank bases.
        const detail::Range digits =
            detail::splitRange(kRadix, w.threads, me);
        for (u32 d = digits.begin; d < digits.end; ++d) {
            u64 total = 0;
            for (u32 t = 0; t < w.threads; ++t) {
                total += co_await ctx.load(w.counter(t, d), 4);
                co_await ctx.alu(1);
            }
            co_await ctx.store(w.digitTotal(d), total, 4);
        }
        co_await detail::barrier(ctx, w.sync);
        if (me == 0) {
            u32 running = 0;
            for (u32 d = 0; d < kRadix; ++d) {
                const u64 total = co_await ctx.load(w.digitTotal(d), 4);
                co_await ctx.store(w.digitTotal(d), running, 4);
                running += u32(total);
                co_await ctx.alu(2);
            }
        }
        co_await detail::barrier(ctx, w.sync);
        for (u32 d = digits.begin; d < digits.end; ++d) {
            u64 running = co_await ctx.load(w.digitTotal(d), 4);
            for (u32 t = 0; t < w.threads; ++t) {
                const u64 count = co_await ctx.load(w.counter(t, d), 4);
                co_await ctx.store(w.counter(t, d), running, 4);
                running += count;
                co_await ctx.alu(2);
            }
        }
        co_await detail::barrier(ctx, w.sync);

        // --- Permute ------------------------------------------------------
        for (u32 i = mine.begin; i < mine.end; ++i) {
            const u64 key = co_await ctx.load(w.key(src, i), 4);
            const u32 digit = (u32(key) >> shift) & (kRadix - 1);
            co_await ctx.alu(2);
            const u64 rank = co_await ctx.load(w.counter(me, digit), 4);
            co_await ctx.store(w.counter(me, digit), rank + 1, 4);
            co_await ctx.store(w.key(dst, u32(rank)), key, 4);
        }
        co_await detail::barrier(ctx, w.sync);
        std::swap(src, dst);
    }
}

} // namespace

SplashResult
runRadix(u32 threads, u32 keys, BarrierKind barrier,
         const ChipConfig &chipCfg)
{
    if (keys < threads)
        fatal("radix sort needs at least one key per thread");

    arch::Chip chip(chipCfg);
    exec::GuestEngine engine(chip);
    RadixWorld w;
    w.keys = keys;
    w.threads = threads;
    w.chip = &chip;
    w.src = igAddr(kIgDefault, engine.heap().alloc(keys * 4, 64));
    w.dst = igAddr(kIgDefault, engine.heap().alloc(keys * 4, 64));
    w.hist = igAddr(kIgDefault,
                    engine.heap().alloc(threads * kRadix * 4, 64));
    w.totals = igAddr(kIgDefault, engine.heap().alloc(kRadix * 4, 64));
    w.sync.init(engine.heap(), threads, barrier);

    Rng rng(0xD161 + keys);
    std::vector<u32> host(keys);
    for (u32 i = 0; i < keys; ++i) {
        host[i] = u32(rng.next());
        chip.memWrite(w.key(w.src, i), 4, host[i], 0);
    }

    engine.spawn(threads,
                 [&](GuestCtx &ctx) { return radixWorker(ctx, w); });
    if (engine.run(50'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("radix sort did not finish within the cycle limit");

    std::sort(host.begin(), host.end());
    // An even number of passes leaves the result in src.
    bool verified = true;
    for (u32 i = 0; i < keys; i += 523) {
        const u32 got = u32(chip.memRead(w.key(w.src, i), 4, 0));
        if (got != host[i]) {
            warn("radix verify failed at %u: got %u want %u", i, got,
                 host[i]);
            verified = false;
            break;
        }
    }

    SplashResult result;
    detail::harvest(chip, &result);
    result.verified = verified;
    return result;
}

} // namespace cyclops::workloads
