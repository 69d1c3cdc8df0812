/**
 * @file
 * Execution-driven frontend tests: coroutine adaptation, dependence
 * chains, batches, atomics under contention, task composition, and all
 * three barrier implementations.
 */

#include <gtest/gtest.h>

#include <bit>

#include "arch/chip.h"
#include "common/log.h"
#include "exec/barriers.h"
#include "exec/engine.h"
#include "exec/guest_unit.h"
#include "verify/digest.h"

using namespace cyclops;
using namespace cyclops::exec;
using arch::Chip;
using arch::FpuOp;
using arch::igAddr;
using arch::kIgDefault;

namespace
{

struct World
{
    Chip chip;
    GuestEngine engine;
    explicit World(
        kernel::AllocPolicy policy = kernel::AllocPolicy::Sequential,
        ChipConfig cfg = ChipConfig{})
        : chip(cfg), engine(chip, policy)
    {}
};

} // namespace

TEST(Exec, SingleThreadAluTiming)
{
    World w;
    static GuestTask (*body)(GuestCtx &) = [](GuestCtx &ctx) -> GuestTask {
        co_await ctx.alu(100);
    };
    w.engine.spawn(1, body);
    EXPECT_EQ(w.engine.run(100'000), arch::RunExit::AllHalted);
    // ~100 cycles of ALU work plus constant start/halt overhead.
    EXPECT_GE(w.chip.now(), 100u);
    EXPECT_LE(w.chip.now(), 110u);
    EXPECT_EQ(w.chip.unit(0)->runCycles(), 101u); // 100 alu + halt
}

TEST(Exec, LoadStoreRoundTrip)
{
    World w;
    const Addr ea = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    struct Body
    {
        static GuestTask
        run(GuestCtx &ctx, Addr ea)
        {
            co_await ctx.store(ea, 0xDEADBEEFCAFEF00Dull, 8);
            const u64 value = co_await ctx.load(ea, 8);
            co_await ctx.store(ea + 8, value + 1, 8);
        }
    };
    w.engine.spawn(1, [&](GuestCtx &ctx) { return Body::run(ctx, ea); });
    EXPECT_EQ(w.engine.run(100'000), arch::RunExit::AllHalted);
    EXPECT_EQ(w.chip.memRead(ea + 8, 8, 0), 0xDEADBEEFCAFEF00Dull + 1);
}

TEST(Exec, DependentLoadChainsStall)
{
    // A chain of dependent loads each pays the full load latency; a
    // batch of independent loads pipelines at one per cycle.
    auto measure = [&](bool independent) {
        World w;
        const PhysAddr buf = w.engine.heap().alloc(4096, 64);
        struct Body
        {
            static GuestTask
            run(GuestCtx &ctx, Addr base, bool indep)
            {
                if (indep) {
                    std::vector<MicroOp> ops;
                    for (int i = 0; i < 16; ++i)
                        ops.push_back(MicroOp::load(base + i * 8, 8,
                                                    true));
                    co_await ctx.batch(ops);
                } else {
                    for (int i = 0; i < 16; ++i)
                        co_await ctx.load(base + i * 8, 8);
                }
            }
        };
        const Addr ea = igAddr(arch::igExactly(0), buf);
        w.engine.spawn(1, [&](GuestCtx &ctx) {
            return Body::run(ctx, ea, independent);
        });
        EXPECT_EQ(w.engine.run(1'000'000), arch::RunExit::AllHalted);
        return w.chip.now();
    };
    const Cycle dependent = measure(false);
    const Cycle independent = measure(true);
    EXPECT_GT(dependent, independent * 2);
}

TEST(Exec, FpuOpsShareQuadUnit)
{
    // Four threads of one quad all issuing FMAs saturate the single
    // FPU: aggregate throughput is 1 FMA/cycle, not 4.
    World w;
    static constexpr int kOps = 200;
    struct Body
    {
        static GuestTask
        run(GuestCtx &ctx)
        {
            std::vector<MicroOp> ops(kOps, MicroOp::fpuOp(FpuOp::Fma,
                                                          true));
            co_await ctx.batch(ops);
        }
    };
    w.engine.spawn(4, [](GuestCtx &ctx) { return Body::run(ctx); });
    EXPECT_EQ(w.engine.run(1'000'000), arch::RunExit::AllHalted);
    EXPECT_GE(w.chip.now(), 4u * kOps);
    EXPECT_LE(w.chip.now(), 4u * kOps + 64);
}

TEST(Exec, AtomicContention)
{
    // 64 threads each add 1..16 to one counter: the sum is exact.
    World w;
    const Addr ea = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    struct Body
    {
        static GuestTask
        run(GuestCtx &ctx, Addr ea)
        {
            for (u32 i = 1; i <= 16; ++i)
                co_await ctx.amoadd(ea, i);
        }
    };
    w.engine.spawn(64, [&](GuestCtx &ctx) { return Body::run(ctx, ea); });
    EXPECT_EQ(w.engine.run(10'000'000), arch::RunExit::AllHalted);
    EXPECT_EQ(w.chip.memRead(ea, 4, 0), 64u * (16 * 17 / 2));
}

TEST(Exec, TaskComposition)
{
    // A helper coroutine awaited from the top level shares the context.
    World w;
    const Addr ea = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    struct Body
    {
        static GuestTask
        helper(GuestCtx &ctx, Addr ea, u32 n)
        {
            for (u32 i = 0; i < n; ++i)
                co_await ctx.amoadd(ea, 1);
        }
        static GuestTask
        run(GuestCtx &ctx, Addr ea)
        {
            co_await helper(ctx, ea, 3);
            co_await ctx.alu(5);
            co_await helper(ctx, ea, 4);
        }
    };
    w.engine.spawn(2, [&](GuestCtx &ctx) { return Body::run(ctx, ea); });
    EXPECT_EQ(w.engine.run(1'000'000), arch::RunExit::AllHalted);
    EXPECT_EQ(w.chip.memRead(ea, 4, 0), 14u);
}

// ---------------------------------------------------------------------------
// Barriers.
// ---------------------------------------------------------------------------

namespace
{

/**
 * Barrier ordering harness: each thread writes a per-round stamp after
 * the barrier; the invariant is that no thread starts round r+1 before
 * every thread finished round r. We verify with a shared "phase"
 * counter: before the barrier each thread increments arrivals; after
 * the barrier each checks that arrivals == threads * round.
 */
enum class BarKind { Hw, Central, Tree };

struct BarrierWorld
{
    World w;
    Addr arrivals;
    Addr errors;
    CentralBarrier central;
    TreeBarrier tree;
    BarKind kind;
    u32 rounds;

    BarrierWorld(BarKind k, u32 threads, u32 rounds_,
                 kernel::AllocPolicy policy =
                     kernel::AllocPolicy::Sequential)
        : w(policy), kind(k), rounds(rounds_)
    {
        arrivals = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
        errors = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
        central.init(w.engine.heap(), threads);
        tree.init(w.engine.heap(), threads);
        auto *self = this;
        w.engine.spawn(threads, [self](GuestCtx &ctx) {
            return body(ctx, *self);
        });
    }

    static GuestTask
    body(GuestCtx &ctx, BarrierWorld &bw)
    {
        for (u32 round = 1; round <= bw.rounds; ++round) {
            co_await ctx.amoadd(bw.arrivals, 1);
            switch (bw.kind) {
              case BarKind::Hw:
                co_await ctx.hwBarrier(0);
                break;
              case BarKind::Central:
                co_await ctx.swBarrier(bw.central);
                break;
              case BarKind::Tree:
                co_await ctx.swBarrier(bw.tree);
                break;
            }
            const u64 seen = co_await ctx.load(bw.arrivals, 4);
            if (seen < u64(ctx.threads()) * round)
                co_await ctx.amoadd(bw.errors, 1);
            // Second barrier so the next round's increments cannot
            // race with this round's check.
            switch (bw.kind) {
              case BarKind::Hw:
                co_await ctx.hwBarrier(1);
                break;
              case BarKind::Central:
                co_await ctx.swBarrier(bw.central);
                break;
              case BarKind::Tree:
                co_await ctx.swBarrier(bw.tree);
                break;
            }
        }
    }

    u32
    errorCount()
    {
        EXPECT_EQ(w.engine.run(100'000'000), arch::RunExit::AllHalted);
        return u32(w.chip.memRead(errors, 4, 0));
    }
};

} // namespace

class BarrierOrdering
    : public ::testing::TestWithParam<std::tuple<int, u32>>
{
};

TEST_P(BarrierOrdering, NoThreadRunsAhead)
{
    const auto [kindIdx, threads] = GetParam();
    BarrierWorld bw(static_cast<BarKind>(kindIdx), threads, 5);
    EXPECT_EQ(bw.errorCount(), 0u);
}

namespace
{

std::string
barrierCaseName(
    const ::testing::TestParamInfo<std::tuple<int, u32>> &info)
{
    static const char *names[] = {"Hw", "Central", "Tree"};
    return std::string(names[std::get<0>(info.param)]) + "x" +
           std::to_string(std::get<1>(info.param));
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, BarrierOrdering,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 3u, 16u, 64u, 126u)),
    barrierCaseName);

TEST(Barriers, HardwareFasterThanSoftware)
{
    // The whole point of the hardware barrier (paper 3.3): with many
    // threads it costs far fewer cycles than the memory-based tree.
    auto cost = [](BarKind kind) {
        BarrierWorld bw(kind, 64, 20);
        EXPECT_EQ(bw.errorCount(), 0u);
        return bw.w.chip.now();
    };
    const Cycle hw = cost(BarKind::Hw);
    const Cycle tree = cost(BarKind::Tree);
    const Cycle central = cost(BarKind::Central);
    EXPECT_LT(hw, tree);
    EXPECT_LT(hw, central);
}

TEST(Barriers, WiredOrSemantics)
{
    arch::BarrierSpr spr;
    spr.init(8, nullptr);
    EXPECT_EQ(spr.read(), 0);
    spr.write(0, 0b0000'0001);
    spr.write(3, 0b0000'0100);
    EXPECT_EQ(spr.read(), 0b0000'0101);
    spr.write(0, 0b0000'0010); // clear current, set next
    EXPECT_EQ(spr.read(), 0b0000'0110);
    spr.write(3, 0);
    EXPECT_EQ(spr.read(), 0b0000'0010);
}

TEST(Barriers, ProtocolRoleSwap)
{
    arch::HwBarrierProtocol proto(2); // bits 4 and 5
    EXPECT_EQ(proto.armValue(), 1u << 4);
    u8 reg = proto.armValue();
    reg = proto.enterValue(reg);
    EXPECT_EQ(reg, 1u << 5); // current cleared, next set
    EXPECT_TRUE(proto.released(0));
    EXPECT_FALSE(proto.released(1u << 4));
    proto.consumeRelease();
    reg = proto.enterValue(reg);
    EXPECT_EQ(reg, 1u << 4); // roles swapped
    EXPECT_FALSE(proto.released(1u << 5));
}

// ---------------------------------------------------------------------------
// Result-stream pin of the execution-driven frontend.
// ---------------------------------------------------------------------------

namespace
{

/** Shared state of the pinned guest mix. */
struct PinShared
{
    Addr buf = 0;      ///< 4 KB of shared data
    Addr counters = 0; ///< 16 atomic words
    CentralBarrier central;
    TreeBarrier tree;
    u32 rounds = 0;
    u64 seed = 0;
};

u64
pinNext(u64 &state)
{
    // splitmix64
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * One thread of the pinned mix: every OpKind as single ops and in
 * batches (more independent loads than the outstanding-memory limit,
 * so mem_.full() stalls), dependent loads that stall the chain, a
 * per-round FPU burst that makes the four threads of a quad collide
 * on their FPU's ports, and a rotation of hardware, central and tree
 * barriers.
 */
GuestTask
pinBody(GuestCtx &ctx, PinShared &s)
{
    u64 rng = s.seed * 0x100000001B3ull + ctx.index();
    u32 hwId = 0;
    for (u32 r = 0; r < s.rounds; ++r) {
        const u32 nOps = 4 + u32(pinNext(rng) % 8);
        for (u32 k = 0; k < nOps; ++k) {
            const u64 x = pinNext(rng);
            const Addr ea = s.buf + Addr((x >> 8) % 512) * 8;
            const Addr word = s.counters + Addr((x >> 20) % 16) * 4;
            switch (x % 10) {
              case 0: {
                const u64 v = co_await ctx.load(ea, 8);
                co_await ctx.alu(1 + u32(v & 1));
                break;
              }
              case 1:
                co_await ctx.store(ea, x, 8);
                break;
              case 2:
                co_await ctx.amoadd(word, 1);
                break;
              case 3:
                co_await ctx.amoswap(word, u32(x >> 32));
                break;
              case 4:
                co_await ctx.amocas(word, u32(x >> 40) & 3, u32(x >> 44));
                break;
              case 5:
                co_await ctx.fpu(FpuOp((x >> 4) % 5));
                break;
              case 6:
                co_await ctx.alu(u32((x >> 4) % 4), ((x >> 6) & 1) != 0);
                break;
              case 7:
                co_await ctx.branch();
                break;
              case 8:
                co_await ctx.sync();
                break;
              default: {
                std::vector<MicroOp> ops;
                const u32 n = 1 + u32((x >> 4) % 12);
                u64 y = x;
                for (u32 i = 0; i < n; ++i) {
                    y = pinNext(rng);
                    const Addr at = s.buf + Addr((y >> 8) % 512) * 8;
                    const bool indep = ((y >> 3) & 3) != 0;
                    switch (y % 4) {
                      case 0:
                      case 1:
                        ops.push_back(MicroOp::load(at, 8, indep));
                        break;
                      case 2:
                        ops.push_back(MicroOp::store(at, y, 8, indep));
                        break;
                      default:
                        ops.push_back(
                            MicroOp::fpuOp(FpuOp((y >> 5) % 5), indep));
                        break;
                    }
                }
                co_await ctx.batch(ops);
                break;
              }
            }
        }

        std::vector<MicroOp> burst;
        for (FpuOp op : {FpuOp::Fma, FpuOp::Fma, FpuOp::Div, FpuOp::Fma,
                         FpuOp::Mul, FpuOp::Add, FpuOp::Sqrt})
            burst.push_back(MicroOp::fpuOp(op, true));
        co_await ctx.batch(burst);

        switch (r % 3) {
          case 0:
            co_await ctx.hwBarrier(hwId);
            hwId ^= 1;
            break;
          case 1:
            co_await ctx.swBarrier(s.central);
            break;
          default:
            co_await ctx.swBarrier(s.tree);
            break;
        }
    }
}

/**
 * FNV-1a over what the pinned mix leaves behind: each TU's attribution
 * (every category and sleep), instructions, D-cache hits and misses
 * and progress events, every FPU's port conflicts, and the cycle count.
 */
u64
execResultStream(u32 threads, u64 seed)
{
    World w;
    PinShared s;
    s.buf = igAddr(kIgDefault, w.engine.heap().alloc(4096, 64));
    s.counters = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    s.central.init(w.engine.heap(), threads);
    s.tree.init(w.engine.heap(), threads);
    s.rounds = 30;
    s.seed = seed;
    w.engine.spawn(threads,
                   [&s](GuestCtx &ctx) { return pinBody(ctx, s); });
    EXPECT_EQ(w.engine.run(100'000'000), arch::RunExit::AllHalted);

    const Chip &chip = w.chip;
    u64 h = verify::kFnvOffset;
    auto fold = [&h](u64 v) { h = verify::fnv1a(&v, sizeof v, h); };
    for (ThreadId tid = 0; tid < chip.config().numThreads; ++tid) {
        const arch::Unit *u = chip.unit(tid);
        if (!u)
            continue;
        const arch::CycleBreakdown b = chip.attribution(tid);
        for (u32 c = 0; c <= arch::kNumCycleCats; ++c)
            fold(b.value(c));
        fold(u->instructions());
        fold(u->dcacheHits());
        fold(u->dcacheMisses());
        fold(u->progressEvents());
    }
    for (u32 q = 0; q < chip.config().numFpus(); ++q)
        fold(w.chip.stats().counterValue(strprintf("fpu%u.conflicts", q)));
    fold(chip.now());
    return h;
}

} // namespace

TEST(GuestUnit, ResultStreamMatchesParent)
{
    // Pinned against the frontend before waits were parked in the
    // cycle engine: every counter, attribution cycle and the cycle
    // count must come out bit for bit the same.
    EXPECT_EQ(execResultStream(16, 1), 0x5d111f36c069dd2aull);
    EXPECT_EQ(execResultStream(64, 2), 0x993a651e8c4ed066ull);
}
