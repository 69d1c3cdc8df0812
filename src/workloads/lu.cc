/**
 * @file
 * SPLASH-2-style blocked dense LU factorization (no pivoting) on the
 * execution-driven frontend (Figure 3).
 *
 * The n x n matrix is divided into B x B blocks assigned to threads in
 * a 2-D block-cyclic scatter. Each step k factors the diagonal block,
 * solves the perimeter blocks against it, and updates the interior
 * with block matrix-multiplies; barriers separate the three phases.
 */

#include <cmath>
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

using arch::FpuOp;
using arch::igAddr;
using arch::kIgDefault;
using exec::GuestCtx;
using exec::GuestTask;
using exec::MicroOp;
using exec::OpBatch;

constexpr u32 kBlock = 16;

struct LuWorld
{
    u32 n = 0;
    u32 nb = 0; ///< blocks per side
    u32 pr = 0, pc = 0; ///< processor grid
    u32 threads = 0;
    Addr a = 0;
    detail::SplashSync sync;
    arch::Chip *chip = nullptr;

    Addr elem(u32 i, u32 j) const { return a + (i * n + j) * 8; }

    u32
    owner(u32 bi, u32 bj) const
    {
        return (bi % pr) * pc + (bj % pc);
    }
};

double
toD(u64 raw)
{
    double v;
    std::memcpy(&v, &raw, 8);
    return v;
}

u64
toB(double v)
{
    u64 raw;
    std::memcpy(&raw, &v, 8);
    return raw;
}

/** Factor the diagonal block at block coords (k,k), in place. */
GuestTask
factorDiag(GuestCtx &ctx, LuWorld &w, u32 k)
{
    const u32 base = k * kBlock;
    for (u32 j = 0; j < kBlock; ++j) {
        const u64 prow = base + j;
        const u64 diag = co_await ctx.load(w.elem(prow, base + j), 8);
        for (u32 i = j + 1; i < kBlock; ++i) {
            const u32 row = base + i;
            // l = a[i][j] / d; then a[i][jj] -= l * a[j][jj].
            const u64 aij = co_await ctx.load(w.elem(row, base + j), 8);
            co_await ctx.fpu(FpuOp::Div);
            const double l = toD(aij) / toD(diag);
            co_await ctx.store(w.elem(row, base + j), toB(l), 8);

            const u32 rest = kBlock - j - 1;
            if (rest == 0)
                continue;
            OpBatch<2 * kBlock> loads;
            for (u32 jj = j + 1; jj < kBlock; ++jj) {
                loads.push_back(
                    MicroOp::load(w.elem(prow, base + jj), 8, true));
                loads.push_back(
                    MicroOp::load(w.elem(row, base + jj), 8, true));
            }
            co_await ctx.batch(loads);
            OpBatch<kBlock> fmas;
            fmas.append(rest, MicroOp::fpuOp(FpuOp::Fma, true));
            co_await ctx.batch(fmas);
            OpBatch<kBlock> stores;
            for (u32 t = 0; t < rest; ++t) {
                const double upper = toD(loads[2 * t].result);
                const double mine = toD(loads[2 * t + 1].result);
                stores.push_back(
                    MicroOp::store(w.elem(row, base + j + 1 + t),
                                   toB(mine - l * upper), 8, true));
            }
            co_await ctx.batch(stores);
            co_await ctx.alu(3);
        }
    }
}

/** A(bi,k) := A(bi,k) * inv(U(k,k)) — column perimeter block. */
GuestTask
solveColBlock(GuestCtx &ctx, LuWorld &w, u32 bi, u32 k)
{
    const u32 rbase = bi * kBlock, cbase = k * kBlock;
    for (u32 r = 0; r < kBlock; ++r) {
        for (u32 j = 0; j < kBlock; ++j) {
            // a[r][j] = (a[r][j] - sum_{t<j} a[r][t]*d[t][j]) / d[j][j]
            OpBatch<2 * kBlock> loads;
            loads.push_back(
                MicroOp::load(w.elem(rbase + r, cbase + j), 8, true));
            loads.push_back(
                MicroOp::load(w.elem(cbase + j, cbase + j), 8, true));
            for (u32 t = 0; t < j; ++t) {
                loads.push_back(
                    MicroOp::load(w.elem(rbase + r, cbase + t), 8,
                                  true));
                loads.push_back(
                    MicroOp::load(w.elem(cbase + t, cbase + j), 8,
                                  true));
            }
            co_await ctx.batch(loads);
            if (j > 0) {
                OpBatch<kBlock> fmas;
                fmas.append(j, MicroOp::fpuOp(FpuOp::Fma, true));
                co_await ctx.batch(fmas);
            }
            co_await ctx.fpu(FpuOp::Div);
            double acc = toD(loads[0].result);
            const double d = toD(loads[1].result);
            for (u32 t = 0; t < j; ++t)
                acc -= toD(loads[2 + 2 * t].result) *
                       toD(loads[3 + 2 * t].result);
            co_await ctx.store(w.elem(rbase + r, cbase + j),
                               toB(acc / d), 8);
            co_await ctx.alu(3);
        }
    }
}

/** A(k,bj) := inv(L(k,k)) * A(k,bj) — row perimeter block. */
GuestTask
solveRowBlock(GuestCtx &ctx, LuWorld &w, u32 k, u32 bj)
{
    const u32 rbase = k * kBlock, cbase = bj * kBlock;
    for (u32 c = 0; c < kBlock; ++c) {
        for (u32 r = 0; r < kBlock; ++r) {
            // a[r][c] -= sum_{t<r} l[r][t] * a[t][c]   (unit diagonal)
            if (r == 0) {
                co_await ctx.alu(2);
                continue;
            }
            OpBatch<2 * kBlock> loads;
            loads.push_back(
                MicroOp::load(w.elem(rbase + r, cbase + c), 8, true));
            for (u32 t = 0; t < r; ++t) {
                loads.push_back(
                    MicroOp::load(w.elem(rbase + r, rbase + t), 8,
                                  true));
                loads.push_back(
                    MicroOp::load(w.elem(rbase + t, cbase + c), 8,
                                  true));
            }
            co_await ctx.batch(loads);
            OpBatch<kBlock> fmas;
            fmas.append(r, MicroOp::fpuOp(FpuOp::Fma, true));
            co_await ctx.batch(fmas);
            double acc = toD(loads[0].result);
            for (u32 t = 0; t < r; ++t)
                acc -= toD(loads[1 + 2 * t].result) *
                       toD(loads[2 + 2 * t].result);
            co_await ctx.store(w.elem(rbase + r, cbase + c), toB(acc),
                               8);
            co_await ctx.alu(3);
        }
    }
}

/** A(bi,bj) -= A(bi,k) * A(k,bj) — interior block update. */
GuestTask
gemmBlock(GuestCtx &ctx, LuWorld &w, u32 bi, u32 bj, u32 k)
{
    const u32 rbase = bi * kBlock;
    const u32 cbase = bj * kBlock;
    const u32 kbase = k * kBlock;
    for (u32 r = 0; r < kBlock; ++r) {
        // Load this row of A(bi,k) once.
        OpBatch<kBlock> rowLoads;
        for (u32 t = 0; t < kBlock; ++t)
            rowLoads.push_back(
                MicroOp::load(w.elem(rbase + r, kbase + t), 8, true));
        co_await ctx.batch(rowLoads);
        double lrow[kBlock];
        for (u32 t = 0; t < kBlock; ++t)
            lrow[t] = toD(rowLoads[t].result);

        for (u32 c = 0; c < kBlock; ++c) {
            OpBatch<kBlock + 1> colLoads;
            colLoads.push_back(
                MicroOp::load(w.elem(rbase + r, cbase + c), 8, true));
            for (u32 t = 0; t < kBlock; ++t)
                colLoads.push_back(
                    MicroOp::load(w.elem(kbase + t, cbase + c), 8,
                                  true));
            co_await ctx.batch(colLoads);
            OpBatch<kBlock> fmas;
            fmas.append(kBlock, MicroOp::fpuOp(FpuOp::Fma, true));
            co_await ctx.batch(fmas);
            double acc = toD(colLoads[0].result);
            for (u32 t = 0; t < kBlock; ++t)
                acc -= lrow[t] * toD(colLoads[1 + t].result);
            co_await ctx.store(w.elem(rbase + r, cbase + c), toB(acc),
                               8);
            co_await ctx.alu(3, true);
        }
    }
}

GuestTask
luWorker(GuestCtx &ctx, LuWorld &w)
{
    const u32 me = ctx.index();
    for (u32 k = 0; k < w.nb; ++k) {
        if (w.owner(k, k) == me)
            co_await factorDiag(ctx, w, k);
        co_await detail::barrier(ctx, w.sync);

        for (u32 bi = k + 1; bi < w.nb; ++bi)
            if (w.owner(bi, k) == me)
                co_await solveColBlock(ctx, w, bi, k);
        for (u32 bj = k + 1; bj < w.nb; ++bj)
            if (w.owner(k, bj) == me)
                co_await solveRowBlock(ctx, w, k, bj);
        co_await detail::barrier(ctx, w.sync);

        for (u32 bi = k + 1; bi < w.nb; ++bi)
            for (u32 bj = k + 1; bj < w.nb; ++bj)
                if (w.owner(bi, bj) == me)
                    co_await gemmBlock(ctx, w, bi, bj, k);
        co_await detail::barrier(ctx, w.sync);
    }
}

} // namespace

SplashResult
runLu(u32 threads, u32 n, BarrierKind barrier, const ChipConfig &chipCfg)
{
    if (n % kBlock != 0)
        fatal("LU matrix order must be a multiple of %u (got %u)",
              kBlock, n);
    if (!isPow2(threads))
        fatal("LU requires a power-of-two number of processors");

    arch::Chip chip(chipCfg);
    exec::GuestEngine engine(chip);
    LuWorld w;
    w.n = n;
    w.nb = n / kBlock;
    w.threads = threads;
    w.chip = &chip;
    const u32 logp = log2i(threads);
    w.pr = 1u << (logp / 2);
    w.pc = threads / w.pr;
    w.a = igAddr(kIgDefault, engine.heap().alloc(n * n * 8, 64));
    w.sync.init(engine.heap(), threads, barrier);

    // Diagonally dominant random matrix: stable without pivoting.
    Rng rng(0x1111 + n);
    std::vector<double> host(size_t(n) * n);
    for (u32 i = 0; i < n; ++i) {
        for (u32 j = 0; j < n; ++j) {
            double v = rng.uniform(-1, 1);
            if (i == j)
                v += double(n);
            host[size_t(i) * n + j] = v;
            chip.memWrite(w.elem(i, j), 8, toB(v), 0);
        }
    }

    engine.spawn(threads,
                 [&](GuestCtx &ctx) { return luWorker(ctx, w); });
    if (engine.run(50'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("LU did not finish within the cycle limit");

    // Host reference factorization (same right-looking algorithm).
    for (u32 k = 0; k < n; ++k) {
        const double d = host[size_t(k) * n + k];
        for (u32 i = k + 1; i < n; ++i) {
            const double l = host[size_t(i) * n + k] / d;
            host[size_t(i) * n + k] = l;
            for (u32 j = k + 1; j < n; ++j)
                host[size_t(i) * n + j] -= l * host[size_t(k) * n + j];
        }
    }
    bool verified = true;
    for (u32 i = 0; i < n && verified; i += 7) {
        for (u32 j = 0; j < n; j += 11) {
            const double got = toD(chip.memRead(w.elem(i, j), 8, 0));
            const double want = host[size_t(i) * n + j];
            if (std::fabs(got - want) >
                1e-6 * std::max(1.0, std::fabs(want))) {
                warn("LU verify failed at (%u,%u): got %g want %g", i,
                     j, got, want);
                verified = false;
                break;
            }
        }
    }

    SplashResult result;
    detail::harvest(chip, &result);
    result.verified = verified;
    return result;
}

} // namespace cyclops::workloads
