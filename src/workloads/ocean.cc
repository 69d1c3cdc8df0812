/**
 * @file
 * Ocean-style grid relaxation on the execution-driven frontend
 * (Figure 3): red-black successive over-relaxation of a 5-point
 * Laplacian on a square grid with fixed boundary values, the
 * communication/computation pattern of SPLASH-2 Ocean's solver phase.
 *
 * Rows are block-partitioned over threads; each color sweep ends in a
 * barrier. Red-black ordering makes each phase order-independent, so
 * the host reference reproduces the simulated arithmetic exactly.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include "arch/chip.h"
#include "arch/interest_group.h"
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

constexpr u32 kIterations = 6;
constexpr double kOmega = 1.5;

struct OceanWorld
{
    u32 g = 0; ///< grid edge including boundary
    u32 threads = 0;
    Addr u = 0;
    detail::SplashSync sync;
    arch::Chip *chip = nullptr;

    Addr at(u32 i, u32 j) const { return u + (i * g + j) * 8; }
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

GuestTask
sweepColor(GuestCtx &ctx, OceanWorld &w, detail::Range rows, u32 color)
{
    for (u32 i = rows.begin; i < rows.end; ++i) {
        for (u32 j = 1 + ((i + color) & 1); j < w.g - 1; j += 2) {
            OpBatch<5> loads;
            loads.push_back(MicroOp::load(w.at(i, j), 8, true));
            loads.push_back(MicroOp::load(w.at(i - 1, j), 8, true));
            loads.push_back(MicroOp::load(w.at(i + 1, j), 8, true));
            loads.push_back(MicroOp::load(w.at(i, j - 1), 8, true));
            loads.push_back(MicroOp::load(w.at(i, j + 1), 8, true));
            co_await ctx.batch(loads);
            OpBatch<6> flops;
            flops.append(4, MicroOp::fpuOp(FpuOp::Add, true));
            flops.append(2, MicroOp::fpuOp(FpuOp::Mul, true));
            co_await ctx.batch(flops);
            const double center = toD(loads[0].result);
            const double sum = toD(loads[1].result) +
                               toD(loads[2].result) +
                               toD(loads[3].result) +
                               toD(loads[4].result);
            const double fresh =
                center + kOmega * (0.25 * sum - center);
            co_await ctx.store(w.at(i, j), toB(fresh), 8);
            co_await ctx.alu(3, true);
        }
    }
}

GuestTask
oceanWorker(GuestCtx &ctx, OceanWorld &w)
{
    // Interior rows only; boundaries are fixed.
    detail::Range rows =
        detail::splitRange(w.g - 2, w.threads, ctx.index());
    rows.begin += 1;
    rows.end += 1;
    for (u32 iter = 0; iter < kIterations; ++iter) {
        co_await sweepColor(ctx, w, rows, 0);
        co_await detail::barrier(ctx, w.sync);
        co_await sweepColor(ctx, w, rows, 1);
        co_await detail::barrier(ctx, w.sync);
    }
}

} // namespace

SplashResult
runOcean(u32 threads, u32 grid, BarrierKind barrier,
         const ChipConfig &chipCfg)
{
    if (grid < 4)
        fatal("ocean grid too small (%u)", grid);
    if (threads > grid - 2)
        fatal("ocean needs at least one interior row per thread");

    arch::Chip chip(chipCfg);
    exec::GuestEngine engine(chip);
    OceanWorld w;
    w.g = grid;
    w.threads = threads;
    w.chip = &chip;
    w.u = igAddr(kIgDefault,
                 engine.heap().alloc(grid * grid * 8, 64));
    w.sync.init(engine.heap(), threads, barrier);

    Rng rng(0x0CEA + grid);
    std::vector<double> host(size_t(grid) * grid);
    for (u32 i = 0; i < grid; ++i) {
        for (u32 j = 0; j < grid; ++j) {
            const double v = rng.uniform(0, 1);
            host[size_t(i) * grid + j] = v;
            chip.memWrite(w.at(i, j), 8, toB(v), 0);
        }
    }

    engine.spawn(threads,
                 [&](GuestCtx &ctx) { return oceanWorker(ctx, w); });
    if (engine.run(50'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("ocean did not finish within the cycle limit");

    // Host mirror: red-black phases are order-independent, so this
    // reproduces the simulation exactly.
    for (u32 iter = 0; iter < kIterations; ++iter) {
        for (u32 color = 0; color < 2; ++color) {
            for (u32 i = 1; i < grid - 1; ++i) {
                for (u32 j = 1 + ((i + color) & 1); j < grid - 1;
                     j += 2) {
                    double &center = host[size_t(i) * grid + j];
                    const double sum =
                        host[size_t(i - 1) * grid + j] +
                        host[size_t(i + 1) * grid + j] +
                        host[size_t(i) * grid + j - 1] +
                        host[size_t(i) * grid + j + 1];
                    center = center + kOmega * (0.25 * sum - center);
                }
            }
        }
    }
    bool verified = true;
    for (u32 i = 1; i < grid - 1 && verified; i += 3) {
        for (u32 j = 1; j < grid - 1; j += 5) {
            const double got = toD(chip.memRead(w.at(i, j), 8, 0));
            const double want = host[size_t(i) * grid + j];
            if (std::fabs(got - want) > 1e-12) {
                warn("ocean verify failed at (%u,%u): got %.17g want "
                     "%.17g", i, j, got, want);
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
