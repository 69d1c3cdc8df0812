/**
 * @file
 * 2-D uniform fast multipole method (lite) on the execution-driven
 * frontend (Figure 3).
 *
 * Complex-logarithm potentials with order-P multipole and local
 * expansions on a uniform quadtree: P2M, M2M up the tree, M2L over the
 * well-separated interaction lists, L2L down, then L2P plus direct P2P
 * among neighbor leaves. Cells are partitioned over threads at each
 * level with barriers between phases — the communication skeleton of
 * SPLASH-2 FMM (see DESIGN.md for the "lite" substitutions).
 *
 * Expansion values are computed by a host mirror shared with the
 * verification path; guests replay every coefficient and particle
 * access through the memory system for timing.
 */

#include <cmath>
#include <complex>
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
using Complex = std::complex<double>;

constexpr u32 kOrder = 8;   ///< expansion terms beyond the monopole
constexpr u32 kDepth = 4;   ///< quadtree levels 0..kDepth
constexpr u32 kCoeffs = kOrder + 1;

double
binom(u32 n, u32 k)
{
    double result = 1;
    for (u32 i = 0; i < k; ++i)
        result = result * double(n - i) / double(i + 1);
    return result;
}

/** Host-side FMM state: geometry, expansions, results. */
struct HostFmm
{
    u32 particles = 0;
    std::vector<double> px, py; ///< positions in [0,1)
    double q = 0;               ///< uniform charge
    // Per level: edge cells, expansions indexed cell*kCoeffs+k.
    std::vector<std::vector<Complex>> mult, local;
    std::vector<std::vector<u32>> leafOf; ///< particle ids per leaf
    std::vector<double> potential;        ///< result per particle

    static u32 edge(u32 level) { return 1u << level; }
    static u32 cells(u32 level) { return 1u << (2 * level); }

    u32
    leafIndexOf(u32 p) const
    {
        const u32 e = edge(kDepth);
        const u32 ix = std::min(e - 1, u32(px[p] * e));
        const u32 iy = std::min(e - 1, u32(py[p] * e));
        return iy * e + ix;
    }

    static Complex
    center(u32 level, u32 cell)
    {
        const u32 e = edge(level);
        const u32 ix = cell % e, iy = cell / e;
        const double h = 1.0 / e;
        return Complex((ix + 0.5) * h, (iy + 0.5) * h);
    }

    /** Well-separated interaction list of @p cell at @p level. */
    std::vector<u32>
    interactionList(u32 level, u32 cell) const
    {
        std::vector<u32> list;
        if (level < 2)
            return list;
        const u32 e = edge(level);
        const s32 ix = s32(cell % e), iy = s32(cell / e);
        const s32 pxc = ix / 2, pyc = iy / 2;
        for (s32 ny = pyc - 1; ny <= pyc + 1; ++ny) {
            for (s32 nx = pxc - 1; nx <= pxc + 1; ++nx) {
                if (nx < 0 || ny < 0 || nx >= s32(e / 2) ||
                    ny >= s32(e / 2))
                    continue;
                for (u32 cy = 0; cy < 2; ++cy) {
                    for (u32 cx = 0; cx < 2; ++cx) {
                        const s32 jx = nx * 2 + s32(cx);
                        const s32 jy = ny * 2 + s32(cy);
                        if (std::abs(jx - ix) <= 1 &&
                            std::abs(jy - iy) <= 1)
                            continue; // neighbor, handled by P2P/finer
                        list.push_back(u32(jy) * e + u32(jx));
                    }
                }
            }
        }
        return list;
    }

    std::vector<u32>
    neighborLeaves(u32 cell) const
    {
        std::vector<u32> list;
        const u32 e = edge(kDepth);
        const s32 ix = s32(cell % e), iy = s32(cell / e);
        for (s32 ny = iy - 1; ny <= iy + 1; ++ny)
            for (s32 nx = ix - 1; nx <= ix + 1; ++nx)
                if (nx >= 0 && ny >= 0 && nx < s32(e) && ny < s32(e))
                    list.push_back(u32(ny) * e + u32(nx));
        return list;
    }

    void
    init(u32 n, Rng &rng)
    {
        particles = n;
        q = 1.0 / n;
        px.resize(n);
        py.resize(n);
        for (u32 i = 0; i < n; ++i) {
            px[i] = rng.uniform(0.01, 0.99);
            py[i] = rng.uniform(0.01, 0.99);
        }
        mult.resize(kDepth + 1);
        local.resize(kDepth + 1);
        for (u32 l = 0; l <= kDepth; ++l) {
            mult[l].assign(size_t(cells(l)) * kCoeffs, Complex{});
            local[l].assign(size_t(cells(l)) * kCoeffs, Complex{});
        }
        leafOf.assign(cells(kDepth), {});
        for (u32 p = 0; p < n; ++p)
            leafOf[leafIndexOf(p)].push_back(p);
        potential.assign(n, 0.0);
    }

    Complex *m(u32 level, u32 cell) { return &mult[level][size_t(cell) * kCoeffs]; }
    Complex *loc(u32 level, u32 cell) { return &local[level][size_t(cell) * kCoeffs]; }

    void
    p2m(u32 cell)
    {
        Complex *a = m(kDepth, cell);
        const Complex zc = center(kDepth, cell);
        for (u32 p : leafOf[cell]) {
            const Complex dz = Complex(px[p], py[p]) - zc;
            a[0] += q;
            Complex zk = dz;
            for (u32 k = 1; k <= kOrder; ++k) {
                a[k] -= q * zk / double(k);
                zk *= dz;
            }
        }
    }

    void
    m2m(u32 level, u32 cell)
    {
        // Gather the four children of @p cell at @p level+1.
        Complex *b = m(level, cell);
        const Complex zp = center(level, cell);
        const u32 e = edge(level);
        const u32 ix = cell % e, iy = cell / e;
        for (u32 cy = 0; cy < 2; ++cy) {
            for (u32 cx = 0; cx < 2; ++cx) {
                const u32 child =
                    (iy * 2 + cy) * edge(level + 1) + ix * 2 + cx;
                const Complex *a = m(level + 1, child);
                const Complex z0 = center(level + 1, child) - zp;
                b[0] += a[0];
                Complex z0l = z0;
                for (u32 l = 1; l <= kOrder; ++l) {
                    Complex sum = -a[0] * z0l / double(l);
                    Complex zpow(1, 0); // z0^(l-k), built downward
                    for (u32 k = l; k >= 1; --k) {
                        sum += a[k] * zpow * binom(l - 1, k - 1);
                        zpow *= z0;
                    }
                    b[l] += sum;
                    z0l *= z0;
                }
            }
        }
    }

    void
    m2l(u32 level, u32 target, u32 source)
    {
        const Complex z0 = center(level, source) - center(level, target);
        const Complex *a = m(level, source);
        Complex *b = loc(level, target);
        // b0 = a0 log(-z0) + sum a_k (-1)^k / z0^k
        Complex sum0 = a[0] * std::log(-z0);
        Complex zk = z0;
        double sign = -1;
        for (u32 k = 1; k <= kOrder; ++k) {
            sum0 += a[k] * sign / zk;
            zk *= z0;
            sign = -sign;
        }
        b[0] += sum0;
        Complex z0l = z0;
        for (u32 l = 1; l <= kOrder; ++l) {
            Complex sum = -a[0] / (double(l) * z0l);
            Complex zkk = z0;
            double s = -1;
            for (u32 k = 1; k <= kOrder; ++k) {
                sum += a[k] * s * binom(l + k - 1, k - 1) / (z0l * zkk);
                zkk *= z0;
                s = -s;
            }
            b[l] += sum;
            z0l *= z0;
        }
    }

    void
    l2l(u32 level, u32 cell)
    {
        // Push this local expansion to the four children.
        const Complex *b = loc(level, cell);
        const Complex zl = center(level, cell);
        const u32 e = edge(level);
        const u32 ix = cell % e, iy = cell / e;
        for (u32 cy = 0; cy < 2; ++cy) {
            for (u32 cx = 0; cx < 2; ++cx) {
                const u32 child =
                    (iy * 2 + cy) * edge(level + 1) + ix * 2 + cx;
                Complex *bc = loc(level + 1, child);
                const Complex z0 = center(level + 1, child) - zl;
                for (u32 l = 0; l <= kOrder; ++l) {
                    Complex sum = 0;
                    for (u32 k = l; k <= kOrder; ++k)
                        sum += b[k] * binom(k, l) *
                               std::pow(z0, double(k - l));
                    bc[l] += sum;
                }
            }
        }
    }

    void
    l2pAndP2p(u32 cell)
    {
        const Complex *b = loc(kDepth, cell);
        const Complex zl = center(kDepth, cell);
        const auto neighbors = neighborLeaves(cell);
        for (u32 p : leafOf[cell]) {
            const Complex z = Complex(px[p], py[p]) - zl;
            // Horner evaluation of the local expansion.
            Complex acc = b[kOrder];
            for (s32 k = s32(kOrder) - 1; k >= 0; --k)
                acc = acc * z + b[k];
            double phi = acc.real();
            // Direct interactions with neighbor-leaf particles.
            for (u32 nb : neighbors) {
                for (u32 s : leafOf[nb]) {
                    if (s == p)
                        continue;
                    const double dx = px[p] - px[s];
                    const double dy = py[p] - py[s];
                    phi += q * 0.5 * std::log(dx * dx + dy * dy);
                }
            }
            potential[p] = phi;
        }
    }

    void
    solve()
    {
        for (u32 cell = 0; cell < cells(kDepth); ++cell)
            p2m(cell);
        for (u32 level = kDepth; level-- > 0;)
            for (u32 cell = 0; cell < cells(level); ++cell)
                m2m(level, cell);
        for (u32 level = 2; level <= kDepth; ++level)
            for (u32 cell = 0; cell < cells(level); ++cell)
                for (u32 source : interactionList(level, cell))
                    m2l(level, cell, source);
        for (u32 level = 2; level < kDepth; ++level)
            for (u32 cell = 0; cell < cells(level); ++cell)
                l2l(level, cell);
        for (u32 cell = 0; cell < cells(kDepth); ++cell)
            l2pAndP2p(cell);
    }

    /** Direct O(N^2) potential for accuracy spot checks. */
    double
    direct(u32 p) const
    {
        double phi = 0;
        for (u32 s = 0; s < particles; ++s) {
            if (s == p)
                continue;
            const double dx = px[p] - px[s];
            const double dy = py[p] - py[s];
            phi += q * 0.5 * std::log(dx * dx + dy * dy);
        }
        return phi;
    }
};

/** Simulated-memory layout mirroring HostFmm. */
struct FmmWorld
{
    u32 particles = 0;
    u32 threads = 0;
    Addr pos = 0;                       ///< 2 doubles per particle
    Addr pot = 0;                       ///< 1 double per particle
    std::vector<Addr> mult, local;      ///< per level coefficient arenas
    detail::SplashSync sync;
    HostFmm host;

    Addr
    coeff(const std::vector<Addr> &arena, u32 level, u32 cell,
          u32 k) const
    {
        return arena[level] + (size_t(cell) * kCoeffs + k) * 16;
    }
};

u64
toB(double v)
{
    u64 raw;
    std::memcpy(&raw, &v, 8);
    return raw;
}

/** Charge a batch of @p n <= kCoeffs coefficient loads at @p base. */
GuestTask
chargeCoeffLoads(GuestCtx &ctx, Addr base, u32 n)
{
    OpBatch<2 * kCoeffs> loads;
    for (u32 k = 0; k < n; ++k) {
        loads.push_back(MicroOp::load(base + k * 16, 8, true));
        loads.push_back(MicroOp::load(base + k * 16 + 8, 8, true));
    }
    co_await ctx.batch(loads);
}

GuestTask
chargeCoeffStores(GuestCtx &ctx, FmmWorld &w,
                  const std::vector<Addr> &arena, u32 level, u32 cell)
{
    OpBatch<2 * kCoeffs> stores;
    const Complex *values = &arena == &w.mult
                                ? w.host.m(level, cell)
                                : w.host.loc(level, cell);
    for (u32 k = 0; k < kCoeffs; ++k) {
        const Addr at = w.coeff(arena, level, cell, k);
        stores.push_back(
            MicroOp::store(at, toB(values[k].real()), 8, true));
        stores.push_back(
            MicroOp::store(at + 8, toB(values[k].imag()), 8, true));
    }
    co_await ctx.batch(stores);
}

GuestTask
chargeFlops(GuestCtx &ctx, u32 muls, u32 adds)
{
    constexpr u32 kChunk = 16; // multiplies (and adds) per batch
    while (muls || adds) {
        OpBatch<2 * kChunk> flops;
        const u32 m = std::min(muls, kChunk);
        const u32 a = std::min(adds, kChunk);
        flops.append(m, MicroOp::fpuOp(FpuOp::Mul, true));
        flops.append(a, MicroOp::fpuOp(FpuOp::Add, true));
        co_await ctx.batch(flops);
        muls -= m;
        adds -= a;
    }
}

GuestTask
fmmWorker(GuestCtx &ctx, FmmWorld &w)
{
    HostFmm &h = w.host;
    const u32 me = ctx.index();

    // --- P2M over my leaves ------------------------------------------------
    {
        const auto mine = detail::splitRange(
            HostFmm::cells(kDepth), w.threads, me);
        for (u32 cell = mine.begin; cell < mine.end; ++cell) {
            for (u32 p : h.leafOf[cell]) {
                OpBatch<2> loads;
                loads.push_back(MicroOp::load(w.pos + p * 16, 8, true));
                loads.push_back(
                    MicroOp::load(w.pos + p * 16 + 8, 8, true));
                co_await ctx.batch(loads);
                co_await chargeFlops(ctx, 2 * kOrder, 2 * kOrder);
                co_await ctx.alu(3);
            }
            co_await chargeCoeffStores(ctx, w, w.mult, kDepth, cell);
        }
    }
    co_await detail::barrier(ctx, w.sync);

    // --- M2M up the tree, one barrier per level -----------------------------
    for (u32 level = kDepth; level-- > 0;) {
        const auto mine =
            detail::splitRange(HostFmm::cells(level), w.threads, me);
        for (u32 cell = mine.begin; cell < mine.end; ++cell) {
            const u32 e = HostFmm::edge(level);
            const u32 ix = cell % e, iy = cell / e;
            for (u32 cy = 0; cy < 2; ++cy) {
                for (u32 cx = 0; cx < 2; ++cx) {
                    const u32 child = (iy * 2 + cy) *
                                          HostFmm::edge(level + 1) +
                                      ix * 2 + cx;
                    co_await chargeCoeffLoads(
                        ctx, w.coeff(w.mult, level + 1, child, 0),
                        kCoeffs);
                    co_await chargeFlops(ctx, kOrder * kOrder / 2,
                                         kOrder * kOrder / 2);
                }
            }
            co_await chargeCoeffStores(ctx, w, w.mult, level, cell);
            co_await ctx.alu(6);
        }
        co_await detail::barrier(ctx, w.sync);
    }

    // --- M2L over the interaction lists --------------------------------------
    for (u32 level = 2; level <= kDepth; ++level) {
        const auto mine =
            detail::splitRange(HostFmm::cells(level), w.threads, me);
        for (u32 cell = mine.begin; cell < mine.end; ++cell) {
            for (u32 source : h.interactionList(level, cell)) {
                // Multipoles are read-only after the upward pass and
                // shared by many targets: replicate them through
                // interest group zero (own cache), the paper's use of
                // the flexible cache organization for read-only data.
                co_await chargeCoeffLoads(
                    ctx,
                    arch::igPhys(w.coeff(w.mult, level, source, 0)),
                    kCoeffs);
                co_await chargeFlops(ctx, kOrder * kOrder,
                                     kOrder * kOrder);
                co_await ctx.alu(4);
            }
            co_await chargeCoeffStores(ctx, w, w.local, level, cell);
        }
        co_await detail::barrier(ctx, w.sync);
    }

    // --- L2L down, one barrier per level --------------------------------------
    for (u32 level = 2; level < kDepth; ++level) {
        const auto mine =
            detail::splitRange(HostFmm::cells(level), w.threads, me);
        for (u32 cell = mine.begin; cell < mine.end; ++cell) {
            co_await chargeCoeffLoads(
                ctx, w.coeff(w.local, level, cell, 0), kCoeffs);
            for (u32 c = 0; c < 4; ++c)
                co_await chargeFlops(ctx, kOrder * kOrder / 2,
                                     kOrder * kOrder / 2);
            co_await ctx.alu(6);
        }
        co_await detail::barrier(ctx, w.sync);
    }

    // --- L2P and P2P over my leaves ---------------------------------------------
    {
        const auto mine = detail::splitRange(
            HostFmm::cells(kDepth), w.threads, me);
        for (u32 cell = mine.begin; cell < mine.end; ++cell) {
            co_await chargeCoeffLoads(
                ctx, w.coeff(w.local, kDepth, cell, 0), kCoeffs);
            const auto neighbors = h.neighborLeaves(cell);
            for (u32 p : h.leafOf[cell]) {
                co_await chargeFlops(ctx, kOrder, kOrder); // Horner
                for (u32 nb : neighbors) {
                    for (u32 s : h.leafOf[nb]) {
                        if (s == p)
                            continue;
                        // Positions are read-only: replicate locally.
                        const Addr spos =
                            arch::igPhys(w.pos + s * 16);
                        OpBatch<2> loads;
                        loads.push_back(MicroOp::load(spos, 8, true));
                        loads.push_back(
                            MicroOp::load(spos + 8, 8, true));
                        co_await ctx.batch(loads);
                        // dx, dy, squares, and log(r2) charged as a
                        // table-plus-polynomial evaluation on the
                        // pipelined units (the shared divide/sqrt unit
                        // would serialize the whole quad).
                        OpBatch<9> flops;
                        flops.append(3, MicroOp::fpuOp(FpuOp::Add, true));
                        flops.append(2, MicroOp::fpuOp(FpuOp::Mul, true));
                        flops.append(4, MicroOp::fpuOp(FpuOp::Fma, true));
                        co_await ctx.batch(flops);
                        co_await ctx.alu(2);
                    }
                }
                co_await ctx.store(w.pot + p * 8,
                                   toB(h.potential[p]), 8);
            }
        }
    }
    co_await detail::barrier(ctx, w.sync);
}

} // namespace

SplashResult
runFmm(u32 threads, u32 particles, BarrierKind barrier,
       const ChipConfig &chipCfg)
{
    if (particles < threads)
        fatal("FMM needs at least one particle per thread");

    arch::Chip chip(chipCfg);
    exec::GuestEngine engine(chip);
    FmmWorld w;
    w.particles = particles;
    w.threads = threads;

    Rng rng(0xF33 + particles);
    w.host.init(particles, rng);
    w.host.solve(); // expansion values shared with the guests

    kernel::Heap &heap = engine.heap();
    w.pos = igAddr(kIgDefault, heap.alloc(particles * 16, 64));
    w.pot = igAddr(kIgDefault, heap.alloc(particles * 8, 64));
    for (u32 l = 0; l <= kDepth; ++l) {
        w.mult.push_back(igAddr(
            kIgDefault,
            heap.alloc(HostFmm::cells(l) * kCoeffs * 16, 64)));
        w.local.push_back(igAddr(
            kIgDefault,
            heap.alloc(HostFmm::cells(l) * kCoeffs * 16, 64)));
    }
    w.sync.init(heap, threads, barrier);
    for (u32 p = 0; p < particles; ++p) {
        chip.memWrite(w.pos + p * 16, 8, toB(w.host.px[p]), 0);
        chip.memWrite(w.pos + p * 16 + 8, 8, toB(w.host.py[p]), 0);
    }

    engine.spawn(threads,
                 [&](GuestCtx &ctx) { return fmmWorker(ctx, w); });
    if (engine.run(50'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("FMM did not finish within the cycle limit");

    // Accuracy against the direct sum (multipole truncation error),
    // and agreement of the stored results with the host values.
    bool verified = true;
    for (u32 p = 0; p < particles && verified; p += 131) {
        double stored;
        const u64 raw = chip.memRead(w.pot + p * 8, 8, 0);
        std::memcpy(&stored, &raw, 8);
        if (stored != w.host.potential[p]) {
            warn("FMM stored potential mismatch at %u", p);
            verified = false;
        }
        const double exact = w.host.direct(p);
        if (std::fabs(stored - exact) >
            1e-3 * std::max(1.0, std::fabs(exact))) {
            warn("FMM accuracy failed at %u: fmm %.8g direct %.8g", p,
                 stored, exact);
            verified = false;
        }
    }

    SplashResult result;
    detail::harvest(chip, &result);
    result.verified = verified;
    return result;
}

} // namespace cyclops::workloads
