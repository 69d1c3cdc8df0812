/**
 * @file
 * Barnes-Hut N-body (lite) on the execution-driven frontend
 * (Figure 3).
 *
 * A 3-D octree is rebuilt each step; the force phase distributes
 * bodies over threads, each traversing the shared tree in simulated
 * memory with the theta opening criterion — the irregular, read-mostly
 * sharing pattern of SPLASH-2 Barnes. Tree build is charged to thread
 * 0 (the serial fraction); see DESIGN.md for the "lite" substitutions.
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

constexpr double kTheta = 0.6;
constexpr double kSoftening = 1e-3;
constexpr double kDt = 0.005;
constexpr u32 kSteps = 2;
constexpr u32 kNodeBytes = 128;
constexpr u32 kHotNodes = 64; ///< top-of-tree nodes replicated locally

/** Host-side octree over the current body positions. */
struct HostTree
{
    struct Node
    {
        double mass = 0;
        double cx = 0, cy = 0, cz = 0; ///< center of mass
        double x0 = 0, y0 = 0, z0 = 0; ///< cell corner
        double size = 0;
        s32 body = -1;        ///< body index for leaves
        u32 children[8] = {}; ///< child index + 1; 0 = none
        bool leaf = true;
    };

    std::vector<Node> nodes;

    void
    build(const std::vector<double> &px, const std::vector<double> &py,
          const std::vector<double> &pz)
    {
        nodes.clear();
        nodes.push_back(Node{});
        nodes[0].size = 1.0;
        nodes[0].leaf = true;
        nodes[0].body = -1;
        for (u32 b = 0; b < px.size(); ++b)
            insert(0, b, px, py, pz);
        computeMass(0, px, py, pz);
    }

    void
    insert(u32 node, u32 body, const std::vector<double> &px,
           const std::vector<double> &py, const std::vector<double> &pz)
    {
        Node &n = nodes[node];
        if (n.leaf && n.body < 0) {
            n.body = s32(body);
            return;
        }
        if (n.leaf) {
            const s32 old = n.body;
            n.leaf = false;
            n.body = -1;
            insert(node, u32(old), px, py, pz);
            insert(node, body, px, py, pz);
            return;
        }
        const double half = n.size / 2;
        const u32 ox = px[body] >= n.x0 + half;
        const u32 oy = py[body] >= n.y0 + half;
        const u32 oz = pz[body] >= n.z0 + half;
        const u32 octant = ox | (oy << 1) | (oz << 2);
        if (nodes[node].children[octant] == 0) {
            Node child;
            child.size = half;
            child.x0 = nodes[node].x0 + (ox ? half : 0);
            child.y0 = nodes[node].y0 + (oy ? half : 0);
            child.z0 = nodes[node].z0 + (oz ? half : 0);
            nodes.push_back(child);
            nodes[node].children[octant] = u32(nodes.size());
        }
        insert(nodes[node].children[octant] - 1, body, px, py, pz);
    }

    void
    computeMass(u32 node, const std::vector<double> &px,
                const std::vector<double> &py,
                const std::vector<double> &pz)
    {
        Node &n = nodes[node];
        if (n.leaf) {
            if (n.body >= 0) {
                n.mass = 1.0 / double(px.size());
                n.cx = px[n.body];
                n.cy = py[n.body];
                n.cz = pz[n.body];
            }
            return;
        }
        n.mass = n.cx = n.cy = n.cz = 0;
        for (u32 children : n.children) {
            if (!children)
                continue;
            computeMass(children - 1, px, py, pz);
            const Node &c = nodes[children - 1];
            n.mass += c.mass;
            n.cx += c.mass * c.cx;
            n.cy += c.mass * c.cy;
            n.cz += c.mass * c.cz;
        }
        if (n.mass > 0) {
            n.cx /= n.mass;
            n.cy /= n.mass;
            n.cz /= n.mass;
        }
    }

    /**
     * Theta-criterion traversal: accumulates the acceleration on body
     * @p b and appends (nodeIndex, accepted) for the timing replay.
     */
    void
    accel(u32 b, const std::vector<double> &px,
          const std::vector<double> &py, const std::vector<double> &pz,
          double *ax, double *ay, double *az,
          std::vector<std::pair<u32, bool>> *visits) const
    {
        *ax = *ay = *az = 0;
        walk(0, b, px, py, pz, ax, ay, az, visits);
    }

    void
    walk(u32 node, u32 b, const std::vector<double> &px,
         const std::vector<double> &py, const std::vector<double> &pz,
         double *ax, double *ay, double *az,
         std::vector<std::pair<u32, bool>> *visits) const
    {
        const Node &n = nodes[node];
        if (n.mass == 0)
            return;
        const double dx = n.cx - px[b];
        const double dy = n.cy - py[b];
        const double dz = n.cz - pz[b];
        const double dist2 =
            dx * dx + dy * dy + dz * dz + kSoftening * kSoftening;
        const bool isSelf = n.leaf && n.body == s32(b);
        const bool accept =
            n.leaf || n.size * n.size < kTheta * kTheta * dist2;
        if (visits)
            visits->emplace_back(node, accept);
        if (accept) {
            if (isSelf)
                return;
            const double dist = std::sqrt(dist2);
            const double inv3 = n.mass / (dist2 * dist);
            *ax += inv3 * dx;
            *ay += inv3 * dy;
            *az += inv3 * dz;
            return;
        }
        for (u32 children : n.children)
            if (children)
                walk(children - 1, b, px, py, pz, ax, ay, az, visits);
    }
};

struct BarnesWorld
{
    u32 bodies = 0;
    u32 threads = 0;
    Addr pos = 0;   ///< 3 doubles per body
    Addr vel = 0;   ///< 3 doubles per body
    Addr acc = 0;   ///< 3 doubles per body
    Addr tree = 0;  ///< node records, kNodeBytes each
    u32 treeCap = 0;
    detail::SplashSync sync;
    arch::Chip *chip = nullptr;
    HostTree host;
    std::vector<double> px, py, pz, vx, vy, vz;

    Addr body3(Addr base, u32 b) const { return base + b * 24; }
    Addr node(u32 i) const { return tree + i * kNodeBytes; }
};

u64
toB(double v)
{
    u64 raw;
    std::memcpy(&raw, &v, 8);
    return raw;
}

/** Thread 0 rebuilds the tree; the build cost is charged to it. */
GuestTask
buildTree(GuestCtx &ctx, BarnesWorld &w)
{
    w.host.build(w.px, w.py, w.pz);
    if (w.host.nodes.size() * kNodeBytes > w.treeCap)
        fatal("Barnes tree outgrew its arena (%zu nodes)",
              w.host.nodes.size());
    // Write each node record into simulated memory: mass, center of
    // mass, size, and the eight child links.
    for (u32 i = 0; i < w.host.nodes.size(); ++i) {
        const HostTree::Node &n = w.host.nodes[i];
        const Addr at = w.node(i);
        OpBatch<13> stores;
        stores.push_back(MicroOp::store(at, toB(n.mass), 8, true));
        stores.push_back(MicroOp::store(at + 8, toB(n.cx), 8, true));
        stores.push_back(MicroOp::store(at + 16, toB(n.cy), 8, true));
        stores.push_back(MicroOp::store(at + 24, toB(n.cz), 8, true));
        stores.push_back(MicroOp::store(at + 32, toB(n.size), 8, true));
        for (u32 c = 0; c < 8; ++c)
            stores.push_back(MicroOp::store(at + 40 + c * 4,
                                            n.children[c], 4, true));
        co_await ctx.batch(stores);
        co_await ctx.alu(12); // insertion and bookkeeping work
    }
}

GuestTask
forcePhase(GuestCtx &ctx, BarnesWorld &w, u32 me)
{
    // Interleaved body assignment: per-body traversal cost varies with
    // local tree density, so a blocked split load-imbalances badly
    // (SPLASH-2 uses costzones; interleaving is the cheap equivalent).
    std::vector<std::pair<u32, bool>> visits;
    for (u32 b = me; b < w.bodies; b += w.threads) {
        double ax, ay, az;
        visits.clear();
        w.host.accel(b, w.px, w.py, w.pz, &ax, &ay, &az, &visits);

        // Body position loads.
        OpBatch<3> loads;
        loads.push_back(MicroOp::load(w.body3(w.pos, b), 8, true));
        loads.push_back(MicroOp::load(w.body3(w.pos, b) + 8, 8, true));
        loads.push_back(MicroOp::load(w.body3(w.pos, b) + 16, 8, true));
        co_await ctx.batch(loads);

        // Replay the traversal against the shared tree records. The
        // tree is read-only during the force phase. The hot top of the
        // tree — visited by every body — is accessed through interest
        // group zero so each thread replicates it in its local cache
        // (the paper's prescribed use of the flexible cache
        // organization for shared read-only data; real code would
        // flush the build's dirty lines first). Deep nodes stay in the
        // chip-wide shared cache: the whole tree exceeds one 16 KB
        // cache, and replicating it would thrash every local cache
        // and saturate the banks with refills.
        for (const auto &[nodeIdx, accepted] : visits) {
            const Addr shared = w.node(nodeIdx);
            const Addr at = nodeIdx < kHotNodes ? arch::igPhys(shared)
                                                : shared;
            OpBatch<5> nodeLoads;
            for (u32 f = 0; f < 5; ++f)
                nodeLoads.push_back(MicroOp::load(at + f * 8, 8, true));
            co_await ctx.batch(nodeLoads);
            // Opening test: 3 subtracts, 3 multiplies, compares.
            OpBatch<7> flops;
            flops.append(3, MicroOp::fpuOp(FpuOp::Add, true));
            flops.append(4, MicroOp::fpuOp(FpuOp::Mul, true));
            co_await ctx.batch(flops);
            co_await ctx.alu(3);
            if (accepted) {
                // Force kernel. The shared divide/sqrt unit is
                // unpipelined (30 + 56 cycles) and one per quad, so a
                // naive 1/(r2*sqrt(r2)) would throttle all four
                // threads of a quad; like production N-body codes on
                // divide-weak machines, the kernel uses a Newton-
                // Raphson reciprocal square root on the pipelined
                // multiply/add datapath instead.
                OpBatch<4> rsqrt;
                rsqrt.append(4, MicroOp::fpuOp(FpuOp::Mul, true));
                co_await ctx.batch(rsqrt);
                OpBatch<8> fmas;
                fmas.append(8, MicroOp::fpuOp(FpuOp::Fma, true));
                co_await ctx.batch(fmas);
            } else {
                OpBatch<8> kids;
                for (u32 c = 0; c < 8; ++c)
                    kids.push_back(
                        MicroOp::load(at + 40 + c * 4, 4, true));
                co_await ctx.batch(kids);
            }
        }

        OpBatch<3> stores;
        stores.push_back(
            MicroOp::store(w.body3(w.acc, b), toB(ax), 8, true));
        stores.push_back(
            MicroOp::store(w.body3(w.acc, b) + 8, toB(ay), 8, true));
        stores.push_back(
            MicroOp::store(w.body3(w.acc, b) + 16, toB(az), 8, true));
        co_await ctx.batch(stores);
    }
}

GuestTask
updatePhase(GuestCtx &ctx, BarnesWorld &w, detail::Range mine)
{
    for (u32 b = mine.begin; b < mine.end; ++b) {
        OpBatch<9> loads;
        for (u32 f = 0; f < 3; ++f) {
            loads.push_back(
                MicroOp::load(w.body3(w.vel, b) + f * 8, 8, true));
            loads.push_back(
                MicroOp::load(w.body3(w.acc, b) + f * 8, 8, true));
            loads.push_back(
                MicroOp::load(w.body3(w.pos, b) + f * 8, 8, true));
        }
        co_await ctx.batch(loads);
        OpBatch<6> fmas;
        fmas.append(6, MicroOp::fpuOp(FpuOp::Fma, true));
        co_await ctx.batch(fmas);

        double *vs[3] = {&w.vx[b], &w.vy[b], &w.vz[b]};
        double *ps[3] = {&w.px[b], &w.py[b], &w.pz[b]};
        OpBatch<6> stores;
        for (u32 f = 0; f < 3; ++f) {
            double a;
            std::memcpy(&a, &loads[3 * f + 1].result, 8);
            *vs[f] += kDt * a;
            *ps[f] += kDt * *vs[f];
            // Keep bodies inside the unit cube (reflecting walls).
            if (*ps[f] < 0) {
                *ps[f] = -*ps[f];
                *vs[f] = -*vs[f];
            }
            if (*ps[f] >= 1) {
                *ps[f] = 2.0 - *ps[f];
                *vs[f] = -*vs[f];
            }
            stores.push_back(MicroOp::store(w.body3(w.vel, b) + f * 8,
                                            toB(*vs[f]), 8, true));
            stores.push_back(MicroOp::store(w.body3(w.pos, b) + f * 8,
                                            toB(*ps[f]), 8, true));
        }
        co_await ctx.batch(stores);
        co_await ctx.alu(4);
    }
}

GuestTask
barnesWorker(GuestCtx &ctx, BarnesWorld &w)
{
    const detail::Range mine =
        detail::splitRange(w.bodies, w.threads, ctx.index());
    for (u32 step = 0; step < kSteps; ++step) {
        if (ctx.index() == 0)
            co_await buildTree(ctx, w);
        co_await detail::barrier(ctx, w.sync);
        co_await forcePhase(ctx, w, ctx.index());
        co_await detail::barrier(ctx, w.sync);
        co_await updatePhase(ctx, w, mine);
        co_await detail::barrier(ctx, w.sync);
    }
}

} // namespace

SplashResult
runBarnes(u32 threads, u32 bodies, BarrierKind barrier,
          const ChipConfig &chipCfg)
{
    if (bodies < threads)
        fatal("Barnes needs at least one body per thread");

    arch::Chip chip(chipCfg);
    exec::GuestEngine engine(chip);
    BarnesWorld w;
    w.bodies = bodies;
    w.threads = threads;
    w.chip = &chip;
    w.treeCap = bodies * 3 * kNodeBytes;
    w.pos = igAddr(kIgDefault, engine.heap().alloc(bodies * 24, 64));
    w.vel = igAddr(kIgDefault, engine.heap().alloc(bodies * 24, 64));
    w.acc = igAddr(kIgDefault, engine.heap().alloc(bodies * 24, 64));
    w.tree = igAddr(kIgDefault, engine.heap().alloc(w.treeCap, 64));
    w.sync.init(engine.heap(), threads, barrier);

    Rng rng(0xBA12 + bodies);
    w.px.resize(bodies);
    w.py.resize(bodies);
    w.pz.resize(bodies);
    w.vx.assign(bodies, 0);
    w.vy.assign(bodies, 0);
    w.vz.assign(bodies, 0);
    for (u32 b = 0; b < bodies; ++b) {
        w.px[b] = rng.uniform(0.05, 0.95);
        w.py[b] = rng.uniform(0.05, 0.95);
        w.pz[b] = rng.uniform(0.05, 0.95);
        chip.memWrite(w.body3(w.pos, b), 8, toB(w.px[b]), 0);
        chip.memWrite(w.body3(w.pos, b) + 8, 8, toB(w.py[b]), 0);
        chip.memWrite(w.body3(w.pos, b) + 16, 8, toB(w.pz[b]), 0);
    }

    // Host mirror state for verification (same arithmetic as guests).
    std::vector<double> mpx = w.px, mpy = w.py, mpz = w.pz;
    std::vector<double> mvx = w.vx, mvy = w.vy, mvz = w.vz;

    engine.spawn(threads,
                 [&](GuestCtx &ctx) { return barnesWorker(ctx, w); });
    if (engine.run(50'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("Barnes did not finish within the cycle limit");

    // Mirror the kSteps steps on the host.
    HostTree mirror;
    for (u32 step = 0; step < kSteps; ++step) {
        mirror.build(mpx, mpy, mpz);
        std::vector<double> ax(bodies), ay(bodies), az(bodies);
        for (u32 b = 0; b < bodies; ++b)
            mirror.accel(b, mpx, mpy, mpz, &ax[b], &ay[b], &az[b],
                         nullptr);
        for (u32 b = 0; b < bodies; ++b) {
            double *vs[3] = {&mvx[b], &mvy[b], &mvz[b]};
            double *ps[3] = {&mpx[b], &mpy[b], &mpz[b]};
            const double as[3] = {ax[b], ay[b], az[b]};
            for (u32 f = 0; f < 3; ++f) {
                *vs[f] += kDt * as[f];
                *ps[f] += kDt * *vs[f];
                if (*ps[f] < 0) {
                    *ps[f] = -*ps[f];
                    *vs[f] = -*vs[f];
                }
                if (*ps[f] >= 1) {
                    *ps[f] = 2.0 - *ps[f];
                    *vs[f] = -*vs[f];
                }
            }
        }
    }
    bool verified = true;
    for (u32 b = 0; b < bodies; b += 53) {
        double got;
        const u64 raw = chip.memRead(w.body3(w.pos, b), 8, 0);
        std::memcpy(&got, &raw, 8);
        if (std::fabs(got - mpx[b]) > 1e-9) {
            warn("Barnes verify failed at body %u: got %.17g want "
                 "%.17g", b, got, mpx[b]);
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
