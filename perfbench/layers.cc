#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "arch/chip.h"
#include "arch/fpu.h"
#include "arch/interest_group.h"
#include "arch/membank.h"
#include "arch/system.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "common/stats.h"
#include "exec/engine.h"
#include "isa/assembler.h"
#include "isa/encoding.h"
#include "jobs.h"
#include "net/fabric.h"
#include "workloads/multichip.h"

namespace perfbench
{

using namespace cyclops;

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps timed results observable so no loop is optimized away. */
volatile u64 gSink = 0;

/** One timed batch: host seconds spent and operations performed. */
struct Sample
{
    double seconds = 0;
    u64 ops = 0;
};

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Run @p batch @p reps times and keep the median cost per operation,
 * in ns ("ns") or ms ("ms"). A batch that performs no operation is a
 * benchmark bug, not a measurement.
 */
template <typename Batch>
LayerTiming
measure(const char *name, const char *unit, u32 reps, Batch &&batch,
        Spans &spans, int parent)
{
    Spans::Scope span(spans, name, parent, -1);
    const double scale = std::string(unit) == "ns" ? 1e9 : 1e3;
    std::vector<double> perOp;
    u64 ops = 0;
    for (u32 r = 0; r < reps; ++r) {
        const Sample s = batch();
        if (s.ops == 0)
            throw std::runtime_error(std::string(name) +
                                     ": batch performed no operation");
        ops = s.ops;
        perOp.push_back(s.seconds * scale / double(s.ops));
    }
    std::sort(perOp.begin(), perOp.end());
    return {name, unit, perOp[perOp.size() / 2], ops, reps};
}

isa::Program
aluLoopProgram(u64 iterations)
{
    return isa::assembleOrDie(strprintf(R"(
        start:
            li   r5, %llu
            li   r6, 0
            li   r7, 1
        loop:
            add  r6, r6, r7
            xor  r8, r6, r5
            addi r7, r7, 3
            and  r9, r8, r7
            or   r10, r9, r6
            subi r5, r5, 1
            bnez r5, loop
            halt
    )", static_cast<unsigned long long>(iterations)));
}

isa::Program
ldstLoopProgram(u64 iterations)
{
    // Walks a 1 KB buffer in the thread's own cache: every access
    // after the first pass is a local hit.
    return isa::assembleOrDie(strprintf(R"(
            .text
        start:
            la   r10, buf
            li   r5, %llu
            li   r11, 0
        loop:
            add  r13, r10, r11
            ld   r14, 0(r13)
            sd   r14, 8(r13)
            addi r11, r11, 16
            andi r11, r11, 1008
            subi r5, r5, 1
            bnez r5, loop
            halt
            .data
            .align 64
        buf:
            .space 1040
    )", static_cast<unsigned long long>(iterations)));
}

/** One ISA thread unit running @p program to completion. */
Sample
runSingleTu(const isa::Program &program)
{
    arch::Chip chip;
    chip.loadProgram(program);
    chip.setUnit(0, std::make_unique<arch::ThreadUnit>(0, chip,
                                                       program.entry));
    chip.activate(0);
    const auto start = Clock::now();
    const arch::RunExit exit = chip.run();
    const double s = since(start);
    if (exit != arch::RunExit::AllHalted)
        throw std::runtime_error("single-TU loop did not halt");
    return {s, chip.totalInstructions()};
}

exec::GuestTask
aluChain(exec::GuestCtx &ctx, u32 ops)
{
    for (u32 i = 0; i < ops; ++i)
        co_await ctx.alu(1);
}

constexpr PhysAddr kBase = 0x200000; ///< 2 MB: clear of program images

} // namespace

std::vector<LayerTiming>
timeLayers(u32 scale, Spans &spans, int parent)
{
    const u32 reps = scale > 1 ? 3 : 5;
    const auto n = [scale](u64 ops) { return std::max<u64>(ops / scale, 16); };
    std::vector<LayerTiming> out;

    // --- isa: decode and the opcode metadata table -----------------------
    std::vector<u32> words;
    for (const isa::Program &p :
         {aluLoopProgram(1), ldstLoopProgram(1), streamShapedProgram(0),
          streamShapedProgram(1), streamShapedProgram(2),
          streamShapedProgram(3)})
        words.insert(words.end(), p.text.begin(), p.text.end());
    std::vector<isa::Opcode> opcodes;
    for (u32 w : words) {
        isa::Instr in;
        if (isa::decode(w, &in))
            opcodes.push_back(in.op);
    }
    out.push_back(measure("isa.decode_ns", "ns", reps, [&] {
        const u64 ops = n(2'000'000);
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i) {
            isa::Instr in;
            sink += isa::decode(words[i % words.size()], &in) + in.rd;
        }
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, ops};
    }, spans, parent));
    out.push_back(measure("isa.meta_ns", "ns", reps, [&] {
        const u64 ops = n(4'000'000);
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i) {
            const isa::InstrMeta &m = isa::meta(opcodes[i % opcodes.size()]);
            sink += m.memBytes + u64(m.unit);
        }
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, ops};
    }, spans, parent));

    // --- arch/thread_unit: ISA frontend through Chip::run -----------------
    const isa::Program alu = aluLoopProgram(n(150'000));
    const isa::Program ldst = ldstLoopProgram(n(100'000));
    out.push_back(measure("thread_unit.alu_ns", "ns", reps,
                          [&] { return runSingleTu(alu); }, spans, parent));
    out.push_back(measure("thread_unit.ldst_ns", "ns", reps,
                          [&] { return runSingleTu(ldst); }, spans,
                          parent));

    // --- exec: one compute-only coroutine ---------------------------------
    out.push_back(measure("exec.op_ns", "ns", reps, [&] {
        arch::Chip chip;
        exec::GuestEngine engine(chip);
        const u32 ops = u32(n(400'000));
        engine.spawn(1, [ops](exec::GuestCtx &ctx) {
            return aluChain(ctx, ops);
        });
        const auto start = Clock::now();
        const arch::RunExit exit = engine.run();
        const double s = since(start);
        if (exit != arch::RunExit::AllHalted)
            throw std::runtime_error("exec loop did not halt");
        return Sample{s, chip.totalInstructions()};
    }, spans, parent));

    // --- arch/dcache: DCache::access hits and misses ----------------------
    out.push_back(measure("dcache.hit_ns", "ns", reps, [&] {
        arch::Chip chip;
        arch::MemSystem &ms = chip.memsys();
        arch::DCache &dc = ms.dcache(0);
        arch::CacheAccess req;
        req.bytes = 8;
        Cycle t = 1;
        for (u32 a = 0; a < 4096; a += 64, t += 64) {
            req.addr = kBase + a;
            req.arrive = t;
            dc.access(req, ms);
        }
        const u64 ops = n(1'000'000);
        u64 hits = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i, t += 2) {
            req.addr = kBase + PhysAddr((i * 8) % 4096);
            req.arrive = t;
            hits += dc.access(req, ms).hit;
        }
        const double s = since(start);
        return Sample{s, hits == ops ? ops : 0};
    }, spans, parent));
    out.push_back(measure("dcache.miss_ns", "ns", reps, [&] {
        arch::Chip chip;
        arch::MemSystem &ms = chip.memsys();
        arch::DCache &dc = ms.dcache(0);
        arch::CacheAccess req;
        req.bytes = 8;
        Cycle t = 1;
        const u64 ops = n(200'000);
        u64 misses = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i, t += 64) {
            req.addr = kBase + PhysAddr((i * 64) % (2u << 20));
            req.arrive = t;
            misses += !dc.access(req, ms).hit;
        }
        const double s = since(start);
        return Sample{s, misses == ops ? ops : 0};
    }, spans, parent));

    // --- arch/memsys: MemSystem::access per interest-group class ----------
    const auto memsysHits = [&](u8 field) {
        arch::Chip chip;
        arch::MemSystem &ms = chip.memsys();
        Cycle t = 1;
        for (u32 a = 0; a < 4096; a += 64, t += 64)
            ms.access(t, 0, arch::igAddr(field, kBase + a), 8,
                      arch::MemKind::Load);
        const u64 ops = n(1'000'000);
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i, t += 4)
            sink += ms.access(t, 0,
                              arch::igAddr(field,
                                           kBase + PhysAddr((i * 8) % 4096)),
                              8, arch::MemKind::Load)
                        .ready;
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, ops};
    };
    out.push_back(measure("memsys.local_ns", "ns", reps,
                          [&] { return memsysHits(arch::kIgOwn); }, spans,
                          parent));
    out.push_back(measure("memsys.remote_ns", "ns", reps,
                          [&] { return memsysHits(arch::igExactly(5)); },
                          spans, parent));

    // --- arch/chip: functional memory -------------------------------------
    out.push_back(measure("chip.mem_rw_ns", "ns", reps, [&] {
        arch::Chip chip;
        const u64 iters = n(1'000'000);
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < iters; ++i) {
            const Addr ea =
                arch::igAddr(arch::kIgOwn, kBase + PhysAddr((i * 8) % 4096));
            const u64 v = chip.memRead(ea, 8, 0);
            chip.memWrite(ea, 8, v + i, 0);
            sink += v;
        }
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, 2 * iters};
    }, spans, parent));

    // --- arch/membank and arch/fpu, standalone ----------------------------
    const ChipConfig defaults;
    out.push_back(measure("membank.reserve_ns", "ns", reps, [&] {
        StatGroup stats;
        arch::MemBank bank;
        bank.init(0, defaults, &stats);
        const u64 ops = n(2'000'000);
        Cycle t = 1;
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i, t += 16)
            sink += bank.reserve(t, 2,
                                 PhysAddr((i * 64) % defaults.bankBytes))
                        .start;
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, ops};
    }, spans, parent));
    out.push_back(measure("fpu.dispatch_ns", "ns", reps, [&] {
        StatGroup stats;
        arch::Fpu fpu;
        fpu.init(0, defaults, &stats);
        const arch::FpuOp ops3[3] = {arch::FpuOp::Add, arch::FpuOp::Mul,
                                     arch::FpuOp::Fma};
        const u64 ops = n(2'000'000);
        u64 sink = 0;
        const auto start = Clock::now();
        for (u64 i = 0; i < ops; ++i) {
            Cycle at = 0;
            sink += fpu.dispatch(Cycle(i + 1), ops3[i % 3], &at) + at;
        }
        const double s = since(start);
        gSink = gSink + sink;
        return Sample{s, ops};
    }, spans, parent));

    // --- net/fabric: halo neighbour traffic on a 2x2x2 torus --------------
    // Every chip posts one 16-byte store message (8-byte header + one
    // payload word, as a remote store is sent) to each neighbour per
    // 16 cycles, below link saturation, then the fabric advances.
    net::FabricConfig fc;
    fc.net.dimX = fc.net.dimY = fc.net.dimZ = 2;
    const net::Topology topo(fc.net);
    std::vector<std::pair<u32, u32>> pairs;
    for (u32 s = 0; s < fc.net.numChips(); ++s)
        for (u32 d = 0; d < fc.net.numChips(); ++d)
            if (topo.hops(s, d) == 1)
                pairs.push_back({s, d});
    LayerTiming advance{"fabric.advance_ns", "ns", 0, 0, reps};
    std::vector<double> advanceNs;
    out.push_back(measure("fabric.inject_ns", "ns", reps, [&] {
        net::Fabric fabric(fc);
        const u64 rounds = n(40'000);
        double injectS = 0, advanceS = 0;
        u64 sink = 0;
        for (u64 r = 0; r < rounds; ++r) {
            const Cycle t = Cycle(r) * 16;
            const auto t0 = Clock::now();
            for (const auto &[s, d] : pairs)
                sink += fabric.inject(t, s, d, 16).delivered;
            const auto t1 = Clock::now();
            fabric.advance(t);
            advanceS += since(t1);
            injectS += std::chrono::duration<double>(t1 - t0).count();
        }
        gSink = gSink + sink;
        advanceNs.push_back(advanceS * 1e9 / double(rounds));
        advance.ops = rounds;
        return Sample{injectS, rounds * pairs.size()};
    }, spans, parent));
    std::sort(advanceNs.begin(), advanceNs.end());
    advance.value = advanceNs[advanceNs.size() / 2];
    out.push_back(advance);

    // --- set-up: constructors and program load ----------------------------
    const u32 setupReps = scale > 1 ? 3 : 9;
    out.push_back(measure("chip.construct_ms", "ms", setupReps, [] {
        const auto start = Clock::now();
        arch::Chip chip;
        return Sample{since(start), 1};
    }, spans, parent));
    const isa::Program triad = streamShapedProgram(3);
    out.push_back(measure("chip.load_ms", "ms", setupReps, [&] {
        arch::Chip chip;
        const auto start = Clock::now();
        chip.loadProgram(triad);
        return Sample{since(start), 1};
    }, spans, parent));
    workloads::MultiChipConfig halo;
    halo.dimX = halo.dimY = halo.dimZ = 2;
    const arch::SystemConfig sc = halo.systemConfig();
    out.push_back(measure("system.construct_ms", "ms", setupReps, [&] {
        const auto start = Clock::now();
        arch::System sys(sc);
        return Sample{since(start), 1};
    }, spans, parent));
    return out;
}

} // namespace perfbench
