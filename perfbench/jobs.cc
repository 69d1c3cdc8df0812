#include "jobs.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <sstream>

#include "arch/chip.h"
#include "arch/interest_group.h"
#include "arch/system.h"
#include "common/log.h"
#include "isa/builder.h"
#include "workloads/multichip.h"
#include "workloads/splash.h"
#include "workloads/stream.h"

namespace perfbench
{

using namespace cyclops;

namespace
{

constexpr u32 kStreamThreads = 126;

/** FNV-1a 64-bit step over the 8 bytes of @p v. */
u64
fnvMix(u64 h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

workloads::MultiChipConfig
haloConfig(const Job &job)
{
    workloads::MultiChipConfig cfg;
    cfg.dimX = job.p[0];
    cfg.dimY = job.p[1];
    cfg.dimZ = job.p[2];
    cfg.words = job.p[3];
    cfg.iters = job.p[4];
    return cfg;
}

void
runStreamJob(const Job &job, const ChipConfig &chipCfg, Outcome *out)
{
    workloads::StreamConfig cfg;
    cfg.kernel = workloads::StreamKernel(job.p[0]);
    cfg.threads = kStreamThreads;
    cfg.elementsPerThread = job.p[1];
    const workloads::StreamResult r = workloads::runStream(cfg, chipCfg);
    out->ok = r.verified;
    if (!r.verified)
        out->error = "STREAM result not verified";
    out->chipCycles = r.simCycles;
    out->instructions = r.instructions;
    out->attr = r.attr;
}

void
runSplashJob(const Job &job, const ChipConfig &chipCfg, Outcome *out)
{
    workloads::SplashConfig cfg;
    cfg.app = workloads::SplashApp(job.p[0]);
    cfg.threads = job.p[1];
    cfg.size = job.p[2];
    cfg.barrier = workloads::BarrierKind::Hw;
    const workloads::SplashResult r = workloads::runSplash(cfg, chipCfg);
    out->ok = r.verified;
    if (!r.verified)
        out->error = "SPLASH-2 result not verified";
    out->chipCycles = r.cycles;
    out->instructions = r.instructions;
    out->attr = r.attr;
}

void
runHaloJob(const Job &job, const std::string &statsPath, Outcome *out)
{
    workloads::MultiChipConfig cfg = haloConfig(job);
    cfg.obs.statsJson = statsPath;
    const workloads::MultiChipResult r = workloads::runHaloExchange(cfg);
    const u32 chips = cfg.dimX * cfg.dimY * cfg.dimZ;
    out->ok = r.verified && r.exitReason == arch::RunExitReason::AllHalted;
    if (r.exitReason != arch::RunExitReason::AllHalted)
        out->error = std::string("halo exit ") +
                     arch::runExitName(r.exitReason);
    else if (!r.verified)
        out->error = "halo checksums not verified";
    out->chipCycles = r.cycles * chips;
    out->instructions = r.instructions;
    out->attr = r.attr;
    out->fingerprint = r.fingerprint;
    out->messages = r.messages;
    out->flits = r.flitsInjected;
    out->fabricQueueCycles = r.queueCycles;
    const Cycle epoch = cfg.systemConfig().fabric.epoch();
    out->epochs = (r.cycles + epoch - 1) / epoch;
}

} // namespace

bool
parseJob(const std::string &line, Job *job, std::string *error)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    u32 fields = 0;
    if (kind == "stream") {
        job->kind = JobKind::Stream;
        fields = 2;
    } else if (kind == "splash") {
        job->kind = JobKind::Splash;
        fields = 3;
    } else if (kind == "halo") {
        job->kind = JobKind::Halo;
        fields = 5;
    } else {
        *error = "unknown job kind '" + kind + "'";
        return false;
    }
    for (u32 i = 0; i < fields; ++i) {
        long long v = -1;
        if (!(in >> v) || v < 0 || v > 0xFFFFFFFFll) {
            *error = "bad field in job line '" + line + "'";
            return false;
        }
        job->p[i] = u32(v);
    }
    std::string extra;
    if (in >> extra) {
        *error = "trailing text in job line '" + line + "'";
        return false;
    }
    if ((job->kind == JobKind::Stream && job->p[0] > 3) ||
        (job->kind == JobKind::Splash && job->p[0] > 5)) {
        *error = "kernel index out of range in '" + line + "'";
        return false;
    }
    job->line = line;
    return true;
}

Outcome
runJob(const Job &job, const std::string &statsPath)
{
    Outcome out;
    ChipConfig chipCfg;
    chipCfg.obs.statsJson = statsPath;
    const double cpu0 = threadCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    try {
        switch (job.kind) {
          case JobKind::Stream: runStreamJob(job, chipCfg, &out); break;
          case JobKind::Splash: runSplashJob(job, chipCfg, &out); break;
          case JobKind::Halo: runHaloJob(job, statsPath, &out); break;
        }
    } catch (const GuestError &e) {
        out.ok = false;
        out.error = std::string("guest error: ") + e.what();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = std::string("exception: ") + e.what();
    }
    out.wall = secondsSince(start);
    out.cpu = threadCpuSeconds() - cpu0;

    u64 h = fnvMix(0xcbf29ce484222325ull, out.chipCycles);
    h = fnvMix(h, out.instructions);
    for (u32 c = 0; c <= arch::kNumCycleCats; ++c)
        h = fnvMix(h, out.attr.value(c));
    out.digest = fnvMix(h, out.fingerprint);
    return out;
}

isa::Program
streamShapedProgram(u32 kernel)
{
    // Mirrors the register use and loop nest of the workload's
    // generated STREAM program (blocked partitioning, no unrolling).
    isa::ProgramBuilder b;
    const u32 sAddr = b.allocData(8, 8);
    b.pokeDouble(sAddr, 3.0);
    const u32 table = b.allocData(kStreamThreads * 32, 64);
    for (u32 t = 0; t < kStreamThreads; ++t) {
        const u32 base = 0x100000 + t * 0x1000;
        b.pokeWord(table + t * 32 + 0, base);
        b.pokeWord(table + t * 32 + 4, base + 0x400);
        b.pokeWord(table + t * 32 + 8, base + 0x800);
        b.pokeWord(table + t * 32 + 12, 64);
        b.pokeWord(table + t * 32 + 16, 8);
    }
    b.slli(20, 4, 5);
    b.li(21, arch::igAddr(arch::kIgDefault, table));
    b.add(21, 21, 20);
    b.lw(24, 0, 21);
    b.lw(25, 4, 21);
    b.lw(26, 8, 21);
    b.lw(28, 12, 21);
    b.lw(23, 16, 21);
    b.li(22, arch::igAddr(arch::kIgDefault, sAddr));
    b.ld(8, 0, 22);
    b.li(30, 4);
    auto outer = b.newLabel();
    auto inner = b.newLabel();
    b.bind(outer);
    b.mv(10, 24);
    b.mv(11, 25);
    b.mv(12, 26);
    b.mv(29, 28);
    b.bind(inner);
    switch (kernel) {
      case 0: // Copy: c = a
        b.ld(14, 0, 10);
        b.sd(14, 0, 12);
        break;
      case 1: // Scale: b = s*c
        b.ld(14, 0, 12);
        b.fmuld(16, 8, 14);
        b.sd(16, 0, 11);
        break;
      case 2: // Add: c = a + b
        b.ld(14, 0, 10);
        b.ld(16, 0, 11);
        b.faddd(18, 14, 16);
        b.sd(18, 0, 12);
        break;
      default: // Triad: a = b + s*c
        b.ld(14, 0, 11);
        b.ld(16, 0, 12);
        b.fmovd(18, 14);
        b.fmadd(18, 8, 16);
        b.sd(18, 0, 10);
        break;
    }
    b.add(10, 10, 23);
    b.add(11, 11, 23);
    b.add(12, 12, 23);
    b.addi(29, 29, -1);
    b.bne(29, 0, inner);
    b.addi(30, 30, -1);
    b.bne(30, 0, outer);
    b.halt();
    return b.finish();
}

double
timeSetup(const Job &job)
{
    // Programs are built outside the timed region: assembling is the
    // guest toolchain's cost, not the machine's.
    static const isa::Program programs[4] = {
        streamShapedProgram(0), streamShapedProgram(1),
        streamShapedProgram(2), streamShapedProgram(3)};
    switch (job.kind) {
      case JobKind::Stream: {
        const auto start = std::chrono::steady_clock::now();
        arch::Chip chip{ChipConfig{}};
        chip.loadProgram(programs[job.p[0]]);
        return secondsSince(start);
      }
      case JobKind::Splash: {
        const auto start = std::chrono::steady_clock::now();
        arch::Chip chip{ChipConfig{}};
        return secondsSince(start);
      }
      case JobKind::Halo: {
        const arch::SystemConfig sc = haloConfig(job).systemConfig();
        const auto start = std::chrono::steady_clock::now();
        arch::System sys(sc);
        return secondsSince(start);
      }
    }
    return 0;
}

} // namespace perfbench
