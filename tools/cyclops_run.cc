/**
 * @file
 * cyclops-run: assemble a Cyclops assembly file and execute it on a
 * simulated chip.
 *
 *   cyclops-run prog.s                 run on 1 thread
 *   cyclops-run -t 64 prog.s           spawn 64 software threads
 *   cyclops-run -t 8 --balanced prog.s balanced thread allocation
 *   cyclops-run --stats prog.s         dump every statistic at exit
 *   cyclops-run --disasm prog.s        print the assembled code, don't run
 *
 * The option table in main() lists every flag; run without a program
 * to print it. --chips runs an SPMD program (same image, -t threads
 * per chip, SPRs 6/7 = chip id / count) on the fabric of DESIGN.md
 * section 16; its link faults (section 18) name chips by id in the
 * X,Y,Z grid, x fastest. Degraded chips: section 13; observability:
 * sections 10, 15 and 17.
 *
 * Threads start at the `start` label (or address 0) with the kernel's
 * register conventions: r1 = stack pointer, r4 = software thread
 * index, r5 = thread count. Console output (traps) goes to stdout.
 *
 * Exit status: 0 success, 1 guest fault or host error, 2 usage or
 * configuration error, 3 cycle limit, 4 deadlock watchdog, 5 fabric
 * failure (a remote access was abandoned: the fault map partitions
 * the system or a retry storm exhausted the bounded retries),
 * 128+signal on SIGINT/SIGTERM/timeout (state flushed first).
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "arch/chip.h"
#include "arch/system.h"
#include "common/config.h"
#include "common/hostobs.h"
#include "common/log.h"
#include "common/options.h"
#include "isa/assembler.h"
#include "isa/disassembler.h"
#include "kernel/kernel.h"

using namespace cyclops;

namespace
{

/** The parsed command line. */
struct Args
{
    u32 threads = 1;
    bool balanced = false;
    bool dumpStats = false;
    bool disasmOnly = false;
    u64 maxCycles = 1'000'000'000ull;
    u32 timeoutSeconds = 0;
    std::string manifestPath;
    bool multiChip = false;  ///< --chips given
    arch::SystemConfig sys;  ///< sys.chip also configures a lone chip
    std::string path;
    u64 startNs = hostNowNs();
};

/**
 * A repeatable fabric link fault: "A->B" kills the link, "A->B=V" makes
 * it flaky (V = corruption ppm) or derated (V = bandwidth divisor).
 */
Option
linkFaultOpt(const char *flag, const char *metavar, const char *help,
             net::LinkFaultKind kind, net::FabricFaultMap &map)
{
    return {flag, metavar, help, [=, &map](const char *text) {
                net::LinkFault lf;
                lf.kind = kind;
                unsigned a = 0, b = 0, v = 0;
                char tail = 0;
                const bool dead = kind == net::LinkFaultKind::Dead;
                const int n =
                    dead ? std::sscanf(text, "%u->%u%c", &a, &b, &tail)
                         : std::sscanf(text, "%u->%u=%u%c", &a, &b, &v,
                                       &tail);
                if (n != (dead ? 2 : 3))
                    return strprintf("'%s' is not %s", text, metavar);
                lf.src = u32(a);
                lf.dst = u32(b);
                if (kind == net::LinkFaultKind::Flaky)
                    lf.flakyPpm = u32(v);
                else if (kind == net::LinkFaultKind::Derated)
                    lf.derate = u32(v);
                map.links.push_back(lf);
                return std::string();
            }};
}

void
stopHandler(int sig)
{
    arch::requestRunStop(sig);
}

/** Load @p prog on @p chip and spawn the -t threads; the kernel. */
std::unique_ptr<kernel::Kernel>
boot(arch::Chip &chip, const Args &args, const OptionTable &table,
     const isa::Program &prog)
{
    auto kern = std::make_unique<kernel::Kernel>(
        chip, args.balanced ? kernel::AllocPolicy::Balanced
                            : kernel::AllocPolicy::Sequential);
    kern->load(prog);
    if (args.threads > kern->usableThreads())
        table.fail(strprintf("-t %u exceeds the %u usable threads",
                             args.threads, kern->usableThreads()));
    kern->spawn(args.threads, prog.entry);
    return kern;
}

/** Report a guest fault or crash; exit status 1. */
int
guestError(const GuestError &err, Cycle now)
{
    std::fprintf(stderr, "\n[guest %s at cycle %llu: %s]\n",
                 err.kind() == GuestError::Kind::Check ? "fault" : "crash",
                 static_cast<unsigned long long>(now), err.what());
    return 1;
}

/**
 * Write the manifest if one was asked for and report how the run
 * ended: the exit status, 0 if every thread halted.
 */
int
finish(const Args &args, const arch::RunExit &exit, Cycle now,
       u64 instructions)
{
    if (!args.manifestPath.empty()) {
        RunManifest m;
        m.tool = "cyclops-run";
        m.workload = args.path;
        m.config = &args.sys.chip;
        m.simCycles = now;
        m.instructions = instructions;
        m.wallSeconds = double(hostNowNs() - args.startNs) / 1e9;
        m.exitReason = arch::runExitName(exit.reason);
        writeRunManifest(args.sys.chip.obs.expandPath(args.manifestPath),
                         m);
    }

    switch (exit.reason) {
      case arch::RunExitReason::CycleLimit:
        std::fprintf(stderr, "\n[cycle limit %llu reached]\n",
                     static_cast<unsigned long long>(args.maxCycles));
        return 3;
      case arch::RunExitReason::Watchdog:
        std::fprintf(stderr, "\n[deadlock watchdog]\n%s",
                     exit.diagnostic.c_str());
        return 4;
      case arch::RunExitReason::Signal:
        std::fprintf(stderr,
                     "\n[stopped by %s at cycle %llu; state flushed]\n",
                     exit.signal == SIGALRM
                         ? "wall-clock timeout"
                         : exit.signal == SIGINT ? "SIGINT" : "SIGTERM",
                     static_cast<unsigned long long>(exit.at));
        return 128 + exit.signal;
      case arch::RunExitReason::FabricFailure: // multi-chip runs only
        std::fprintf(stderr, "\n[fabric failure]\n%s\n",
                     exit.diagnostic.c_str());
        return 5;
      case arch::RunExitReason::AllHalted:
        break;
    }
    return 0;
}

/**
 * Multi-chip run (--chips): the same SPMD image is booted and spawned
 * on every chip of the torus/mesh, then the whole system advances in
 * fabric lockstep (DESIGN.md section 16). Console output is printed
 * per chip; the summary and manifest report system-wide sums plus the
 * fabric traffic counters.
 */
int
runSystem(const Args &args, const OptionTable &table,
          const isa::Program &prog)
{
    arch::System sys(args.sys);
    std::vector<std::unique_ptr<kernel::Kernel>> kernels;
    for (u32 c = 0; c < sys.numChips(); ++c)
        kernels.push_back(boot(sys.chip(c), args, table, prog));

    const auto flushConsoles = [&sys] {
        for (u32 c = 0; c < sys.numChips(); ++c) {
            const std::string &text = sys.chip(c).console();
            if (text.empty())
                continue;
            std::printf("[chip %u]\n", c);
            std::fputs(text.c_str(), stdout);
        }
    };

    arch::RunExit exit;
    try {
        exit = sys.run(args.maxCycles);
    } catch (const GuestError &err) {
        flushConsoles();
        return guestError(err, sys.now());
    }
    sys.writeObservability();
    flushConsoles();
    if (const int status =
            finish(args, exit, sys.now(), sys.totalInstructions()))
        return status;

    const net::Fabric &fabric = sys.fabric();
    std::fprintf(
        stderr,
        "\n[%llu cycles, %llu instructions, %u chips x %u threads; "
        "fabric %llu messages, %llu bytes, %llu queue cycles]\n",
        static_cast<unsigned long long>(sys.now()),
        static_cast<unsigned long long>(sys.totalInstructions()),
        sys.numChips(), args.threads,
        static_cast<unsigned long long>(fabric.messages()),
        static_cast<unsigned long long>(fabric.bytesMoved()),
        static_cast<unsigned long long>(fabric.queueCycles()));
    if (fabric.faultsActive())
        std::fprintf(
            stderr,
            "[fabric faults: %llu rerouted, %llu retransmits, "
            "%llu crc errors, %llu dropped flits]\n",
            static_cast<unsigned long long>(fabric.rerouted()),
            static_cast<unsigned long long>(fabric.retransmits()),
            static_cast<unsigned long long>(fabric.crcErrors()),
            static_cast<unsigned long long>(fabric.flitsDropped()));
    if (args.dumpStats)
        for (u32 c = 0; c < sys.numChips(); ++c) {
            std::fprintf(stderr, "--- chip %u ---\n", c);
            std::fputs(sys.chip(c).stats().dump().c_str(), stderr);
        }
    return 0;
}

/** Single-chip run. */
int
runChip(const Args &args, const OptionTable &table,
        const isa::Program &prog)
{
    arch::Chip chip(args.sys.chip);
    const auto kern = boot(chip, args, table, prog);

    arch::RunExit exit;
    try {
        exit = kern->run(args.maxCycles);
    } catch (const GuestError &err) {
        std::fputs(chip.console().c_str(), stdout);
        return guestError(err, chip.now());
    }
    chip.writeObservability();
    std::fputs(chip.console().c_str(), stdout);
    if (const int status =
            finish(args, exit, chip.now(), chip.totalInstructions()))
        return status;

    std::fprintf(stderr,
                 "\n[%llu cycles, %llu instructions, %u threads; "
                 "run %llu / stall %llu]\n",
                 static_cast<unsigned long long>(chip.now()),
                 static_cast<unsigned long long>(
                     chip.totalInstructions()),
                 args.threads,
                 static_cast<unsigned long long>(chip.totalRunCycles()),
                 static_cast<unsigned long long>(
                     chip.totalStallCycles()));
    if (args.dumpStats)
        std::fputs(chip.stats().dump().c_str(), stderr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    OptionTable table(argv[0], "prog.s");
    table
        .add(numOpt("-t", "N", "software threads to spawn", args.threads,
                    1))
        .add(switchOpt("--balanced", "balanced thread allocation",
                       args.balanced))
        .add(switchOpt("--stats", "dump every statistic at exit",
                       args.dumpStats))
        .add(switchOpt("--disasm", "print the assembled code, don't run",
                       args.disasmOnly))
        .add(numOpt("--max-cycles", "N", "cycle limit (exit status 3)",
                    args.maxCycles));
    net::FabricFaultMap &links = args.sys.fabric.faults;
    addFaultOptions(table, args.sys.chip.fault);
    table.add(numOpt("--timeout-seconds", "N", "wall-clock limit",
                     args.timeoutSeconds));
    addObsOptions(table, args.sys.chip.obs, true);
    table
        .add(textOpt("--manifest", "P", "per-run manifest JSON",
                     args.manifestPath))
        .add(linkFaultOpt("--disable-link", "A->B",
                          "kill the link chip A -> chip B (repeatable)",
                          net::LinkFaultKind::Dead, links))
        .add(linkFaultOpt("--link-flaky", "A->B=PPM",
                          "corrupt its packets with probability PPM/1e6",
                          net::LinkFaultKind::Flaky, links))
        .add(linkFaultOpt("--link-derate", "A->B=N",
                          "divide its bandwidth by N",
                          net::LinkFaultKind::Derated, links))
        .add(numOpt("--fabric-fault-seed", "N",
                    "corruption-draw stream selector", links.seed))
        .add(numOpt("--fabric-fault-at", "N",
                    "apply the link faults at cycle N", links.atCycle))
        .add({"--chips", "X,Y,Z", "run on an X x Y x Z torus of chips",
              [&args](const char *text) {
                  // "X,Y,Z" or "XxYxZ", all nonzero.
                  unsigned d[3] = {0, 0, 0};
                  char sep1 = 0, sep2 = 0, tail = 0;
                  if (std::sscanf(text, "%u%c%u%c%u%c", &d[0], &sep1, &d[1],
                                  &sep2, &d[2], &tail) != 5 ||
                      (sep1 != ',' && sep1 != 'x') || sep2 != sep1 ||
                      !d[0] || !d[1] || !d[2])
                      return strprintf("'%s' is not X,Y,Z with nonzero "
                                       "dimensions",
                                       text);
                  net::NetConfig &net = args.sys.fabric.net;
                  net.dimX = d[0];
                  net.dimY = d[1];
                  net.dimZ = d[2];
                  args.multiChip = true;
                  return std::string();
              }})
        .add(switchOpt("--mesh", "mesh links instead of a torus",
                       args.sys.fabric.net.torus, false));
    args.path = table.parseOrExit(argc, argv);
    const ObsConfig &obs = args.sys.chip.obs;
    if (!args.multiChip &&
        (!args.sys.fabric.net.torus || !links.empty() ||
         !obs.fabricStats.empty() || !obs.fabricHeatmap.empty()))
        table.fail("--mesh, the link faults and --fabric-stats/-heatmap "
                   "need --chips X,Y,Z");

    std::ifstream in(args.path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open %s\n", argv[0],
                     args.path.c_str());
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    isa::AsmResult result = isa::assemble(buffer.str());
    if (!result.ok) {
        std::fprintf(stderr, "%s: %s: %s\n", argv[0], args.path.c_str(),
                     result.error.c_str());
        return 1;
    }
    const isa::Program &prog = result.program;

    if (args.disasmOnly) {
        for (size_t i = 0; i < prog.text.size(); ++i) {
            const u32 addr = prog.textBase + u32(i) * 4;
            for (const auto &[name, value] : prog.symbols)
                if (value == addr)
                    std::printf("%s:\n", name.c_str());
            std::printf("  %06x:  %08x  %s\n", addr, prog.text[i],
                        isa::disassembleWord(prog.text[i]).c_str());
        }
        return 0;
    }

    // A bad configuration (fault map out of range, no surviving cache,
    // ...) is a user error: report it structurally, don't abort.
    if (const std::string err = args.sys.chip.check(); !err.empty())
        table.fail(err);

    // Stop gracefully on ^C / kill / wall-clock timeout: the run loop
    // returns at its next service point and all state gets flushed.
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);
    if (args.timeoutSeconds != 0) {
        std::signal(SIGALRM, stopHandler);
        alarm(args.timeoutSeconds);
    }

    if (!args.multiChip)
        return runChip(args, table, prog);
    if (const std::string err = args.sys.check(); !err.empty())
        table.fail(err);
    return runSystem(args, table, prog);
}
