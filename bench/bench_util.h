/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every bench takes the rows of parseOptions() below: --quick, --csv,
 * --jobs N (also CYCLOPS_BENCH_JOBS), --manifest, and the shared
 * degraded-chip and observability rows of common/options.h. Output
 * paths may contain "%t", a per-sweep-point tag.
 *
 * Simulation points are independent (one Chip each), so sweeps run
 * through cyclops::parallelSweep; results are collected in input
 * order, making the emitted tables byte-identical for any job count.
 */

#ifndef CYCLOPS_BENCH_BENCH_UTIL_H
#define CYCLOPS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/hostobs.h"
#include "common/log.h"
#include "common/options.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/types.h"

namespace cyclops::bench
{

struct Options
{
    bool quick = false;
    bool csv = false;
    u32 jobs = 1;
    ChipConfig chip; ///< obs and fault options for simulated chips
    std::string manifestOut; ///< per-run manifest path ("" = none)
    u64 startNs = 0;         ///< hostNowNs() at option parsing
};

/**
 * A ChipConfig carrying the bench's observability and fault options,
 * tagged so "%t" in output paths expands uniquely per sweep point.
 */
inline ChipConfig
chipConfig(const Options &opts, const std::string &tag)
{
    ChipConfig cfg = opts.chip;
    cfg.obs.tag = tag;
    return cfg;
}

inline Options
parseOptions(int argc, char **argv)
{
    Options opts;
    opts.startNs = hostNowNs();
    OptionTable table(argv[0]);
    table.add(switchOpt("--quick", "CI-sized sweeps", opts.quick))
        .add(switchOpt("--csv", "CSV instead of aligned tables", opts.csv))
        .add(numOpt("--jobs", "N", "host threads (0 = all)", opts.jobs));
    addFaultOptions(table, opts.chip.fault);
    addObsOptions(table, opts.chip.obs, true);
    table.add(textOpt("--manifest", "P", "per-run manifest JSON",
                      opts.manifestOut));
    // The environment default parses exactly like "--jobs N".
    if (const char *env = std::getenv("CYCLOPS_BENCH_JOBS")) {
        const char *envArgs[] = {argv[0], "--jobs", env};
        if (const std::string err = table.parse(3, envArgs); !err.empty())
            table.fail("CYCLOPS_BENCH_JOBS: " + err);
    }
    table.parseOrExit(argc, argv);
    opts.jobs = SimPool::resolveJobs(opts.jobs);
    // A fault map the chip cannot take is a command-line mistake too.
    if (const std::string err = opts.chip.check(); !err.empty())
        table.fail(err);
    return opts;
}

/**
 * Emit the per-run manifest if --manifest was given. The config hash
 * covers the bench's base ChipConfig (fault map);
 * sweeps that vary structural parameters per point are identified by
 * the bench name instead. Totals of zero are fine for static benches.
 */
inline void
writeManifest(const Options &opts, const char *benchName,
              u64 simCycles = 0, u64 instructions = 0)
{
    if (opts.manifestOut.empty())
        return;
    const ChipConfig cfg = chipConfig(opts, "manifest");
    RunManifest m;
    m.tool = benchName;
    m.workload = benchName;
    m.config = &cfg;
    m.simCycles = simCycles;
    m.instructions = instructions;
    m.wallSeconds = double(hostNowNs() - opts.startNs) / 1e9;
    writeRunManifest(cfg.obs.expandPath(opts.manifestOut), m);
}

/**
 * Run @p fn over all sweep points on opts.jobs host threads and
 * return the results in input order (table output stays byte-stable).
 */
template <typename Point, typename Fn>
auto
sweep(const Options &opts, const std::vector<Point> &points, Fn fn)
    -> std::vector<decltype(fn(points[0]))>
{
    return parallelSweep(points, opts.jobs, fn);
}

inline void
banner(const Options &opts, const char *experiment, const char *claim)
{
    if (opts.csv)
        return;
    std::printf("======================================================"
                "=========\n");
    std::printf("%s\n", experiment);
    std::printf("Paper reference: %s\n", claim);
    std::printf("======================================================"
                "=========\n");
}

inline void
emit(const Options &opts, const Table &table)
{
    std::fputs(opts.csv ? table.csv().c_str() : table.ascii().c_str(),
               stdout);
    std::printf("\n");
}

inline void
note(const Options &opts, const char *text)
{
    if (!opts.csv)
        std::printf("%s\n", text);
}

} // namespace cyclops::bench

#endif // CYCLOPS_BENCH_BENCH_UTIL_H
