/**
 * @file
 * Benchmark jobs. A job is one call to a workloads::run* function on
 * a fresh machine; run.py generates the job list from the seed, and
 * this file turns each line of it into a simulator config. Nothing
 * here reads the seed: the simulator only ever sees generated configs.
 *
 * Job lines:
 *   stream <kernel 0-3> <elements per thread>     126-thread STREAM
 *   splash <app 0-5> <threads> <problem size>     hardware barriers
 *   halo <x> <y> <z> <words> <iterations>         torus halo exchange
 */

#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include <string>

#include "arch/unit.h"
#include "common/types.h"
#include "isa/program.h"

namespace perfbench
{

using cyclops::u32;
using cyclops::u64;

enum class JobKind { Stream, Splash, Halo };

/** One parsed job line. */
struct Job
{
    JobKind kind = JobKind::Stream;
    u32 p[5] = {}; ///< numeric fields, in job-line order
    std::string line;
};

/** Parse one job line; on failure returns false and sets @p error. */
bool parseJob(const std::string &line, Job *job, std::string *error);

/** What one job reported. */
struct Outcome
{
    bool ok = false;    ///< verified, all threads halted, nothing thrown
    std::string error;  ///< why !ok
    double wall = 0;    ///< host seconds around the run* call
    double cpu = 0;     ///< thread CPU seconds around the run* call
    u64 chipCycles = 0; ///< simulated chip-cycles (halo: cycles x chips)
    u64 instructions = 0;
    cyclops::arch::CycleBreakdown attr;
    u64 fingerprint = 0; ///< halo window-memory fingerprint (else 0)

    // Fabric and lockstep counts (halo only).
    u64 messages = 0;
    u64 flits = 0;
    u64 fabricQueueCycles = 0;
    u64 epochs = 0; ///< lockstep epoch slots: ceil(cycles / epoch)

    u64 digest = 0; ///< FNV-1a over cycles, instructions, attr, fingerprint
};

/**
 * Run @p job. A non-empty @p statsPath makes the run export its stats
 * JSON there (halo: one file per chip, ".chipN" suffixed).
 */
Outcome runJob(const Job &job, const std::string &statsPath);

/**
 * Host seconds to build the job's machine before its first cycle: the
 * Chip (or System) constructor at the job's config, plus loading a
 * STREAM-shaped program for ISA jobs.
 */
double timeSetup(const Job &job);

/**
 * A program shaped like the STREAM kernel @p kernel (0-3) for 126
 * threads: per-thread slice table, the outer/inner loop and the
 * kernel body. The workload's own program builder is internal to
 * workloads/stream.cc, so set-up timing loads this one instead.
 */
cyclops::isa::Program streamShapedProgram(u32 kernel);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
