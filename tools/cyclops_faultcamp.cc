/**
 * @file
 * cyclops-faultcamp: seeded transient-fault injection campaign driver.
 *
 * Runs N independent iterations, each generating a random program,
 * computing its golden final state on the reference interpreter, and
 * executing it on the timing chip with one seed-derived transient
 * fault (register bit flip, memory bit flip, or cache-line kill)
 * injected mid-run. Outcomes are classified masked / detected / sdc /
 * crash / hang; the JSON report is deterministic (byte-identical for a
 * given seed at any --jobs).
 *
 *   cyclops-faultcamp --iters 1000 --out camp.json
 *   cyclops-faultcamp --seed 7 --iters 100 --jobs 1     serial rerun
 *
 * --kind restricts the campaign to one fault kind; "--kind link"
 * switches the workload to a multi-chip halo exchange on a 2x2x1
 * torus and injects one fabric link fault per iteration (dead /
 * flaky / flaky-with-escapes / always-corrupt), exercising the
 * fault-tolerant fabric of DESIGN.md section 18: masked means the
 * rerouting or the end-to-end retry absorbed the fault, detected is
 * a structured fabric-failure exit, sdc is a checksum escape.
 *
 * The observability options (DESIGN.md section 10) apply to the
 * *injected* runs (the golden and baseline runs stay quiet). Put "%t"
 * in output paths — it expands to "i<iteration>" so parallel jobs
 * never share a file:
 *
 *   cyclops-faultcamp --iters 16 --stats-json 'camp-%t.json'
 *
 * Exit status: 0 on a completed campaign (whatever the outcome mix),
 * 2 on a usage error.
 */

#include <cstdio>
#include <string>

#include "common/log.h"
#include "common/options.h"
#include "fault/fault.h"

using namespace cyclops;

int
main(int argc, char **argv)
{
    fault::CampaignOptions opts;
    u32 jobs = 0;
    std::string outPath;

    OptionTable table(argv[0], "", "(paths may contain %t -> \"i<iter>\")");
    table.add(numOpt("--seed", "N", "campaign seed", opts.seed))
        .add(numOpt("--iters", "N", "injections", opts.iterations, 1))
        .add(numOpt("--threads", "N", "threads per program", opts.threads,
                    1, 8))
        .add(numOpt("--body-ops", "N", "program size", opts.bodyOps))
        .add({"--kind", "register|memory|cacheLine|link",
              "inject only this kind (link: on a 2x2x1 halo)",
              [&opts](const char *text) {
                  opts.kindSet = fault::parseFaultKind(text, &opts.kind);
                  return opts.kindSet ? std::string()
                                      : strprintf("unknown fault kind '%s'",
                                                  text);
              }})
        .add(numOpt("--max-cycles", "N", "per-run cycle budget",
                    opts.maxCycles, 1))
        .add(numOpt("--watchdog", "N", "watchdog window of injected runs",
                    opts.watchdogCycles))
        .add(numOpt("--jobs", "N", "host threads (0 = all)", jobs))
        .add(textOpt("--out", "FILE", "JSON report (default stdout)",
                     outPath));
    addObsOptions(table, opts.obs, false);
    table.parseOrExit(argc, argv);

    const fault::CampaignResult res = fault::runCampaign(opts, jobs);

    std::printf("%u injections:", opts.iterations);
    for (unsigned c = 0; c < fault::kNumOutcomes; ++c)
        std::printf(" %s=%llu", fault::outcomeName(fault::Outcome(c)),
                    static_cast<unsigned long long>(res.counts[c]));
    std::printf("\n");

    if (!outPath.empty()) {
        std::FILE *out = std::fopen(outPath.c_str(), "w");
        if (!out)
            fatal("cannot open %s for writing", outPath.c_str());
        fault::writeCampaignJson(res, out);
        std::fclose(out);
    } else {
        fault::writeCampaignJson(res, stdout);
    }
    return 0;
}
