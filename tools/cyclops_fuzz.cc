/**
 * @file
 * cyclops-fuzz: differential fuzzer driver.
 *
 * Generates seeded random programs, executes each on both the
 * ThreadUnit timing frontend and the architectural reference
 * interpreter, and reports the first divergence — shrunk to a minimal
 * reproducer and dumped as reassemblable .s text.
 *
 *   cyclops-fuzz --iters 500                   500-program campaign
 *   cyclops-fuzz --seed 42 --iters 1           reproduce one program
 *   cyclops-fuzz --threads 8 --no-shrink       wider SPMD, raw failure
 *   cyclops-fuzz --mutate add-off-by-one       harness self-test: must
 *                                              report a divergence
 *
 * The observability options (DESIGN.md section 10) apply to the
 * timing-side chips. Put "%t" in output paths — it expands to
 * "i<iteration>" so iterations do not overwrite each other's files.
 *
 * Exit status: 0 on a clean campaign, 1 if any program diverged, 2 on
 * a usage error.
 */

#include <cstdio>
#include <string>

#include "common/log.h"
#include "common/options.h"
#include "verify/fuzz.h"

using namespace cyclops;

int
main(int argc, char **argv)
{
    verify::FuzzOptions opts;

    OptionTable table(argv[0], "", "(paths may contain %t -> \"i<iter>\")");
    table.add(numOpt("--seed", "N", "campaign seed", opts.seed))
        .add(numOpt("--iters", "N", "programs to diff", opts.iters))
        .add(numOpt("--threads", "N", "thread counts cycle 1..N",
                    opts.maxThreads, 1, 8))
        .add(switchOpt("--no-shrink", "report the raw failure",
                       opts.shrinkOnFail, false))
        .add(switchOpt("--verbose", "per-iteration progress", opts.verbose))
        .add({"--mutate", "add-off-by-one|sltu-flipped|lb-zero-extends",
              "plant a golden-model bug (harness self-test)",
              [&opts](const char *text) {
                  const std::string name = text;
                  if (name == "add-off-by-one")
                      opts.mutation = verify::Mutation::AddOffByOne;
                  else if (name == "sltu-flipped")
                      opts.mutation = verify::Mutation::SltuFlipped;
                  else if (name == "lb-zero-extends")
                      opts.mutation = verify::Mutation::LbZeroExtends;
                  else
                      return strprintf("unknown mutation '%s'", text);
                  return std::string();
              }});
    addObsOptions(table, opts.obs, false);
    table.parseOrExit(argc, argv);

    const verify::FuzzResult res = verify::fuzzLoop(opts);

    std::printf("%u programs, %llu instructions diffed, %u timeouts, "
                "%u divergences\n",
                res.executed,
                static_cast<unsigned long long>(res.instructions),
                res.timeouts, res.divergences);

    if (res.divergences == 0)
        return 0;

    std::printf("\nDIVERGENCE (iteration %u, program seed %llu, "
                "%u threads):\n%s\n"
                "minimal reproducer (%u instructions):\n%s\n"
                "reproduce with: cyclops-fuzz --seed %llu --iters %u\n",
                res.failingIter,
                static_cast<unsigned long long>(res.failingSeed),
                res.failingThreads, res.report.c_str(), res.reproducerLen,
                res.reproducer.c_str(),
                static_cast<unsigned long long>(opts.seed),
                res.failingIter + 1);
    return 1;
}
