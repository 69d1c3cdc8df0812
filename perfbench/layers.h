/**
 * @file
 * Isolated host cost of each simulator layer: one public call at a
 * time, timed in batches, reported as the median over repetitions.
 * None of these runs a workload; they pin down what one operation of
 * a layer costs so the traced run can weigh it by in-situ counts.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "common/types.h"
#include "spans.h"

namespace perfbench
{

/** One isolated timing. */
struct LayerTiming
{
    std::string name; ///< metric name, e.g. "dcache.hit_ns"
    std::string unit; ///< "ns" per operation or "ms" per call
    double value = 0; ///< median over repetitions
    cyclops::u64 ops = 0; ///< operations timed per repetition
    cyclops::u32 reps = 0;
};

/**
 * Time every layer. @p scale divides the operation counts (1 for a
 * measurement, larger for the self-test's tiny mode). Each timing is
 * recorded as a span under @p parent.
 */
std::vector<LayerTiming> timeLayers(cyclops::u32 scale, Spans &spans,
                                    int parent);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
