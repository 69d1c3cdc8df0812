/**
 * @file
 * Benchmark driver: runs a generated job list on the simulator and
 * writes a raw report (per-run host times, simulated counts, digests,
 * isolated layer timings) that run.py turns into metrics.
 *
 *   perfbench --jobs FILE --seconds S --trace 0|1 --out DIR [--tiny]
 *
 * --trace 0 (timed): cycles through the job list, one machine set-up
 *   timing and one job per step, and stops at the end of the first
 *   pass that ends after S seconds, so every run covers whole passes
 *   and the job mix is the same whatever the host speed. Then re-runs
 *   job 0.
 * --trace 1 (traced): times each layer in isolation, then runs every
 *   job once untraced and once with the stats export on, recording a
 *   span around each call; spans are written at exit.
 *
 * Only the serial default engine is used; no engine, sampling or host
 * telemetry option is set.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "jobs.h"
#include "layers.h"
#include "spans.h"

using namespace perfbench;

namespace
{

struct Options
{
    std::string jobsFile;
    std::string outDir;
    double seconds = 0;
    bool trace = false;
    bool tiny = false;
};

/** One executed job, as the report lists it. */
struct Run
{
    size_t pos = 0;     ///< job-list position
    const char *phase = ""; ///< timed, untraced, traced or rerun
    Outcome out;
    double setupS = -1; ///< machine set-up seconds (timed phase only)
    std::string stats;  ///< stats export path ("" = none)
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --jobs FILE --seconds S "
                 "--trace 0|1 --out DIR [--tiny]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--jobs")
                o.jobsFile = v;
            else if (a == "--out")
                o.outDir = v;
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.jobsFile.empty() || o.outDir.empty())
        usage("--jobs and --out are required");
    return o;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += cyclops::strprintf("\\u%04x", unsigned(c));
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
writeRun(std::FILE *f, const Run &r, bool first)
{
    const Outcome &o = r.out;
    std::fprintf(f,
                 "%s\n    {\"pos\": %zu, \"phase\": \"%s\", \"ok\": %s, "
                 "\"error\": %s, \"wall_s\": %.9f, \"cpu_s\": %.9f, "
                 "\"chip_cycles\": %llu, \"instructions\": %llu, "
                 "\"attr\": [",
                 first ? "" : ",", r.pos, r.phase, o.ok ? "true" : "false",
                 jsonString(o.error).c_str(), o.wall, o.cpu,
                 static_cast<unsigned long long>(o.chipCycles),
                 static_cast<unsigned long long>(o.instructions));
    for (cyclops::u32 c = 0; c <= cyclops::arch::kNumCycleCats; ++c)
        std::fprintf(f, "%s%llu", c ? ", " : "",
                     static_cast<unsigned long long>(o.attr.value(c)));
    std::fprintf(f,
                 "], \"digest\": \"%016llx\", \"messages\": %llu, "
                 "\"flits\": %llu, \"fabric_queue_cycles\": %llu, "
                 "\"epochs\": %llu, \"setup_s\": ",
                 static_cast<unsigned long long>(o.digest),
                 static_cast<unsigned long long>(o.messages),
                 static_cast<unsigned long long>(o.flits),
                 static_cast<unsigned long long>(o.fabricQueueCycles),
                 static_cast<unsigned long long>(o.epochs));
    if (r.setupS >= 0)
        std::fprintf(f, "%.9f", r.setupS);
    else
        std::fputs("null", f);
    std::fprintf(f, ", \"stats\": %s}",
                 r.stats.empty() ? "null" : jsonString(r.stats).c_str());
}

bool
writeReport(const std::string &path, const Options &opts,
            const std::vector<Job> &jobs, const std::vector<Run> &runs,
            const std::vector<LayerTiming> &layers, double timedWall)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(f,
                 "{\n  \"mode\": \"%s\",\n  \"nproc\": %ld,\n"
                 "  \"seconds_budget\": %.3f,\n"
                 "  \"timed_wall_s\": %.6f,\n  \"peak_rss_kb\": %ld,\n"
                 "  \"jobs\": [",
                 opts.trace ? "traced" : "timed",
                 sysconf(_SC_NPROCESSORS_ONLN), opts.seconds,
                 timedWall, ru.ru_maxrss);
    for (size_t i = 0; i < jobs.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "",
                     jsonString(jobs[i].line).c_str());
    std::fputs("],\n  \"runs\": [", f);
    for (size_t i = 0; i < runs.size(); ++i)
        writeRun(f, runs[i], i == 0);
    std::fputs("\n  ],\n  \"layers\": [", f);
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerTiming &l = layers[i];
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", \"unit\": \"%s\", "
                     "\"value\": %.6f, \"ops\": %llu, \"reps\": %u}",
                     i ? "," : "", l.name.c_str(), l.unit.c_str(), l.value,
                     static_cast<unsigned long long>(l.ops), l.reps);
    }
    std::fputs("\n  ]\n}\n", f);
    return std::fclose(f) == 0;
}

double
since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    std::vector<Job> jobs;
    {
        std::ifstream in(opts.jobsFile);
        if (!in)
            usage(("cannot read " + opts.jobsFile).c_str());
        std::string line, error;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            Job job;
            if (!parseJob(line, &job, &error))
                usage(error.c_str());
            jobs.push_back(job);
        }
    }
    if (jobs.empty())
        usage("the job list is empty");

    Spans spans(opts.trace);
    std::vector<Run> runs;
    std::vector<LayerTiming> layers;
    double timedWall = 0;

    if (!opts.trace) {
        const auto start = std::chrono::steady_clock::now();
        for (size_t i = 0;; ++i) {
            const size_t pos = i % jobs.size();
            Run r{pos, "timed", {}, timeSetup(jobs[pos]), ""};
            r.out = runJob(jobs[pos], "");
            runs.push_back(r);
            if (pos + 1 == jobs.size() && since(start) >= opts.seconds)
                break;
        }
        timedWall = since(start);
    } else {
        const int root = spans.open("layers", -1, -1);
        layers = timeLayers(opts.tiny ? 50 : 1, spans, root);
        spans.close(root);
        // The untraced and traced runs of a job alternate which goes
        // first, so host warm-up and drift do not bias the overhead.
        for (size_t pos = 0; pos < jobs.size(); ++pos) {
            Spans::Scope job(spans, "job", -1, long(pos));
            for (int side = 0; side < 2; ++side) {
                const bool traced = (side + pos) % 2 == 1;
                Run r{pos, traced ? "traced" : "untraced", {}, -1,
                      traced ? opts.outDir +
                                   cyclops::strprintf("/stats-job%zu.json",
                                                      pos)
                             : ""};
                Spans::Scope s(spans, traced ? "run_traced" : "run",
                               job.id(), long(pos));
                r.out = runJob(jobs[pos], r.stats);
                runs.push_back(r);
            }
        }
    }

    {
        Spans::Scope s(spans, "rerun", -1, 0);
        runs.push_back({0, "rerun", runJob(jobs[0], ""), -1, ""});
    }

    if (!writeReport(opts.outDir + "/report.json", opts, jobs, runs,
                     layers, timedWall)) {
        std::fprintf(stderr, "perfbench: cannot write the report\n");
        return 1;
    }
    if (opts.trace && !spans.write(opts.outDir + "/spans.json")) {
        std::fprintf(stderr, "perfbench: cannot write spans\n");
        return 1;
    }
    return 0;
}
