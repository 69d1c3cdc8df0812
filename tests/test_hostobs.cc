/**
 * @file
 * Host-observability tests (common/hostobs.h, DESIGN.md section 15).
 *
 * Three pillars:
 *  - collection: run wall time and peak RSS are recorded and merge
 *    across runs;
 *  - zero perturbation: enabling host telemetry must leave simulated
 *    cycles, instructions, attribution and guest trace output
 *    byte-identical;
 *  - export plumbing: host stats land in their own "host."-prefixed
 *    group, host trace events on their own Chrome-trace process, and
 *    run manifests round-trip the headline fields.
 *
 * The PageBuffer tests pin the chip memory image's host footprint:
 * zero-filled, and resident only where written.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <utility>

#include "arch/chip.h"
#include "common/config.h"
#include "common/hostobs.h"
#include "common/page_buffer.h"
#include "common/trace.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;

namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Small STREAM point exercising FPU arbitration and bank traffic. */
StreamConfig
streamPoint()
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = 24;
    cfg.elementsPerThread = 200;
    return cfg;
}

ChipConfig
chipWith(bool hostObs)
{
    ChipConfig cfg;
    cfg.obs.hostObs = hostObs;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

TEST(HostObs, SerialEngineCollectsRunWallOnly)
{
    const StreamResult r = runStream(streamPoint(), chipWith(true));
    const HostObsSnapshot &s = r.host;
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.runWallNanos, 0u);
    EXPECT_GT(s.peakRssKb, 0u);
}

TEST(HostObs, SnapshotAddMergesRuns)
{
    HostObsSnapshot a, b;
    a.runWallNanos = 100;
    a.peakRssKb = 50;
    b.enabled = true;
    b.runWallNanos = 100;
    b.peakRssKb = 70;
    a.add(b);
    EXPECT_TRUE(a.enabled);
    EXPECT_EQ(a.runWallNanos, 200u);
    EXPECT_EQ(a.peakRssKb, 70u);
}

// ---------------------------------------------------------------------------
// Zero perturbation: simulated results are byte-identical with host
// telemetry on or off
// ---------------------------------------------------------------------------

TEST(HostObs, EnablingDoesNotChangeSimulatedResults)
{
    const StreamResult off = runStream(streamPoint(), chipWith(false));
    const StreamResult on = runStream(streamPoint(), chipWith(true));
    EXPECT_EQ(off.simCycles, on.simCycles);
    EXPECT_EQ(off.iterationCycles, on.iterationCycles);
    EXPECT_EQ(off.instructions, on.instructions);
    for (u32 c = 0; c <= arch::kNumCycleCats; ++c)
        EXPECT_EQ(off.attr.value(c), on.attr.value(c)) << "attr cat " << c;
}

TEST(HostObs, GuestTraceBytesIdenticalWithHostObsOnOrOff)
{
    // Guest-category traces must not contain host events (they live
    // behind TraceCat::Host) and must be byte-identical either way.
    auto traceWith = [&](bool hostObs) {
        ChipConfig cfg = chipWith(hostObs);
        cfg.obs.traceOut =
            tempPath(hostObs ? "hosttrace_on.json" : "hosttrace_off.json");
        cfg.obs.traceCats = u8(traceBit(TraceCat::Mem) |
                               traceBit(TraceCat::Barrier) |
                               traceBit(TraceCat::Kernel));
        runStream(streamPoint(), cfg);
        return slurp(cfg.obs.traceOut);
    };
    const std::string off = traceWith(false);
    const std::string on = traceWith(true);
    EXPECT_EQ(off, on);
    EXPECT_EQ(on.find("cyclops-host"), std::string::npos);
}

TEST(HostObs, StatsJsonGainsHostSectionOnlyWhenEnabled)
{
    auto statsWith = [&](bool hostObs) {
        ChipConfig cfg = chipWith(hostObs);
        cfg.obs.statsJson =
            tempPath(hostObs ? "hostobs_on.json" : "hostobs_off.json");
        runStream(streamPoint(), cfg);
        return slurp(cfg.obs.statsJson);
    };
    const std::string off = statsWith(false);
    const std::string on = statsWith(true);
    EXPECT_EQ(off.find("hostObs"), std::string::npos);
    EXPECT_NE(on.find("\"hostObs\""), std::string::npos);
    EXPECT_NE(on.find("\"host.runWallNanos\""), std::string::npos);
    EXPECT_NE(on.find("\"host.peakRssKb\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Host trace export
// ---------------------------------------------------------------------------

TEST(HostObs, HostTraceEventsLandOnOwnProcess)
{
    ChipConfig cfg = chipWith(true);
    cfg.obs.traceOut = tempPath("hosttrace_host.json");
    cfg.obs.traceCats = kTraceAll;
    runStream(streamPoint(), cfg);
    const std::string json = slurp(cfg.obs.traceOut);

    // Host process metadata, the track name, and host-category spans.
    EXPECT_NE(json.find("cyclops-host"), std::string::npos);
    EXPECT_NE(json.find("\"engine\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"host\""), std::string::npos);
    EXPECT_NE(json.find("\"window\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedHostEvents\": 0"), std::string::npos);
}

TEST(HostObs, NoHostTraceWithoutHostCat)
{
    ChipConfig cfg = chipWith(true);
    cfg.obs.traceOut = tempPath("hosttrace_guestonly.json");
    cfg.obs.traceCats = u8(traceBit(TraceCat::Mem));
    runStream(streamPoint(), cfg);
    const std::string json = slurp(cfg.obs.traceOut);
    EXPECT_EQ(json.find("cyclops-host"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run manifests
// ---------------------------------------------------------------------------

TEST(HostObs, ManifestWriterRoundTripsHeadlineFields)
{
    const std::string path = tempPath("manifest.json");
    ChipConfig cfg;
    RunManifest m;
    m.tool = "unit-test";
    m.workload = "stream \"quoted\"";
    m.seed = 42;
    m.config = &cfg;
    m.simCycles = 1000;
    m.instructions = 5000;
    m.wallSeconds = 0.5;
    m.exitReason = "allHalted";
    writeRunManifest(path, m);

    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"schema\": \"cyclops-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"unit-test\""), std::string::npos);
    EXPECT_NE(json.find("stream \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"simCycles\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"exitReason\": \"allHalted\""),
              std::string::npos);
    EXPECT_NE(json.find("\"hash\": \""), std::string::npos);
    std::remove(path.c_str());
}

TEST(HostObs, ConfigHashTracksResultAffectingFieldsOnly)
{
    ChipConfig a, b;
    EXPECT_EQ(a.hash(), b.hash());

    // The default machine's identity is pinned: manifests written
    // before and after a refactor compare as the same machine.
    EXPECT_EQ(ChipConfig{}.describe(),
              "threads=128;tpq=4;qpi=2;rsvd=2;dc=16384,64,8,0,16;"
              "ic=32768,32,8;pib=16;banks=16,524288,32;pab=24;"
              "offchip=134217728;outmem=4;regs=64;pibEn=1;sanf=1;"
              "burst=1;clk=500000000;lat=2,1,5,33,1,5,30,56,1,9,6,24,17,"
              "36,5,6,1,6,6,6,5,512,4,2;latAtomic=2;");

    // Observability never changes results, so it never changes the
    // hash.
    b.obs.hostObs = true;
    b.obs.statsInterval = 100;
    EXPECT_EQ(a.hash(), b.hash());

    // Structural, latency and fault-map changes do.
    b = ChipConfig{};
    b.numThreads = 64;
    EXPECT_NE(a.hash(), b.hash());
    b = ChipConfig{};
    b.lat.memLocalHit += 1;
    EXPECT_NE(a.hash(), b.hash());
    b = ChipConfig{};
    b.fault.disabledTus.push_back(3);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(HostObs, GitDescribeIsNonEmpty)
{
    EXPECT_NE(gitDescribe(), nullptr);
    EXPECT_GT(std::string(gitDescribe()).size(), 0u);
}

TEST(PageBuffer, ZeroFilledAndMoveOnly)
{
    PageBuffer a(size_t(1) << 20);
    ASSERT_EQ(a.size(), size_t(1) << 20);
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(a[a.size() - 1], 0);
    a[12345] = 7;

    PageBuffer b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b[12345], 7);
    a = std::move(b);
    EXPECT_EQ(a[12345], 7);
}

TEST(PageBuffer, ChipMemoryImageIsResidentOnlyWhereWritten)
{
    // Constructing a chip and writing one word must not make its whole
    // memory image resident.
    const s64 before = s64(hostCurrentRssKb());
    arch::Chip chip{ChipConfig{}};
    const u64 word = 0x0123456789abcdefull;
    chip.writePhys(0x40000, &word, sizeof(word));
    const s64 grown = s64(hostCurrentRssKb()) - before;
    EXPECT_LT(grown, s64(ChipConfig{}.memBytes() / 1024 / 2));

    u64 back = 0;
    chip.readPhys(0x40000, &back, sizeof(back));
    EXPECT_EQ(back, word);
    chip.readPhys(0x7ffff8, &back, sizeof(back));
    EXPECT_EQ(back, 0u);
}
