/**
 * @file
 * Unit tests for the cycle engine's wheel-bitmap fast-forward (idle
 * gaps inside and beyond the wheel window, wrap-around, far-queue
 * interaction), its exact same-cycle service order, and the memory
 * switch's bank routing before and after bank failures (power-of-two
 * shift/mask fast path vs. the remapped modulo slow path).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "arch/chip.h"

using namespace cyclops;
using namespace cyclops::arch;

namespace
{

/**
 * A unit that wakes at a fixed list of absolute cycles, recording the
 * cycle of every tick it receives, then halts.
 */
class WakeListUnit : public Unit
{
  public:
    WakeListUnit(ThreadId tid, std::vector<Cycle> wakes)
        : Unit(tid), wakes_(std::move(wakes))
    {
    }

    Cycle
    tick(Cycle now) override
    {
        ticks.push_back(now);
        if (next_ >= wakes_.size()) {
            markHalted();
            return kCycleNever;
        }
        return wakes_[next_++];
    }

    std::vector<Cycle> ticks;

  private:
    std::vector<Cycle> wakes_;
    size_t next_ = 0;
};

ChipConfig
smallConfig()
{
    ChipConfig cfg;
    return cfg;
}

} // namespace

TEST(CycleEngine, FastForwardSkipsIdleGapInsideWheel)
{
    Chip chip(smallConfig());
    // Wake at 1 (activation), then 100, then 900, then halt.
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{100, 900});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), 3u);
    EXPECT_EQ(raw->ticks[0], 1u);
    EXPECT_EQ(raw->ticks[1], 100u);
    EXPECT_EQ(raw->ticks[2], 900u);
    EXPECT_EQ(chip.now(), 901u); // one cycle past the final tick
    // Idle gaps are skipped, not stepped: the cycle counter counts
    // the fast-forward jumps plus the three busy cycles.
    EXPECT_EQ(chip.stats().counterValue("chip.cycles"), 901u);
}

TEST(CycleEngine, FastForwardBeyondWheelUsesFarQueue)
{
    // Next event far beyond the 1024-slot wheel: the far queue feeds
    // the fast-forward and the engine lands exactly on the wake cycle.
    Chip chip(smallConfig());
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{5000, 5001, 123456});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), 4u);
    EXPECT_EQ(raw->ticks[0], 1u);
    EXPECT_EQ(raw->ticks[1], 5000u);
    EXPECT_EQ(raw->ticks[2], 5001u);
    EXPECT_EQ(raw->ticks[3], 123456u);
    EXPECT_EQ(chip.now(), 123457u);
}

TEST(CycleEngine, WheelWrapAround)
{
    // Schedule wakes that straddle multiples of the 1024-cycle wheel
    // so occupied slots wrap below the current slot index. Deltas are
    // all < 1024, so every event lives in the wheel, never the far
    // queue.
    Chip chip(smallConfig());
    std::vector<Cycle> wakes;
    Cycle c = 1;
    for (int i = 0; i < 40; ++i) {
        c += 1000; // just under the wheel size: wraps every round
        wakes.push_back(c);
    }
    auto unit = std::make_unique<WakeListUnit>(0, wakes);
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), wakes.size() + 1);
    EXPECT_EQ(raw->ticks[0], 1u);
    for (size_t i = 0; i < wakes.size(); ++i)
        EXPECT_EQ(raw->ticks[i + 1], wakes[i]);
}

TEST(CycleEngine, WheelAndFarQueueInterleave)
{
    // One near unit (wheel) and one far unit (heap): both must be
    // served at their exact cycles regardless of which queue holds
    // them.
    Chip chip(smallConfig());
    auto near = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{50, 60, 70});
    auto far = std::make_unique<WakeListUnit>(
        4, std::vector<Cycle>{2000, 2048});
    WakeListUnit *rawNear = near.get();
    WakeListUnit *rawFar = far.get();
    chip.setUnit(0, std::move(near));
    chip.setUnit(4, std::move(far));
    chip.activate(0);
    chip.activate(4);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    EXPECT_EQ(rawNear->ticks,
              (std::vector<Cycle>{1, 50, 60, 70}));
    EXPECT_EQ(rawFar->ticks, (std::vector<Cycle>{1, 2000, 2048}));
    EXPECT_EQ(chip.now(), 2049u);
}

TEST(CycleEngine, CycleLimitStopsAndResumes)
{
    Chip chip(smallConfig());
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{10000});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(100), RunExit::CycleLimit);
    EXPECT_GE(chip.now(), 100u);
    EXPECT_LE(chip.now(), 10000u); // fast-forward may land on the wake
    EXPECT_EQ(chip.run(), RunExit::AllHalted);
    ASSERT_EQ(raw->ticks.size(), 2u);
    EXPECT_EQ(raw->ticks[1], 10000u);
}

// ---------------------------------------------------------------------------
// Service order: which unit ticks when, and in which order within a
// cycle. Every frontend's shared-resource arbitration (ports, banks,
// FPUs) rides on this order, so any change to the wheel, the far
// heap or the rotation must reproduce it exactly.
// ---------------------------------------------------------------------------

namespace
{

/**
 * A unit driven by a script: on its k-th tick it appends "cycle:tid"
 * to a shared log and returns script(now, k) — the next wake cycle,
 * or kCycleNever to halt.
 */
class ScriptUnit : public Unit
{
  public:
    using Script = std::function<Cycle(Cycle now, u32 k)>;

    ScriptUnit(ThreadId tid, std::string *log, Script script)
        : Unit(tid), log_(log), script_(std::move(script))
    {
    }

    Cycle
    tick(Cycle now) override
    {
        *log_ += std::to_string(now) + ":" + std::to_string(tid_) + " ";
        const Cycle wake = script_(now, ticks_++);
        if (wake == kCycleNever)
            markHalted();
        return wake;
    }

  private:
    std::string *log_;
    Script script_;
    u32 ticks_ = 0;
};

/** Script: wake at each listed absolute cycle, then halt. */
ScriptUnit::Script
wakesAt(std::vector<Cycle> wakes)
{
    return [wakes](Cycle, u32 k) {
        return k < wakes.size() ? wakes[k] : kCycleNever;
    };
}

/** Script: @p ticks ticks, each @p step cycles after the last. */
ScriptUnit::Script
everyN(u32 ticks, Cycle step)
{
    return [ticks, step](Cycle now, u32 k) {
        return k + 1 < ticks ? now + step : kCycleNever;
    };
}

void
install(Chip &chip, std::string *log, ThreadId tid,
        ScriptUnit::Script script)
{
    chip.setUnit(tid, std::make_unique<ScriptUnit>(tid, log,
                                                   std::move(script)));
}

/** Log suffix that pins where the engine stopped and what it counted. */
std::string
endState(Chip &chip)
{
    return "| now=" + std::to_string(chip.now()) + " cycles=" +
           std::to_string(chip.stats().counterValue("chip.cycles"));
}

} // namespace

TEST(CycleEngine, ServiceOrderMatchesParent)
{
    // (a) Same-cycle rotation with 1, 3 and 5 due units, activated out
    // of tid order so the rotation start (now % n) is visible.
    const std::vector<ThreadId> order = {17, 0, 30, 5, 9};
    const char *const rotation[] = {
        "1:17 3:17 4:17 7:17 8:17 | now=9 cycles=9",
        "1:0 1:30 1:17 3:0 3:30 3:17 4:30 4:17 4:0 7:17 7:0 7:30 8:30 "
        "8:17 8:0 | now=9 cycles=9",
        "1:0 1:30 1:5 1:9 1:17 3:9 3:17 3:0 3:30 3:5 4:5 4:9 4:17 4:0 "
        "4:30 7:17 7:0 7:30 7:5 7:9 8:5 8:9 8:17 8:0 8:30 | now=9 "
        "cycles=9",
    };
    const u32 counts[] = {1, 3, 5};
    for (u32 c = 0; c < 3; ++c) {
        Chip chip;
        std::string log;
        for (u32 i = 0; i < counts[c]; ++i)
            install(chip, &log, order[i], wakesAt({3, 4, 7, 8}));
        for (u32 i = 0; i < counts[c]; ++i)
            chip.activate(order[i]);
        EXPECT_EQ(chip.run(), RunExit::AllHalted);
        EXPECT_EQ(log + endState(chip), rotation[c]) << counts[c];
    }

    // (b) Units rescheduling at now+1 from tick, sharing cycles with
    // wheel wakes (delta 2 and 3) and, at cycle 1100, with a far-heap
    // wake: same-slot wheel entries, now+1 wakes and far entries meet.
    {
        Chip chip;
        std::string log;
        install(chip, &log, 2, everyN(6, 1));
        install(chip, &log, 3, [](Cycle now, u32 k) {
            return k < 5 ? now + (k % 2 ? 1 : 2) : kCycleNever;
        });
        install(chip, &log, 4, everyN(3, 3));
        install(chip, &log, 6, wakesAt({1100}));
        install(chip, &log, 7, wakesAt({1097, 1098, 1099, 1100}));
        install(chip, &log, 8, wakesAt({1090, 1100}));
        for (ThreadId t : {4, 2, 3, 6, 7, 8})
            chip.activate(t);
        EXPECT_EQ(chip.run(), RunExit::AllHalted);
        EXPECT_EQ(log + endState(chip),
                  "1:2 1:3 1:6 1:7 1:8 1:4 2:2 3:2 3:3 4:2 4:3 4:4 5:2 "
                  "6:3 6:2 7:3 7:4 9:3 1090:8 1097:7 1098:7 1099:7 "
                  "1100:6 1100:8 1100:7 | now=1101 cycles=1101");
    }

    // (c) A tick that activates other units mid-cycle: at cycle 3 unit
    // 1 activates unit 10 (no time given: the next cycle), unit 11
    // (now+1) and unit 12 (now+3) while units 0 and 2 tick every cycle
    // around it.
    {
        Chip chip;
        std::string log;
        install(chip, &log, 0, everyN(6, 1));
        install(chip, &log, 2, everyN(6, 1));
        install(chip, &log, 1, [&chip](Cycle now, u32 k) {
            if (now == 3) {
                chip.activate(10);
                chip.activate(11, now + 1);
                chip.activate(12, now + 3);
            }
            return k < 4 ? now + 1 : kCycleNever;
        });
        for (ThreadId t : {10, 11, 12})
            install(chip, &log, t, everyN(3, 1));
        for (ThreadId t : {2, 1, 0})
            chip.activate(t);
        EXPECT_EQ(chip.run(), RunExit::AllHalted);
        EXPECT_EQ(log + endState(chip),
                  "1:1 1:0 1:2 2:2 2:1 2:0 3:2 3:1 3:0 4:0 4:2 4:10 "
                  "4:11 4:1 5:0 5:2 5:10 5:11 5:1 6:0 6:2 6:10 6:11 "
                  "6:12 7:12 8:12 | now=9 cycles=9");
    }

    // (d) run(k) stops on CycleLimit with wakes for the current cycle
    // still pending; units 20 and 21 are then activated for the
    // current cycle (served from the next one) and unit 22 for now+2
    // before the run resumes.
    {
        Chip chip;
        std::string log;
        install(chip, &log, 0, everyN(10, 1));
        install(chip, &log, 1, everyN(5, 2));
        for (ThreadId t : {20, 21, 22})
            install(chip, &log, t, everyN(3, 1));
        chip.activate(1);
        chip.activate(0);
        EXPECT_EQ(chip.run(5), RunExit::CycleLimit);
        log += "| ";
        chip.activate(20);
        chip.activate(21, chip.now());
        chip.activate(22, chip.now() + 2);
        EXPECT_EQ(chip.run(), RunExit::AllHalted);
        EXPECT_EQ(log + endState(chip),
                  "1:0 1:1 2:0 3:0 3:1 4:0 | 5:0 5:1 6:20 6:21 6:0 "
                  "7:20 7:21 7:0 7:22 7:1 8:20 8:21 8:0 8:22 9:1 9:0 "
                  "9:22 10:0 | now=11 cycles=11");
    }
}

TEST(CycleEngine, ActivatingAQueuedUnitPanics)
{
    // Queueing a unit twice would serve it twice per wake (and could
    // overflow its wheel row): activate() refuses.
    EXPECT_DEATH(
        {
            Chip chip;
            std::string log;
            install(chip, &log, 0, everyN(3, 1));
            chip.activate(0);
            chip.activate(0, 5);
        },
        "already queued");
}

namespace
{

/**
 * A unit that spins on wired-OR bit 0 like a GuestUnit hardware
 * barrier: each failed poll parks, and the engine re-polls it.
 */
class SpinUnit : public Unit
{
  public:
    SpinUnit(ThreadId tid, Chip &chip) : Unit(tid), chip_(chip) {}

    Cycle
    tick(Cycle now) override
    {
        ++ticks;
        if (chip_.barrier().read() & 1)
            return parkBarrierSpin(now, 1, 2);
        markHalted();
        return kCycleNever;
    }

    u32 ticks = 0;

  private:
    Chip &chip_;
};

} // namespace

TEST(CycleEngine, ParkedSpinIsPolledWithoutTick)
{
    // Unit 5 holds wired-OR bit 0 until its tick at cycle 50. Unit 0
    // polls every 3 + sprLat(2) cycles: the engine charges the polls
    // at 1, 6, ..., 46 itself and ticks the unit again only at 51,
    // once the bit has dropped.
    Chip chip;
    std::string log;
    chip.barrier().write(5, 1);
    install(chip, &log, 5, [&chip](Cycle now, u32 k) {
        if (k == 1)
            chip.barrier().write(5, 0);
        return k == 0 ? Cycle(50) : kCycleNever;
    });
    auto spin = std::make_unique<SpinUnit>(0, chip);
    SpinUnit *raw = spin.get();
    chip.setUnit(0, std::move(spin));
    chip.activate(0);
    chip.activate(5);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);
    EXPECT_EQ(raw->ticks, 2u);
    EXPECT_EQ(raw->instructions(), 10u);
    EXPECT_EQ(raw->runCycles(), 30u);
    EXPECT_EQ(raw->catCycles(CycleCat::BarrierWait), 20u);
    EXPECT_EQ(raw->firstChargeAt(), 1u);
    EXPECT_EQ(raw->lastChargeEnd(), 51u);
    EXPECT_FALSE(raw->parked());
}

// ---------------------------------------------------------------------------
// Bank routing: pow2 fast path vs. remapped slow path.
// ---------------------------------------------------------------------------

namespace
{

/** Reference interleave: explicit div/mod over the operational list. */
std::pair<BankId, PhysAddr>
referenceRoute(PhysAddr addr, u32 lineBytes,
               const std::vector<BankId> &avail)
{
    const u32 lineIdx = addr / lineBytes;
    const u32 numAvail = u32(avail.size());
    const BankId bank = avail[lineIdx % numAvail];
    const PhysAddr bankAddr =
        (lineIdx / numAvail) * lineBytes + (addr % lineBytes);
    return {bank, bankAddr};
}

} // namespace

TEST(BankRouting, Pow2FastPathMatchesReference)
{
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        avail.push_back(b);

    for (PhysAddr addr = 0; addr < 512 * 1024; addr += 4093) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
    }
}

TEST(BankRouting, FailedBankTakesRemappedSlowPath)
{
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    chip.failBank(3); // 15 banks: not a power of two
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        if (b != 3)
            avail.push_back(b);
    ASSERT_EQ(avail.size(), 15u);

    for (PhysAddr addr = 0; addr < 512 * 1024; addr += 4093) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
        EXPECT_NE(got.first, 3u); // never the failed bank
    }
}

TEST(BankRouting, Pow2SubsetAfterFailuresAgrees)
{
    // Fail down to 8 banks: the fast path re-engages on the remapped
    // list and must still agree with the reference interleave.
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        avail.push_back(b);
    for (BankId b : {1u, 3u, 6u, 7u, 10u, 12u, 13u, 15u}) {
        chip.failBank(b);
        std::erase(avail, b);
    }
    ASSERT_EQ(avail.size(), 8u);
    EXPECT_EQ(chip.memsys().availableMemBytes(),
              8 * chip.config().bankBytes);

    for (PhysAddr addr = 0; addr < chip.memsys().availableMemBytes();
         addr += 2039) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
        EXPECT_LT(got.second, chip.config().bankBytes);
    }
}
