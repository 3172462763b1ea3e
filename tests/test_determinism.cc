/**
 * @file
 * Determinism suite for the event-driven simulator core.
 *
 * The wakeup network, the event calendar and the ready-skip gates
 * are all bookkeeping: none of them may leak into simulated timing,
 * and no iteration order anywhere may depend on the host. These
 * tests lock that in from the outside: repeated runs must agree
 * field for field, sweep results must be independent of the worker
 * thread count, and the deadlock diagnostics that the old
 * full-rescan backed must still fire when a machine can make no
 * progress.
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

/** Field-by-field equality of two simulation outcomes. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.toJson(), b.toJson());
}

/** OOOVA configurations covering every wakeup-network code path. */
std::vector<OooConfig>
sweepConfigs()
{
    return {
        makeOooConfig(16),
        makeOooConfig(64),
        makeOooConfig(16, 16, 50, CommitMode::Late),
        makeOooConfig(32, 16, 50, CommitMode::Late,
                      LoadElimMode::SleVle),
        makeOooConfig(32, 16, 50, CommitMode::Early,
                      LoadElimMode::Sle),
    };
}

} // namespace

TEST(Determinism, RepeatedOooRunsAreIdentical)
{
    TraceCache traces(kScale);
    for (const auto &cfg : sweepConfigs()) {
        for (const char *prog : {"hydro2d", "nasa7"}) {
            const Trace &t = traces.get(prog);
            SimResult first = simulateOoo(t, cfg);
            SimResult second = simulateOoo(t, cfg);
            expectSameResult(first, second);
        }
    }
}

TEST(Determinism, RepeatedRefRunsAreIdentical)
{
    TraceCache traces(kScale);
    const Trace &t = traces.get("hydro2d");
    expectSameResult(simulateRef(t, RefConfig{}),
                     simulateRef(t, RefConfig{}));
}

TEST(Determinism, SweepResultsIndependentOfThreadCount)
{
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs;
    for (const auto &name : traces.names()) {
        jobs.push_back(oooJob(name, makeOooConfig(16)));
        jobs.push_back(oooJob(name, makeOooConfig(32, 16, 50,
                                                  CommitMode::Late,
                                                  LoadElimMode::SleVle)));
    }

    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::vector<SimResult> one = serial.run(jobs);
    std::vector<SimResult> many = parallel.run(jobs);

    ASSERT_EQ(one.size(), many.size());
    for (size_t i = 0; i < one.size(); ++i)
        expectSameResult(one[i], many[i]);
}

/**
 * A machine that can make no forward progress must die with the
 * deadlock diagnostics (previously backed by the every-idle-cycle
 * rescan; now by the event calendar coming up empty). A queue size
 * of zero guarantees the very first instruction can never leave the
 * fetch buffer.
 */
TEST(DeterminismDeathTest, DeadlockPanicsWithDiagnostics)
{
    Trace t("tiny");
    t.push(makeScalar(Opcode::SAdd, sReg(1), sReg(2), sReg(3)));

    OooConfig cfg;
    cfg.queueSize = 0;
    EXPECT_DEATH(simulateOoo(t, cfg), "OOOVA deadlock at cycle");
}

TEST(Determinism, InvariantAuditIsObserveOnly)
{
    // The full audit (OOVA_CHECK=2 equivalent) recomputes every
    // conservation law alongside the run; it must neither perturb a
    // single result field nor find a violation on any sweep config.
    check::resetProcessViolations();
    TraceCache traces(kScale);
    for (auto cfg : sweepConfigs()) {
        for (const char *prog : {"hydro2d", "nasa7"}) {
            const Trace &t = traces.get(prog);
            cfg.checkLevel = 0;
            SimResult off = simulateOoo(t, cfg);
            cfg.checkLevel = 2;
            SimResult on = simulateOoo(t, cfg);
            expectSameResult(off, on);
        }
    }
    RefConfig rc;
    rc.checkLevel = 0;
    SimResult ref_off = simulateRef(traces.get("hydro2d"), rc);
    rc.checkLevel = 2;
    SimResult ref_on = simulateRef(traces.get("hydro2d"), rc);
    expectSameResult(ref_off, ref_on);
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}

/**
 * The event calendar is a 1024-slot timing wheel plus a min-heap for
 * events further out. At checkLevel 2 the calendar-bound checker
 * compares it with the full rescan on every idle jump. These runs
 * push events past the wheel (a 3000-cycle memory latency, a
 * 5000-cycle trap penalty) and wrap the wheel during a long stretch
 * of progress; each must finish violation-free and equal to an
 * unaudited run.
 */
TEST(Calendar, FarEventsAndWheelWrapsMatchTheRescan)
{
    check::resetProcessViolations();
    auto audited = [](const Trace &t, OooConfig cfg,
                      const FaultInjection &fault = {}) {
        cfg.checkLevel = 0;
        SimResult off = simulateOoo(t, cfg, fault);
        cfg.checkLevel = 2;
        SimResult on = simulateOoo(t, cfg, fault);
        expectSameResult(off, on);
        EXPECT_EQ(on.instructions, t.size());
        return on;
    };

    // Every load's data lands past the wheel.
    TraceCache traces(kScale);
    const Trace &hydro = traces.get("hydro2d");
    for (OooConfig cfg : sweepConfigs()) {
        cfg.lat.memLatency = 3000;
        EXPECT_GT(audited(hydro, cfg).cycles, 3000u);
    }

    // The refetch after a trap lands past the wheel.
    FaultInjection fault;
    for (size_t i = 0; i < hydro.size(); ++i) {
        if (hydro[i].isMem()) {
            fault.faultSeq = i;
            break;
        }
    }
    ASSERT_NE(fault.faultSeq, kNoSeq);
    OooConfig late = makeOooConfig(16, 16, 50, CommitMode::Late);
    late.trapPenalty = 5000;
    SimResult trapped = audited(hydro, late, fault);
    EXPECT_EQ(trapped.traps, 1u);
    EXPECT_GT(trapped.cycles, 5000u);

    // About 3000 cycles of one-per-cycle progress wrap the wheel
    // while a far load is in flight; then a consumer waits idle for
    // it.
    Trace wrap("wheel-wrap");
    wrap.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    for (int i = 0; i < 3000; ++i) {
        wrap.push(makeScalar(Opcode::SAdd,
                             sReg(static_cast<uint8_t>(1 + i % 4)),
                             sReg(5), sReg(6)));
    }
    wrap.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    OooConfig slow;
    slow.lat.memLatency = 4000;
    EXPECT_GT(audited(wrap, slow).cycles, 4000u);

    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}

/**
 * Under early commit a store leaves the ROB while its address phase
 * still runs. With two memory units the units' free times no longer
 * cover that phase's end, so only the store's own event wakes a
 * younger conflicting access: nasa7 on two banked units once found
 * the calendar empty with a gather at the ROB head and died on the
 * deadlock diagnostic. The full audit also compares the calendar
 * with the rescan at every idle jump.
 */
TEST(Calendar, RetiredStoresWakeConflictingAccessesOnTwoUnits)
{
    check::resetProcessViolations();
    GenOptions opts;
    opts.scale = 0.1;
    Trace t = makeBenchmarkTrace("nasa7", opts);
    OooConfig cfg = makeMultiUnitOooConfig(8, 2);
    cfg.checkLevel = 2;
    SimResult r = simulateOoo(t, cfg);
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}

/**
 * ROB entry slots are recycled once an entry has left the ROB, the
 * memory wait set and the eliminated-load list; the full audit's
 * slab-slots checker flags a slot freed twice, freed while still
 * reachable, or never freed. Under early commit an eliminated load
 * can retire before its value resolves, so both resolve exits
 * (vector and scalar) return the slot after commit; a software
 * refilled TLB traps over and over, and every trap returns the whole
 * ROB at once.
 */
TEST(SlotRecycling, LateReleasesAndTrapsKeepTheSlabSound)
{
    check::resetProcessViolations();
    Trace reload("reload");
    reload.push(makeVLoad(vReg(1), aReg(0), 0x1000, 8, 64));
    reload.push(makeVLoad(vReg(4), aReg(0), 0x1000, 8, 64));
    reload.push(makeSLoad(sReg(1), aReg(0), 0x9000));
    reload.push(makeSLoad(sReg(2), aReg(0), 0x9000));
    OooConfig early = makeOooConfig(32, 16, 50, CommitMode::Early,
                                    LoadElimMode::SleVle);
    early.checkLevel = 2;
    SimResult r = simulateOoo(reload, early);
    EXPECT_EQ(r.vectorLoadsEliminated, 1u);
    EXPECT_EQ(r.scalarLoadsEliminated, 1u);

    TraceCache traces(kScale);
    OooConfig sw = makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                    TlbRefill::SoftwareTrap);
    sw.checkLevel = 0;
    SimResult off = simulateOoo(traces.get("trfd"), sw);
    sw.checkLevel = 2;
    SimResult on = simulateOoo(traces.get("trfd"), sw);
    expectSameResult(off, on);
    EXPECT_GT(on.traps, 10u);

    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}
