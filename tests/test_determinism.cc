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
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stateCycles, b.stateCycles);
    EXPECT_EQ(a.fu1BusyCycles, b.fu1BusyCycles);
    EXPECT_EQ(a.fu2BusyCycles, b.fu2BusyCycles);
    EXPECT_EQ(a.memBusyCycles, b.memBusyCycles);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.memBankConflicts, b.memBankConflicts);
    EXPECT_EQ(a.memConflictCycles, b.memConflictCycles);
    EXPECT_EQ(a.memIndexedConflicts, b.memIndexedConflicts);
    EXPECT_EQ(a.memIndexedConflictCycles, b.memIndexedConflictCycles);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.mshrStallCycles, b.mshrStallCycles);
    EXPECT_EQ(a.tlbHits, b.tlbHits);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.tlbIndexedMisses, b.tlbIndexedMisses);
    EXPECT_EQ(a.tlbMissCycles, b.tlbMissCycles);
    EXPECT_EQ(a.vectorLoadsEliminated, b.vectorLoadsEliminated);
    EXPECT_EQ(a.scalarLoadsEliminated, b.scalarLoadsEliminated);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.renameStallCycles, b.renameStallCycles);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.queueStallCycles, b.queueStallCycles);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
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
    Workloads w(kScale);
    for (const auto &cfg : sweepConfigs()) {
        for (const char *prog : {"hydro2d", "nasa7"}) {
            const Trace &t = w.get(prog);
            SimResult first = simulateOoo(t, cfg);
            SimResult second = simulateOoo(t, cfg);
            expectSameResult(first, second);
        }
    }
}

TEST(Determinism, RepeatedRefRunsAreIdentical)
{
    Workloads w(kScale);
    const Trace &t = w.get("hydro2d");
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
    Workloads w(kScale);
    for (auto cfg : sweepConfigs()) {
        for (const char *prog : {"hydro2d", "nasa7"}) {
            const Trace &t = w.get(prog);
            cfg.checkLevel = 0;
            SimResult off = simulateOoo(t, cfg);
            cfg.checkLevel = 2;
            SimResult on = simulateOoo(t, cfg);
            expectSameResult(off, on);
        }
    }
    RefConfig rc;
    rc.checkLevel = 0;
    SimResult ref_off = simulateRef(w.get("hydro2d"), rc);
    rc.checkLevel = 2;
    SimResult ref_on = simulateRef(w.get("hydro2d"), rc);
    expectSameResult(ref_off, ref_on);
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}
