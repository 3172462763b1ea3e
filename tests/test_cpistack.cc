/**
 * @file
 * Cycle-accounting (CPI stack) tests: the conservation law (buckets
 * sum exactly to the run's cycle count) on both simulators across
 * the wakeup-sweep configurations, the REF commit identity, the
 * cpi-conservation checker firing on corrupt stacks, the whole
 * observability layer staying observe-only at maximum verbosity,
 * and the cpistack figure being independent of the worker thread
 * count.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "check/check.hh"
#include "check/checkers.hh"
#include "common/pipetrace.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "ref/refsim.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

uint64_t
bucketSum(const SimResult &r)
{
    return std::accumulate(r.cpiCycles.begin(), r.cpiCycles.end(),
                           uint64_t{0});
}

/** The same config sweep the determinism suite covers. */
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

TEST(CpiStack, OooBucketsSumToCycles)
{
    TraceCache traces(kScale);
    for (auto cfg : sweepConfigs()) {
        cfg.cpiStack = true;
        for (const char *prog : {"hydro2d", "nasa7"}) {
            SimResult r = simulateOoo(traces.get(prog), cfg);
            EXPECT_EQ(bucketSum(r), r.cycles)
                << prog << " on " << r.machine;
        }
    }
}

TEST(CpiStack, RefBucketsSumToCyclesAndCommitCountsIssues)
{
    TraceCache traces(kScale);
    RefConfig cfg = makeRefConfig(50);
    cfg.cpiStack = true;
    for (const char *prog : {"hydro2d", "nasa7", "bdna"}) {
        SimResult r = simulateRef(traces.get(prog), cfg);
        EXPECT_EQ(bucketSum(r), r.cycles) << prog;
        // REF issues exactly one instruction per commit cycle.
        EXPECT_EQ(
            r.cpiCycles[static_cast<unsigned>(CpiBucket::Commit)],
            r.instructions)
            << prog;
    }
}

TEST(CpiStack, DisabledLeavesBucketsZero)
{
    TraceCache traces(kScale);
    SimResult ooo = simulateOoo(traces.get("hydro2d"), makeOooConfig());
    SimResult ref = simulateRef(traces.get("hydro2d"), makeRefConfig(50));
    EXPECT_EQ(bucketSum(ooo), 0u);
    EXPECT_EQ(bucketSum(ref), 0u);
}

TEST(CpiStack, CheckerFlagsCorruptStack)
{
    auto violations = [](Cycle cycles, uint64_t first_bucket,
                         uint64_t second_bucket = 40) {
        std::array<uint64_t, kNumCpiBuckets> buckets{};
        buckets[0] = first_bucket;
        buckets[1] = second_bucket;
        check::Registry reg;
        check::Reporter r = reg.reporter("cpi-conservation", cycles);
        check::checkCpiConservation(cycles, buckets, r);
        return reg.violationCount();
    };
    EXPECT_EQ(violations(100, 60), 0u); // 60 + 40 == 100
    EXPECT_EQ(violations(101, 60), 1u); // unattributed cycle
    EXPECT_EQ(violations(99, 60), 1u);  // overcharged cycle
    // A charge that went backwards: the buckets wrap to the right
    // sum, but one of them holds more cycles than the run.
    EXPECT_EQ(violations(100, 105, uint64_t(0) - 5), 1u);
    check::resetProcessViolations();
}

TEST(CpiStack, ObservabilityIsObserveOnly)
{
    // Everything on at once — CPI stack, full audit, live pipeline
    // tracer — must not move a single result field.
    check::resetProcessViolations();
    TraceCache traces(kScale);
    for (auto cfg : sweepConfigs()) {
        for (const char *prog : {"hydro2d", "nasa7"}) {
            const Trace &t = traces.get(prog);
            cfg.cpiStack = false;
            cfg.checkLevel = 0;
            cfg.pipeTracer = nullptr;
            SimResult off = simulateOoo(t, cfg);

            PipeTracer tracer;
            cfg.cpiStack = true;
            cfg.checkLevel = 2;
            cfg.pipeTracer = &tracer;
            SimResult on = simulateOoo(t, cfg);
            cfg.pipeTracer = nullptr;

            EXPECT_EQ(off.cycles, on.cycles) << prog;
            EXPECT_EQ(off.instructions, on.instructions) << prog;
            EXPECT_EQ(off.stallCycles, on.stallCycles) << prog;
            EXPECT_EQ(off.stateCycles, on.stateCycles) << prog;
            EXPECT_EQ(off.traps, on.traps) << prog;
            EXPECT_EQ(off.memRequests, on.memRequests) << prog;
            EXPECT_EQ(bucketSum(off), 0u) << prog;
            EXPECT_EQ(bucketSum(on), on.cycles) << prog;
        }
    }
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
}

TEST(CpiStack, FigureIndependentOfThreadCount)
{
    const FigureDef *fig = findFigure("cpistack");
    ASSERT_NE(fig, nullptr);

    TraceCache traces(kScale);
    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::string one =
        renderFigureText(*fig, fig->fn(serial), traces.scale());
    std::string many =
        renderFigureText(*fig, fig->fn(parallel), traces.scale());
    EXPECT_EQ(one, many);
}
