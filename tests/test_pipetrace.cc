/**
 * @file
 * Pipeline-tracer tests: every in-limit instruction gets one
 * O3PipeView record, the record limit bounds the file, squashed
 * (trap-replayed) instructions are marked with a zero retire tick,
 * the trace text is independent of the sweep engine's thread count,
 * and attaching a tracer never changes simulated timing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/check.hh"
#include "common/pipetrace.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

size_t
countLines(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1))
        ++n;
    return n;
}


} // namespace

TEST(PipeTrace, OneRecordPerInstructionWithinLimit)
{
    TraceCache traces(kScale);
    const Trace &t = traces.get("hydro2d");
    PipeTracer tracer;
    OooConfig cfg = makeOooConfig();
    cfg.pipeTracer = &tracer;
    SimResult r = simulateOoo(t, cfg);
    tracer.finish();

    // No traps on this run, so fetch count equals instruction
    // count: one record per instruction, none squashed.
    ASSERT_EQ(r.traps, 0u);
    EXPECT_EQ(tracer.recorded(), r.instructions);
    EXPECT_EQ(countLines(tracer.str(), "O3PipeView:fetch:"),
              r.instructions);
    EXPECT_EQ(countLines(tracer.str(), "O3PipeView:retire:"),
              r.instructions);
    EXPECT_EQ(countLines(tracer.str(), "O3PipeView:retire:0:"), 0u);
}

TEST(PipeTrace, LimitBoundsTheTrace)
{
    TraceCache traces(kScale);
    PipeTracer tracer(100);
    OooConfig cfg = makeOooConfig();
    cfg.pipeTracer = &tracer;
    simulateOoo(traces.get("hydro2d"), cfg);
    tracer.finish();
    EXPECT_EQ(tracer.recorded(), 100u);
    EXPECT_EQ(countLines(tracer.str(), "O3PipeView:fetch:"), 100u);
}

TEST(PipeTrace, SquashedReplayGetsZeroRetireTick)
{
    TraceCache traces(kScale);
    const Trace &t = traces.get("hydro2d");

    // Every miss of a software-refilled TLB traps under late commit.
    PipeTracer tracer;
    OooConfig cfg = makeTlbOooConfig(64, 4096, 50, CommitMode::Late,
                                     TlbRefill::SoftwareTrap);
    cfg.checkLevel = 2;
    cfg.pipeTracer = &tracer;
    check::resetProcessViolations();
    SimResult r = simulateOoo(t, cfg);
    tracer.finish();
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();

    ASSERT_GE(r.traps, 1u);
    EXPECT_EQ(r.instructions, t.size());
    // Each squash killed at least the faulting instruction; replays
    // get fresh records, so the trace holds more than one record
    // per committed instruction and at least one zero retire tick
    // per trap.
    EXPECT_GT(tracer.recorded(), r.instructions);
    EXPECT_GE(countLines(tracer.str(), "O3PipeView:retire:0:"), r.traps);
}

TEST(PipeTrace, IndependentOfSweepThreadCount)
{
    // A traced job inside a parallel sweep must produce the same
    // bytes as in a serial one, regardless of what runs alongside.
    TraceCache traces(kScale);
    auto traceWith = [&](unsigned threads, PipeTracer &tracer) {
        std::vector<SweepJob> jobs;
        for (const char *prog : {"nasa7", "swm256", "trfd"})
            jobs.push_back(oooJob(prog, makeOooConfig()));
        OooConfig cfg = makeOooConfig();
        cfg.pipeTracer = &tracer;
        jobs.push_back(oooJob("hydro2d", cfg));
        SweepEngine engine(traces, threads);
        engine.run(jobs);
        tracer.finish();
    };
    PipeTracer one, many;
    traceWith(1, one);
    traceWith(8, many);
    EXPECT_GT(one.recorded(), 0u);
    EXPECT_EQ(one.str(), many.str());
}

TEST(PipeTrace, TracingIsObserveOnly)
{
    TraceCache traces(kScale);
    const Trace &t = traces.get("bdna");
    OooConfig cfg = makeOooConfig();
    SimResult off = simulateOoo(t, cfg);
    PipeTracer tracer;
    cfg.pipeTracer = &tracer;
    SimResult on = simulateOoo(t, cfg);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.instructions, on.instructions);
    EXPECT_EQ(off.stallCycles, on.stallCycles);
}
