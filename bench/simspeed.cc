/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): how many
 * simulated instructions per second each model sustains, plus the
 * cost of trace generation and of a whole sweep batch through the
 * parallel sweep engine. These guard against performance regressions
 * in the simulators and in the sweep path every figure runs on.
 * (For a quick table without google-benchmark, run
 * `oova_bench simspeed`.)
 */

#include <benchmark/benchmark.h>

#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

const TraceCache &
sharedTraces()
{
    static TraceCache cache(0.5);
    return cache;
}

const Trace &
cachedTrace()
{
    return sharedTraces().get("hydro2d");
}

} // namespace

static void
BM_TraceGeneration(benchmark::State &state)
{
    GenOptions o;
    o.scale = 0.25;
    size_t n = 0;
    for (auto _ : state) {
        Trace t = makeBenchmarkTrace("swm256", o);
        n = t.size();
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TraceGeneration);

static void
BM_RefSim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    for (auto _ : state) {
        SimResult r = simulateRef(t, RefConfig{});
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_RefSim);

static void
BM_OooSim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    OooConfig cfg;
    cfg.numPhysVRegs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        SimResult r = simulateOoo(t, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_OooSim)->Arg(16)->Arg(64);

static void
BM_OooSimLoadElim(benchmark::State &state)
{
    const Trace &t = cachedTrace();
    OooConfig cfg;
    cfg.numPhysVRegs = 32;
    cfg.commit = CommitMode::Late;
    cfg.loadElim = LoadElimMode::SleVle;
    for (auto _ : state) {
        SimResult r = simulateOoo(t, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_OooSimLoadElim);

/**
 * A whole figure-sized batch through the sweep engine: all ten
 * benchmarks on the default OOOVA, with the thread count as the
 * benchmark argument.
 */
static void
BM_SweepEngine(benchmark::State &state)
{
    const TraceCache &traces = sharedTraces();
    SweepEngine engine(traces,
                       static_cast<unsigned>(state.range(0)));
    std::vector<SweepJob> jobs;
    uint64_t elems = 0;
    for (const auto &name : traces.names()) {
        jobs.push_back(oooJob(name, makeOooConfig(16, 16, 50)));
        // Without a key every iteration simulates; with one, the
        // engine would copy its first iteration's results.
        jobs.back().configKey.clear();
        elems += traces.get(name).size();
    }
    for (auto _ : state) {
        std::vector<SimResult> res = engine.run(jobs);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * elems));
}
// Real time, not CPU time: the engine's worker threads do the work,
// so the main thread's CPU time would overstate throughput wildly.
BENCHMARK(BM_SweepEngine)->Arg(1)->Arg(4)->UseRealTime();

BENCHMARK_MAIN();
