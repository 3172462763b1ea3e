/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): how many
 * simulated instructions per second each model sustains, plus the
 * cost of trace generation and of a whole sweep batch through the
 * parallel sweep engine. These guard against performance regressions
 * in the simulators and in the sweep path every figure runs on. The
 * mem layer gets its own rows: each memory model's reserve() and the
 * TLB's translation on a fixed stream mix, in elements per second.
 * BM_HostCanary touches no oova code at all; scripts/bench_speed.sh
 * divides by it to compare numbers across hosts.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "mem/memsystem.hh"
#include "mem/tlb.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

/** One stream of the mem-layer mix: strided, or a gather. */
struct Stream
{
    Addr addr = 0;
    int64_t stride = 0;
    unsigned elems = 0;
    std::vector<Addr> elemAddrs; ///< non-empty for a gather
};

/**
 * The fixed mem-layer stream mix, drawn from a seeded generator:
 * strided streams of 64 or 128 elements over a 32 MiB region at unit,
 * two-word, odd, line-sized, page-sized and negative strides; and
 * 64-element gathers whose indices step oddly through a 64-word
 * window (a permutation), all fall on one bank, or are uniform random
 * over 8 MiB.
 */
const std::vector<Stream> &
memStreams(bool gathers)
{
    static const auto mixes = [] {
        std::array<std::vector<Stream>, 2> m;
        Rng rng(0x6d656d);
        auto word = [&rng](uint64_t words) {
            return rng.uniform(0, words - 1) * 8;
        };
        const int64_t strides[] = {8, 8, 16, 24, 64, 4096, -8};
        for (int i = 0; i < 512; ++i) {
            Stream s;
            s.addr = (Addr{1} << 25) + word(1u << 22);
            s.stride = strides[rng.uniform(0, std::size(strides) - 1)];
            s.elems = rng.chance(0.5) ? 64 : 128;
            m[0].push_back(s);
        }
        for (int i = 0; i < 256; ++i) {
            Stream s;
            s.elems = 64;
            Addr base = (Addr{1} << 25) + word(1u << 20);
            for (unsigned e = 0; e < s.elems; ++e) {
                switch (i % 3) {
                case 0: // an odd step through a 64-word window
                    s.elemAddrs.push_back(base + (e * 37 % 64) * 8);
                    break;
                case 1: // 8 words apart: every element on one bank
                    s.elemAddrs.push_back(base + e * 64);
                    break;
                default: // uniform random over 8 MiB
                    s.elemAddrs.push_back((Addr{1} << 25) +
                                          word(1u << 20));
                }
            }
            m[1].push_back(std::move(s));
        }
        return m;
    }();
    return mixes[gathers ? 1 : 0];
}

uint64_t
streamElems(const std::vector<Stream> &streams)
{
    uint64_t n = 0;
    for (const Stream &s : streams)
        n += s.elems;
    return n;
}

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

/**
 * One memory model's reserve() over the fixed stream mix, from a
 * fresh model each iteration so every iteration does the same work:
 * range(0) picks banked (8 banks) or cached (32 KiB, 8 MSHRs),
 * range(1) strided streams or gathers. Items are elements.
 */
static void
BM_MemReserve(benchmark::State &state)
{
    MemConfig cfg = state.range(0) == 0 ? makeBankedMem(8)
                                        : makeCachedMem(32 * 1024, 8);
    const std::vector<Stream> &streams = memStreams(state.range(1) != 0);
    for (auto _ : state) {
        auto mem = makeMemorySystem(cfg, 50);
        Cycle t = 0;
        for (const Stream &s : streams) {
            MemAccess a = s.elemAddrs.empty()
                              ? mem->reserve(t, s.addr, s.stride, s.elems)
                              : mem->reserve(t, s.elemAddrs);
            t = a.start;
        }
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * streamElems(streams)));
}
BENCHMARK(BM_MemReserve)
    ->ArgNames({"cached", "gather"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/**
 * Address translation of the whole mix through a fresh 16-entry TLB
 * (4 KiB pages) each iteration: the page sequence of every stream
 * (one page number per page crossed when strided, one per element
 * when gathered) and its lookups. Items are elements.
 */
static void
BM_TlbTranslate(benchmark::State &state)
{
    std::vector<const Stream *> mix;
    for (bool g : {false, true})
        for (const Stream &s : memStreams(g))
            mix.push_back(&s);
    uint64_t elems = streamElems(memStreams(false)) +
                     streamElems(memStreams(true));
    std::vector<Addr> pages;
    for (auto _ : state) {
        Tlb tlb(makeTlb(16));
        uint64_t stall = 0;
        for (const Stream *s : mix) {
            bool indexed = !s->elemAddrs.empty();
            if (indexed)
                tlb.indexedPages(s->elemAddrs, pages);
            else
                tlb.stridedPages(s->addr, s->stride, s->elems, pages);
            stall += tlb.translate(pages, indexed);
        }
        benchmark::DoNotOptimize(stall);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * elems));
}
BENCHMARK(BM_TlbTranslate);

/**
 * The host-speed canary: xorshift-addressed read-modify-writes over a
 * 2 MiB table, no oova code, so its rate moves with the host and
 * never with the change under test. Items are table updates.
 */
static void
BM_HostCanary(benchmark::State &state)
{
    std::vector<uint64_t> table(uint64_t{1} << 18, 1);
    constexpr int kUpdates = 1 << 20;
    uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (auto _ : state) {
        for (int i = 0; i < kUpdates; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint64_t &slot = table[x & (table.size() - 1)];
            slot = slot * 5 + acc;
            acc += slot >> 3;
        }
        benchmark::DoNotOptimize(acc);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kUpdates));
}
BENCHMARK(BM_HostCanary);

BENCHMARK_MAIN();
