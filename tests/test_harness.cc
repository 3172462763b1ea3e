/**
 * @file
 * Tests for the experiment harness: the parallel sweep engine
 * (determinism across thread counts, submission-order results,
 * progress callbacks), the shared trace cache (single generation and
 * stable references under concurrency), OOVA_SCALE parsing, and the
 * speedup() degenerate case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/backend.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"

using namespace oova;

namespace
{

constexpr double kTestScale = 0.1;

/** A small but varied batch covering both simulators and IDEAL. */
std::vector<SweepJob>
testBatch(const TraceCache &traces)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : traces.names()) {
        jobs.push_back(refJob(name, makeRefConfig(50)));
        jobs.push_back(oooJob(name, makeOooConfig(16, 16, 50)));
        jobs.push_back(oooJob(name, makeOooConfig(32, 16, 50,
                                                  CommitMode::Late,
                                                  LoadElimMode::SleVle)));
        jobs.push_back(idealJob(name));
    }
    return jobs;
}

} // namespace

TEST(SweepEngine, InlineTraceJobsBypassTheCache)
{
    // Synthetic traces (e.g. the memstride figure's strided kernels)
    // ride through the engine via SweepJob::inlineTrace instead of a
    // TraceCache name lookup.
    Trace t("inline-synthetic");
    for (int i = 0; i < 4; ++i)
        t.push(makeVLoad(vReg(static_cast<uint8_t>(i % 8)), aReg(0),
                         0x1000 + static_cast<Addr>(i) * 0x4000, 8,
                         64));
    auto shared = std::make_shared<const Trace>(std::move(t));

    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    std::vector<SweepJob> jobs = {
        oooTraceJob(shared, makeOooConfig(16, 16, 50)),
        oooTraceJob(shared, makeBankedOooConfig(1, 50)),
    };
    std::vector<SimResult> res = engine.run(jobs);
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].program, "inline-synthetic");
    EXPECT_GT(res[0].cycles, 0u);
    // One bank at a 4-cycle busy time must be slower than the flat
    // bus on back-to-back unit-stride loads.
    EXPECT_GT(res[1].cycles, res[0].cycles);
}

TEST(SweepEngine, SameResultsAtOneAndEightThreads)
{
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);

    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::vector<SimResult> a = serial.run(jobs);
    std::vector<SimResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].program, b[i].program) << "job " << i;
        EXPECT_EQ(a[i].machine, b[i].machine) << "job " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "job " << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << "job " << i;
        EXPECT_EQ(a[i].memRequests, b[i].memRequests) << "job " << i;
        EXPECT_EQ(a[i].stateCycles, b[i].stateCycles) << "job " << i;
    }
}

TEST(SweepEngine, ResultsAlignWithSubmissionOrder)
{
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);
    SweepEngine engine(traces, 4);
    std::vector<SimResult> res = engine.run(jobs);

    ASSERT_EQ(res.size(), jobs.size());
    for (size_t i = 0; i < res.size(); ++i) {
        // Every simulator stamps the trace name; slot i must hold
        // the result of job i's trace no matter which worker ran it.
        EXPECT_EQ(res[i].program, jobs[i].trace) << "job " << i;
        EXPECT_GT(res[i].cycles, 0u) << "job " << i;
    }
    // The batch interleaves machines in a fixed pattern.
    EXPECT_EQ(res[0].machine, "REF");
    EXPECT_EQ(res[3].machine, "IDEAL");
}

TEST(SweepEngine, ZeroThreadsMeansHardwareConcurrency)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 0);
    EXPECT_GE(engine.threads(), 1u);
}

TEST(SweepEngine, ProgressFiresPerJobInProcess)
{
    // --progress from 4 worker threads: one callback per completed
    // job. The done counter is monotone, but callbacks race each
    // other, so the check is on the set of counts: exactly 1..N.
    TraceCache traces(kTestScale);
    std::vector<SweepJob> jobs = testBatch(traces);
    SweepEngine engine(traces,
                       std::make_unique<InProcessBackend>(traces, 4));

    std::mutex mutex;
    std::vector<size_t> seen;
    size_t badTotal = 0;
    engine.setProgress([&](size_t done, size_t total) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(done);
        if (total != jobs.size())
            ++badTotal;
    });

    std::vector<SimResult> res = engine.run(jobs);
    ASSERT_EQ(res.size(), jobs.size());
    ASSERT_EQ(seen.size(), jobs.size());
    std::sort(seen.begin(), seen.end());
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
    EXPECT_EQ(badTotal, 0u);
}

TEST(JobSet, IndicesReadBackAfterRun)
{
    TraceCache traces(kTestScale);
    SweepEngine engine(traces, 2);
    JobSet js;
    size_t a = js.addRef("hydro2d", makeRefConfig(50));
    size_t b = js.addOoo("trfd", makeOooConfig(16, 16, 50));
    size_t c = js.addIdeal("swm256");
    js.run(engine);
    EXPECT_EQ(js[a].program, "hydro2d");
    EXPECT_EQ(js[a].machine, "REF");
    EXPECT_EQ(js[b].program, "trfd");
    EXPECT_EQ(js[c].program, "swm256");
    EXPECT_EQ(js[c].machine, "IDEAL");
}

TEST(TraceCache, GeneratesEachTraceOnceUnderConcurrency)
{
    std::atomic<unsigned> generations{0};
    TraceCache cache(kTestScale,
                     [&](const std::string &name,
                         const GenOptions &opts) {
                         generations.fetch_add(1);
                         return makeBenchmarkTrace(name, opts);
                     });

    const std::vector<std::string> wanted = {"hydro2d", "trfd"};
    constexpr unsigned kThreads = 8;
    std::vector<const Trace *> seen(kThreads * wanted.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (size_t n = 0; n < wanted.size(); ++n)
                seen[t * wanted.size() + n] = &cache.get(wanted[n]);
        });
    for (auto &t : pool)
        t.join();

    // One generation per distinct trace, not per caller...
    EXPECT_EQ(generations.load(), wanted.size());
    // ...and every caller got the same stable object.
    for (unsigned t = 0; t < kThreads; ++t)
        for (size_t n = 0; n < wanted.size(); ++n)
            EXPECT_EQ(seen[t * wanted.size() + n],
                      seen[n]);
}

TEST(TraceCache, ReferencesStableAcrossLookups)
{
    TraceCache cache(kTestScale);
    const Trace *first = &cache.get("hydro2d");
    // Filling the rest of the cache must not move earlier entries.
    for (const auto &name : cache.names())
        cache.get(name);
    EXPECT_EQ(&cache.get("hydro2d"), first);
    EXPECT_EQ(cache.get("hydro2d").name(), "hydro2d");
}

TEST(TraceCache, WorkloadsWrapperSharesSemantics)
{
    Workloads w(kTestScale);
    const Trace *first = &w.get("trfd");
    for (const auto &name : w.names())
        w.get(name);
    EXPECT_EQ(&w.get("trfd"), first);
    EXPECT_EQ(w.scale(), kTestScale);
}

class EnvScaleTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        unsetenv("OOVA_SCALE");
    }

    double
    withEnv(const char *value)
    {
        setenv("OOVA_SCALE", value, 1);
        return envTraceScale();
    }
};

TEST_F(EnvScaleTest, UnsetDefaultsToOne)
{
    unsetenv("OOVA_SCALE");
    EXPECT_EQ(envTraceScale(), 1.0);
}

TEST_F(EnvScaleTest, AcceptsPositiveNumbers)
{
    EXPECT_EQ(withEnv("0.5"), 0.5);
    EXPECT_EQ(withEnv("2"), 2.0);
    EXPECT_EQ(withEnv("1e-1"), 0.1);
}

TEST_F(EnvScaleTest, RejectsTrailingGarbage)
{
    // atof would silently have parsed these as 0.5 / 1.0.
    EXPECT_EQ(withEnv("0.5x"), 1.0);
    EXPECT_EQ(withEnv("1.0 extra"), 1.0);
}

TEST_F(EnvScaleTest, RejectsNonNumbersAndNonPositive)
{
    EXPECT_EQ(withEnv(""), 1.0);
    EXPECT_EQ(withEnv("abc"), 1.0);
    EXPECT_EQ(withEnv("-1"), 1.0);
    EXPECT_EQ(withEnv("0"), 1.0);
    EXPECT_EQ(withEnv("nan"), 1.0);
    EXPECT_EQ(withEnv("inf"), 1.0);
}

TEST(Speedup, ZeroCyclesIsNaNNotZero)
{
    SimResult base, broken;
    base.cycles = 100;
    broken.cycles = 0;
    EXPECT_TRUE(std::isnan(speedup(base, broken)));
    broken.cycles = 50;
    EXPECT_EQ(speedup(base, broken), 2.0);
}

TEST(FigureRegistry, AllFiguresRegisteredAndFindable)
{
    const auto &registry = figureRegistry();
    EXPECT_EQ(registry.size(), 23u);
    for (const FigureDef &fig : registry)
        EXPECT_EQ(findFigure(fig.name), &fig) << fig.name;
    EXPECT_NE(findFigure("occupancy"), nullptr);
    EXPECT_NE(findFigure("cpistack"), nullptr);
    EXPECT_NE(findFigure("fig5"), nullptr);
    EXPECT_NE(findFigure("memtlb"), nullptr);
    // Figures are found by short name only.
    EXPECT_EQ(findFigure("fig5_speedup"), nullptr);
    EXPECT_EQ(findFigure("nope"), nullptr);
}

namespace
{

/** Drive parseCommonFlag over a whole argv the way the drivers do. */
int
parseAll(std::vector<const char *> args, FigureOptions &opts)
{
    args.insert(args.begin(), "prog");
    int argc = static_cast<int>(args.size());
    char **argv = const_cast<char **>(args.data());
    for (int i = 1; i < argc; ++i) {
        int r = parseCommonFlag(argc, argv, i, opts);
        if (r != 1)
            return r;
    }
    return 1;
}

} // namespace

TEST(FigureFlags, AcceptsWellFormedValues)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads", "8", "--json", "--scale", "0.5"},
                       opts),
              1);
    EXPECT_EQ(opts.threads, 8u);
    EXPECT_TRUE(opts.json);
    EXPECT_EQ(opts.scale, 0.5);
}

TEST(FigureFlags, RejectsMalformedThreads)
{
    // "-3" wraps to a huge unsigned through strtoul; "4x" has
    // trailing garbage; a missing value must not read past argv.
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads", "-3"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "4x"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "999999999999"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads"}, opts), -1);
    EXPECT_EQ(parseAll({"--threads", "0"}, opts), 1)
        << "0 legitimately means hardware concurrency";
}

TEST(FigureFlags, RejectsMalformedScale)
{
    // Mirrors the full-string envTraceScale() validation: the value
    // must parse in its entirety as a positive finite number, so a
    // typo can never silently run a sweep at the wrong scale.
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--scale", "-2"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "0"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "abc"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "nan"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "inf"}, opts), -1);
    EXPECT_EQ(parseAll({"--scale", "1e999"}, opts), -1)
        << "overflow to infinity is rejected, not accepted";
    EXPECT_EQ(parseAll({"--scale", "0.5x"}, opts), -1)
        << "trailing garbage is rejected, not truncated";
    EXPECT_EQ(parseAll({"--scale", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--scale"}, opts), -1);
    // And the smallest legal values still work.
    EXPECT_EQ(parseAll({"--scale", "1e-3"}, opts), 1);
    EXPECT_EQ(opts.scale, 1e-3);
}

TEST(FigureFlags, UnknownFlagIsNotConsumed)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--frobnicate"}, opts), 0);
}

TEST(FigureFlags, ParsesSweepFarmFlags)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads", "4", "--store", "/tmp/st",
                        "--store-stats"},
                       opts),
              1);
    EXPECT_EQ(opts.threads, 4u);
    EXPECT_EQ(opts.storeDir, "/tmp/st");
    EXPECT_TRUE(opts.storeStats);

    EXPECT_EQ(parseAll({"--store"}, opts), -1);
    EXPECT_EQ(parseAll({"--store", ""}, opts), -1);
}

TEST(FigureFlags, ParsesTelemetryFlags)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--store", "/tmp/st", "--store-max-mb", "64",
                        "--stats", "out.txt",
                        "--perfetto=trace.json"},
                       opts),
              1);
    EXPECT_EQ(opts.storeMaxMb, 64u);
    EXPECT_EQ(opts.statsPath, "out.txt");
    EXPECT_EQ(opts.perfettoPath, "trace.json");
    EXPECT_TRUE(validateFigureOptions(opts));

    // A cap of zero MiB would mean "evict everything": rejected, as
    // are the usual malformed spellings.
    EXPECT_EQ(parseAll({"--store-max-mb", "0"}, opts), -1);
    EXPECT_EQ(parseAll({"--store-max-mb", "4x"}, opts), -1);
    EXPECT_EQ(parseAll({"--store-max-mb"}, opts), -1);
    EXPECT_EQ(parseAll({"--stats", ""}, opts), -1);
    EXPECT_EQ(parseAll({"--stats"}, opts), -1);
    EXPECT_EQ(parseAll({"--perfetto="}, opts), -1);

    // Capping a store that was never configured is a cross-flag
    // error, like --store-stats without --store.
    FigureOptions capOnly;
    ASSERT_EQ(parseAll({"--store-max-mb", "8"}, capOnly), 1);
    EXPECT_FALSE(validateFigureOptions(capOnly));
}

TEST(FigureFlags, AcceptsEqualsSpellings)
{
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--threads=8", "--scale=0.5",
                        "--store=/tmp/st2"},
                       opts),
              1);
    EXPECT_EQ(opts.threads, 8u);
    EXPECT_EQ(opts.scale, 0.5);
    EXPECT_EQ(opts.storeDir, "/tmp/st2");
    EXPECT_EQ(parseAll({"--threads="}, opts), -1);
    EXPECT_EQ(parseAll({"--store="}, opts), -1);
}

TEST(FigureFlags, ValidateRejectsAmbiguousCombinations)
{
    FigureOptions threadsOnly;
    ASSERT_EQ(parseAll({"--threads", "2"}, threadsOnly), 1);
    EXPECT_TRUE(validateFigureOptions(threadsOnly));

    // --store-stats without a store has nothing to report on.
    FigureOptions statsOnly;
    ASSERT_EQ(parseAll({"--store-stats"}, statsOnly), 1);
    EXPECT_FALSE(validateFigureOptions(statsOnly));

    FigureOptions storeAndStats;
    ASSERT_EQ(parseAll({"--store", "/tmp/st", "--store-stats"},
                       storeAndStats),
              1);
    EXPECT_TRUE(validateFigureOptions(storeAndStats));
}

TEST(FigureFlags, SupervisionAndFsyncNeedTheirSubsystem)
{
    // The supervision flags tuned a forked worker supervisor that no
    // longer exists: they are unknown flags now, not silently inert.
    FigureOptions opts;
    EXPECT_EQ(parseAll({"--job-timeout-ms", "100"}, opts), 0);
    EXPECT_EQ(parseAll({"--max-retries", "1"}, opts), 0);
    EXPECT_EQ(parseAll({"--workers", "2"}, opts), 0);

    // --store-fsync without --store has nothing to sync.
    FigureOptions fsyncOnly;
    ASSERT_EQ(parseAll({"--store-fsync"}, fsyncOnly), 1);
    EXPECT_FALSE(validateFigureOptions(fsyncOnly));

    FigureOptions fsyncStore;
    ASSERT_EQ(parseAll({"--store", "/tmp/st", "--store-fsync"},
                       fsyncStore),
              1);
    EXPECT_TRUE(fsyncStore.storeFsync);
    EXPECT_TRUE(validateFigureOptions(fsyncStore));
}

TEST(FigureRegistry, FigureOutputIdenticalAcrossThreadCounts)
{
    const FigureDef *fig = findFigure("fig6");
    ASSERT_NE(fig, nullptr);
    TraceCache traces(kTestScale);
    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    std::string a =
        renderFigureText(*fig, fig->fn(serial), traces.scale());
    std::string b =
        renderFigureText(*fig, fig->fn(parallel), traces.scale());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("== Figure 6"), std::string::npos);
}

TEST(SimResultJsonTest, SurfacesEveryCounter)
{
    SimResult res;
    res.program = "swm\"256";
    res.machine = "OOOVA-16";
    res.cycles = 1234;
    res.instructions = 617;
    res.memBusyCycles = 600;
    res.memRequests = 17;
    res.tlbMisses = 4;
    res.tlbIndexedMisses = 3;
    res.vectorLoadsEliminated = 5;
    res.stallCycles[static_cast<unsigned>(StallCause::Ports)] = 9;
    res.stateCycles[0] = 11;

    std::string js = res.toJson();
    // Structure: one object, quoted string values escaped.
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.substr(js.size() - 2), "}\n");
    EXPECT_NE(js.find("\"program\": \"swm\\\"256\""),
              std::string::npos);
    EXPECT_NE(js.find("\"machine\": \"OOOVA-16\""),
              std::string::npos);
    // Plain counters, including ones left at zero.
    EXPECT_NE(js.find("\"cycles\": 1234"), std::string::npos);
    EXPECT_NE(js.find("\"instructions\": 617"), std::string::npos);
    EXPECT_NE(js.find("\"memRequests\": 17"), std::string::npos);
    EXPECT_NE(js.find("\"tlbIndexedMisses\": 3"), std::string::npos);
    EXPECT_NE(js.find("\"vectorLoadsEliminated\": 5"),
              std::string::npos);
    EXPECT_NE(js.find("\"traps\": 0"), std::string::npos);
    // Keyed breakdowns use their human-readable names.
    EXPECT_NE(js.find("\"stallCycles\""), std::string::npos);
    EXPECT_NE(js.find("\"ports\": 9"), std::string::npos);
    EXPECT_NE(js.find("\"stateCycles\""), std::string::npos);
    // Derived accessors are precomputed for consumers.
    EXPECT_NE(js.find("\"ipc\": 0.5"), std::string::npos);
    EXPECT_NE(js.find("\"portIdleFraction\""), std::string::npos);
    EXPECT_NE(js.find("\"memStridedConflicts\": 0"),
              std::string::npos);
    EXPECT_NE(js.find("\"stridedTlbMisses\": 1"), std::string::npos);
}
