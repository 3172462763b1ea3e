/**
 * @file
 * Sweep-farm result store tests: the exact toJson()/fromJson()
 * round trip the store persists records through, key stability and
 * sensitivity, hit/miss/corruption behaviour of the on-disk store,
 * concurrent writers, and warm-vs-cold equality through the
 * StoreBackend.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "harness/backend.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"
#include "trace/trace_io.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

/** A result with every stored field set to a distinct value. */
SimResult
fullyPopulatedResult()
{
    SimResult r;
    r.program = "swm\"2\\56";   // exercises string escaping
    r.machine = "OOOVA-16\n/t"; // and control-character escaping
    r.cycles = 101;
    r.instructions = 103;
    for (size_t i = 0; i < r.stateCycles.size(); ++i)
        r.stateCycles[i] = 200 + i;
    r.fu1BusyCycles = 301;
    r.fu2BusyCycles = 302;
    r.memBusyCycles = 303;
    r.memRequests = 304;
    r.memBankConflicts = 305;
    r.memConflictCycles = 306;
    r.memIndexedConflicts = 105;
    r.memIndexedConflictCycles = 308;
    r.cacheHits = 309;
    r.cacheMisses = 310;
    r.mshrStallCycles = 311;
    r.tlbHits = 312;
    r.tlbMisses = 313;
    r.tlbIndexedMisses = 114;
    r.tlbMissCycles = 315;
    r.vectorLoadsEliminated = 316;
    r.scalarLoadsEliminated = 317;
    r.branchMispredicts = 318;
    r.renameStallCycles = 319;
    r.robStallCycles = 320;
    r.queueStallCycles = 321;
    r.traps = 322;
    for (size_t i = 0; i < r.stallCycles.size(); ++i)
        r.stallCycles[i] = 400 + i;
    for (size_t i = 0; i < r.cpiCycles.size(); ++i)
        r.cpiCycles[i] = 500 + i;
    for (size_t i = 0; i < r.occupancy.size(); ++i) {
        StatDistribution &d = r.occupancy[i];
        d.width = 2 + i;
        d.samples = 600 + i;
        d.sum = 700 + i;
        d.sumSquares = 800 + i;
        d.minValue = 1 + i;
        d.maxValue = 90 + i;
        for (size_t b = 0; b < d.buckets.size(); ++b)
            d.buckets[b] = 1000 + i * d.buckets.size() + b;
        StatTimeSeries &ts = r.occupancyTs[i];
        ts.epochLen = 1ull << i;
        ts.total = 900 + i;
        for (size_t e = 0; e < ts.sums.size(); ++e)
            ts.sums[e] = 2000 + i * ts.sums.size() + e;
    }
    return r;
}

/** Field-by-field equality of every stored SimResult field. */
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
    EXPECT_EQ(a.cpiCycles, b.cpiCycles);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.occupancyTs, b.occupancyTs);
}

/** Fresh per-test store directory under the build tree. */
std::string
makeStoreDir(const char *tag)
{
    std::string dir =
        csprintf(".teststore-%s-%d", tag, static_cast<int>(getpid()));
    // Each test uses a distinct tag, so collisions only come from a
    // previous crashed run of the same test; start clean anyway.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

} // namespace

// ------------------------------------------------- JSON round trip

TEST(SimResultRoundTrip, EveryFieldSurvivesExactly)
{
    SimResult in = fullyPopulatedResult();
    SimResult out;
    ASSERT_TRUE(SimResult::fromJson(in.toJson(), out));
    expectSameResult(in, out);
    // Integer-only storage means the reserialization is bit-exact,
    // which is what makes warm-store figure output byte-identical.
    EXPECT_EQ(in.toJson(), out.toJson());
}

TEST(SimResultRoundTrip, DefaultConstructedSurvives)
{
    SimResult in;
    SimResult out;
    ASSERT_TRUE(SimResult::fromJson(in.toJson(), out));
    expectSameResult(in, out);
}

TEST(SimResultRoundTrip, RejectsMalformedInput)
{
    SimResult out;
    std::string good = fullyPopulatedResult().toJson();

    EXPECT_FALSE(SimResult::fromJson("", out));
    EXPECT_FALSE(SimResult::fromJson("not json at all", out));
    // Truncation anywhere must fail, never yield a partial record.
    EXPECT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() - 3), out));
    // Trailing garbage after the closing brace.
    EXPECT_FALSE(SimResult::fromJson(good + "x", out));
    // A missing required field (drop "cycles" wholesale).
    std::string dropped = good;
    size_t at = dropped.find("\"cycles\"");
    ASSERT_NE(at, std::string::npos);
    size_t end = dropped.find('\n', at);
    dropped.erase(at, end - at + 1);
    EXPECT_FALSE(SimResult::fromJson(dropped, out));
    // An unknown key: likely a newer schema that forgot to bump the
    // version; must be a clean parse failure, not silent tolerance.
    std::string extra = good;
    at = extra.find("\"cycles\"");
    extra.insert(at, "\"mysteryCounter\": 7,\n  ");
    EXPECT_FALSE(SimResult::fromJson(extra, out));
}

TEST(SimResultRoundTrip, RejectsForeignSchemaVersion)
{
    SimResult in = fullyPopulatedResult();
    std::string js = in.toJson();
    std::string tag =
        csprintf("\"resultSchemaVersion\": %d",
                 SimResult::kResultSchemaVersion);
    size_t at = js.find(tag);
    ASSERT_NE(at, std::string::npos);
    std::string other =
        js.substr(0, at) +
        csprintf("\"resultSchemaVersion\": %d",
                 SimResult::kResultSchemaVersion + 1) +
        js.substr(at + tag.size());
    SimResult out;
    EXPECT_FALSE(SimResult::fromJson(other, out));
}

TEST(SimResultRoundTrip, FailedParseLeavesOutputUntouched)
{
    SimResult out = fullyPopulatedResult();
    SimResult reference = fullyPopulatedResult();
    std::string good = fullyPopulatedResult().toJson();
    ASSERT_FALSE(
        SimResult::fromJson(good.substr(0, good.size() - 3), out));
    expectSameResult(reference, out);
}

// ------------------------------------------------------------ keys

TEST(ResultStoreKey, StableAndSensitive)
{
    std::string base = ResultStore::makeKey(0x1234, "OOO/v1|x", 0.25);
    EXPECT_EQ(base.size(), 32u);
    // Deterministic: same inputs, same key, every time.
    EXPECT_EQ(base, ResultStore::makeKey(0x1234, "OOO/v1|x", 0.25));
    // Every key ingredient moves the key.
    EXPECT_NE(base, ResultStore::makeKey(0x1235, "OOO/v1|x", 0.25));
    EXPECT_NE(base, ResultStore::makeKey(0x1234, "OOO/v1|y", 0.25));
    EXPECT_NE(base, ResultStore::makeKey(0x1234, "OOO/v1|x", 0.5));
}

TEST(ResultStoreKey, ConfigKeyCoversResultAffectingKnobs)
{
    OooConfig a = makeOooConfig();
    OooConfig b = makeOooConfig();
    EXPECT_EQ(sweepConfigKey(a), sweepConfigKey(b));

    // Knobs that change results must change the key...
    b.cpiStack = true;
    EXPECT_NE(sweepConfigKey(a), sweepConfigKey(b));
    b = makeOooConfig();
    b.lat.memLatency = 51;
    EXPECT_NE(sweepConfigKey(a), sweepConfigKey(b));
    b = makeOooConfig();
    b.mem.tlb = makeTlb(64);
    EXPECT_NE(sweepConfigKey(a), sweepConfigKey(b));

    // ...while the observe-only audit level must not: forcing the
    // audit on is exactly how the determinism suite proves results
    // are unchanged, so it shares the cache line with audit-off runs.
    b = makeOooConfig();
    b.checkLevel = 2;
    EXPECT_EQ(sweepConfigKey(a), sweepConfigKey(b));

    // REF and OOOVA keys can never collide.
    EXPECT_NE(sweepConfigKey(RefConfig{}),
              sweepConfigKey(OooConfig{}));
}

TEST(ResultStoreKey, PipeTracedJobsAreUncacheable)
{
    OooConfig cfg = makeOooConfig();
    EXPECT_FALSE(oooJob("hydro2d", cfg).configKey.empty());
    PipeTracer tracer(16);
    cfg.pipeTracer = &tracer;
    EXPECT_TRUE(oooJob("hydro2d", cfg).configKey.empty());
}

TEST(ResultStoreKey, TraceContentHashTracksContent)
{
    TraceCache a(kScale);
    TraceCache b(kScale);
    // Same generator inputs, same bytes, same hash — across caches.
    EXPECT_EQ(a.contentHash("hydro2d"), b.contentHash("hydro2d"));
    EXPECT_EQ(a.contentHash("hydro2d"), a.contentHash("hydro2d"));
    EXPECT_NE(a.contentHash("hydro2d"), a.contentHash("nasa7"));
    // A different scale generates a different trace.
    TraceCache half(kScale * 0.5);
    EXPECT_NE(a.contentHash("hydro2d"), half.contentHash("hydro2d"));
}

// ----------------------------------------------------------- store

TEST(ResultStore, RoundTripHitMatchesStoredResult)
{
    ResultStore store(makeStoreDir("roundtrip"));
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0xabcd, "cfg", 0.25);

    SimResult out;
    EXPECT_FALSE(store.load(key, out)); // cold: miss
    store.store(key, in);
    ASSERT_TRUE(store.load(key, out)); // warm: hit
    expectSameResult(in, out);

    StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_GT(s.bytesWritten, 0u);
    EXPECT_EQ(s.bytesRead, s.bytesWritten);
}

TEST(ResultStore, CorruptAndMismatchedEntriesAreQuarantined)
{
    std::string dir = makeStoreDir("corrupt");
    ResultStore store(dir);
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0xabcd, "cfg", 0.25);
    store.store(key, in);
    std::string path = dir + "/" + key + ".json";
    std::string badPath = dir + "/" + key + ".bad";

    // Truncated mid-record: a miss, and the evidence is preserved —
    // the entry moves to <key>.bad instead of staying behind as a
    // perpetual parse failure.
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string body = buf.str();
        std::ofstream os(path,
                         std::ios::binary | std::ios::trunc);
        os.write(body.data(),
                 static_cast<std::streamsize>(body.size() / 2));
    }
    SimResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(badPath));

    // Re-storing heals the key: the next load is a clean hit again.
    store.store(key, in);
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);

    // A record stored under a different key (file renamed by hand,
    // or a header/key mismatch from a foreign store version): a
    // quarantined miss too.
    std::string otherKey = ResultStore::makeKey(0xabce, "cfg", 0.25);
    std::string otherPath = dir + "/" + otherKey + ".json";
    ASSERT_EQ(std::rename(path.c_str(), otherPath.c_str()), 0);
    EXPECT_FALSE(store.load(otherKey, out));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/" + otherKey + ".bad"));

    // Plain garbage: quarantined miss.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "OOVA-RESULT but not really\n{]";
    }
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.stats().quarantined, 3u);

    // A genuinely absent entry is a plain miss: nothing to preserve,
    // nothing counted.
    std::string coldKey = ResultStore::makeKey(0xabcf, "cfg", 0.25);
    EXPECT_FALSE(store.load(coldKey, out));
    EXPECT_EQ(store.stats().quarantined, 3u);
}

TEST(ResultStore, TornIndexTailIsRepairedAndTolerated)
{
    std::string dir = makeStoreDir("tornindex");
    std::string k1, k2;
    {
        ResultStore store(dir);
        SimResult in = fullyPopulatedResult();
        k1 = ResultStore::makeKey(21, "cfg", 0.25);
        k2 = ResultStore::makeKey(22, "cfg", 0.25);
        store.store(k1, in);
        store.store(k2, in);
    }
    // Tear the tail the way a killed appender would: drop the last
    // line's second half, newline included.
    std::string idxPath = dir + "/index.log";
    {
        std::ifstream is(idxPath, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string body = buf.str();
        size_t lastLine = body.rfind('\n', body.size() - 2) + 1;
        size_t keep = lastLine + (body.size() - lastLine) / 2;
        std::ofstream os(idxPath,
                         std::ios::binary | std::ios::trunc);
        os.write(body.data(), static_cast<std::streamsize>(keep));
    }

    // Reopening repairs the tail (terminates the partial line) and
    // everything still works: both entries load, and the cap's
    // index replay does not trip over the torn record.
    ResultStore store(dir);
    SimResult out;
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    {
        std::ifstream is(idxPath, std::ios::binary | std::ios::ate);
        ASSERT_GT(is.tellg(), 0);
        is.seekg(-1, std::ios::end);
        char last = '\0';
        is.get(last);
        EXPECT_EQ(last, '\n');
    }
    store.setMaxBytes(1); // force a replay-driven eviction pass
    store.store(ResultStore::makeKey(23, "cfg", 0.25),
                fullyPopulatedResult());
    EXPECT_GT(store.stats().evictions, 0u);
}

TEST(ResultStore, FsyncRoundTripsUnchanged)
{
    ResultStore store(makeStoreDir("fsync"));
    store.setFsync(true);
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(31, "cfg", 0.25);
    store.store(key, in);
    SimResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);
}

TEST(ResultStore, ConcurrentWritersOfOneKeyAllWin)
{
    ResultStore store(makeStoreDir("concurrent"));
    SimResult in = fullyPopulatedResult();
    std::string key = ResultStore::makeKey(0x7777, "cfg", 0.25);

    std::vector<std::thread> writers;
    for (int i = 0; i < 8; ++i)
        writers.emplace_back([&] { store.store(key, in); });
    for (auto &t : writers)
        t.join();

    SimResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().stores, 8u);
}

// ------------------------------------------------------- size cap

TEST(ResultStore, CapLeavesEntriesBelowItAlone)
{
    ResultStore store(makeStoreDir("capunder"));
    // Far above what two entries occupy: nothing may be evicted,
    // and both stay warm hits.
    store.setMaxBytes(64 * 1024 * 1024);
    SimResult in = fullyPopulatedResult();
    std::string k1 = ResultStore::makeKey(1, "cfg", 0.25);
    std::string k2 = ResultStore::makeKey(2, "cfg", 0.25);
    store.store(k1, in);
    store.store(k2, in);

    SimResult out;
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(ResultStore, CapEvictsOldestFirstAsCleanMisses)
{
    ResultStore store(makeStoreDir("capover"));
    SimResult in = fullyPopulatedResult();
    std::string k0 = ResultStore::makeKey(10, "cfg", 0.25);
    std::string k1 = ResultStore::makeKey(11, "cfg", 0.25);
    std::string k2 = ResultStore::makeKey(12, "cfg", 0.25);

    // Measure one entry's on-disk size, then cap at two and a half
    // entries: the third store must push the oldest out.
    store.store(k0, in);
    uint64_t entryBytes = store.stats().bytesWritten;
    ASSERT_GT(entryBytes, 0u);
    store.setMaxBytes(entryBytes * 5 / 2);

    store.store(k1, in); // 2 entries: still under the cap
    EXPECT_EQ(store.stats().evictions, 0u);
    store.store(k2, in); // 3 entries: k0 (oldest) must go

    SimResult out;
    EXPECT_FALSE(store.load(k0, out)); // evicted: a clean miss
    EXPECT_TRUE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    expectSameResult(in, out);
    EXPECT_EQ(store.stats().evictions, 1u);

    // Re-storing the evicted key appends a fresh index line, which
    // resets its age: the re-stored entry is now the newest, so the
    // next eviction takes k1 (the new oldest), not k0 again.
    store.store(k0, in);
    EXPECT_TRUE(store.load(k0, out));
    EXPECT_FALSE(store.load(k1, out));
    EXPECT_TRUE(store.load(k2, out));
    EXPECT_EQ(store.stats().evictions, 2u);
}

// --------------------------------------------------- StoreBackend

TEST(StoreBackend, WarmRunEqualsColdRunFieldForField)
{
    std::string dir = makeStoreDir("backend");
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs;
    for (const char *prog : {"hydro2d", "nasa7"}) {
        jobs.push_back(oooJob(prog, makeOooConfig(16)));
        jobs.push_back(refJob(prog, makeRefConfig(50)));
        jobs.push_back(idealJob(prog));
    }

    ResultStore store(dir);
    SweepEngine cold(
        traces, std::make_unique<StoreBackend>(
                    store, traces,
                    std::make_unique<InProcessBackend>(traces, 2)));
    std::vector<SimResult> first = cold.run(jobs);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, jobs.size());
    EXPECT_EQ(store.stats().stores, jobs.size());

    // Truncate one stored entry on disk, the shape a lost write or a
    // torn copy leaves behind.
    const size_t victim = 1;
    std::string victimPath =
        dir + "/" +
        ResultStore::makeKey(traces.contentHash(jobs[victim].trace),
                             jobs[victim].configKey, traces.scale()) +
        ".json";
    ASSERT_TRUE(std::filesystem::exists(victimPath));
    std::filesystem::resize_file(
        victimPath, std::filesystem::file_size(victimPath) / 2);

    // A fresh store object over the same directory (a new process
    // in real sweeps) must serve every intact job without simulating
    // and heal the truncated one: quarantine it, re-simulate it,
    // store it again.
    ResultStore warmStore(dir);
    SweepEngine warm(
        traces, std::make_unique<StoreBackend>(
                    warmStore, traces,
                    std::make_unique<InProcessBackend>(traces, 2)));
    warm.enableManifest();
    std::vector<SimResult> second = warm.run(jobs);
    EXPECT_EQ(warmStore.stats().hits, jobs.size() - 1);
    EXPECT_EQ(warmStore.stats().misses, 1u);
    EXPECT_EQ(warmStore.stats().quarantined, 1u);
    EXPECT_EQ(warmStore.stats().stores, 1u);

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);

    // The manifest records the hits as cached, the healed job not.
    ASSERT_EQ(warm.manifest().size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(warm.manifest()[i].cached, i != victim) << "job " << i;

    // The healed key is a plain hit from then on.
    ResultStore healedStore(dir);
    StoreBackend healed(healedStore, traces,
                        std::make_unique<InProcessBackend>(traces, 2));
    std::vector<JobOutcome> third = healed.run(jobs);
    EXPECT_EQ(healedStore.stats().hits, jobs.size());
    EXPECT_EQ(healedStore.stats().quarantined, 0u);
    ASSERT_EQ(third.size(), jobs.size());
    EXPECT_TRUE(third[victim].fromStore);
    expectSameResult(first[victim], third[victim].result);
}

TEST(StoreBackend, ProgressFiresPerJobOnHalfWarmBatch)
{
    // Hits are reported during the lookup and the inner backend's
    // progress is re-based on top of them: one callback per job, the
    // done count climbing 1, 2, ..., N with hits and misses
    // interleaved in the batch.
    std::string dir = makeStoreDir("progress");
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs;
    for (const char *prog : {"hydro2d", "nasa7", "trfd"}) {
        jobs.push_back(oooJob(prog, makeOooConfig(16)));
        jobs.push_back(refJob(prog, makeRefConfig(50)));
    }
    std::vector<SweepJob> warmHalf;
    for (size_t i = 0; i < jobs.size(); i += 2)
        warmHalf.push_back(jobs[i]);

    ResultStore store(dir);
    StoreBackend backend(store, traces,
                         std::make_unique<InProcessBackend>(traces, 1));
    backend.run(warmHalf);

    std::vector<size_t> seen;
    size_t badTotal = 0;
    backend.setProgress([&](size_t done, size_t total) {
        seen.push_back(done);
        if (total != jobs.size())
            ++badTotal;
    });
    std::vector<JobOutcome> out = backend.run(jobs);

    ASSERT_EQ(out.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(out[i].fromStore, i % 2 == 0) << "job " << i;
    ASSERT_EQ(seen.size(), jobs.size());
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
    EXPECT_EQ(badTotal, 0u);
}

TEST(StoreBackend, InlineTraceJobsAreCacheable)
{
    std::string dir = makeStoreDir("inline");
    TraceCache traces(kScale);
    auto trace = std::make_shared<Trace>(traces.get("hydro2d"));
    std::vector<SweepJob> jobs = {
        oooTraceJob(trace, makeOooConfig(16)),
        refTraceJob(trace, makeRefConfig(50)),
    };

    ResultStore store(dir);
    StoreBackend backend(
        store, traces, std::make_unique<InProcessBackend>(traces, 1));
    std::vector<JobOutcome> first = backend.run(jobs);
    std::vector<JobOutcome> second = backend.run(jobs);

    EXPECT_EQ(store.stats().hits, jobs.size());
    EXPECT_EQ(store.stats().misses, jobs.size());
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_FALSE(first[i].fromStore);
        EXPECT_TRUE(second[i].fromStore);
        expectSameResult(first[i].result, second[i].result);
    }
}

TEST(StoreBackend, UncacheableJobsBypassTheStore)
{
    std::string dir = makeStoreDir("bypass");
    TraceCache traces(kScale);
    SweepJob job{"hydro2d",
                 [](const Trace &t) {
                     SimResult r;
                     r.machine = "CUSTOM";
                     r.cycles = t.size();
                     return r;
                 },
                 nullptr, std::string()};

    ResultStore store(dir);
    StoreBackend backend(
        store, traces, std::make_unique<InProcessBackend>(traces, 1));
    backend.run({job});
    backend.run({job});
    // No configKey: never looked up, never persisted.
    StoreStats s = store.stats();
    EXPECT_EQ(s.hits + s.misses + s.stores, 0u);
}
