/**
 * @file
 * Result store tests: the exact toJson()/fromJson() round trip the
 * store persists records through and the pinned text of one record,
 * key stability and sensitivity, hit/miss/corruption behaviour of
 * the on-disk store, concurrent writers, warm-vs-cold equality
 * through the StoreBackend, and the in-process backend's copies of
 * repeated jobs, alone and under the store.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/stats.hh"
#include "harness/backend.hh"
#include "harness/experiment.hh"
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

/** Every stored field equal: the records write the same text. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.toJson(), b.toJson());
}

/** @p s with its first @p from replaced by @p to. */
std::string
replaceFirst(std::string s, const std::string &from, const std::string &to)
{
    size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        s.replace(at, from.size(), to);
    return s;
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
    // Integer-only storage means the reserialization is bit-exact,
    // which is what makes warm-store figure output byte-identical.
    expectSameResult(in, out);

    // Control bytes also read back in their \u00XX spelling.
    SimResult spelled;
    ASSERT_TRUE(SimResult::fromJson(
        replaceFirst(in.toJson(), "\\n", "\\u000a"), spelled));
    expectSameResult(in, spelled);
}

TEST(SimResultRoundTrip, WritesThePinnedStoreText)
{
    // Store entries written by earlier builds must keep hitting, so
    // the record text may only change with kResultSchemaVersion.
    SimResult r;
    r.program = "hydro2d";
    r.machine = "OOOVA-16/16r";
    r.cycles = 1000;
    r.instructions = 2500;
    r.stateCycles[0] = 400;
    r.stateCycles[7] = 600;
    r.memBusyCycles = 250;
    r.memBankConflicts = 9;
    r.memIndexedConflicts = 4;
    r.tlbMisses = 7;
    r.tlbIndexedMisses = 2;
    r.traps = 3;
    r.stallCycles[1] = 11;
    r.cpiCycles[0] = 900;
    r.cpiCycles[8] = 100;
    r.occupancy[0].width = 4;
    r.occupancy[0].sample(5, 1000);
    r.occupancyTs[0].sample(5, 1000);

    ASSERT_EQ(SimResult::kResultSchemaVersion, 3);
    std::ifstream is(std::string(OOVA_GOLDEN_DIR) + "/simresult.json",
                     std::ios::binary);
    ASSERT_TRUE(is);
    std::ostringstream pinned;
    pinned << is.rdbuf();
    EXPECT_EQ(r.toJson(), pinned.str());
    SimResult back;
    ASSERT_TRUE(SimResult::fromJson(pinned.str(), back));
    expectSameResult(r, back);
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
    // A key repeated in place of another, which would leave the
    // missing one silently zero.
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good, "\"traps\": 322", "\"cycles\": 101"), out));
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good,
                     "\"" + UnitStateBreakdown::stateName(1) + "\"",
                     "\"" + UnitStateBreakdown::stateName(0) + "\""),
        out));
    // Every key is read where toJson() writes it: a swap of two
    // adjacent counters is refused too.
    EXPECT_FALSE(SimResult::fromJson(
        replaceFirst(good,
                     "\"fu1BusyCycles\": 301,\n  \"fu2BusyCycles\": 302",
                     "\"fu2BusyCycles\": 302,\n  \"fu1BusyCycles\": 301"),
        out));
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

namespace
{

/**
 * A config-walk visitor that changes the member at walk position
 * @c target (counting every member, nested ones included): a bool
 * flips, a number or enum steps up by one, a null tracer gets one.
 */
struct PerturbOne
{
    explicit PerturbOne(size_t t) : target(t) {}

    size_t target;
    size_t seen = 0;
    std::string name;
    bool keyed = false;
    bool telemetry = false;

    template <typename T>
    void
    field(const char *n, T &member, const ConfigField &f = {})
    {
        if (seen++ != target)
            return;
        name = n;
        keyed = true;
        telemetry = f.key == ConfigField::Key::Telemetry;
        bump(member);
    }

    template <typename T>
    void
    unkeyed(const char *n, T &member)
    {
        if (seen++ != target)
            return;
        name = n;
        bump(member);
    }

    template <typename C>
    void
    nest(const char *, C &sub)
    {
        walkConfig(sub, *this);
    }

    template <typename T>
    static void
    bump(T &m)
    {
        if constexpr (std::is_same_v<T, bool>) {
            m = !m;
        } else if constexpr (std::is_same_v<T, PipeTracer *>) {
            static PipeTracer tracer(16);
            m = &tracer;
        } else if constexpr (std::is_enum_v<T>) {
            m = static_cast<T>(static_cast<int>(m) + 1);
        } else {
            m = m + 1;
        }
    }
};

/**
 * Perturb each member of @p base in turn: the key must move exactly
 * for the keyed ones (telemetry stays put while OOVA_TELEMETRY forces
 * it on either way). Adds every key to @p keys; returns how many
 * members the walk named.
 */
template <typename Cfg>
size_t
perturbEachMember(const Cfg &base, std::set<std::string> &keys)
{
    const std::string base_key = sweepConfigKey(base);
    keys.insert(base_key);
    for (size_t i = 0;; ++i) {
        Cfg cfg = base;
        PerturbOne p(i);
        walkConfig(cfg, p);
        if (p.seen <= i)
            return i;
        bool moves = p.keyed && !(p.telemetry && telemetryForced());
        std::string key = sweepConfigKey(cfg);
        EXPECT_EQ(key != base_key, moves) << p.name;
        keys.insert(key);
    }
}

} // namespace

TEST(ResultStoreKey, ConfigKeyCoversResultAffectingKnobs)
{
    // Every keyed member moves the key; checkLevel and pipeTracer do
    // not. Forcing the audit on is how the determinism suite proves
    // results unchanged, so it shares entries with audit-off runs.
    std::set<std::string> ooo, ref;
    EXPECT_EQ(perturbEachMember(makeOooConfig(), ooo), 21u);
    EXPECT_EQ(perturbEachMember(makeRefConfig(50), ref), 15u);
    OooConfig tlb = makeOooConfig();
    tlb.mem.tlb = makeTlb(64);
    perturbEachMember(tlb, ooo);

    // REF and OOOVA keys never collide.
    for (const std::string &key : ref)
        EXPECT_EQ(ooo.count(key), 0u) << key;
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

// ------------------------------------------- in-process copies

namespace
{

/**
 * Real simulations with repeats: the second hydro2d OOOVA job and the
 * second nasa7 IDEAL job repeat earlier ones, as the figures repeat
 * their baseline machines.
 */
std::vector<SweepJob>
batchWithRepeats()
{
    return {oooJob("hydro2d", makeOooConfig(16)),
            refJob("hydro2d", makeRefConfig(50)),
            idealJob("nasa7"),
            oooJob("hydro2d", makeOooConfig(16)),
            oooJob("nasa7", makeOooConfig(16)),
            idealJob("nasa7")};
}

} // namespace

TEST(InProcessBackend, CopiesAreServedMarkedAndExact)
{
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs = batchWithRepeats();
    // Every job simulated from scratch: no key, nothing to copy.
    std::vector<SweepJob> unkeyed = jobs;
    for (SweepJob &job : unkeyed)
        job.configKey.clear();
    std::vector<SimResult> fresh = SweepEngine(traces, 4).run(unkeyed);

    SweepEngine engine(traces, 4);
    engine.enableManifest();
    std::vector<SimResult> first = engine.run(jobs);
    std::vector<SimResult> second = engine.run(jobs);

    ASSERT_EQ(first.size(), jobs.size());
    ASSERT_EQ(second.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(csprintf("job %zu", i));
        expectSameResult(fresh[i], first[i]);
        expectSameResult(fresh[i], second[i]);
    }
    // In the first batch only the in-batch repeats (3 and 5) were
    // copies; in the second, every job was.
    ASSERT_EQ(engine.manifest().size(), 2 * jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(engine.manifest()[i].cached, i == 3 || i == 5)
            << "job " << i;
        EXPECT_TRUE(engine.manifest()[jobs.size() + i].cached)
            << "job " << i;
    }
}

TEST(StoreBackend, StoresAnInBatchRepeatOnce)
{
    // Both occurrences of a repeated key miss the cold store, but
    // only the simulated one is stored: the copy's result is the same
    // record, already written.
    std::string dir = makeStoreDir("repeats");
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs = batchWithRepeats();
    const size_t distinct = 4;

    ResultStore store(dir);
    StoreBackend backend(store, traces,
                         std::make_unique<InProcessBackend>(traces, 4));
    std::vector<JobOutcome> cold = backend.run(jobs);
    EXPECT_EQ(store.stats().misses, jobs.size());
    EXPECT_EQ(store.stats().stores, distinct);
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(cold[i].fromStore, i == 3 || i == 5) << "job " << i;

    // Every job, repeats included, is a hit for a fresh store over
    // the same directory.
    ResultStore warmStore(dir);
    StoreBackend warm(warmStore, traces,
                      std::make_unique<InProcessBackend>(traces, 4));
    std::vector<JobOutcome> served = warm.run(jobs);
    EXPECT_EQ(warmStore.stats().hits, jobs.size());
    EXPECT_EQ(warmStore.stats().stores, 0u);
    for (size_t i = 0; i < jobs.size(); ++i)
        expectSameResult(cold[i].result, served[i].result);
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
