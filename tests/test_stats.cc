/**
 * @file
 * Tests for the occupancy-telemetry primitives (src/common/stats.hh):
 * StatDistribution math against brute-force recomputation from the
 * raw sample stream, StatTimeSeries epoch bounding and
 * batching-independence, interval-depth accumulation conservation,
 * the observe-only guarantee (telemetry on/off changes no result
 * field), the occupancy-conservation checker firing on corrupt
 * state, and --stats dump determinism across worker counts and its
 * file handling on a failed write.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <vector>

#include "check/check.hh"
#include "check/checkers.hh"
#include "common/stats.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/statsdump.hh"
#include "harness/sweep.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

constexpr double kScale = 0.25;

/** Deterministic pseudo-random stream (no host-dependent seeding). */
struct Lcg
{
    uint64_t state = 0x2545F4914F6CDD1Dull;

    uint64_t
    next(uint64_t bound)
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    }
};

/** Brute-force p95 using the distribution's histogram semantics. */
uint64_t
bruteP95(std::vector<uint64_t> values, uint64_t width)
{
    std::sort(values.begin(), values.end());
    uint64_t n = values.size();
    uint64_t rank = (n * 95 + 99) / 100;
    uint64_t v = values[rank - 1];
    uint64_t bucket = std::min<uint64_t>(
        v / width, StatDistribution::kNumBuckets - 1);
    return std::min((bucket + 1) * width - 1, values.back());
}

} // namespace

// ------------------------------------------------- StatDistribution

TEST(StatDistribution, MatchesBruteForceOverRandomStream)
{
    StatDistribution d;
    d.setCapacity(200);
    Lcg rng;
    std::vector<uint64_t> values;
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng.next(201));
    for (uint64_t v : values)
        d.sample(v);

    double sum = 0, sumSq = 0;
    uint64_t lo = values[0], hi = values[0];
    for (uint64_t v : values) {
        sum += static_cast<double>(v);
        sumSq += static_cast<double>(v) * static_cast<double>(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    double n = static_cast<double>(values.size());
    double mean = sum / n;
    double var = sumSq / n - mean * mean;

    EXPECT_EQ(d.samples, values.size());
    EXPECT_EQ(d.minValue, lo);
    EXPECT_EQ(d.maxValue, hi);
    EXPECT_DOUBLE_EQ(d.mean(), mean);
    EXPECT_NEAR(d.stddev(), std::sqrt(var), 1e-9);
    EXPECT_EQ(d.p95(), bruteP95(values, d.width));

    uint64_t bucketTotal = 0;
    for (uint64_t b : d.buckets)
        bucketTotal += b;
    EXPECT_EQ(bucketTotal, d.samples);
}

TEST(StatDistribution, P95BracketsTheTruePercentile)
{
    // The histogram p95 may round up to a bucket edge but never
    // below the true 95th-percentile sample (capacity sized, so no
    // value overflows the last bucket's edge).
    Lcg rng;
    for (int trial = 0; trial < 20; ++trial) {
        StatDistribution d;
        d.setCapacity(100);
        std::vector<uint64_t> values;
        for (int i = 0; i < 64; ++i)
            values.push_back(rng.next(101));
        for (uint64_t v : values)
            d.sample(v);
        std::sort(values.begin(), values.end());
        uint64_t rank = (values.size() * 95 + 99) / 100;
        uint64_t truth = values[rank - 1];
        EXPECT_GE(d.p95(), truth);
        EXPECT_LE(d.p95(), d.maxValue);
    }
}

TEST(StatDistribution, BulkWeightEqualsRepeatedSamples)
{
    StatDistribution bulk, repeated;
    bulk.setCapacity(64);
    repeated.setCapacity(64);
    Lcg rng;
    for (int i = 0; i < 200; ++i) {
        uint64_t v = rng.next(65);
        uint64_t n = 1 + rng.next(7);
        bulk.sample(v, n);
        for (uint64_t k = 0; k < n; ++k)
            repeated.sample(v);
    }
    EXPECT_EQ(bulk, repeated);
}

TEST(StatDistribution, ZeroWeightIsANoOp)
{
    StatDistribution d, untouched;
    d.setCapacity(8);
    untouched.setCapacity(8);
    d.sample(5, 0);
    EXPECT_EQ(d, untouched);
}

TEST(StatDistribution, SetCapacityKeepsFullValueOutOfOverflow)
{
    // A sample equal to the declared capacity must land in a real
    // bucket index (value / width <= 15), never get clamped into
    // the overflow bucket from above.
    for (uint64_t cap = 1; cap <= 1024; ++cap) {
        StatDistribution d;
        d.setCapacity(cap);
        EXPECT_LE(cap / d.width, StatDistribution::kNumBuckets - 1)
            << "capacity " << cap << " width " << d.width;
    }
}

// --------------------------------------------------- StatTimeSeries

TEST(StatTimeSeries, EpochBoundingAndExactTotals)
{
    StatTimeSeries ts;
    Lcg rng;
    uint64_t total = 0, weightedSum = 0;
    for (int i = 0; i < 500; ++i) {
        uint64_t v = rng.next(40);
        uint64_t n = 1 + rng.next(97);
        ts.sample(v, n);
        total += n;
        weightedSum += v * n;
    }

    EXPECT_EQ(ts.total, total);
    EXPECT_LE(ts.epochsUsed(), StatTimeSeries::kMaxEpochs);
    // epochLen stays a power of two through pairwise merges.
    EXPECT_EQ(ts.epochLen & (ts.epochLen - 1), 0u);

    uint64_t sumOfSums = 0, sumOfCycles = 0;
    for (size_t e = 0; e < StatTimeSeries::kMaxEpochs; ++e) {
        sumOfSums += ts.sums[e];
        sumOfCycles += ts.epochCycles(e);
    }
    EXPECT_EQ(sumOfSums, weightedSum);
    EXPECT_EQ(sumOfCycles, total);
}

TEST(StatTimeSeries, ShapeIndependentOfBatching)
{
    // The same (value, weight) stream must fold to the identical
    // epoch window whether charged in bulk or cycle by cycle.
    StatTimeSeries bulk, single;
    Lcg rng;
    for (int i = 0; i < 300; ++i) {
        uint64_t v = rng.next(16);
        uint64_t n = 1 + rng.next(11);
        bulk.sample(v, n);
        for (uint64_t k = 0; k < n; ++k)
            single.sample(v);
    }
    EXPECT_EQ(bulk, single);
}

TEST(StatTimeSeries, MergeDoublesEpochLengthAndKeepsSums)
{
    StatTimeSeries ts;
    // 100 cycles at value 3: outgrows the 32x1 window twice.
    ts.sample(3, 100);
    EXPECT_EQ(ts.total, 100u);
    EXPECT_EQ(ts.epochLen, 4u);
    EXPECT_EQ(ts.epochsUsed(), 25u);
    uint64_t sumOfSums = 0;
    for (uint64_t s : ts.sums)
        sumOfSums += s;
    EXPECT_EQ(sumOfSums, 300u);
    EXPECT_DOUBLE_EQ(ts.epochMean(0), 3.0);
    EXPECT_DOUBLE_EQ(ts.epochMean(24), 3.0);
}

// ------------------------------------------- accumulateIntervalDepth

TEST(AccumulateIntervalDepth, ConservesWeightAndMatchesBruteForce)
{
    IntervalRecorder rec;
    rec.add(2, 10);
    rec.add(5, 15); // overlaps the first: depth 2 over [5, 10)
    rec.add(5, 7);  // depth 3 over [5, 7)
    rec.add(20, 30);
    rec.add(28, 50); // clipped at total below

    constexpr Cycle kTotal = 40;
    StatDistribution dist;
    dist.setCapacity(8);
    StatTimeSeries ts;
    accumulateIntervalDepth(rec, kTotal, dist, ts);

    // Conservation: exactly one unit of weight per cycle in range.
    EXPECT_EQ(dist.samples, kTotal);
    EXPECT_EQ(ts.total, kTotal);

    // Brute force: count covering intervals cycle by cycle.
    uint64_t sum = 0, maxDepth = 0;
    for (Cycle c = 0; c < kTotal; ++c) {
        uint64_t depth = 0;
        for (const auto &[s, e] : rec.intervals())
            if (c >= s && c < std::min<Cycle>(e, kTotal))
                ++depth;
        sum += depth;
        maxDepth = std::max(maxDepth, depth);
    }
    EXPECT_EQ(dist.sum, sum);
    EXPECT_EQ(dist.maxValue, maxDepth);
    EXPECT_EQ(dist.minValue, 0u); // cycles [0,2) are idle
}

// --------------------------------------- occupancy conservation check

TEST(OccupancyConservation, CleanTelemetryIsQuiet)
{
    std::array<StatDistribution, kNumOccStructs> occ{};
    std::array<StatTimeSeries, kNumOccStructs> ts{};
    constexpr Cycle kCycles = 256;
    // Two modeled structures charged exactly once per cycle; the
    // rest stay empty (exempt, like REF's missing ROB).
    occ[0].sample(4, kCycles);
    ts[0].sample(4, kCycles);
    occ[3].sample(1, kCycles / 2);
    occ[3].sample(2, kCycles / 2);
    ts[3].sample(1, kCycles / 2);
    ts[3].sample(2, kCycles / 2);

    check::Registry reg;
    check::Reporter r = reg.reporter("occupancy-conservation", kCycles);
    check::checkOccupancyConservation(kCycles, occ, ts, r);
    EXPECT_EQ(reg.violationCount(), 0u);
}

TEST(OccupancyConservation, CorruptSampleWeightFires)
{
    std::array<StatDistribution, kNumOccStructs> occ{};
    std::array<StatTimeSeries, kNumOccStructs> ts{};
    constexpr Cycle kCycles = 256;
    occ[0].sample(4, kCycles - 1); // one cycle short: a missed hook
    ts[0].sample(4, kCycles);
    occ[1].sample(2, kCycles);
    ts[1].sample(2, kCycles + 1); // one cycle extra: double charge

    check::Registry reg;
    check::Reporter r = reg.reporter("occupancy-conservation", kCycles);
    check::checkOccupancyConservation(kCycles, occ, ts, r);
    EXPECT_EQ(reg.violationCount(), 2u);
    check::resetProcessViolations();
}

// ------------------------------------------------------ observe-only

TEST(Telemetry, SamplingIsObserveOnly)
{
    // Turning occupancy sampling on must not move a single
    // result field the figures read.
    TraceCache traces(kScale);
    auto expectCoreFieldsEqual = [](const SimResult &a,
                                    const SimResult &b) {
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.stateCycles, b.stateCycles);
        EXPECT_EQ(a.memRequests, b.memRequests);
        EXPECT_EQ(a.cacheHits, b.cacheHits);
        EXPECT_EQ(a.cacheMisses, b.cacheMisses);
        EXPECT_EQ(a.tlbHits, b.tlbHits);
        EXPECT_EQ(a.tlbMisses, b.tlbMisses);
        EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
        EXPECT_EQ(a.robStallCycles, b.robStallCycles);
        EXPECT_EQ(a.queueStallCycles, b.queueStallCycles);
        EXPECT_EQ(a.stallCycles, b.stallCycles);
        EXPECT_EQ(a.cpiCycles, b.cpiCycles);
    };

    const Trace &t = traces.get("hydro2d");
    OooConfig cfg = makeOooConfig(16);
    cfg.telemetry = false;
    SimResult off = simulateOoo(t, cfg);
    cfg.telemetry = true;
    SimResult on = simulateOoo(t, cfg);
    expectCoreFieldsEqual(off, on);

    // The telemetry itself obeys conservation: every non-empty
    // distribution carries exactly one unit of weight per cycle.
    bool sawNonEmpty = false;
    for (size_t i = 0; i < kNumOccStructs; ++i) {
        if (on.occupancy[i].samples == 0)
            continue;
        sawNonEmpty = true;
        EXPECT_EQ(on.occupancy[i].samples, on.cycles)
            << occStructName(static_cast<OccStruct>(i));
        EXPECT_EQ(on.occupancyTs[i].total, on.cycles)
            << occStructName(static_cast<OccStruct>(i));
    }
    EXPECT_TRUE(sawNonEmpty);

    RefConfig rc = makeRefConfig(50);
    rc.telemetry = false;
    SimResult refOff = simulateRef(t, rc);
    rc.telemetry = true;
    SimResult refOn = simulateRef(t, rc);
    expectCoreFieldsEqual(refOff, refOn);
    EXPECT_GT(refOn.occupancy[static_cast<size_t>(OccStruct::MemUnits)]
                  .samples,
              0u);

    // Telemetry off leaves the arrays untouched, histogram widths
    // included: a width set without sampling would still move every
    // bucket-width line of --stats and of the stored JSON.
    const SimResult fresh;
    for (const SimResult *off_res : {&off, &refOff}) {
        EXPECT_EQ(off_res->occupancy, fresh.occupancy)
            << off_res->machine;
        EXPECT_EQ(off_res->occupancyTs, fresh.occupancyTs)
            << off_res->machine;
    }
}

// ------------------------------------------------- stats-dump output

TEST(StatsDump, IdenticalAcrossWorkerCounts)
{
    // The gem5-style dump is a pure function of the results, and the
    // results are worker-count independent — so the rendered dump
    // must be byte-identical at 1 and 8 threads.
    TraceCache traces(kScale);
    std::vector<SweepJob> jobs;
    for (const char *prog : {"hydro2d", "nasa7"}) {
        OooConfig cfg = makeOooConfig(16);
        cfg.telemetry = true;
        jobs.push_back(oooJob(prog, cfg));
        RefConfig rc = makeRefConfig(50);
        rc.telemetry = true;
        jobs.push_back(refJob(prog, rc));
    }

    SweepEngine serial(traces, 1);
    SweepEngine parallel(traces, 8);
    serial.enableResultCapture();
    parallel.enableResultCapture();
    serial.run(jobs);
    parallel.run(jobs);

    std::string one = renderStatsDump(serial.captured());
    std::string many = renderStatsDump(parallel.captured());
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, many);
    // Spot-check the grammar: a begin marker and a sanitized name.
    EXPECT_NE(one.find("---------- Begin Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(one.find(".occupancy.rob.samples"), std::string::npos);
}

TEST(StatsDump, ShortWriteClosesTheFile)
{
    // /dev/full fails every write with ENOSPC. A dump larger than
    // the stdio buffer fails inside fwrite, before fclose: the file
    // must still be closed, so the process keeps its descriptors.
    auto openFds = [] {
        return std::distance(
            std::filesystem::directory_iterator("/proc/self/fd"),
            std::filesystem::directory_iterator());
    };
    std::vector<SimResult> results(3);
    for (size_t i = 0; i < results.size(); ++i) {
        results[i].program = "prog" + std::to_string(i);
        results[i].machine = "REF";
    }
    ASSERT_GT(renderStatsDump(results).size(), size_t(BUFSIZ));
    auto before = openFds();
    EXPECT_FALSE(writeStatsDump("/dev/full", results));
    EXPECT_FALSE(writeStatsDump("/dev/full", results));
    EXPECT_EQ(openFds(), before);
}
