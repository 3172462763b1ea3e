/**
 * @file
 * Statistics primitives used by the simulators and the experiment
 * harness: busy-interval recording, the 8-way functional-unit state
 * breakdown of the paper's figures 3 and 7, and the occupancy
 * telemetry's distributions and time series.
 */

#ifndef OOVA_COMMON_STATS_HH
#define OOVA_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace oova
{

/**
 * Records half-open busy intervals [start, end) for one hardware
 * unit. Intervals may be added out of order and may overlap; queries
 * merge them first.
 */
class IntervalRecorder
{
  public:
    /**
     * Record that the unit was busy during [start, end). Inline:
     * every simulated issue records an interval, so this must be a
     * bounds check and a push_back.
     */
    void
    add(Cycle start, Cycle end)
    {
        sim_assert(end >= start, "interval end before start");
        if (end == start)
            return; // zero-length: nothing was occupied
        if (start < lastEnd_)
            sortedDisjoint_ = false;
        intervals_.emplace_back(start, end);
        lastEnd_ = std::max(lastEnd_, end);
    }

    using Runs = std::vector<std::pair<Cycle, Cycle>>;

    /** Total busy cycles with overlapping intervals merged. */
    uint64_t busyCycles() const;

    /** Raw (unmerged) intervals, in insertion order. */
    const Runs &intervals() const { return intervals_; }

    /**
     * The busy time as sorted, non-overlapping runs: the recorded
     * intervals themselves while they already are (the natural
     * product of a serially-reused unit), else their sorted union,
     * built into @p scratch.
     */
    const Runs &unionRuns(Runs &scratch) const;

    /** Number of recorded intervals. */
    size_t count() const { return intervals_.size(); }

  private:
    Runs intervals_;
    Cycle lastEnd_ = 0;
    bool sortedDisjoint_ = true;
};

/**
 * Per-cycle machine-state breakdown over the three vector units,
 * reproducing the 3-tuple states (FU2, FU1, MEM) of the paper's
 * figures 3 and 7. State index bit assignment: bit 2 = FU2 busy,
 * bit 1 = FU1 busy, bit 0 = MEM busy; e.g. state 0 is
 * ( , , ) -- all idle -- and state 7 is (FU2, FU1, MEM).
 */
class UnitStateBreakdown
{
  public:
    static constexpr int kNumStates = 8;

    /**
     * Compute the number of cycles spent in each of the 8 states.
     *
     * @param fu2 busy intervals of the general-purpose unit
     * @param fu1 busy intervals of the restricted unit
     * @param mem busy intervals of the memory port
     * @param total_cycles the denominator; cycles past the last
     *        interval count as all-idle
     */
    static std::array<uint64_t, kNumStates>
    compute(const IntervalRecorder &fu2, const IntervalRecorder &fu1,
            const IntervalRecorder &mem, Cycle total_cycles);

    /** Human-readable state label, e.g. "<FU2,FU1,MEM>". */
    static std::string stateName(int state);
};

// ------------------------------------------------ occupancy telemetry

/**
 * Machine structures sampled by the occupancy telemetry layer
 * (cfg.telemetry / OOVA_TELEMETRY=1). One StatDistribution and one
 * StatTimeSeries per entry ride in SimResult; occStructName() gives
 * the stable label used by SimResult::toJson(), the --stats dump, and
 * the README table (lint-enforced both directions).
 */
enum class OccStruct : uint8_t
{
    Rob,          ///< reorder-buffer entries in flight
    AQueue,       ///< address-unit instruction queue depth
    SQueue,       ///< scalar-unit instruction queue depth
    VQueue,       ///< vector-unit instruction queue depth
    FreeVRegs,    ///< free physical vector registers
    Mshrs,        ///< in-flight cache miss-status registers
    MemUnits,     ///< concurrently busy memory units
    TlbPages,     ///< valid (resident) TLB entries
    NumStructs,
};

constexpr size_t kNumOccStructs =
    static_cast<size_t>(OccStruct::NumStructs);

/** Stable lowercase label for @p s, e.g. "rob", "free-vregs". */
const char *occStructName(OccStruct s);

/**
 * Running distribution over exact integers: count/sum/sum-of-squares
 * plus min/max and a fixed 16-bucket linear histogram (last bucket
 * catches overflow). Plain aggregate so SimResult::toJson() can
 * round-trip it bit-exactly; sample() is inline and allocation-free
 * because the simulators call it on every event-calendar advance.
 * @p n is a bulk weight: an idle jump of k cycles charges its
 * structure occupancies once with n = k, exactly like the CPI stack.
 */
struct StatDistribution
{
    static constexpr size_t kNumBuckets = 16;

    uint64_t width = 1; ///< histogram bucket width (>= 1)
    uint64_t samples = 0;
    uint64_t sum = 0;
    uint64_t sumSquares = 0;
    uint64_t minValue = 0;
    uint64_t maxValue = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    /**
     * Size the histogram so [0, capacity] spans the 16 buckets: a
     * full structure lands in the last bucket, not in overflow.
     */
    void
    setCapacity(uint64_t capacity)
    {
        width = std::max<uint64_t>((capacity + kNumBuckets) /
                                       kNumBuckets,
                                   1);
    }

    void
    sample(uint64_t value, uint64_t n = 1)
    {
        if (n == 0)
            return; // zero-length calendar jump: no cycles to charge
        minValue = samples ? std::min(minValue, value) : value;
        maxValue = std::max(maxValue, value);
        samples += n;
        sum += value * n;
        sumSquares += value * value * n;
        buckets[std::min<uint64_t>(value / width,
                                   kNumBuckets - 1)] += n;
    }

    double mean() const;
    /** Population standard deviation. */
    double stddev() const;
    /**
     * 95th-percentile upper bound read off the histogram: the
     * inclusive upper edge of the bucket holding the 95th-percentile
     * sample, clamped to the observed max.
     */
    uint64_t p95() const;

    bool operator==(const StatDistribution &) const = default;
};

/**
 * Bounded-memory time series: the sample stream is folded into at
 * most 32 fixed-length epochs of value-sums. When the run outgrows
 * the window, adjacent epochs pairwise-merge and the epoch length
 * doubles — O(1) amortized, exact sums, and the final shape is
 * independent of how the samples were batched. Epoch means
 * reconstruct as sums[e] / epochLen (the last epoch may be partial;
 * epochCycles() gives its true denominator).
 */
struct StatTimeSeries
{
    static constexpr size_t kMaxEpochs = 32;

    uint64_t epochLen = 1; ///< cycles per epoch (power of two)
    uint64_t total = 0;    ///< total weight sampled (== cycles)
    std::array<uint64_t, kMaxEpochs> sums{};

    void sample(uint64_t value, uint64_t n = 1);

    /** Number of epochs holding data. */
    size_t
    epochsUsed() const
    {
        return static_cast<size_t>((total + epochLen - 1) / epochLen);
    }

    /** Weight actually accumulated into epoch @p e. */
    uint64_t epochCycles(size_t e) const;
    /** Mean sampled value over epoch @p e. */
    double epochMean(size_t e) const;

    bool operator==(const StatTimeSeries &) const = default;
};

/**
 * Feed the concurrency depth of @p rec's intervals, cycle by cycle
 * over [0, total), into @p dist and @p ts: for every cycle the
 * sampled value is the number of intervals covering it (intervals
 * are clipped to the range). Charges exactly @p total weight into
 * each sink, which is what the occupancy-conservation checker
 * verifies. RunLedger::finish() samples mem-units this way.
 */
void accumulateIntervalDepth(const IntervalRecorder &rec, Cycle total,
                             StatDistribution &dist,
                             StatTimeSeries &ts);

/**
 * True when OOVA_TELEMETRY=1 (or any nonzero value) is in the
 * environment: forces occupancy sampling on regardless of
 * cfg.telemetry, exactly like OOVA_CHECK overrides checkLevel. Used
 * by CI to prove every golden byte-identical with sampling enabled.
 */
bool telemetryForced();

} // namespace oova

#endif // OOVA_COMMON_STATS_HH
