/**
 * @file
 * The result record shared by both simulators and consumed by the
 * experiment harness. Every figure of the paper is computed from
 * these fields.
 */

#ifndef OOVA_MEM_SIMRESULT_HH
#define OOVA_MEM_SIMRESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/stats.hh"
#include "common/types.hh"

namespace oova
{

/** Why an in-order issue slot was delayed (REF diagnostics). */
enum class StallCause : uint8_t
{
    None,      ///< issued back to back
    ScalarDep, ///< waiting on a scalar source
    VectorDep, ///< waiting on a vector source (RAW)
    WarWaw,    ///< destination register still in use
    FuBusy,    ///< functional unit occupied
    MemUnit,   ///< memory unit still streaming addresses
    Ports,     ///< register-file port conflict
    Branch,    ///< post-branch redirect bubble
    NumCauses,
};

constexpr unsigned kNumStallCauses =
    static_cast<unsigned>(StallCause::NumCauses);

/** Human-readable stall-cause label. */
const char *stallCauseName(StallCause cause);

/**
 * CPI-stack bucket: where one machine cycle went, top-down. Both
 * simulators charge every cycle of a run to exactly one bucket when
 * cycle accounting is enabled (off by default); the conservation
 * invariant (buckets sum to `cycles`) is enforced by the
 * cpi-conservation checker in src/check/.
 */
enum class CpiBucket : uint8_t
{
    Commit,      ///< at least one instruction retired
    Fetch,       ///< front end empty: fetch/BTB-limited
    Rename,      ///< free-list empty: rename-limited
    QueueFull,   ///< dispatch blocked on a full aQ/sQ/vQ
    OperandWait, ///< head waiting on source operands
    FuBusy,      ///< ready but lost the FU/issue-port race
    Memory,      ///< memory unit, bank, or MSHR limited
    TlbTrap,     ///< TLB miss handling / precise-trap squash
    Drain,       ///< end-of-trace pipeline drain
    NumBuckets,
};

constexpr unsigned kNumCpiBuckets =
    static_cast<unsigned>(CpiBucket::NumBuckets);

/** Human-readable CPI-bucket label. */
const char *cpiBucketName(CpiBucket bucket);

/** Aggregate outcome of simulating one trace on one machine. */
struct SimResult
{
    /**
     * Result-schema version, bumped whenever a field is added,
     * removed, or changes meaning. toJson() embeds it, fromJson()
     * rejects any other value, and the sweep-farm ResultStore folds
     * it into the content-addressed key — so a stored record from an
     * older schema is a clean miss, never a silent misparse.
     */
    static constexpr int kResultSchemaVersion = 3;

    std::string program;
    std::string machine;

    Cycle cycles = 0;
    uint64_t instructions = 0;

    /** Figures 3/7: cycles in each (FU2, FU1, MEM) state. */
    std::array<uint64_t, UnitStateBreakdown::kNumStates> stateCycles{};

    uint64_t fu1BusyCycles = 0;
    uint64_t fu2BusyCycles = 0;
    uint64_t memBusyCycles = 0;  ///< address-bus busy cycles
    uint64_t memRequests = 0;    ///< element requests on the bus

    // Memory-hierarchy detail; all zero under the default FlatBus.
    uint64_t memBankConflicts = 0;  ///< element issues that hit a busy bank
    uint64_t memConflictCycles = 0; ///< cycles lost waiting on banks
    /** Subset of the above charged to gather/scatter index streams. */
    uint64_t memIndexedConflicts = 0;
    uint64_t memIndexedConflictCycles = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t mshrStallCycles = 0;   ///< cycles misses waited for an MSHR
    // Translation detail; all zero while the TLB is disabled.
    uint64_t tlbHits = 0;
    uint64_t tlbMisses = 0;         ///< lookups that required a refill
    /** Subset of tlbMisses from gather/scatter per-element lookups. */
    uint64_t tlbIndexedMisses = 0;
    uint64_t tlbMissCycles = 0;     ///< stall cycles from hardware walks

    // OOOVA-only detail.
    uint64_t vectorLoadsEliminated = 0;
    uint64_t scalarLoadsEliminated = 0;
    uint64_t branchMispredicts = 0;
    /**
     * Despite their names, the three stall counters below count
     * iterations of the OOOVA's run loop, not cycles: an iteration
     * in which dispatch, or the SLE+VLE Dep stage, found no free
     * physical register, a full ROB or a full issue queue. The idle
     * jump skips the cycles in which such a stall persists, so they
     * undercount the stalled cycles.
     */
    uint64_t renameStallCycles = 0;
    uint64_t robStallCycles = 0;
    uint64_t queueStallCycles = 0;
    uint64_t traps = 0;

    /** REF only: issue-stall cycles attributed to their cause. */
    std::array<uint64_t, kNumStallCauses> stallCycles{};

    /**
     * CPI stack: every cycle charged to one bucket. All zero unless
     * the config enables cycle accounting (cpiStack); when enabled,
     * the entries sum exactly to `cycles`.
     */
    std::array<uint64_t, kNumCpiBuckets> cpiCycles{};

    /**
     * Occupancy telemetry, one distribution and one bounded time
     * series per machine structure (see OccStruct). Empty (zero
     * samples) unless the config enables telemetry; when enabled,
     * every sampled structure's sample count equals `cycles` — the
     * occupancy-conservation checker's invariant. Exact integers,
     * so the JSON round trip through the ResultStore is bit-exact.
     */
    std::array<StatDistribution, kNumOccStructs> occupancy{};
    std::array<StatTimeSeries, kNumOccStructs> occupancyTs{};

    /** Fraction of cycles the memory port was idle (figures 4/6). */
    double
    portIdleFraction() const
    {
        if (cycles == 0)
            return 0.0;
        return 1.0 -
               static_cast<double>(memBusyCycles) /
                   static_cast<double>(cycles);
    }

    /** Bank conflicts charged to strided (non-indexed) streams. */
    uint64_t
    memStridedConflicts() const
    {
        return memBankConflicts - memIndexedConflicts;
    }

    /** TLB refills charged to strided (non-indexed) streams. */
    uint64_t
    stridedTlbMisses() const
    {
        return tlbMisses - tlbIndexedMisses;
    }

    /** Instructions per cycle over the whole run. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }

    /**
     * Render every field (including the derived accessors) as one
     * JSON object, tagged with kResultSchemaVersion. The stored
     * fields come from one ordered walk in simresult.cc, which
     * fromJson() runs too; scripts/lint_oova.py fails if a field
     * added here is missing from it, so new counters cannot silently
     * dodge the machine-readable output or the round trip.
     */
    std::string toJson() const;

    /**
     * Strict inverse of toJson(): reads one record into @p out,
     * expecting every key exactly where toJson() writes it. Returns
     * false — leaving @p out untouched — on a missing, repeated,
     * reordered or unknown key, a value that does not parse, a
     * schema version other than kResultSchemaVersion, or derived keys
     * that disagree with the fields; the ResultStore treats every
     * false as a cache miss. All stored fields are integers or
     * strings, so the round trip is exact.
     */
    static bool fromJson(std::string_view json, SimResult &out);
};

} // namespace oova

#endif // OOVA_MEM_SIMRESULT_HH
