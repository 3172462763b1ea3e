/**
 * @file
 * The checker logic behind the invariant audits, as free functions
 * over plain data views.
 *
 * The OOOVA's internal state lives inside its translation unit, so
 * the simulator's audit functions snapshot the relevant state
 * (register files, expected reference counts recomputed from the
 * live ROB, queue age sequences, memory statistics) into the view
 * structures here and delegate the actual judgement to these
 * functions. That split is what makes the audit testable: the unit
 * tests build corrupted views directly and assert that each checker
 * family reports the injected violation.
 */

#ifndef OOVA_CHECK_CHECKERS_HH
#define OOVA_CHECK_CHECKERS_HH

#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "common/types.hh"
#include "mem/memsystem.hh"
#include "mem/simresult.hh"
#include "mem/tlb.hh"

namespace oova::check
{

// ------------------------------------------------ register files

/** Audit-relevant state of one physical register. */
struct RegAudit
{
    int refCount = 0;
    bool inFreeList = false;
    /** Wakeup subscription counts (see PhysReg). */
    int64_t srcRefs = 0;
    int64_t dstRefs = 0;
    int64_t elimRefs = 0;
};

/** Snapshot of one class's physical file + free list. */
struct RegFileAudit
{
    /** Class letter for messages ("A", "S", "V", "M"). */
    const char *cls = "?";
    std::vector<RegAudit> regs;
    /** Free-list contents in queue order. */
    std::vector<int> freeList;
};

/**
 * Free-list conservation: every list index in range and unique, the
 * inFreeList flag agreeing with list membership, and "free" meaning
 * exactly refCount == 0 with no live wakeup subscriptions — i.e.
 * every register is exactly one of free / mapped / pending-free.
 */
void checkFreeListStructure(const RegFileAudit &rf, Reporter &r);

/**
 * Per-register counter conservation: @p actual (taken from the
 * register file) must equal @p expected (recomputed from the ground
 * truth — map tables, live ROB entries, unresolved eliminations).
 * @p what names the counter in the violation detail.
 */
void checkCountsMatch(const char *what, const char *cls,
                      const std::vector<int64_t> &actual,
                      const std::vector<int64_t> &expected,
                      Reporter &r);

// ------------------------------------------------ ages & scalars

/**
 * Age monotonicity: @p seqs (the sequence numbers of one queue in
 * iteration order) must be strictly increasing — every simulator
 * queue is filled in program order and only ever erased from, and
 * memory disambiguation relies on the wait set staying age-sorted.
 */
void checkAgeOrdered(const char *what,
                     const std::vector<SeqNum> &seqs, Reporter &r);

/** A single bookkeeping counter against its recomputed value. */
void checkScalarMatch(const char *what, uint64_t actual,
                      uint64_t expected, Reporter &r);

/**
 * Plain-data view of the OOOVA's recycled entry slab: the slots ever
 * allocated, the free list, and every slot index the live structures
 * still reach (ROB, issue queues, memory pipe, wait set,
 * eliminated-load list and register waiter lists; an entry on
 * several of them appears several times).
 */
struct SlabAudit
{
    uint64_t allocated = 0;
    std::vector<uint32_t> freeSlots;
    std::vector<uint32_t> reachable;
    /** The run is over: nothing may still hold a slot. */
    bool runOver = false;
};

/**
 * Slot recycling soundness: every free slot in range and listed
 * once, no freed slot reachable (a reused slot would alias two
 * entries), live + free == allocated (a slot neither reachable nor
 * free has leaked), and once the run is over every slot is free.
 */
void checkSlabSlots(const SlabAudit &slab, Reporter &r);

/**
 * Event-calendar soundness at an idle jump: the calendar's next live
 * event must agree with the ground-truth full rescan. A scan value
 * below the calendar's would mean a live state transition earlier
 * than the calendar minimum (it would be skipped); above, a stale
 * event survived validation. kNoCycle means "no event" on both sides.
 */
void checkCalendarAgreement(Cycle calendarNext, Cycle scanNext,
                            Reporter &r);

// ------------------------------------------------ memory system

/**
 * Window sanity of one reserved stream: the address phase starts no
 * earlier than requested and does not run backwards, and data
 * arrival follows the address phase (firstData >= start,
 * lastData >= firstData).
 */
void checkMemWindow(const MemAccess &acc, Cycle earliest,
                    Reporter &r);

/**
 * Counter containment: every indexed sub-counter is bounded by its
 * total (strided derivations in MemStats subtract them, so an excess
 * would underflow into nonsense).
 */
void checkMemStatsBounds(const MemStats &s, Reporter &r);

/** All MemStats counters are cumulative: they must never decrease. */
void checkMemStatsMonotone(const MemStats &prev, const MemStats &cur,
                           Reporter &r);

/**
 * TLB structural soundness over Tlb::auditView(): the miss counters
 * contained (indexed <= total, hits + misses <= lookups), set
 * geometry consistent, and, when it is, every valid entry in the set
 * its page indexes to, no duplicate pages within a set and LRU
 * timestamps bounded by the tick counter.
 */
void checkTlbSoundness(const TlbAuditView &v, Reporter &r);

// ------------------------------------------------ cycle accounting

/**
 * CPI-stack conservation: with cycle accounting enabled, every cycle
 * of the run is charged to exactly one bucket, so the buckets must
 * sum exactly to @p cycles — an attribution gap or double charge is
 * an accounting bug, not a rounding error — and no one bucket may
 * hold more than @p cycles (a negative charge wraps it there).
 */
void checkCpiConservation(
    Cycle cycles,
    const std::array<uint64_t, kNumCpiBuckets> &buckets, Reporter &r);

/**
 * Occupancy-telemetry conservation: with sampling enabled, every
 * sampled structure's distribution receives exactly one weighted
 * sample per machine cycle — progress steps charge 1, calendar
 * jumps and the final drain charge their span in bulk — so each
 * non-empty distribution's sample count, and its time series' total
 * weight, must equal @p cycles. A mismatch means a calendar advance
 * bypassed the sampling hook (or charged twice). Distributions with
 * zero samples are structures the machine doesn't model (e.g. REF
 * has no ROB) and are exempt.
 */
void checkOccupancyConservation(
    Cycle cycles,
    const std::array<StatDistribution, kNumOccStructs> &occ,
    const std::array<StatTimeSeries, kNumOccStructs> &occ_ts,
    Reporter &r);

} // namespace oova::check

#endif // OOVA_CHECK_CHECKERS_HH
