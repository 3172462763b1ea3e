/**
 * @file
 * The virtual-memory translation stage: a set-associative TLB that
 * sits in front of every MemorySystem model.
 *
 * The paper's memory system is physically addressed and fault-free,
 * but the OOOVA's headline claim is precise exceptions under
 * decoupled vector execution — and modern vector evaluations treat
 * address translation as a first-class cost for indexed accesses,
 * where every element of a gather can touch a different page.
 *
 * Translation granularity matches how the address unit works:
 *
 *  - a strided stream generates its addresses in order, so it
 *    translates once per page crossed — unit stride touching one
 *    page costs one lookup no matter the vector length;
 *  - a gather/scatter translates per element (the index vector is
 *    fully available at issue), so its TLB behaviour follows the
 *    recorded IndexPattern: a bank-friendly permutation stays inside
 *    one page window while uniform-random indices thrash any
 *    small TLB.
 *
 * Refill policy (TlbRefill): a HardwareWalk charges missPenalty
 * stall cycles per refill inside the memory model, serializing the
 * stream's setup. SoftwareTrap instead raises a precise trap through
 * the OOOVA's existing squash-and-replay path (late commit only; the
 * trap handler installs the missing translations, so the replay
 * hits). Machines without a precise-trap path — the REF machine, or
 * the OOOVA under early commit — fall back to hardware-walk charging
 * so a software-refill configuration is never silently free.
 *
 * Accounting note for SoftwareTrap: the faulting attempt records its
 * misses when the trap handler installs the translations, charging
 * no stall cycles — the cost is the trap penalty, visible in cycles
 * and SimResult::traps — and the replayed attempt's lookups count as
 * hits. Misses that still reach a reserve() (fallback machines, or
 * the residue of a stream too large for the TLB to hold at once)
 * walk in hardware and accrue tlbMissCycles as usual.
 */

#ifndef OOVA_MEM_TLB_HH
#define OOVA_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/configwalk.hh"
#include "common/types.hh"

namespace oova
{

/**
 * Plain-data snapshot of a TLB's translation array and counters for
 * the invariant audit (src/check/): the set geometry, every way's
 * contents and the LRU/stat state, with no back-pointers into the
 * live structure, so the checker logic can be exercised on
 * hand-built (corrupted) views in tests.
 */
struct TlbAuditView
{
    struct Way
    {
        bool valid = false;
        Addr page = 0;
        uint64_t lastUse = 0;
    };

    unsigned sets = 0;
    unsigned assoc = 0;
    /** sets * assoc entries, set-major (set i at [i*assoc, ...)). */
    std::vector<Way> ways;

    uint64_t tick = 0; ///< LRU timestamp source == lookups performed
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t indexedMisses = 0;
    uint64_t missCycles = 0;
};

/** How a TLB miss is refilled. */
enum class TlbRefill : uint8_t
{
    /** Hardware page walk: missPenalty stall cycles per refill. */
    HardwareWalk,
    /**
     * Software-managed TLB: a miss raises a precise trap on the
     * OOOVA's late-commit path (the handler installs the missing
     * translations and the instruction replays). Falls back to
     * hardware-walk charging on machines without a precise-trap
     * path.
     */
    SoftwareTrap,
};

/** TLB configuration, embedded in MemConfig. */
struct TlbConfig
{
    /**
     * Off by default: translation is free and invisible, so every
     * pre-existing figure and machine label is byte-identical.
     */
    bool enabled = false;

    /** Translation entries. */
    unsigned entries = 64;
    /** Page size in bytes (a power of two). */
    unsigned pageBytes = 4096;
    /** Ways per set (>= entries means fully associative). */
    unsigned associativity = 4;
    /** Stall cycles charged per hardware page walk. */
    unsigned missPenalty = 30;

    TlbRefill refill = TlbRefill::HardwareWalk;

    /**
     * Config suffix appended to the memory-model label, e.g.
     * "/t64e4k" (64 entries, 4 KiB pages), "/t16e4ka2" (2-way),
     * "/t64e4ks" (software refill). Empty while disabled, so default
     * labels are untouched.
     */
    std::string label() const;
};

/**
 * Every TlbConfig member, named once (see common/configwalk.hh). The
 * rules hold wherever a TLB is built; validate() adds the two that
 * span members.
 */
template <ConfigOf<TlbConfig> Cfg, typename Visitor>
void
walkConfig(Cfg &t, Visitor &v)
{
    v.field("enabled", t.enabled);
    v.field("entries", t.entries);
    // pageOf() runs once per gather element: a shift, not a divide.
    v.field("pageBytes", t.pageBytes,
            {.pow2 = true, .what = "TLB page size %u is not a power of two"});
    v.field("associativity", t.associativity);
    v.field("missPenalty", t.missPenalty);
    v.field("refill", t.refill);
}

/**
 * The TLB proper: one set-associative translation array with LRU
 * replacement, plus the hit/miss/stall counters surfaced through
 * MemStats. Owned by the MemorySystem that makeMemorySystem builds
 * when translation is enabled, whose reserve() translates every
 * stream through it; the simulators read it via MemorySystem::tlb()
 * to probe for software-refill traps and refill it through
 * MemorySystem::refill().
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    const TlbConfig &config() const { return cfg_; }

    /** Page number of a byte address. */
    Addr pageOf(Addr a) const { return a >> pageShift_; }

    /**
     * The lookup sequence of a strided stream: one entry per page
     * crossing, in first-touch order (a page re-entered later in the
     * stream appears again — it is looked up again, and normally
     * hits). Empty for zero-element streams.
     */
    std::vector<Addr> stridedPages(Addr addr, int64_t stride_bytes,
                                   unsigned elems) const;

    /** Allocation-free variant: clears and fills @p out. */
    void stridedPages(Addr addr, int64_t stride_bytes, unsigned elems,
                      std::vector<Addr> &out) const;

    /**
     * The lookup sequence of a gather/scatter: one entry per
     * element, duplicates preserved — per-element translation is
     * what makes a random gather expensive.
     */
    std::vector<Addr>
    indexedPages(const std::vector<Addr> &elem_addrs) const;

    /** Allocation-free variant: clears and fills @p out. */
    void indexedPages(const std::vector<Addr> &elem_addrs,
                      std::vector<Addr> &out) const;

    /**
     * Perform the lookups of one stream, filling on miss, and
     * return the stall cycles its hardware walks cost. @p indexed
     * routes miss counts into the indexed counters.
     */
    unsigned translate(const std::vector<Addr> &pages, bool indexed);

    /** Would any lookup of @p pages miss? No state/stat change. */
    bool wouldMiss(const std::vector<Addr> &pages) const;

    /**
     * Software refill at trap time: install every page of @p pages
     * that is absent, counting each installation as a miss (indexed
     * or strided per @p indexed) but charging no stall cycles.
     * Returns the number installed.
     */
    unsigned install(const std::vector<Addr> &pages, bool indexed);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t indexedMisses() const { return indexedMisses_; }
    uint64_t missCycles() const { return missCycles_; }

    /**
     * Valid entries right now. O(1): maintained at insert time
     * (nothing ever invalidates an entry), so the occupancy
     * telemetry can sample it every calendar advance.
     */
    unsigned residentPages() const { return valid_; }

    /** Snapshot for the invariant audit (see TlbAuditView). */
    TlbAuditView auditView() const;

  private:
    using Entry = TlbAuditView::Way;

    /** @p page's way, stamped with the current tick, or nullptr. */
    Entry *find(Addr page);
    /** @p page's way, or nullptr; no state changes. */
    const Entry *peek(Addr page) const;
    /**
     * Fill @p page into the first invalid way of its set, else the
     * least recently used one, stamped with the current tick.
     */
    Entry *insert(Addr page);
    /**
     * The lookups of one stream, filling on miss: the walk translate()
     * and install() share. Counts the misses (indexed or strided per
     * @p indexed) and returns how many there were; every other lookup
     * hit.
     */
    unsigned lookup(const std::vector<Addr> &pages, bool indexed);

    TlbConfig cfg_;
    unsigned pageShift_ = 0; ///< log2(pageBytes)
    unsigned sets_ = 0;
    unsigned assoc_ = 0;
    /** sets_ * assoc_ entries, set-major. */
    std::vector<Entry> ways_;
    unsigned valid_ = 0; ///< valid ways (grows monotonically)
    uint64_t tick_ = 0;  ///< LRU timestamp source (not cycles)

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t indexedMisses_ = 0;
    uint64_t missCycles_ = 0;
};

} // namespace oova

#endif // OOVA_MEM_TLB_HH
