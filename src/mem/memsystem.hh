/**
 * @file
 * The pluggable memory hierarchy.
 *
 * The paper's memory system (section 2.2) is the simplest possible:
 * one contended address bus and a fixed main-memory latency. That
 * model is preserved here as FlatBus, the default, and every paper
 * figure is byte-identical under it. Two richer models slot in
 * behind the same interface:
 *
 *  - BankedMemory: N word-interleaved banks with a per-bank busy
 *    time, so strided vector streams suffer realistic bank conflicts
 *    (stride vs. bank-count interactions, as in multi-banked vector
 *    machines such as Ara and the RISC-V vector evaluations of
 *    Ramirez et al.).
 *  - CachedMemory: a simple non-blocking 4-way cache front with
 *    64-byte lines (configurable size, MSHR-limited outstanding
 *    misses) over the flat bus.
 *
 * The interface is stream-oriented, matching how both simulators
 * talk to memory: a memory instruction reserves a stream of element
 * accesses (base address + stride, or an explicit per-element
 * address vector for gather/scatter) and gets back the address-phase
 * occupancy window plus the data arrival window, from which the
 * simulators derive chaining and completion times. The memory
 * latency lives inside the model (FlatBus adds the fixed latency;
 * CachedMemory shortens it on hits).
 *
 * Translation is the first step of every reserve(): with
 * MemConfig::tlb enabled, the stream's pages are looked up in the TLB
 * (mem/tlb.hh) and the stream waits out the walk stall before the
 * model places it. Software refills go through refill().
 *
 * The flat bus and the cache drive one stream at a time, as the
 * paper's REF and OOOVA each have one memory unit. The banked model
 * alone takes N load/store units (MemConfig::memUnits), which only
 * the OOOVA drives: streams assigned to different units overlap
 * their address phases, colliding only where they share banks, which
 * is what lets independent streams on disjoint banks proceed in
 * parallel. A Split policy dedicates units to loads and stores
 * respectively, as in decoupled vector load/store pipelines.
 */

#ifndef OOVA_MEM_MEMSYSTEM_HH
#define OOVA_MEM_MEMSYSTEM_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/configwalk.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/tlb.hh"

namespace oova
{

/** Machine word size; the interleave/line unit of every model. */
constexpr unsigned kWordBytes = 8;
/** Cycles a bank stays busy after accepting one access. */
constexpr unsigned kBankBusyCycles = 4;
/** The cache's line size and ways. */
constexpr unsigned kLineBytes = 64;
constexpr unsigned kCacheWays = 4;
/** Data latency of a cache hit. */
constexpr unsigned kCacheHitLatency = 2;

/** Which concrete memory model to instantiate. */
enum class MemModel : uint8_t
{
    FlatBus, ///< the paper's single address bus + fixed latency
    Banked,  ///< interleaved banks, bank busy time
    Cached,  ///< non-blocking cache front over a flat bus
};

/**
 * Whether a reserved stream reads or writes memory. Only the banked
 * model's unit assignment cares (a Split configuration dedicates
 * units per direction); timing within a unit is direction-agnostic,
 * as in the paper's shared address bus.
 */
enum class MemOp : uint8_t
{
    Load,
    Store,
};

/** How banked streams are assigned when there is more than one unit. */
enum class LsPolicy : uint8_t
{
    /** Any unit may serve any stream (earliest-free wins). */
    Shared,
    /**
     * Dedicated load and store units: the first ceil(N/2) units
     * serve loads, the rest serve stores (Saturn-style split vector
     * load/store scheduling). Ignored with a single unit.
     */
    Split,
};

/** Memory-hierarchy configuration, embedded in both machine configs. */
struct MemConfig
{
    MemModel model = MemModel::FlatBus;

    // ---- memory-unit knobs (BankedMemory only) ----
    /**
     * Number of independent load/store units. Each unit serializes
     * the address phases of the streams assigned to it; different
     * units overlap, colliding only where they share banks. The
     * default single unit is the paper's one-memory-unit machine;
     * makeMemorySystem refuses more than one on the flat bus or the
     * cache, and the REF machine on any model.
     */
    unsigned memUnits = 1;
    /** Stream-to-unit assignment when a banked memUnits > 1. */
    LsPolicy lsPolicy = LsPolicy::Shared;

    // ---- BankedMemory knobs ----
    /** Number of word-interleaved banks (a power of two). */
    unsigned banks = 8;

    // ---- CachedMemory knobs ----
    /** Exactly kLineBytes x kCacheWays x a power-of-two set count. */
    unsigned cacheBytes = 32 * 1024;
    /** Outstanding-miss registers; misses stall when all are busy. */
    unsigned mshrs = 8;

    // ---- translation knobs (all models) ----
    /**
     * The TLB in front of the model (see mem/tlb.hh). Disabled by
     * default: translation is free, labels and timings untouched.
     */
    TlbConfig tlb;

    /**
     * Config suffix appended to machine names, e.g. "/mb8p1",
     * "/mb8p1x2" (two shared banked units), "/mb8p1x2s" (split
     * load/store units), "/c32k4w8m" or "/t64e4k" (TLB in front of
     * the default flat bus). Empty for the default FlatBus so the
     * seed machine labels (and every paper table) are unchanged.
     */
    std::string label() const;
};

/**
 * Every MemConfig member, named once (see common/configwalk.hh). Bank
 * indices are a mask, so the bank count must be a power of two;
 * validate() adds the rules that span members.
 */
template <ConfigOf<MemConfig> Cfg, typename Visitor>
void
walkConfig(Cfg &m, Visitor &v)
{
    const bool banked = m.model == MemModel::Banked;
    v.field("model", m.model,
            {.max = static_cast<unsigned>(MemModel::Cached),
             .what = "unknown memory model %u"});
    v.field("memUnits", m.memUnits,
            {.min = 1, .what = "memory system needs >= 1 load/store unit"});
    v.field("lsPolicy", m.lsPolicy);
    v.field("banks", m.banks,
            {.pow2 = true, .applies = banked,
             .what = "banked memory: %u banks is not a power of two"});
    v.field("cacheBytes", m.cacheBytes);
    v.field("mshrs", m.mshrs);
    v.nest("tlb", m.tlb);
}

/**
 * Stop with fatal() unless a TLB can be built from @p cfg: it has
 * entries and a page size, keeps the rules of its walk, and its ways
 * divide its entries.
 */
void validate(const TlbConfig &cfg);

/**
 * Stop with fatal() unless makeMemorySystem() can build @p cfg: only
 * the banked model takes several load/store units, then the rules of
 * the walk, then a cache's capacity is exactly kLineBytes x
 * kCacheWays x a power-of-two set count, and the TLB, if enabled, is
 * valid.
 */
void validate(const MemConfig &cfg);

/** Convenience builder for a banked configuration. */
MemConfig makeBankedMem(unsigned banks);

/** Banked configuration with @p units load/store units. */
MemConfig makeMultiUnitMem(unsigned banks, unsigned units,
                           LsPolicy policy = LsPolicy::Shared);

/** Convenience builder for a cached configuration. */
MemConfig makeCachedMem(unsigned cache_bytes = 32 * 1024,
                        unsigned mshrs = 8);

/**
 * Timing of one reserved element stream. All windows are half-open.
 * For the flat bus: start = bus grant, end = start + elems,
 * firstData = start + latency, lastData = end + latency.
 */
struct MemAccess
{
    /** Cycle the first address is driven. */
    Cycle start = 0;
    /** Cycle past the last address slot (address-phase end). */
    Cycle end = 0;
    /** Cycle the first element's data is available. */
    Cycle firstData = 0;
    /** Cycle past the last element's data. */
    Cycle lastData = 0;
};

/**
 * How many of the @p n elements after the one at @p a, in a stream of
 * byte stride @p stride, stay in the aligned 2^@p shift-byte block
 * holding @p a (a cache line, a TLB page). Addresses wrap mod 2^64
 * like addr + i * stride; for shift < 63 a wrapped element never
 * lands back in the block, so the elements that stay are exactly
 * those before the block's end (stride > 0) or at or above its start
 * (stride < 0). A zero stride stays put.
 */
inline unsigned
sameBlockRun(Addr a, int64_t stride, unsigned shift, unsigned n)
{
    Addr mask = (Addr{1} << shift) - 1;
    if (stride == 0)
        return n;
    uint64_t room = stride > 0 ? mask - (a & mask) : a & mask;
    uint64_t step = stride > 0 ? static_cast<uint64_t>(stride)
                               : 0 - static_cast<uint64_t>(stride);
    uint64_t stay = room / step;
    return stay < n ? static_cast<unsigned>(stay) : n;
}

/** Traffic and conflict counters; the flat bus moves only requests. */
struct MemStats
{
    /**
     * Element requests driven on the memory bus (the "requests" of
     * figure 13). Under CachedMemory this is the line bus's fill
     * traffic — the quantity a cache exists to shrink —
     * while the CPU-side access count is cacheHits + cacheMisses.
     */
    uint64_t requests = 0;
    /** Element issues that found their bank busy (all streams). */
    uint64_t bankConflicts = 0;
    /** Cycles those elements waited beyond port availability. */
    uint64_t conflictCycles = 0;
    /**
     * The subset of bankConflicts/conflictCycles charged to
     * index-vector (gather/scatter) streams.
     */
    uint64_t indexedConflicts = 0;
    uint64_t indexedConflictCycles = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Cycles misses waited for a free MSHR. */
    uint64_t mshrStallCycles = 0;
    /** TLB lookups that found their translation resident. */
    uint64_t tlbHits = 0;
    /**
     * TLB lookups that required a refill; the subset charged to
     * gather/scatter per-element translation is tlbIndexedMisses.
     */
    uint64_t tlbMisses = 0;
    uint64_t tlbIndexedMisses = 0;
    /** Stall cycles hardware page walks added to stream setup. */
    uint64_t tlbMissCycles = 0;
};

/**
 * Abstract memory system. One instance per simulated machine; not
 * thread-safe (each sweep job owns its own machine).
 *
 * Streams are reserved in issue order. reserve() translates a stream
 * through the optional TLB and hands it to the model's place(), which
 * serializes address phases on one unit. The banked model assigns
 * each stream to one of its units (MemConfig::memUnits / lsPolicy),
 * so streams on different units overlap, and dilates a stream's
 * phase on bank conflicts.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /**
     * Reserve a stream of @p elems element accesses starting at
     * @p addr with byte stride @p stride_bytes, no earlier than
     * @p earliest. With a TLB, the stream first looks up each page
     * it crosses and starts no earlier than @p earliest plus the
     * walk stall. Zero-element reservations are a no-op returning an
     * empty window at @p earliest.
     */
    MemAccess reserve(Cycle earliest, Addr addr, int64_t stride_bytes,
                      unsigned elems, MemOp op = MemOp::Load);

    /**
     * Index-vector overload: reserve one element access per entry
     * of @p elem_addrs — a gather/scatter whose real per-element
     * addresses are known, so translation (one lookup per element),
     * bank mapping and conflicts follow the actual index pattern
     * instead of a contiguous walk. Conflicts and TLB misses are
     * counted in the indexed counters of MemStats.
     */
    MemAccess reserve(Cycle earliest,
                      const std::vector<Addr> &elem_addrs,
                      MemOp op = MemOp::Load);

    /**
     * First cycle a unit eligible for @p op could begin a new
     * stream (the same for both directions unless a banked policy
     * splits load/store).
     */
    virtual Cycle freeAt(MemOp op) const = 0;

    /**
     * First cycle any unit could begin a new stream: the load and
     * store unit ranges together cover every unit.
     */
    Cycle
    freeAt() const
    {
        return std::min(freeAt(MemOp::Load), freeAt(MemOp::Store));
    }

    /** Occupancy, conflict and translation counters. */
    const MemStats &stats() const { return stats_; }

    /** Address-phase busy intervals (the MEM state component). */
    const IntervalRecorder &busy() const { return busy_; }

    /**
     * Miss-status registers still tracking an outstanding line fill
     * at @p now. Zero for models without a cache; the occupancy
     * telemetry layer samples this at event-calendar advances.
     */
    virtual unsigned
    inFlightMshrs(Cycle now) const
    {
        (void)now;
        return 0;
    }

    /**
     * The TLB in front of this model, or nullptr when translation is
     * disabled. The OOOVA probes it to route software-refilled
     * misses through its precise-trap path.
     */
    const Tlb *tlb() const { return tlb_ ? &*tlb_ : nullptr; }

    /**
     * Software refill at trap time: install the absent pages of
     * @p pages (see Tlb::install), counting them as misses in
     * stats() at once. Requires a TLB.
     */
    void refill(const std::vector<Addr> &pages, bool indexed);

  protected:
    /**
     * The model's half of reserve(): place an already translated
     * stream. Same contract as the reserve() overload of the same
     * shape, zero-element no-op included.
     */
    virtual MemAccess place(Cycle earliest, Addr addr,
                            int64_t stride_bytes, unsigned elems,
                            MemOp op) = 0;
    virtual MemAccess place(Cycle earliest,
                            const std::vector<Addr> &elem_addrs,
                            MemOp op) = 0;

    MemStats stats_;
    IntervalRecorder busy_;

  private:
    friend std::unique_ptr<MemorySystem>
    makeMemorySystem(const MemConfig &cfg, unsigned mem_latency);

    std::optional<Tlb> tlb_;
    /** Reusable page-sequence buffer (one stream at a time). */
    std::vector<Addr> pageScratch_;
};

/**
 * Instantiate the model selected by @p cfg. @p mem_latency is the
 * main-memory latency in cycles (from the machine's LatencyTable, so
 * the existing latency sweeps apply to every model).
 */
std::unique_ptr<MemorySystem> makeMemorySystem(const MemConfig &cfg,
                                               unsigned mem_latency);

} // namespace oova

#endif // OOVA_MEM_MEMSYSTEM_HH
