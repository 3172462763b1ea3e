#include "mem/memsystem.hh"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace oova
{

namespace
{

/** log2 of the word size: the bank interleave is one word. */
constexpr unsigned kWordShift = std::countr_zero(kWordBytes);
/** log2 of the cache line size. */
constexpr unsigned kLineShift = std::countr_zero(kLineBytes);

/** Element @p i of a strided stream, wrapping mod 2^64. */
Addr
elemAddr(Addr addr, int64_t stride, unsigned i)
{
    return addr + uint64_t{i} * static_cast<uint64_t>(stride);
}

/**
 * Copy @p tlb's counters into @p s: after each translation and each
 * refill, the only two places they change.
 */
void
copyTlbStats(const Tlb &tlb, MemStats &s)
{
    s.tlbHits = tlb.hits();
    s.tlbMisses = tlb.misses();
    s.tlbIndexedMisses = tlb.indexedMisses();
    s.tlbMissCycles = tlb.missCycles();
}

/**
 * [lo, hi) of the unit indices eligible for @p op under @p cfg: all
 * units under Shared, the first ceil(N/2) for loads / the rest for
 * stores under Split.
 */
std::pair<unsigned, unsigned>
memUnitRange(const MemConfig &cfg, MemOp op)
{
    unsigned n = cfg.memUnits;
    if (cfg.lsPolicy != LsPolicy::Split || n < 2)
        return {0, n};
    unsigned load_units = (n + 1) / 2;
    return op == MemOp::Load
               ? std::pair<unsigned, unsigned>{0, load_units}
               : std::pair<unsigned, unsigned>{load_units, n};
}

/**
 * The banked model's stream assignment: tracks when each memory
 * unit's address phase frees up and picks the earliest-free unit
 * among those eligible for a stream's direction (memUnitRange).
 */
class UnitPool
{
  public:
    explicit UnitPool(const MemConfig &cfg)
        : freeAt_(cfg.memUnits, 0),
          loadRange_(memUnitRange(cfg, MemOp::Load)),
          storeRange_(memUnitRange(cfg, MemOp::Store))
    {
    }

    /** Earliest-free eligible unit (lowest index wins ties). */
    unsigned
    pick(MemOp op) const
    {
        auto [lo, hi] = op == MemOp::Load ? loadRange_ : storeRange_;
        unsigned best = lo;
        for (unsigned u = lo + 1; u < hi; ++u)
            if (freeAt_[u] < freeAt_[best])
                best = u;
        return best;
    }

    Cycle freeAt(MemOp op) const { return freeAt_[pick(op)]; }

    Cycle &operator[](unsigned u) { return freeAt_[u]; }

  private:
    std::vector<Cycle> freeAt_;
    std::pair<unsigned, unsigned> loadRange_;
    std::pair<unsigned, unsigned> storeRange_;
};

/**
 * Coalesces consecutive per-element busy cycles into runs before
 * recording them, so a stream adds O(conflict sites) intervals
 * instead of O(elements). Shared by the banked and cached models;
 * flushes the open run on destruction.
 */
class BusyRunMerger
{
  public:
    explicit BusyRunMerger(IntervalRecorder &rec) : rec_(rec) {}

    /** Record cycle @p t busy; cycles arrive increasing. */
    void
    add(Cycle t)
    {
        if (runStart_ == kNoCycle) {
            runStart_ = t;
        } else if (t != runEnd_) {
            rec_.add(runStart_, runEnd_);
            runStart_ = t;
        }
        runEnd_ = t + 1;
    }

    /** Record cycles [t0, t0 + n) busy, as n calls of add() would. */
    void
    addRun(Cycle t0, Cycle n)
    {
        if (n == 0)
            return;
        add(t0);
        runEnd_ = std::max(runEnd_, t0 + n);
    }

    ~BusyRunMerger()
    {
        if (runStart_ != kNoCycle)
            rec_.add(runStart_, runEnd_);
    }

  private:
    IntervalRecorder &rec_;
    Cycle runStart_ = kNoCycle, runEnd_ = 0;
};

/**
 * The paper's model: one exclusive, serializing address bus driving
 * one address per cycle, plus a fixed latency to data. Addresses
 * never matter (there are no banks), so indexed streams time exactly
 * like strided ones: a stream of n elements granted at cycle s
 * occupies [s, s+n) and element i's data arrives at s + i + latency.
 * A stream is granted no earlier than requested and no earlier than
 * the previous stream's address phase ends.
 */
class FlatBus : public MemorySystem
{
  public:
    explicit FlatBus(unsigned latency) : latency_(latency) {}

    Cycle freeAt(MemOp) const override { return freeAt_; }

  private:
    MemAccess
    place(Cycle earliest, Addr, int64_t, unsigned elems,
          MemOp) override
    {
        MemAccess acc;
        if (elems == 0) {
            acc.start = acc.end = earliest;
            acc.firstData = acc.lastData = earliest + latency_;
            return acc;
        }
        acc.start = std::max(earliest, freeAt_);
        acc.end = freeAt_ = acc.start + elems;
        acc.firstData = acc.start + latency_;
        acc.lastData = acc.end + latency_;
        stats_.requests += elems;
        busy_.add(acc.start, acc.end);
        return acc;
    }

    MemAccess
    place(Cycle earliest, const std::vector<Addr> &elem_addrs,
          MemOp op) override
    {
        // No banks: only the element count matters.
        return place(earliest, 0, 0,
                     static_cast<unsigned>(elem_addrs.size()), op);
    }

    unsigned latency_;
    Cycle freeAt_ = 0;
};

/**
 * Word-interleaved banks behind one address port per unit. Addresses
 * of one stream are generated in order, one per cycle at most; each
 * element takes the first cycle after its predecessor's that finds
 * its bank free, and then holds its bank for kBankBusyCycles. Streams
 * on the same unit serialize as on the flat bus; streams on
 * different units overlap, colliding only where they share banks.
 */
class BankedMemory : public MemorySystem
{
  public:
    BankedMemory(const MemConfig &cfg, unsigned latency)
        : latency_(latency), bankMask_(cfg.banks - 1),
          bankFreeAt_(cfg.banks, 0), units_(cfg)
    {
    }

    Cycle freeAt(MemOp op) const override { return units_.freeAt(op); }

  private:
    MemAccess
    place(Cycle earliest, Addr addr, int64_t stride, unsigned elems,
          MemOp op) override
    {
        return stream(earliest, op, false, stride, elems,
                      [&](unsigned i) {
                          return elemAddr(addr, stride, i);
                      });
    }

    MemAccess
    place(Cycle earliest, const std::vector<Addr> &elem_addrs,
          MemOp op) override
    {
        return stream(earliest, op, true, 0,
                      static_cast<unsigned>(elem_addrs.size()),
                      [&](unsigned i) { return elem_addrs[i]; });
    }

    /** @p stride: the byte stride of a strided (!@p indexed) stream. */
    template <typename AddrOf>
    MemAccess
    stream(Cycle earliest, MemOp op, bool indexed, int64_t stride,
           unsigned elems, AddrOf addr_of)
    {
        MemAccess acc;
        if (elems == 0) {
            acc.start = acc.end = earliest;
            acc.firstData = acc.lastData = earliest + latency_;
            return acc;
        }
        unsigned u = units_.pick(op);
        Cycle cur = std::max(earliest, units_[u]);
        Cycle last = cur;
        BusyRunMerger busy(busy_);
        unsigned period = indexed ? 0 : steadyPeriod(stride);
        unsigned streak = 0; // elements issued on back-to-back cycles
        for (unsigned i = 0; i < elems; ++i) {
            unsigned bank = bankOf(addr_of(i));
            Cycle t = cur;
            if (bankFreeAt_[bank] > t) {
                Cycle delayed = bankFreeAt_[bank];
                ++stats_.bankConflicts;
                stats_.conflictCycles += delayed - t;
                if (indexed) {
                    ++stats_.indexedConflicts;
                    stats_.indexedConflictCycles += delayed - t;
                }
                t = delayed;
            }
            bankFreeAt_[bank] = t + kBankBusyCycles;
            busy.add(t);
            if (i == 0)
                acc.start = t;
            streak = i > 0 && t == last + 1 ? streak + 1 : 1;
            last = t;
            cur = t + 1;
            if (period == 0 || streak < period || i + 1 == elems)
                continue;
            // The last `period` elements went out on back-to-back
            // cycles, so each later element's bank was taken by this
            // stream `period` >= kBankBusyCycles cycles before its
            // turn and is free again: the rest go out one per cycle.
            // Only the last period of them leaves a bank time behind.
            unsigned rest = elems - 1 - i;
            for (unsigned j = elems - std::min(period, rest); j < elems;
                 ++j)
                bankFreeAt_[bankOf(addr_of(j))] =
                    t + (j - i) + kBankBusyCycles;
            busy.addRun(t + 1, rest);
            last = t + rest;
            break;
        }
        stats_.requests += elems;
        acc.end = last + 1;
        acc.firstData = acc.start + latency_;
        acc.lastData = last + 1 + latency_;
        units_[u] = acc.end;
        return acc;
    }

    unsigned
    bankOf(Addr a) const
    {
        return static_cast<unsigned>((a >> kWordShift) & bankMask_);
    }

    /**
     * The bank-sequence period of a strided stream, or 0 when the
     * steady-state shortcut does not apply. A stride of whole words
     * steps the bank by a constant mod the bank count, so the banks
     * repeat every banks / gcd(step, banks) elements, all distinct
     * within a period. The shortcut needs a period of at least
     * kBankBusyCycles cycles (else the stream conflicts with itself).
     */
    unsigned
    steadyPeriod(int64_t stride) const
    {
        auto s = static_cast<uint64_t>(stride);
        if ((s & (kWordBytes - 1)) != 0)
            return 0;
        auto step = static_cast<unsigned>((s >> kWordShift) & bankMask_);
        unsigned period =
            step == 0 ? 1 : (bankMask_ + 1) >> std::countr_zero(step);
        return period >= kBankBusyCycles ? period : 0;
    }

    unsigned latency_;
    unsigned bankMask_; ///< banks - 1 (the bank count is 2^k)
    std::vector<Cycle> bankFreeAt_;
    UnitPool units_;
};

/**
 * A non-blocking set-associative cache in front of the paper's flat
 * bus. Its one front drives one element address per cycle. Hits
 * return data after kCacheHitLatency (or when their line's
 * outstanding fill lands). A miss claims an MSHR — stalling the
 * address stream when none is free — and fetches the whole line over
 * one line bus, one word per cycle, fills serializing in miss order;
 * later accesses to that line merge with the in-flight fill. Loads
 * and stores are treated uniformly (allocate-on-miss), which keeps
 * the model simple and symmetric with the other two. Indexed streams
 * probe the cache with their real element addresses, so gather
 * locality (or the lack of it) is what decides their hit rate.
 */
class CachedMemory : public MemorySystem
{
  public:
    CachedMemory(const MemConfig &cfg, unsigned latency)
        : latency_(latency)
    {
        unsigned sets = cfg.cacheBytes / (kLineBytes * kCacheWays);
        setMask_ = sets - 1;
        ways_.assign(static_cast<size_t>(sets) * kCacheWays, Way{});
        mshrFreeAt_.assign(cfg.mshrs, 0);
    }

    Cycle freeAt(MemOp) const override { return frontFreeAt_; }

    unsigned
    inFlightMshrs(Cycle now) const override
    {
        unsigned busy = 0;
        for (Cycle free_at : mshrFreeAt_)
            busy += free_at > now ? 1 : 0;
        return busy;
    }

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        Cycle lastUse = 0;
        Cycle fillDone = 0;
    };

    MemAccess
    place(Cycle earliest, Addr addr, int64_t stride, unsigned elems,
          MemOp) override
    {
        return stream(earliest, false, stride, elems,
                      [&](unsigned i) {
                          return elemAddr(addr, stride, i);
                      });
    }

    MemAccess
    place(Cycle earliest, const std::vector<Addr> &elem_addrs,
          MemOp) override
    {
        return stream(earliest, true, 0,
                      static_cast<unsigned>(elem_addrs.size()),
                      [&](unsigned i) { return elem_addrs[i]; });
    }

    /** @p stride: the byte stride of a strided (!@p indexed) stream. */
    template <typename AddrOf>
    MemAccess
    stream(Cycle earliest, bool indexed, int64_t stride, unsigned elems,
           AddrOf addr_of)
    {
        MemAccess acc;
        if (elems == 0) {
            acc.start = acc.end = earliest;
            acc.firstData = acc.lastData = earliest + kCacheHitLatency;
            return acc;
        }
        Cycle cur = std::max(earliest, frontFreeAt_);
        Cycle last = cur;
        Cycle maxDataAt = 0;
        BusyRunMerger busy(busy_);
        for (unsigned i = 0; i < elems; ++i) {
            Addr a = addr_of(i);
            Addr line = a >> kLineShift;
            Cycle t = cur;
            Cycle dataAt;
            Way *w = lookup(line);
            if (w) {
                ++stats_.cacheHits;
                dataAt = std::max(t + kCacheHitLatency, w->fillDone);
                w->lastUse = t;
            } else {
                ++stats_.cacheMisses;
                auto m = std::min_element(mshrFreeAt_.begin(),
                                          mshrFreeAt_.end());
                if (*m > t) {
                    stats_.mshrStallCycles += *m - t;
                    t = *m;
                }
                // The fill takes the line bus for one cycle per word.
                // "requests" means this bus traffic (the figure-13
                // metric): a cache's job is to shrink it, so it counts
                // fill words, not the CPU-side element count (which
                // is cacheHits + cacheMisses). The line is usable on
                // the cycle its last word arrives (dataAt is a closed
                // arrival time, like the hit path's t + hit latency).
                Cycle fill = std::max(t, fillFreeAt_);
                fillFreeAt_ = fill + kLineElems;
                stats_.requests += kLineElems;
                dataAt = fill + kLineElems + latency_ - 1;
                *m = dataAt + 1;
                w = &victim(line);
                w->line = line;
                w->valid = true;
                w->lastUse = t;
                w->fillDone = dataAt;
            }
            busy.add(t);
            if (i == 0) {
                acc.start = t;
                acc.firstData = dataAt;
            }
            maxDataAt = std::max(maxDataAt, dataAt);
            last = t;
            cur = t + 1;
            if (indexed)
                continue;
            // The elements after this one that stay in its line hit
            // the way it now occupies, one per cycle, with no MSHR
            // wait: charge them as one run.
            unsigned run = sameBlockRun(a, stride, kLineShift,
                                        elems - 1 - i);
            if (run == 0)
                continue;
            stats_.cacheHits += run;
            last = t + run;
            w->lastUse = last;
            maxDataAt = std::max(
                maxDataAt, std::max(last + kCacheHitLatency, w->fillDone));
            busy.addRun(t + 1, run);
            cur = last + 1;
            i += run;
        }
        acc.end = last + 1;
        acc.lastData = maxDataAt + 1;
        frontFreeAt_ = acc.end;
        return acc;
    }

    Way *
    lookup(Addr line)
    {
        Way *set = &ways_[(line & setMask_) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].line == line)
                return &set[w];
        return nullptr;
    }

    /** LRU victim in @p line's set (invalid ways first). */
    Way &
    victim(Addr line)
    {
        Way *set = &ways_[(line & setMask_) * assoc_];
        Way *best = &set[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!set[w].valid)
                return set[w];
            if (set[w].lastUse < best->lastUse)
                best = &set[w];
        }
        return *best;
    }

    /** Words per line: the line bus cycles of one fill. */
    static constexpr unsigned kLineElems = kLineBytes / kWordBytes;

    unsigned latency_;
    /**
     * kCacheWays, read at run time: with the way count a compile-time
     * constant, GCC 12 unrolls victim()'s scan, and the cached gather
     * row of BM_MemReserve (bench/simspeed.cc) ran about 20% slower
     * on a 4-vCPU x86-64 host.
     */
    unsigned assoc_ = kCacheWays;
    Addr setMask_ = 0; ///< sets - 1 (the set count is 2^k)
    std::vector<Way> ways_;
    std::vector<Cycle> mshrFreeAt_;
    Cycle frontFreeAt_ = 0; ///< end of the front's last address phase
    Cycle fillFreeAt_ = 0;  ///< end of the line bus's last fill
};

} // namespace

MemAccess
MemorySystem::reserve(Cycle earliest, Addr addr, int64_t stride_bytes,
                      unsigned elems, MemOp op)
{
    if (tlb_ && elems > 0) {
        tlb_->stridedPages(addr, stride_bytes, elems, pageScratch_);
        earliest += tlb_->translate(pageScratch_, false);
        copyTlbStats(*tlb_, stats_);
    }
    return place(earliest, addr, stride_bytes, elems, op);
}

MemAccess
MemorySystem::reserve(Cycle earliest, const std::vector<Addr> &elem_addrs,
                      MemOp op)
{
    if (tlb_ && !elem_addrs.empty()) {
        tlb_->indexedPages(elem_addrs, pageScratch_);
        earliest += tlb_->translate(pageScratch_, true);
        copyTlbStats(*tlb_, stats_);
    }
    return place(earliest, elem_addrs, op);
}

void
MemorySystem::refill(const std::vector<Addr> &pages, bool indexed)
{
    sim_assert(tlb_, "TLB refill without a TLB");
    tlb_->install(pages, indexed);
    copyTlbStats(*tlb_, stats_);
}

std::string
MemConfig::label() const
{
    std::string l;
    switch (model) {
    case MemModel::FlatBus:
        break;
    case MemModel::Banked:
        l = csprintf("/mb%up1", banks);
        if (memUnits > 1)
            l += csprintf("x%u%s", memUnits,
                          lsPolicy == LsPolicy::Split ? "s" : "");
        break;
    case MemModel::Cached:
        l = csprintf("/c%uk%uw%um", cacheBytes / 1024, kCacheWays, mshrs);
        break;
    }
    return l + tlb.label();
}

MemConfig
makeBankedMem(unsigned banks)
{
    MemConfig cfg;
    cfg.model = MemModel::Banked;
    cfg.banks = banks;
    return cfg;
}

MemConfig
makeMultiUnitMem(unsigned banks, unsigned units, LsPolicy policy)
{
    MemConfig cfg = makeBankedMem(banks);
    cfg.memUnits = units;
    cfg.lsPolicy = policy;
    return cfg;
}

MemConfig
makeCachedMem(unsigned cache_bytes, unsigned mshrs)
{
    MemConfig cfg;
    cfg.model = MemModel::Cached;
    cfg.cacheBytes = cache_bytes;
    cfg.mshrs = mshrs;
    return cfg;
}

namespace
{

/**
 * Applies the rule each walk states for a member. Nested structs are
 * left to their own validate(), which the caller runs where it
 * applies.
 */
struct RuleCheck
{
    template <typename T>
    void
    field(const char *, const T &value, const ConfigField &f = {})
    {
        auto v = static_cast<uint64_t>(value);
        if (!f.holds(v))
            fatal(f.what, static_cast<unsigned>(v), f.min);
    }

    template <typename T>
    void
    unkeyed(const char *, const T &)
    {
    }

    template <typename C>
    void
    nest(const char *, const C &)
    {
    }
};

} // namespace

void
validate(const TlbConfig &cfg)
{
    if (cfg.entries == 0 || cfg.pageBytes == 0)
        fatal("TLB needs >= 1 entry and a non-zero page size");
    RuleCheck check;
    walkConfig(cfg, check);
    // Refuse to round: a 10-entry 4-way config would silently hold
    // 8 translations while its /tNe label claimed 10.
    unsigned ways = std::min(kTlbWays, cfg.entries);
    if (cfg.entries % ways != 0)
        fatal("TLB: %u entries not divisible by %u ways", cfg.entries,
              ways);
}

void
validate(const MemConfig &cfg)
{
    // The flat bus and the cache front are one unit each, as in the
    // paper's machines; only the banked model has a unit pool.
    if (cfg.memUnits > 1 && cfg.model != MemModel::Banked)
        fatal("%u load/store units need the banked memory model",
              cfg.memUnits);
    RuleCheck check;
    walkConfig(cfg, check);
    if (cfg.model == MemModel::Cached) {
        // Refuse to round: 33000 bytes would model a 32 KiB cache
        // under the same /c32k label. The set index is a mask, so the
        // set count must be a power of two.
        constexpr unsigned way_bytes = kLineBytes * kCacheWays;
        if (cfg.cacheBytes % way_bytes != 0)
            fatal("cache: %u bytes is not a whole number of %u-byte "
                  "lines x %u ways",
                  cfg.cacheBytes, kLineBytes, kCacheWays);
        unsigned sets = cfg.cacheBytes / way_bytes;
        if (!std::has_single_bit(sets))
            fatal("cache: %u sets (%u bytes / %u-byte lines / %u "
                  "ways) is not a power of two",
                  sets, cfg.cacheBytes, kLineBytes, kCacheWays);
    }
    if (cfg.tlb.enabled)
        validate(cfg.tlb);
}

std::unique_ptr<MemorySystem>
makeMemorySystem(const MemConfig &cfg, unsigned mem_latency)
{
    validate(cfg);
    std::unique_ptr<MemorySystem> mem;
    switch (cfg.model) {
    case MemModel::FlatBus:
        mem = std::make_unique<FlatBus>(mem_latency);
        break;
    case MemModel::Banked:
        mem = std::make_unique<BankedMemory>(cfg, mem_latency);
        break;
    case MemModel::Cached:
        mem = std::make_unique<CachedMemory>(cfg, mem_latency);
        break;
    }
    if (cfg.tlb.enabled)
        mem->tlb_.emplace(cfg.tlb);
    return mem;
}

} // namespace oova
