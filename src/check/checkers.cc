#include "check/checkers.hh"

#include <algorithm>

namespace oova::check
{

void
checkFreeListStructure(const RegFileAudit &rf, Reporter &r)
{
    const size_t n = rf.regs.size();
    std::vector<bool> listed(n, false);
    for (int idx : rf.freeList) {
        if (idx < 0 || static_cast<size_t>(idx) >= n) {
            r.fail("%s free list holds out-of-range index %d "
                   "(file size %zu)",
                   rf.cls, idx, n);
            continue;
        }
        if (listed[static_cast<size_t>(idx)]) {
            r.fail("%s preg %d appears twice in the free list",
                   rf.cls, idx);
            continue;
        }
        listed[static_cast<size_t>(idx)] = true;
    }
    for (size_t i = 0; i < n; ++i) {
        const RegAudit &p = rf.regs[i];
        if (p.inFreeList != listed[i]) {
            r.fail("%s preg %zu: inFreeList=%d but free-list "
                   "membership=%d",
                   rf.cls, i, static_cast<int>(p.inFreeList),
                   static_cast<int>(listed[i]));
        }
        // Exactly one of free / claimed: a free register holds no
        // claims, a register with no claims must be on the list.
        if (p.inFreeList && p.refCount != 0) {
            r.fail("%s preg %zu: on the free list with refCount=%d",
                   rf.cls, i, p.refCount);
        }
        if (!p.inFreeList && p.refCount == 0) {
            r.fail("%s preg %zu: refCount 0 but not on the free "
                   "list (leaked register)",
                   rf.cls, i);
        }
        if (p.refCount < 0) {
            r.fail("%s preg %zu: negative refCount %d", rf.cls, i,
                   p.refCount);
        }
        // A free register has no live subscribers: subscriptions die
        // with the ROB entries / eliminations that held the claims.
        if (p.inFreeList &&
            (p.srcRefs != 0 || p.dstRefs != 0 || p.elimRefs != 0)) {
            r.fail("%s preg %zu: free with live subscriptions "
                   "(src=%lld dst=%lld elim=%lld)",
                   rf.cls, i, static_cast<long long>(p.srcRefs),
                   static_cast<long long>(p.dstRefs),
                   static_cast<long long>(p.elimRefs));
        }
    }
}

void
checkCountsMatch(const char *what, const char *cls,
                 const std::vector<int64_t> &actual,
                 const std::vector<int64_t> &expected, Reporter &r)
{
    if (actual.size() != expected.size()) {
        r.fail("%s/%s: %zu registers audited against %zu expected",
               cls, what, actual.size(), expected.size());
        return;
    }
    for (size_t i = 0; i < actual.size(); ++i) {
        if (actual[i] != expected[i]) {
            r.fail("%s preg %zu: %s=%lld, ground truth %lld", cls, i,
                   what, static_cast<long long>(actual[i]),
                   static_cast<long long>(expected[i]));
        }
    }
}

void
checkAgeOrdered(const char *what, const std::vector<SeqNum> &seqs,
                Reporter &r)
{
    for (size_t i = 1; i < seqs.size(); ++i) {
        if (seqs[i] <= seqs[i - 1]) {
            r.fail("%s: seq %llu at position %zu not older than seq "
                   "%llu before it",
                   what, static_cast<unsigned long long>(seqs[i]), i,
                   static_cast<unsigned long long>(seqs[i - 1]));
        }
    }
}

void
checkScalarMatch(const char *what, uint64_t actual, uint64_t expected,
                 Reporter &r)
{
    if (actual != expected) {
        r.fail("%s=%llu, ground truth %llu", what,
               static_cast<unsigned long long>(actual),
               static_cast<unsigned long long>(expected));
    }
}

void
checkSlabSlots(const SlabAudit &slab, Reporter &r)
{
    enum : uint8_t { kHeld, kFree, kLive };
    std::vector<uint8_t> state(slab.allocated, kHeld);
    uint64_t n_free = 0, n_live = 0;
    for (uint32_t i : slab.freeSlots) {
        if (i >= slab.allocated) {
            r.fail("free slot %u out of range (%llu allocated)", i,
                   static_cast<unsigned long long>(slab.allocated));
        } else if (state[i] == kFree) {
            r.fail("slot %u is on the free list twice", i);
        } else {
            state[i] = kFree;
            ++n_free;
        }
    }
    for (uint32_t i : slab.reachable) {
        if (i >= slab.allocated) {
            r.fail("reachable slot %u out of range (%llu allocated)", i,
                   static_cast<unsigned long long>(slab.allocated));
        } else if (state[i] == kFree) {
            r.fail("freed slot %u is still reachable", i);
            state[i] = kLive; // report each slot once
        } else if (state[i] == kHeld) {
            state[i] = kLive;
            ++n_live;
        }
    }
    if (n_live + n_free < slab.allocated) {
        r.fail("%llu slots leaked: %llu allocated, %llu live, %llu free",
               static_cast<unsigned long long>(slab.allocated - n_live -
                                               n_free),
               static_cast<unsigned long long>(slab.allocated),
               static_cast<unsigned long long>(n_live),
               static_cast<unsigned long long>(n_free));
    }
    if (slab.runOver && n_live > 0) {
        r.fail("%llu slots still live after the run",
               static_cast<unsigned long long>(n_live));
    }
}

void
checkCalendarAgreement(Cycle calendarNext, Cycle scanNext,
                       Reporter &r)
{
    if (calendarNext == scanNext)
        return;
    if (scanNext < calendarNext) {
        r.fail("live state transition at cycle %llu earlier than "
               "calendar minimum %llu",
               static_cast<unsigned long long>(scanNext),
               static_cast<unsigned long long>(calendarNext));
    } else {
        r.fail("calendar event at cycle %llu matches no live state "
               "transition (next real: %llu)",
               static_cast<unsigned long long>(calendarNext),
               static_cast<unsigned long long>(scanNext));
    }
}

void
checkMemWindow(const MemAccess &acc, Cycle earliest, Reporter &r)
{
    if (acc.start < earliest) {
        r.fail("stream address phase starts at %llu, before the "
               "requested cycle %llu",
               static_cast<unsigned long long>(acc.start),
               static_cast<unsigned long long>(earliest));
    }
    if (acc.end < acc.start) {
        r.fail("stream address phase runs backwards: [%llu, %llu)",
               static_cast<unsigned long long>(acc.start),
               static_cast<unsigned long long>(acc.end));
    }
    if (acc.firstData < acc.start) {
        r.fail("first data at %llu precedes the address phase at "
               "%llu",
               static_cast<unsigned long long>(acc.firstData),
               static_cast<unsigned long long>(acc.start));
    }
    if (acc.lastData < acc.firstData) {
        r.fail("data window runs backwards: [%llu, %llu)",
               static_cast<unsigned long long>(acc.firstData),
               static_cast<unsigned long long>(acc.lastData));
    }
}

void
checkMemStatsBounds(const MemStats &s, Reporter &r)
{
    if (s.indexedConflicts > s.bankConflicts) {
        r.fail("indexedConflicts=%llu exceeds bankConflicts=%llu",
               static_cast<unsigned long long>(s.indexedConflicts),
               static_cast<unsigned long long>(s.bankConflicts));
    }
    if (s.indexedConflictCycles > s.conflictCycles) {
        r.fail("indexedConflictCycles=%llu exceeds "
               "conflictCycles=%llu",
               static_cast<unsigned long long>(
                   s.indexedConflictCycles),
               static_cast<unsigned long long>(s.conflictCycles));
    }
    if (s.tlbIndexedMisses > s.tlbMisses) {
        r.fail("tlbIndexedMisses=%llu exceeds tlbMisses=%llu",
               static_cast<unsigned long long>(s.tlbIndexedMisses),
               static_cast<unsigned long long>(s.tlbMisses));
    }
}

void
checkMemStatsMonotone(const MemStats &prev, const MemStats &cur,
                      Reporter &r)
{
    auto mono = [&](const char *what, uint64_t before,
                    uint64_t after) {
        if (after < before) {
            r.fail("%s went backwards: %llu -> %llu", what,
                   static_cast<unsigned long long>(before),
                   static_cast<unsigned long long>(after));
        }
    };
    mono("requests", prev.requests, cur.requests);
    mono("bankConflicts", prev.bankConflicts, cur.bankConflicts);
    mono("conflictCycles", prev.conflictCycles, cur.conflictCycles);
    mono("indexedConflicts", prev.indexedConflicts,
         cur.indexedConflicts);
    mono("indexedConflictCycles", prev.indexedConflictCycles,
         cur.indexedConflictCycles);
    mono("cacheHits", prev.cacheHits, cur.cacheHits);
    mono("cacheMisses", prev.cacheMisses, cur.cacheMisses);
    mono("mshrStallCycles", prev.mshrStallCycles,
         cur.mshrStallCycles);
    mono("tlbHits", prev.tlbHits, cur.tlbHits);
    mono("tlbMisses", prev.tlbMisses, cur.tlbMisses);
    mono("tlbIndexedMisses", prev.tlbIndexedMisses,
         cur.tlbIndexedMisses);
    mono("tlbMissCycles", prev.tlbMissCycles, cur.tlbMissCycles);
}

void
checkTlbSoundness(const TlbAuditView &v, Reporter &r)
{
    if (v.indexedMisses > v.misses) {
        r.fail("TLB indexedMisses=%llu exceeds misses=%llu",
               static_cast<unsigned long long>(v.indexedMisses),
               static_cast<unsigned long long>(v.misses));
    }
    // Every lookup bumps the tick; install()'s resident-page probes
    // bump it without counting a hit, so the sum is only bounded.
    if (v.hits + v.misses > v.tick) {
        r.fail("TLB hits+misses=%llu exceeds lookups performed "
               "(tick=%llu)",
               static_cast<unsigned long long>(v.hits + v.misses),
               static_cast<unsigned long long>(v.tick));
    }
    if (v.ways.size() != static_cast<size_t>(v.sets) * v.assoc) {
        r.fail("TLB: %zu ways for %u sets x %u assoc", v.ways.size(),
               v.sets, v.assoc);
        return;
    }
    if (v.sets == 0) {
        r.fail("TLB: zero sets with %zu ways", v.ways.size());
        return;
    }
    for (unsigned set = 0; set < v.sets; ++set) {
        const TlbAuditView::Way *ways =
            &v.ways[static_cast<size_t>(set) * v.assoc];
        for (unsigned w = 0; w < v.assoc; ++w) {
            if (!ways[w].valid)
                continue;
            if (ways[w].page % v.sets != set) {
                r.fail("TLB: page %llu stored in set %u, indexes "
                       "to set %llu",
                       static_cast<unsigned long long>(ways[w].page),
                       set,
                       static_cast<unsigned long long>(ways[w].page %
                                                       v.sets));
            }
            if (ways[w].lastUse > v.tick) {
                r.fail("TLB: set %u way %u lastUse=%llu is in the "
                       "future (tick=%llu)",
                       set, w,
                       static_cast<unsigned long long>(
                           ways[w].lastUse),
                       static_cast<unsigned long long>(v.tick));
            }
            for (unsigned w2 = w + 1; w2 < v.assoc; ++w2) {
                if (ways[w2].valid && ways[w2].page == ways[w].page) {
                    r.fail("TLB: page %llu duplicated in set %u "
                           "(ways %u and %u)",
                           static_cast<unsigned long long>(
                               ways[w].page),
                           set, w, w2);
                }
            }
        }
    }
}

void
checkCpiConservation(
    Cycle cycles, const std::array<uint64_t, kNumCpiBuckets> &buckets,
    Reporter &r)
{
    // A charge that went backwards wraps its bucket past the run's
    // length, and the wrapping sum alone could still come out right.
    uint64_t sum = 0;
    unsigned over = kNumCpiBuckets;
    for (unsigned b = 0; b < kNumCpiBuckets; ++b) {
        sum += buckets[b];
        if (buckets[b] > cycles && over == kNumCpiBuckets)
            over = b;
    }
    if (over < kNumCpiBuckets) {
        r.fail("CPI bucket %s holds %llu cycles, run took %llu",
               cpiBucketName(static_cast<CpiBucket>(over)),
               static_cast<unsigned long long>(buckets[over]),
               static_cast<unsigned long long>(cycles));
    }
    if (sum != cycles) {
        r.fail("CPI stack sums to %llu, run took %llu cycles "
               "(%s by %lld)",
               static_cast<unsigned long long>(sum),
               static_cast<unsigned long long>(cycles),
               sum < cycles ? "unattributed" : "overcharged",
               static_cast<long long>(
                   static_cast<int64_t>(cycles) -
                   static_cast<int64_t>(sum)));
    }
}

void
checkOccupancyConservation(
    Cycle cycles,
    const std::array<StatDistribution, kNumOccStructs> &occ,
    const std::array<StatTimeSeries, kNumOccStructs> &occ_ts,
    Reporter &r)
{
    for (size_t s = 0; s < kNumOccStructs; ++s) {
        const char *name =
            occStructName(static_cast<OccStruct>(s));
        if (occ[s].samples != 0 && occ[s].samples != cycles) {
            r.fail("occupancy[%s] holds %llu samples, run took "
                   "%llu cycles",
                   name,
                   static_cast<unsigned long long>(occ[s].samples),
                   static_cast<unsigned long long>(cycles));
        }
        if (occ_ts[s].total != 0 && occ_ts[s].total != cycles) {
            r.fail("occupancyTs[%s] holds %llu cycles of weight, "
                   "run took %llu cycles",
                   name,
                   static_cast<unsigned long long>(occ_ts[s].total),
                   static_cast<unsigned long long>(cycles));
        }
        uint64_t bucket_sum = 0;
        for (uint64_t b : occ[s].buckets)
            bucket_sum += b;
        if (bucket_sum != occ[s].samples) {
            r.fail("occupancy[%s] histogram sums to %llu, not its "
                   "%llu samples",
                   name,
                   static_cast<unsigned long long>(bucket_sum),
                   static_cast<unsigned long long>(occ[s].samples));
        }
    }
}

} // namespace oova::check
