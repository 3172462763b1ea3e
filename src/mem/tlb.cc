#include "mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "mem/memsystem.hh"

namespace oova
{

std::string
TlbConfig::label() const
{
    if (!enabled)
        return "";
    std::string l = csprintf("/t%ue", entries);
    if (pageBytes % 1024 == 0)
        l += csprintf("%uk", pageBytes / 1024);
    else
        l += csprintf("%ub", pageBytes);
    if (associativity != 4)
        l += csprintf("a%u", associativity);
    if (refill == TlbRefill::SoftwareTrap)
        l += "s";
    return l;
}

Tlb::Tlb(const TlbConfig &cfg) : cfg_(cfg)
{
    validate(cfg_);
    pageShift_ = static_cast<unsigned>(std::countr_zero(cfg_.pageBytes));
    assoc_ = std::min(std::max(cfg_.associativity, 1u), cfg_.entries);
    sets_ = cfg_.entries / assoc_;
    ways_.assign(cfg_.entries, Entry{});
}

Tlb::Entry *
Tlb::find(Addr page)
{
    Entry *set = &ways_[(page % sets_) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].page == page) {
            set[w].lastUse = tick_;
            return &set[w];
        }
    }
    return nullptr;
}

const Tlb::Entry *
Tlb::peek(Addr page) const
{
    const Entry *set = &ways_[(page % sets_) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (set[w].valid && set[w].page == page)
            return &set[w];
    return nullptr;
}

Tlb::Entry *
Tlb::insert(Addr page)
{
    Entry *set = &ways_[(page % sets_) * assoc_];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    if (!victim->valid)
        ++valid_;
    *victim = {true, page, tick_};
    return victim;
}

std::vector<Addr>
Tlb::stridedPages(Addr addr, int64_t stride_bytes,
                  unsigned elems) const
{
    std::vector<Addr> pages;
    stridedPages(addr, stride_bytes, elems, pages);
    return pages;
}

void
Tlb::stridedPages(Addr addr, int64_t stride_bytes, unsigned elems,
                  std::vector<Addr> &out) const
{
    out.clear();
    // Page by page: the elements after one that stay on its page add
    // no lookup, and the first element past them is on another page.
    Addr a = addr;
    for (unsigned left = elems; left > 0;) {
        out.push_back(pageOf(a));
        unsigned step = sameBlockRun(a, stride_bytes, pageShift_,
                                     left - 1) + 1;
        a += uint64_t{step} * static_cast<uint64_t>(stride_bytes);
        left -= step;
    }
}

std::vector<Addr>
Tlb::indexedPages(const std::vector<Addr> &elem_addrs) const
{
    std::vector<Addr> pages;
    indexedPages(elem_addrs, pages);
    return pages;
}

void
Tlb::indexedPages(const std::vector<Addr> &elem_addrs,
                  std::vector<Addr> &out) const
{
    out.clear();
    out.reserve(elem_addrs.size());
    for (Addr a : elem_addrs)
        out.push_back(pageOf(a));
}

unsigned
Tlb::lookup(const std::vector<Addr> &pages, bool indexed)
{
    unsigned missed = 0;
    // Page sequences repeat heavily (unit-stride re-entries,
    // congruent-mod gathers), so batch consecutive lookups of the
    // same page: a repeat of the page just touched always hits, so
    // counters, ticks and LRU timestamps are exactly those of the
    // full set walk.
    Entry *last = nullptr;
    Addr last_page = 0;
    for (Addr p : pages) {
        ++tick_;
        if (last && p == last_page) {
            last->lastUse = tick_;
            continue;
        }
        last_page = p;
        last = find(p);
        if (!last) {
            ++missed;
            last = insert(p);
        }
    }
    misses_ += missed;
    if (indexed)
        indexedMisses_ += missed;
    return missed;
}

unsigned
Tlb::translate(const std::vector<Addr> &pages, bool indexed)
{
    // Misses that reach this point always walk in hardware. With
    // SoftwareTrap the OOOVA's trap handler pre-installs a stream's
    // pages so its reserve sees hits and pays nothing here; machines
    // without a precise-trap path (REF, early commit) and a stream
    // too large for the TLB to hold fall through to this walk, so a
    // software-refill configuration is never silently free.
    unsigned missed = lookup(pages, indexed);
    hits_ += pages.size() - missed;
    missCycles_ += uint64_t{missed} * cfg_.missPenalty;
    return missed * cfg_.missPenalty;
}

unsigned
Tlb::install(const std::vector<Addr> &pages, bool indexed)
{
    return lookup(pages, indexed);
}

bool
Tlb::wouldMiss(const std::vector<Addr> &pages) const
{
    // A probe must not disturb LRU state, so it cannot see the fills
    // earlier lookups of the same stream would perform; a page
    // repeated in @p pages therefore reports a miss each time. That
    // is conservative in exactly one direction (a would-miss page is
    // never reported resident), which is what the trap path needs.
    Addr prev = 0;
    bool have_prev = false;
    for (Addr p : pages) {
        // A repeat of the page just probed has the same residency.
        if (have_prev && p == prev)
            continue;
        prev = p;
        have_prev = true;
        if (!peek(p))
            return true;
    }
    return false;
}

TlbAuditView
Tlb::auditView() const
{
    TlbAuditView v;
    v.sets = sets_;
    v.assoc = assoc_;
    v.ways = ways_;
    v.tick = tick_;
    v.hits = hits_;
    v.misses = misses_;
    v.indexedMisses = indexedMisses_;
    v.missCycles = missCycles_;
    return v;
}

} // namespace oova
