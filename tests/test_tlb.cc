/**
 * @file
 * Tests for the virtual-memory/TLB subsystem: the set-associative
 * translation array (LRU, associativity),
 * the page-lookup sequences of strided vs indexed streams,
 * translation as the first step of every model's reserve(), the
 * config labels, and the two refill policies — hardware walks
 * charged in reserve(), software refills through the OOOVA's
 * precise-trap path and MemorySystem::refill().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "mem/memsystem.hh"
#include "mem/tlb.hh"
#include "ref/refsim.hh"
#include "tgen/program.hh"

using namespace oova;

namespace
{

TlbConfig
smallTlb(unsigned entries = 4, unsigned page_bytes = 4096)
{
    TlbConfig cfg;
    cfg.enabled = true;
    cfg.entries = entries;
    cfg.pageBytes = page_bytes;
    return cfg;
}

/** Addresses of @p n elements, one per page, pages @p first.. */
std::vector<Addr>
onePerPage(unsigned n, Addr first = 0, unsigned page_bytes = 4096)
{
    std::vector<Addr> a;
    for (unsigned i = 0; i < n; ++i)
        a.push_back((first + i) * page_bytes);
    return a;
}

/** The memgather figure's gather loop, parameterized by pattern. */
Trace
gatherTrace(IndexPattern pat, uint32_t param, double scale = 0.25)
{
    Program prog("gather-test");
    int idx = prog.array(64 * 8);
    int tbl = prog.array(512 * 1024);
    Kernel *k = prog.newKernel("gather");
    VVid iv = k->vloadFixed(idx, 0, 8);
    (void)k->vgather(tbl, iv, pat, param);
    prog.addLoop(k, 48, vlConstant(64));
    GenOptions opts;
    opts.scale = scale;
    return prog.generate(opts);
}

} // namespace

// ------------------------------------------------------------ label

TEST(TlbConfig, LabelGrammar)
{
    TlbConfig off;
    EXPECT_EQ(off.label(), "") << "disabled TLB stays invisible";

    TlbConfig cfg = smallTlb(64, 4096);
    EXPECT_EQ(cfg.label(), "/t64e4k");
    cfg.pageBytes = 64 * 1024;
    EXPECT_EQ(cfg.label(), "/t64e64k");
    cfg.pageBytes = 512;
    EXPECT_EQ(cfg.label(), "/t64e512b");

    cfg = smallTlb(16, 4096);
    cfg.refill = TlbRefill::SoftwareTrap;
    EXPECT_EQ(cfg.label(), "/t16e4ks");
}

TEST(TlbConfig, LabelComposesWithEveryMemoryModel)
{
    MemConfig flat;
    flat.tlb = smallTlb(64);
    EXPECT_EQ(flat.label(), "/t64e4k");

    MemConfig banked = makeBankedMem(8);
    banked.tlb = smallTlb(64);
    EXPECT_EQ(banked.label(), "/mb8p1/t64e4k");

    MemConfig cached = makeCachedMem();
    cached.tlb = smallTlb(64);
    EXPECT_EQ(cached.label(), "/c32k4w8m/t64e4k");

    OooConfig ooo;
    ooo.mem.tlb = smallTlb(64);
    EXPECT_EQ(ooo.name(), "OOOVA-16/16r/early/t64e4k");
}

// ---------------------------------------------------- page sequences

TEST(Tlb, StridedStreamTranslatesOncePerPageCrossed)
{
    Tlb tlb(smallTlb(64));
    // 64 unit-stride words inside one 4K page: one lookup.
    EXPECT_EQ(tlb.stridedPages(0x1000, 8, 64).size(), 1u);
    // Crossing into a second page: two, in first-touch order.
    std::vector<Addr> two = tlb.stridedPages(0x1F80, 8, 64);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], 1u);
    EXPECT_EQ(two[1], 2u);
    // Page-sized stride: every element crosses.
    EXPECT_EQ(tlb.stridedPages(0, 4096, 16).size(), 16u);
    // Negative stride walks pages downward.
    std::vector<Addr> down = tlb.stridedPages(0x3000, -4096, 3);
    ASSERT_EQ(down.size(), 3u);
    EXPECT_EQ(down[0], 3u);
    EXPECT_EQ(down[2], 1u);
    // Zero elements: nothing to translate.
    EXPECT_TRUE(tlb.stridedPages(0x1000, 8, 0).empty());
}

namespace
{

/**
 * The element-by-element page walk stridedPages() replaces: one page
 * per element, consecutive repeats dropped, element i at
 * addr + i * stride mod 2^64.
 */
std::vector<Addr>
elementWalkPages(const Tlb &tlb, Addr addr, int64_t stride,
                 unsigned elems)
{
    std::vector<Addr> pages;
    for (unsigned i = 0; i < elems; ++i) {
        auto step = static_cast<uint64_t>(stride);
        Addr p = tlb.pageOf(addr + uint64_t{i} * step);
        if (pages.empty() || pages.back() != p)
            pages.push_back(p);
    }
    return pages;
}

} // namespace

TEST(Tlb, StridedPagesMatchTheElementWalk)
{
    for (unsigned page_bytes : {4096u, 256u}) {
        Tlb tlb(smallTlb(64, page_bytes));
        auto check = [&](Addr addr, int64_t stride, unsigned elems) {
            EXPECT_EQ(tlb.stridedPages(addr, stride, elems),
                      elementWalkPages(tlb, addr, stride, elems))
                << "page " << page_bytes << " addr 0x" << std::hex
                << addr << std::dec << " stride " << stride
                << " elems " << elems;
        };
        const int64_t strides[] = {0,     1,     -1,    8,
                                   -8,    4095,  -4095, 4096,
                                   -4096, 4097,  -4097, INT64_MIN};
        // Page edges, plus a base just below 2^64 (positive strides
        // wrap to the bottom) and one just above 0 (negative strides
        // wrap to the top).
        const Addr bases[] = {0,      1,      0xFF8,
                              0x1000, 0x1FF9, 0x12345,
                              ~Addr{0} - 100, 40};
        for (Addr addr : bases)
            for (int64_t stride : strides)
                for (unsigned elems : {0u, 1u, 300u})
                    check(addr, stride, elems);

        Rng rng(20261017);
        for (int n = 0; n < 20000; ++n) {
            auto pick = [&](int64_t lo, int64_t hi) {
                return lo + static_cast<int64_t>(rng.uniform(
                                0, static_cast<uint64_t>(hi - lo)));
            };
            Addr top = ~Addr{0} - rng.uniform(0, 9999);
            Addr addr = rng.chance(0.1) ? top : rng.next();
            int64_t stride;
            switch (rng.uniform(0, 3)) {
            case 0: // small, either sign
                stride = pick(-300, 300);
                break;
            case 1: // around the page size
                stride = pick(-2 * 4096, 2 * 4096);
                break;
            case 2: // word multiples
                stride = 8 * pick(-32, 32);
                break;
            default: // anything, wrapping
                stride = static_cast<int64_t>(rng.next());
                break;
            }
            check(addr, stride,
                  static_cast<unsigned>(rng.uniform(0, 300)));
        }
    }
}

TEST(Tlb, IndexedStreamTranslatesPerElement)
{
    Tlb tlb(smallTlb(64));
    // Four elements on the same page still cost four lookups —
    // that is the per-element price of a gather.
    std::vector<Addr> addrs = {0x1000, 0x1008, 0x1100, 0x1FF8};
    EXPECT_EQ(tlb.indexedPages(addrs).size(), 4u);
    tlb.translate(tlb.indexedPages(addrs), true);
    EXPECT_EQ(tlb.misses(), 1u) << "first element walks";
    EXPECT_EQ(tlb.hits(), 3u) << "same-page elements hit";
    EXPECT_EQ(tlb.indexedMisses(), 1u);
}

// ------------------------------------------------------ translation

TEST(Tlb, HitsAreFreeMissesChargeTheWalk)
{
    Tlb tlb(smallTlb(64));
    EXPECT_EQ(tlb.translate({7}, false), kTlbMissPenalty);
    EXPECT_EQ(tlb.translate({7}, false), 0u) << "now resident";
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.missCycles(), kTlbMissPenalty);
    EXPECT_EQ(tlb.indexedMisses(), 0u);
}

TEST(Tlb, LruEvictionWithinASet)
{
    // 2 entries, fewer than kTlbWays: one 2-way set. Pages 1,2 fill
    // it; touching 1 then inserting 3 must evict 2 (the least
    // recently used).
    Tlb tlb(smallTlb(2));
    tlb.translate({1, 2}, false);
    tlb.translate({1}, false);
    tlb.translate({3}, false);
    EXPECT_EQ(tlb.translate({1}, false), 0u) << "1 still resident";
    EXPECT_GT(tlb.translate({2}, false), 0u) << "2 was evicted";
}

TEST(Tlb, AssociativityConflictsEvictEarly)
{
    // 8 entries in two sets of kTlbWays: the five even pages share
    // set 0, so page 0 is evicted although only five of the eight
    // entries are in use.
    Tlb sets(smallTlb(8));
    sets.translate({0, 2, 4, 6, 8, 0}, false);
    EXPECT_EQ(sets.misses(), 6u);

    // Five pages spread over both sets all stay resident.
    Tlb spread(smallTlb(8));
    spread.translate({0, 1, 2, 3, 4, 0}, false);
    EXPECT_EQ(spread.misses(), 5u);
    EXPECT_EQ(spread.hits(), 1u);
}

TEST(Tlb, ProbeAndInstallForSoftwareRefill)
{
    Tlb tlb(smallTlb(16));
    std::vector<Addr> pages = {10, 11, 12};
    EXPECT_TRUE(tlb.wouldMiss(pages));
    EXPECT_EQ(tlb.misses(), 0u) << "probe records nothing";
    EXPECT_EQ(tlb.install(pages, true), 3u);
    EXPECT_EQ(tlb.misses(), 3u);
    EXPECT_EQ(tlb.indexedMisses(), 3u);
    EXPECT_EQ(tlb.missCycles(), 0u) << "trap cost lives elsewhere";
    EXPECT_FALSE(tlb.wouldMiss(pages));
    EXPECT_EQ(tlb.install(pages, true), 0u) << "all resident";
}

// --------------------------------------------------------- patterns

TEST(Tlb, RandomGatherThrashesWhatAPermutationDoesNot)
{
    // The acceptance property behind the memtlb/memgather figures:
    // at a small TLB, per-element translation of uniform-random
    // indices over a large region misses far more than a
    // permutation of one contiguous window.
    DynInst gi;
    gi.op = Opcode::VGather;
    gi.vl = 64;
    gi.addr = 0x100000;
    gi.regionBytes = 512 * 1024;
    gi.elemSize = 8;
    gi.idxSeed = 99;

    auto missesFor = [&](IndexPattern pat) {
        gi.idxPattern = pat;
        Tlb tlb(smallTlb(16));
        std::vector<Addr> addrs;
        indexedElemAddrs(gi, addrs);
        tlb.translate(tlb.indexedPages(addrs), true);
        return tlb.misses();
    };
    uint64_t perm = missesFor(IndexPattern::Permutation);
    uint64_t rnd = missesFor(IndexPattern::Random);
    EXPECT_LE(perm, 2u) << "one window, at most two pages";
    EXPECT_GE(rnd, 8 * perm) << "random >> permutation";
}

// ------------------------------------------- translation in reserve()

TEST(TlbWrapper, DisabledTlbLeavesTheModelBare)
{
    auto mem = makeMemorySystem(MemConfig{}, 50);
    EXPECT_EQ(mem->tlb(), nullptr);
    EXPECT_EQ(mem->stats().tlbHits, 0u);
    EXPECT_EQ(mem->stats().tlbMisses, 0u);
}

TEST(TlbWrapper, MissStallsDelayTheStream)
{
    MemConfig cfg;
    cfg.tlb = smallTlb(64);
    auto mem = makeMemorySystem(cfg, 50);
    ASSERT_NE(mem->tlb(), nullptr);
    // First stream: one page, one walk — the bus grant slips by the
    // walk penalty relative to the bare flat bus.
    MemAccess a = mem->reserve(0, 0x1000, 8, 16, MemOp::Load);
    EXPECT_EQ(a.start, kTlbMissPenalty);
    EXPECT_EQ(a.end, kTlbMissPenalty + 16);
    EXPECT_EQ(a.firstData, kTlbMissPenalty + 50u);
    // Second stream on the same page: resident, no delay beyond the
    // bus serialization.
    MemAccess b = mem->reserve(a.end, 0x1200, 8, 16, MemOp::Load);
    EXPECT_EQ(b.start, a.end);
    const MemStats &s = mem->stats();
    EXPECT_EQ(s.tlbMisses, 1u);
    EXPECT_EQ(s.tlbHits, 1u);
    EXPECT_EQ(s.tlbMissCycles, kTlbMissPenalty);
    EXPECT_EQ(s.requests, 32u) << "inner-model counters ride along";
}

TEST(TlbWrapper, IndexedMissesSplitFromStrided)
{
    MemConfig cfg = makeBankedMem(8);
    cfg.tlb = smallTlb(16);
    auto mem = makeMemorySystem(cfg, 50);
    mem->reserve(0, 0x0, 8, 16, MemOp::Load); // strided: 1 walk
    mem->reserve(mem->freeAt(), onePerPage(8, 100), MemOp::Load);
    const MemStats &s = mem->stats();
    EXPECT_EQ(s.tlbMisses, 9u);
    EXPECT_EQ(s.tlbIndexedMisses, 8u);
    EXPECT_EQ(s.tlbMisses - s.tlbIndexedMisses, 1u) << "strided";
}

TEST(TlbWrapper, ZeroElementReservationStaysANoop)
{
    MemConfig cfg;
    cfg.tlb = smallTlb(64);
    auto mem = makeMemorySystem(cfg, 50);
    MemAccess a = mem->reserve(42, 0x1000, 8, 0);
    EXPECT_EQ(a.start, 42u);
    EXPECT_EQ(a.end, 42u);
    MemAccess b = mem->reserve(42, std::vector<Addr>{}, MemOp::Load);
    EXPECT_EQ(b.start, 42u);
    EXPECT_EQ(mem->freeAt(), 0u);
    EXPECT_EQ(mem->stats().tlbHits + mem->stats().tlbMisses, 0u);
}

TEST(TlbWrapper, CachedModelTranslatesOnceInFront)
{
    // The cache's line fills are physically addressed: a miss's
    // line fetch must not be translated a second time.
    MemConfig cfg = makeCachedMem();
    cfg.tlb = smallTlb(64);
    auto mem = makeMemorySystem(cfg, 50);
    mem->reserve(0, 0, 8, 64, MemOp::Load);
    const MemStats &s = mem->stats();
    EXPECT_EQ(s.tlbMisses, 1u) << "one page, one walk";
    EXPECT_EQ(s.cacheMisses, 8u);
}

TEST(TlbWrapper, RefillShowsBeforeTheNextReserve)
{
    // A software refill installs pages outside any reserve(): the
    // TLB and the counters must show it at once, so a run that ends
    // on a trap reports every install.
    MemConfig cfg;
    cfg.tlb = smallTlb(16);
    auto mem = makeMemorySystem(cfg, 50);
    std::vector<Addr> pages = {10, 11, 12};
    ASSERT_TRUE(mem->tlb()->wouldMiss(pages));
    mem->refill(pages, true);
    EXPECT_FALSE(mem->tlb()->wouldMiss(pages));
    EXPECT_EQ(mem->tlb()->misses(), 3u);
    const MemStats &s = mem->stats();
    EXPECT_EQ(s.tlbMisses, 3u);
    EXPECT_EQ(s.tlbIndexedMisses, 3u);
    EXPECT_EQ(s.tlbMissCycles, 0u) << "the trap is the cost";
    // The stream over a refilled page then hits without a walk.
    MemAccess a = mem->reserve(0, 10 * 4096, 8, 16);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(s.tlbHits, 1u);
    EXPECT_EQ(s.tlbMisses, 3u);
}

// --------------------------------------------------- whole machines

TEST(TlbSim, TranslationCostSurfacesInBothSimulators)
{
    GenOptions opts;
    opts.scale = 0.05;
    Trace t = makeBenchmarkTrace("swm256", opts);

    SimResult bare = simulateOoo(t, makeOooConfig(16, 16, 50));
    SimResult tlb = simulateOoo(t, makeTlbOooConfig(8, 4096, 50));
    EXPECT_EQ(tlb.machine, "OOOVA-16/16r/early/t8e4k");
    EXPECT_GT(tlb.tlbMisses, 0u);
    EXPECT_GT(tlb.tlbHits, 0u);
    EXPECT_GT(tlb.tlbMissCycles, 0u);
    EXPECT_GT(tlb.cycles, bare.cycles);

    RefConfig ref = makeRefConfig(50);
    ref.mem.tlb = makeTlb(8);
    SimResult r = simulateRef(t, ref);
    EXPECT_EQ(r.machine, "REF/t8e4k");
    EXPECT_GT(r.tlbMisses, 0u);
    EXPECT_GT(r.cycles, simulateRef(t, makeRefConfig(50)).cycles);
}

TEST(TlbSim, BiggerTlbMissesLess)
{
    GenOptions opts;
    opts.scale = 0.05;
    Trace t = makeBenchmarkTrace("hydro2d", opts);
    SimResult small = simulateOoo(t, makeTlbOooConfig(8));
    SimResult big = simulateOoo(t, makeTlbOooConfig(256));
    EXPECT_LT(big.tlbMisses, small.tlbMisses);
    EXPECT_LE(big.cycles, small.cycles);
}

TEST(TlbSim, GatherMissesLandInTheIndexedSplit)
{
    Trace t = gatherTrace(IndexPattern::Random, 0);
    OooConfig cfg = makeTlbOooConfig(16);
    SimResult r = simulateOoo(t, cfg);
    EXPECT_GT(r.tlbIndexedMisses, 0u);
    EXPECT_GT(r.tlbMisses, r.tlbIndexedMisses)
        << "the index-vector loads still translate strided";
    EXPECT_GT(r.tlbIndexedMisses, r.stridedTlbMisses())
        << "random gather dominates the miss mix";
}

TEST(TlbSim, SoftwareRefillTrapsPrecisely)
{
    GenOptions opts;
    opts.scale = 0.05;
    Trace t = makeBenchmarkTrace("swm256", opts);
    OooConfig sw = makeTlbOooConfig(64, 4096, 50, CommitMode::Late,
                                    TlbRefill::SoftwareTrap);
    SimResult r = simulateOoo(t, sw);
    EXPECT_EQ(r.machine, "OOOVA-16/16r/late/t64e4ks");
    EXPECT_GT(r.traps, 0u) << "misses refill through the trap path";
    EXPECT_EQ(r.instructions, t.size()) << "squash + replay is exact";
    EXPECT_GT(r.tlbMisses, 0u);

    SimResult hw = simulateOoo(
        t, makeTlbOooConfig(64, 4096, 50, CommitMode::Late));
    EXPECT_EQ(hw.traps, 0u);
    EXPECT_GT(hw.tlbMissCycles, 0u);
}

TEST(TlbSim, SoftwareRefillFallsBackUnderEarlyCommit)
{
    // Early commit has no precise-trap path; a software-refill
    // configuration must degrade to hardware-walk charging instead
    // of being silently free.
    GenOptions opts;
    opts.scale = 0.05;
    Trace t = makeBenchmarkTrace("swm256", opts);
    OooConfig cfg = makeTlbOooConfig(64, 4096, 50, CommitMode::Early,
                                     TlbRefill::SoftwareTrap);
    SimResult r = simulateOoo(t, cfg);
    EXPECT_EQ(r.traps, 0u);
    EXPECT_GT(r.tlbMisses, 0u);
    EXPECT_GT(r.tlbMissCycles, 0u);
}

TEST(TlbSim, EachMissingStreamTrapsOnceUnderSoftwareRefill)
{
    // Two independent loads to two cold pages, both marked behind a
    // slow divide that delays trap delivery: the older stream's trap
    // squashes the younger marking, and because translations are
    // installed only at delivery the younger stream re-detects its
    // miss and takes its own trap on replay — two traps, never a
    // silently free refill from a discarded marking.
    Trace t("two-cold-pages");
    t.push(makeVArith(Opcode::VDiv, vReg(7), vReg(6), vReg(5), 128));
    t.push(makeVLoad(vReg(0), aReg(0), 0x10000, 8, 16));
    t.push(makeVLoad(vReg(1), aReg(1), 0x20000, 8, 16));
    OooConfig cfg = makeTlbOooConfig(64, 4096, 50, CommitMode::Late,
                                     TlbRefill::SoftwareTrap);
    SimResult r = simulateOoo(t, cfg);
    EXPECT_EQ(r.traps, 2u);
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_EQ(r.tlbMisses, 2u) << "one install per cold page";
}

TEST(TlbSim, OversizedGatherStillMakesForwardProgress)
{
    // A random gather touches more pages than an 8-entry TLB can
    // hold at once: the software refill would self-evict and re-trap
    // forever without the one-trap-per-instruction guarantee.
    Trace t = gatherTrace(IndexPattern::Random, 0, 0.1);
    OooConfig cfg = makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                     TlbRefill::SoftwareTrap);
    SimResult r = simulateOoo(t, cfg);
    EXPECT_EQ(r.instructions, t.size()) << "no livelock";
    EXPECT_GT(r.traps, 0u);
}

TEST(TlbSim, DisabledTlbIsByteIdenticalToTheSeedModel)
{
    GenOptions opts;
    opts.scale = 0.05;
    Trace t = makeBenchmarkTrace("trfd", opts);
    OooConfig off = makeOooConfig(16, 16, 50);
    off.mem.tlb.enabled = false; // explicit, for documentation
    SimResult a = simulateOoo(t, OooConfig{});
    SimResult b = simulateOoo(t, off);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(b.tlbHits + b.tlbMisses, 0u);
}

TEST(TlbDeathTest, NonPowerOfTwoPageSizeIsRejected)
{
    // pageOf() is a shift, so a page size must be a power of two.
    EXPECT_EXIT(Tlb(smallTlb(4, 3000)), ::testing::ExitedWithCode(1),
                "TLB page size 3000 is not a power of two");
    MemConfig cfg = makeBankedMem(8);
    cfg.tlb = smallTlb(4, 6 * 1024);
    EXPECT_EXIT(makeMemorySystem(cfg, 50), ::testing::ExitedWithCode(1),
                "TLB page size 6144 is not a power of two");
}
