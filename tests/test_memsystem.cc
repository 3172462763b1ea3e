/**
 * @file
 * Tests for the pluggable memory hierarchy: FlatBus equivalence with
 * a copy of the seed AddressBus, banked-memory bank mapping, cache
 * hit/miss/MSHR behaviour, and the config labels threaded into
 * machine names.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "mem/memsystem.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

std::unique_ptr<MemorySystem>
makeFlat(unsigned latency = 50)
{
    return makeMemorySystem(MemConfig{}, latency);
}

std::unique_ptr<MemorySystem>
makeBanked(unsigned banks, unsigned latency = 50)
{
    return makeMemorySystem(makeBankedMem(banks), latency);
}

/**
 * The seed's address bus, kept as the reference FlatBus must match:
 * a stream of n elements takes the bus for n cycles, starting no
 * earlier than requested and no earlier than the previous stream
 * ends.
 */
class SeedAddressBus
{
  public:
    /** Reserve @p elems slots; returns the first one's cycle. */
    Cycle
    reserve(Cycle earliest, unsigned elems)
    {
        if (elems == 0)
            return earliest;
        Cycle start = earliest > freeAt_ ? earliest : freeAt_;
        freeAt_ = start + elems;
        requests_ += elems;
        busy_.add(start, freeAt_);
        return start;
    }

    Cycle freeAt() const { return freeAt_; }
    uint64_t requests() const { return requests_; }
    const IntervalRecorder &busy() const { return busy_; }

  private:
    Cycle freeAt_ = 0;
    uint64_t requests_ = 0;
    IntervalRecorder busy_;
};

} // namespace

// ---------------------------------------------------------- FlatBus

TEST(FlatBus, MatchesAddressBusTimings)
{
    SeedAddressBus bus;
    auto flat = makeFlat(50);
    // A mix of back-to-back, gapped, and overlapping-request shapes.
    const std::pair<Cycle, unsigned> seq[] = {
        {0, 4},  {0, 1},   {2, 8},  {40, 16}, {40, 1},
        {41, 3}, {100, 128}, {90, 2}, {400, 64}, {400, 64},
    };
    for (auto [earliest, elems] : seq) {
        Cycle s = bus.reserve(earliest, elems);
        MemAccess a = flat->reserve(earliest, 0x1000, 8, elems);
        EXPECT_EQ(a.start, s);
        EXPECT_EQ(a.end, s + elems);
        EXPECT_EQ(a.firstData, s + 50);
        EXPECT_EQ(a.lastData, s + elems + 50);
        EXPECT_EQ(flat->freeAt(), bus.freeAt());
    }
    EXPECT_EQ(flat->stats().requests, bus.requests());
    EXPECT_EQ(flat->busy().busyCycles(), bus.busy().busyCycles());
    EXPECT_EQ(flat->stats().bankConflicts, 0u);
}

TEST(FlatBus, ReproducesSeedTimingsOnGeneratedTrace)
{
    // Replay every memory instruction of a generated benchmark trace
    // through both the seed AddressBus and the FlatBus model,
    // instruction for instruction, with a deterministic spread of
    // request cycles.
    GenOptions opts;
    opts.scale = 0.02;
    Trace t = makeBenchmarkTrace("swm256", opts);
    SeedAddressBus bus;
    auto flat = makeFlat(50);
    Cycle earliest = 0;
    size_t mem_ops = 0;
    for (const DynInst &di : t) {
        if (!di.isMem())
            continue;
        ++mem_ops;
        unsigned elems = di.memElems();
        Cycle s = bus.reserve(earliest, elems);
        MemAccess a =
            flat->reserve(earliest, di.addr, di.strideBytes, elems);
        ASSERT_EQ(a.start, s);
        ASSERT_EQ(a.end, s + elems);
        ASSERT_EQ(flat->freeAt(), bus.freeAt());
        earliest += 3; // let some requests queue, some find it idle
    }
    ASSERT_GT(mem_ops, 10u);
    EXPECT_EQ(flat->stats().requests, bus.requests());
    EXPECT_EQ(flat->busy().busyCycles(), bus.busy().busyCycles());
}

TEST(MemorySystem, ZeroElementReservationIsNoop)
{
    auto flat = makeFlat();
    auto banked = makeBanked(8);
    auto cached = makeMemorySystem(makeCachedMem(), 50);
    for (MemorySystem *m :
         {flat.get(), banked.get(), cached.get()}) {
        MemAccess a = m->reserve(42, 0x1000, 8, 0);
        EXPECT_EQ(a.start, 42u);
        EXPECT_EQ(a.end, 42u);
        EXPECT_EQ(m->freeAt(), 0u) << "no occupancy recorded";
        EXPECT_EQ(m->stats().requests, 0u);
        EXPECT_EQ(m->busy().busyCycles(), 0u);
    }
}

// ----------------------------------------------------- BankedMemory

TEST(BankedMemory, UnitStrideCoversAllBanksWithoutConflict)
{
    // Stride 1 over 8 banks: each bank is revisited only every 8
    // cycles, beyond the 4-cycle busy time, so the stream drives one
    // address per cycle like the flat bus.
    auto mem = makeBanked(8);
    MemAccess a = mem->reserve(0, 0, 8, 32);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(a.end, 32u);
    EXPECT_EQ(mem->stats().bankConflicts, 0u);
    EXPECT_EQ(mem->stats().conflictCycles, 0u);
}

TEST(BankedMemory, BankCountStrideSerializesOnOneBank)
{
    // Stride == bank count: every element maps to bank 0 and must
    // wait out the 4-cycle busy time — the address phase dilates to
    // busy * elems.
    auto mem = makeBanked(8);
    MemAccess a = mem->reserve(0, 0, 8 * 8, 16);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(a.end, 15u * 4 + 1);
    EXPECT_EQ(mem->stats().bankConflicts, 15u);
    EXPECT_GT(mem->stats().conflictCycles, 0u);
}

TEST(BankedMemory, CoPrimeStrideAvoidsConflicts)
{
    // Stride 3 (co-prime with 8) permutes all banks before reuse.
    auto mem = makeBanked(8);
    MemAccess a = mem->reserve(0, 0, 3 * 8, 32);
    EXPECT_EQ(a.end, 32u);
    EXPECT_EQ(mem->stats().bankConflicts, 0u);
}

TEST(BankedMemory, StrideTwoHalvesTheBankPool)
{
    // Stride 2 on 4 banks touches 2 banks; with busy 4 the reuse
    // distance (2 cycles) is under the busy time, so the stream
    // degrades to one element every busy/2 = 2 cycles steady state.
    auto mem = makeBanked(4);
    MemAccess a = mem->reserve(0, 0, 2 * 8, 16);
    EXPECT_GT(a.end, 24u);
    EXPECT_GT(mem->stats().bankConflicts, 0u);
}

TEST(BankedMemory, StreamsSerializeInOrder)
{
    // The single memory unit serializes streams: a second stream
    // with an earlier "earliest" still starts after the first one's
    // address phase.
    auto mem = makeBanked(8);
    MemAccess a = mem->reserve(5, 0, 8, 8);
    EXPECT_EQ(a.end, 13u);
    MemAccess b = mem->reserve(0, 0x800, 8, 8);
    EXPECT_GE(b.start, a.end);
    EXPECT_EQ(mem->freeAt(), b.end);
}

TEST(BankedMemory, DataFollowsAddressPhase)
{
    auto mem = makeBanked(8, 100);
    MemAccess a = mem->reserve(0, 0, 8, 8);
    EXPECT_EQ(a.firstData, a.start + 100);
    EXPECT_EQ(a.lastData, a.end + 100);
}

// ------------------------------------------- multi-unit arbitration

namespace
{

std::unique_ptr<MemorySystem>
makeMultiUnit(unsigned banks, unsigned units,
              LsPolicy policy = LsPolicy::Shared,
              unsigned latency = 50)
{
    MemConfig cfg = makeMultiUnitMem(banks, units, policy);
    return makeMemorySystem(cfg, latency);
}

} // namespace

TEST(MultiUnit, DisjointBankStreamsOverlapOnTwoUnits)
{
    // Stride 2 over 8 banks: stream A (even base) touches banks
    // {0,2,4,6}, stream B (base offset one word) banks {1,3,5,7}.
    // With one unit the phases serialize; with two they overlap
    // fully and conflict-free.
    auto one = makeMultiUnit(8, 1);
    MemAccess a1 = one->reserve(0, 0x1000, 16, 32, MemOp::Load);
    MemAccess b1 = one->reserve(0, 0x2008, 16, 32, MemOp::Load);
    EXPECT_EQ(a1.end, 32u);
    EXPECT_GE(b1.start, a1.end);
    EXPECT_EQ(b1.end, 64u);

    auto two = makeMultiUnit(8, 2);
    MemAccess a2 = two->reserve(0, 0x1000, 16, 32, MemOp::Load);
    MemAccess b2 = two->reserve(0, 0x2008, 16, 32, MemOp::Load);
    EXPECT_EQ(a2.end, 32u);
    EXPECT_EQ(b2.start, 0u) << "second unit starts immediately";
    EXPECT_EQ(b2.end, 32u);
    EXPECT_EQ(two->stats().bankConflicts, 0u);
    EXPECT_EQ(two->freeAt(), 32u);
}

TEST(MultiUnit, SameBankStreamsStillSerializeAcrossUnits)
{
    // Two units but both streams walk bank 0 only (stride = bank
    // count): the second stream's elements keep colliding with the
    // first's bank occupancy, so overlap buys (almost) nothing.
    auto two = makeMultiUnit(8, 2);
    MemAccess a = two->reserve(0, 0x1000, 64, 16, MemOp::Load);
    MemAccess b = two->reserve(0, 0x2000, 64, 16, MemOp::Load);
    EXPECT_EQ(a.end, 15u * 4 + 1);
    // Stream B interleaves into the same bank's busy slots: its
    // last element cannot land before ~2x the single-stream time.
    EXPECT_GE(b.end, 2 * 15u * 4 - 4);
    EXPECT_GT(two->stats().bankConflicts, 0u);
}

TEST(MultiUnit, ThirdStreamWaitsForAFreeUnit)
{
    auto two = makeMultiUnit(8, 2);
    MemAccess a = two->reserve(0, 0x1000, 8, 16, MemOp::Load);
    MemAccess b = two->reserve(0, 0x2008, 8, 16, MemOp::Load);
    // Both units busy until their phases end; a third stream must
    // wait for the earliest one.
    MemAccess c = two->reserve(0, 0x3000, 8, 16, MemOp::Load);
    EXPECT_GE(c.start, std::min(a.end, b.end));
}

TEST(MultiUnit, SplitPolicyDedicatesUnitsPerDirection)
{
    // Stride-2 streams: the loads walk the even banks, the store
    // the odd banks, so only unit assignment orders them.
    auto split = makeMultiUnit(8, 2, LsPolicy::Split);
    // Loads serialize against loads on the load unit...
    MemAccess la = split->reserve(0, 0x1000, 16, 16, MemOp::Load);
    MemAccess lb = split->reserve(0, 0x2000, 16, 16, MemOp::Load);
    EXPECT_GE(lb.start, la.end);
    // ...while a store runs on its own unit, overlapping the loads.
    MemAccess s = split->reserve(0, 0x4008, 16, 16, MemOp::Store);
    EXPECT_EQ(s.start, 0u);
    EXPECT_EQ(split->freeAt(MemOp::Store), s.end);
    EXPECT_GT(split->freeAt(MemOp::Load), s.end);
}

TEST(MultiUnitDeathTest, OnlyTheBankedModelTakesSeveralUnits)
{
    // The flat bus and the cache front are the paper's one memory
    // unit; more than one is refused, never silently ignored.
    MemConfig flat;
    flat.memUnits = 2;
    EXPECT_EXIT(makeMemorySystem(flat, 50), ::testing::ExitedWithCode(1),
                "2 load/store units need the banked memory model");
    MemConfig cached = makeCachedMem();
    cached.memUnits = 4;
    cached.lsPolicy = LsPolicy::Split;
    EXPECT_EXIT(makeMemorySystem(cached, 50),
                ::testing::ExitedWithCode(1),
                "4 load/store units need the banked memory model");
}

TEST(MultiUnitDeathTest, RefDrivesOneMemoryUnit)
{
    // The C3400 has one memory unit: extra banked units are an
    // OOOVA study, and REF refuses them rather than modeling them.
    Trace t("one-load");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 16));
    RefConfig ref;
    ref.mem = makeMultiUnitMem(4, 2, LsPolicy::Split);
    EXPECT_EXIT(simulateRef(t, ref), ::testing::ExitedWithCode(1),
                "REF drives one memory unit, not 2");
}

// ------------------------------------------- index-vector reserve

TEST(IndexedReserve, PermutationAddressesRunConflictFree)
{
    // A bank-friendly permutation of 32 consecutive words (odd step
    // 5): every bank revisit is 8 elements apart, beyond the 4-cycle
    // busy time.
    auto mem = makeBanked(8);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 32; ++i)
        addrs.push_back(0x1000 + ((i * 5) % 32) * 8);
    MemAccess a = mem->reserve(0, addrs, MemOp::Load);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(a.end, 32u);
    EXPECT_EQ(mem->stats().bankConflicts, 0u);
    EXPECT_EQ(mem->stats().indexedConflicts, 0u);
}

TEST(IndexedReserve, CongruentIndicesDilateOnOneBank)
{
    // All addresses congruent mod 8 words: one bank, serialized at
    // the bank busy time — and counted as indexed conflicts.
    auto mem = makeBanked(8);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 16; ++i)
        addrs.push_back(0x1000 + i * 8 * 8);
    MemAccess a = mem->reserve(0, addrs, MemOp::Load);
    EXPECT_EQ(a.end, 15u * 4 + 1);
    EXPECT_EQ(mem->stats().bankConflicts, 15u);
    EXPECT_EQ(mem->stats().indexedConflicts, 15u);
    EXPECT_GT(mem->stats().indexedConflictCycles, 0u);
    EXPECT_EQ(mem->stats().bankConflicts - mem->stats().indexedConflicts,
              0u)
        << "no strided conflicts";
}

TEST(IndexedReserve, StridedAndIndexedConflictsSplitCleanly)
{
    auto mem = makeBanked(8);
    // A strided one-bank stream first...
    mem->reserve(0, 0x1000, 64, 8, MemOp::Load);
    uint64_t strided = mem->stats().bankConflicts;
    EXPECT_GT(strided, 0u);
    EXPECT_EQ(mem->stats().indexedConflicts, 0u);
    // ...then an indexed one-bank stream: only the indexed counters
    // move.
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 8; ++i)
        addrs.push_back(0x8000 + i * 64);
    mem->reserve(mem->freeAt(), addrs, MemOp::Load);
    EXPECT_GT(mem->stats().indexedConflicts, 0u);
    EXPECT_EQ(mem->stats().bankConflicts - mem->stats().indexedConflicts,
              strided);
}

TEST(IndexedReserve, FlatBusTimingMatchesStridedEquivalent)
{
    // The flat bus has no banks, so an index-vector reservation must
    // time exactly like a strided one of the same element count —
    // which is what keeps FlatBus figures byte-identical.
    auto flat = makeFlat(50);
    std::vector<Addr> addrs = {0x10, 0x4000, 0x8, 0x20000};
    MemAccess a = flat->reserve(7, addrs, MemOp::Load);
    EXPECT_EQ(a.start, 7u);
    EXPECT_EQ(a.end, 11u);
    EXPECT_EQ(a.firstData, 57u);
    EXPECT_EQ(a.lastData, 61u);
}

TEST(IndexedReserve, ZeroElementIndexVectorIsNoop)
{
    auto banked = makeBanked(8);
    MemAccess a = banked->reserve(42, std::vector<Addr>{}, MemOp::Load);
    EXPECT_EQ(a.start, 42u);
    EXPECT_EQ(a.end, 42u);
    EXPECT_EQ(banked->freeAt(), 0u);
    EXPECT_EQ(banked->stats().requests, 0u);
}

TEST(IndexedElemAddrs, ZeroLengthGatherReservesNothing)
{
    // vl == 0 must mirror the strided path's zero-element no-op.
    DynInst gi;
    gi.op = Opcode::VGather;
    gi.vl = 0;
    gi.addr = 0x1000;
    gi.regionBytes = 4096;
    gi.idxPattern = IndexPattern::Permutation;
    std::vector<Addr> addrs = {0x40}; // stale contents must go
    indexedElemAddrs(gi, addrs);
    EXPECT_TRUE(addrs.empty());
}

TEST(IndexedElemAddrs, PatternsHaveTheAdvertisedShape)
{
    DynInst gi;
    gi.op = Opcode::VGather;
    gi.vl = 64;
    gi.addr = 0x100000;
    gi.regionBytes = 64 * 1024;
    gi.elemSize = 8;
    gi.idxSeed = 12345;

    gi.idxPattern = IndexPattern::None;
    std::vector<Addr> walk;
    indexedElemAddrs(gi, walk);
    ASSERT_EQ(walk.size(), 64u);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(walk[i], gi.addr + i * 8u);

    gi.idxPattern = IndexPattern::Permutation;
    std::vector<Addr> perm;
    indexedElemAddrs(gi, perm);
    std::vector<Addr> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    // A permutation of a contiguous window: 64 distinct consecutive
    // words.
    for (unsigned i = 1; i < 64; ++i)
        EXPECT_EQ(sorted[i], sorted[i - 1] + 8);
    EXPECT_NE(perm, sorted) << "shuffled, not the identity walk";

    gi.idxPattern = IndexPattern::CongruentMod;
    gi.idxParam = 8;
    std::vector<Addr> cong;
    indexedElemAddrs(gi, cong);
    for (Addr a : cong)
        EXPECT_EQ((a / 8) % 8, (cong[0] / 8) % 8)
            << "all elements share one residue class";

    gi.idxPattern = IndexPattern::Random;
    std::vector<Addr> rnd, again;
    indexedElemAddrs(gi, rnd);
    indexedElemAddrs(gi, again);
    EXPECT_EQ(rnd, again) << "deterministic";
    for (Addr a : rnd) {
        EXPECT_GE(a, gi.addr);
        EXPECT_LT(a, gi.addr + gi.regionBytes);
    }
}

// ----------------------------------------------------- CachedMemory

TEST(CachedMemory, UnitStrideMissesOncePerLine)
{
    // 64-byte lines, 8-byte words: 1 miss + 7 hits per line.
    auto mem = makeMemorySystem(makeCachedMem(32 * 1024, 8), 50);
    mem->reserve(0, 0, 8, 64);
    EXPECT_EQ(mem->stats().cacheMisses, 8u);
    EXPECT_EQ(mem->stats().cacheHits, 56u);
}

TEST(CachedMemory, RepeatedStreamHitsInCache)
{
    auto mem = makeMemorySystem(makeCachedMem(32 * 1024, 8), 50);
    MemAccess first = mem->reserve(0, 0, 8, 64);
    uint64_t misses = mem->stats().cacheMisses;
    uint64_t traffic = mem->stats().requests;
    MemAccess again = mem->reserve(first.end, 0, 8, 64);
    EXPECT_EQ(mem->stats().cacheMisses, misses)
        << "second pass over the same lines must not miss";
    EXPECT_EQ(mem->stats().requests, traffic)
        << "requests = backing bus traffic; an all-hit pass adds none";
    // All hits: data trails the address phase by the hit latency.
    EXPECT_LT(again.lastData, again.end + 50);
}

TEST(CachedMemory, MshrSaturationStallsMisses)
{
    // One MSHR and a stride of a whole line: every access misses and
    // must wait for the previous fill to land before its own can
    // start.
    MemConfig one = makeCachedMem(4 * 1024, 1);
    auto mem1 = makeMemorySystem(one, 50);
    mem1->reserve(0, 0, 64, 16);
    EXPECT_EQ(mem1->stats().cacheMisses, 16u);
    EXPECT_GT(mem1->stats().mshrStallCycles, 0u);

    MemConfig many = makeCachedMem(4 * 1024, 16);
    auto mem16 = makeMemorySystem(many, 50);
    mem16->reserve(0, 0, 64, 16);
    EXPECT_EQ(mem16->stats().cacheMisses, 16u);
    EXPECT_LT(mem16->stats().mshrStallCycles,
              mem1->stats().mshrStallCycles)
        << "more MSHRs must reduce miss serialization";
}

TEST(CachedMemory, SecondaryMissMergesWithInflightFill)
{
    // Two accesses to the same line back to back: the second is a
    // hit that waits on the in-flight fill rather than a new miss.
    auto mem = makeMemorySystem(makeCachedMem(32 * 1024, 8), 50);
    mem->reserve(0, 0, 8, 2);
    EXPECT_EQ(mem->stats().cacheMisses, 1u);
    EXPECT_EQ(mem->stats().cacheHits, 1u);
}

// ------------------------------------------------- config plumbing

TEST(MemConfig, DefaultLabelIsEmpty)
{
    MemConfig cfg;
    EXPECT_EQ(cfg.label(), "");
    // The default OOOVA name must be byte-identical to the seed's.
    EXPECT_EQ(OooConfig{}.name(), "OOOVA-16/16r/early");
}

TEST(MemConfig, LabelsReflectModelParameters)
{
    EXPECT_EQ(makeBankedMem(8).label(), "/mb8p1");
    EXPECT_EQ(makeBankedMem(16).label(), "/mb16p1");
    EXPECT_EQ(makeCachedMem().label(), "/c32k4w8m");
    EXPECT_EQ(makeCachedMem(64 * 1024, 4).label(), "/c64k4w4m");

    OooConfig ooo;
    ooo.mem = makeBankedMem(8);
    EXPECT_EQ(ooo.name(), "OOOVA-16/16r/early/mb8p1");
}

TEST(MemConfig, UnitCountAndPolicyRoundTripThroughLabels)
{
    EXPECT_EQ(makeMultiUnitMem(8, 2).label(), "/mb8p1x2");
    EXPECT_EQ(makeMultiUnitMem(8, 2, LsPolicy::Split).label(),
              "/mb8p1x2s");
    EXPECT_EQ(makeMultiUnitMem(16, 4).label(), "/mb16p1x4");
    // One unit is the default and stays invisible.
    EXPECT_EQ(makeMultiUnitMem(8, 1).label(), "/mb8p1");

    OooConfig ooo;
    ooo.mem = makeMultiUnitMem(8, 2);
    EXPECT_EQ(ooo.name(), "OOOVA-16/16r/early/mb8p1x2");
}

TEST(MemUnitRange, OddUnitCountsUnderSplitFavorLoads)
{
    // Split gives loads the first ceil(N/2) units and stores the
    // rest: with an odd count the extra unit goes to loads, the two
    // ranges never overlap, and together they cover every unit. On
    // 128 banks each stream below has banks of its own, so a stream
    // at cycle 0 takes one idle unit of its direction: the streams
    // issued until freeAt(op) leaves 0 count op's units.
    for (unsigned units : {1u, 3u, 5u, 7u}) {
        SCOPED_TRACE(testing::Message() << units << " units");
        auto mem = makeMemorySystem(
            makeMultiUnitMem(128, units, LsPolicy::Split), 50);
        unsigned streams = 0;
        auto fill = [&](MemOp op, unsigned elems) {
            unsigned n = 0;
            for (; mem->freeAt(op) == 0 && n <= units; ++n)
                mem->reserve(0, 128 * streams++, 8, elems, op);
            return n;
        };
        unsigned loads = fill(MemOp::Load, 8);    // busy until 8
        unsigned stores = fill(MemOp::Store, 16); // busy until 16
        EXPECT_EQ(mem->freeAt(), 8u) << "every unit busy";
        if (units == 1) {
            // A single unit cannot be split: both directions share it.
            EXPECT_EQ(loads, 1u);
            EXPECT_EQ(stores, 0u);
            continue;
        }
        EXPECT_EQ(loads, (units + 1) / 2) << "loads take the extra";
        EXPECT_EQ(loads + stores, units) << "every unit covered";
        EXPECT_EQ(mem->freeAt(MemOp::Store), 16u)
            << "no load unit serves stores";
        EXPECT_EQ(mem->stats().bankConflicts, 0u);
    }
}

TEST(MemUnitRange, OddSplitStoresGetTheirOwnUnitInTheModel)
{
    // Three split units end to end: two load streams overlap on the
    // two load units while a store lands on the dedicated third.
    // Stride 32 over 16 banks puts each word-offset base on its own
    // disjoint set of four banks, each revisited every fourth cycle,
    // just as its kBankBusyCycles run out, so only unit assignment
    // decides the timing.
    MemConfig cfg = makeMultiUnitMem(16, 3, LsPolicy::Split);
    auto mem = makeMemorySystem(cfg, 50);
    MemAccess a = mem->reserve(0, 0x1000, 32, 16, MemOp::Load);
    MemAccess b = mem->reserve(0, 0x1008, 32, 16, MemOp::Load);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u) << "two load units";
    MemAccess c = mem->reserve(0, 0x1018, 32, 16, MemOp::Load);
    EXPECT_GE(c.start, std::min(a.end, b.end))
        << "third load waits; the store unit is not eligible";
    MemAccess s = mem->reserve(0, 0x1010, 32, 16, MemOp::Store);
    EXPECT_EQ(s.start, 0u) << "the store unit was idle all along";
    EXPECT_EQ(mem->stats().bankConflicts, 0u);
}

TEST(MemSystemSim, TwoUnitsSpeedUpDualStreamPrograms)
{
    // Whole-simulator version of the memunits figure's headline: a
    // hand-built dual-load program on disjoint bank sets runs >=
    // 1.5x faster with a second memory unit.
    Trace t("dual");
    Addr a = 0x100000, b = 0x200008;
    for (int k = 0; k < 24; ++k) {
        t.push(makeVLoad(vReg(0), aReg(0), a, 16, 64));
        t.push(makeVLoad(vReg(1), aReg(1), b, 16, 64));
        t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(0), vReg(1),
                          64));
        a += 64 * 16;
        b += 64 * 16;
    }
    SimResult one = simulateOoo(t, makeMultiUnitOooConfig(8, 1));
    SimResult two = simulateOoo(t, makeMultiUnitOooConfig(8, 2));
    EXPECT_GE(speedup(one, two), 1.5);
    EXPECT_EQ(two.memBankConflicts, 0u) << "disjoint bank sets";
    EXPECT_EQ(two.machine, "OOOVA-16/16r/early/mb8p1x2");
}

TEST(MemConfig, RefMachineLabelReflectsModel)
{
    Trace t("one-load");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 16));
    EXPECT_EQ(simulateRef(t, RefConfig{}).machine, "REF");
    RefConfig banked;
    banked.mem = makeBankedMem(4);
    EXPECT_EQ(simulateRef(t, banked).machine, "REF/mb4p1");
}

// --------------------------------------------- whole-sim properties

TEST(MemSystemSim, DefaultConfigMatchesSeedModel)
{
    // The FlatBus default must leave both simulators' results
    // untouched relative to an explicitly constructed FlatBus (and,
    // transitively, the seed AddressBus — see the replay test).
    GenOptions opts;
    opts.scale = 0.02;
    Trace t = makeBenchmarkTrace("trfd", opts);
    OooConfig flat;
    flat.mem.model = MemModel::FlatBus;
    SimResult a = simulateOoo(t, OooConfig{});
    SimResult b = simulateOoo(t, flat);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.memBusyCycles, b.memBusyCycles);
    EXPECT_EQ(a.memBankConflicts, 0u);
    EXPECT_EQ(a.cacheMisses, 0u);
}

TEST(BankedMemory, UnitStrideStreamsMonotoneInBankCount)
{
    // The model-level invariant behind the membank figure: a
    // unit-stride address stream never drains slower with more
    // banks. (Whole-simulator cycle counts may wiggle a few cycles
    // from second-order issue-scheduling effects, so the strict
    // property is asserted here, on the model.)
    Cycle prev = kNoCycle;
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u}) {
        auto mem = makeBanked(banks);
        Cycle end = 0;
        for (unsigned s = 0; s < 8; ++s) {
            MemAccess a =
                mem->reserve(end, 0x1000 + s * 0x4000, 8, 64);
            end = a.end;
        }
        EXPECT_LE(end, prev) << banks << " banks";
        prev = end;
    }
}

TEST(MemSystemSim, BankCountScalesOoovaPerformance)
{
    GenOptions opts;
    opts.scale = 0.02;
    Trace t = makeBenchmarkTrace("swm256", opts);
    Cycle flat = simulateOoo(t, OooConfig{}).cycles;
    Cycle b1 = simulateOoo(t, makeBankedOooConfig(1)).cycles;
    Cycle b16 = simulateOoo(t, makeBankedOooConfig(16)).cycles;
    // One bank at a 4-cycle busy time roughly quarters the address
    // rate of this memory-bound program; 16 banks restore the flat
    // bus's performance to within a few percent.
    EXPECT_GT(b1, 2 * b16);
    EXPECT_LT(b16, flat + flat / 20);
}

TEST(MemSystemSim, BankConflictsSurfaceInResults)
{
    GenOptions opts;
    opts.scale = 0.02;
    Trace t = makeBenchmarkTrace("su2cor", opts); // stride-2 kernels
    SimResult r = simulateOoo(t, makeBankedOooConfig(2));
    EXPECT_GT(r.memBankConflicts, 0u);
    EXPECT_GT(r.memConflictCycles, 0u);
}

TEST(MemSystemSim, CachedModelRunsBothSimulators)
{
    GenOptions opts;
    opts.scale = 0.02;
    Trace t = makeBenchmarkTrace("hydro2d", opts);
    OooConfig ooo;
    ooo.mem = makeCachedMem();
    SimResult a = simulateOoo(t, ooo);
    EXPECT_GT(a.cycles, 0u);
    EXPECT_GT(a.cacheHits + a.cacheMisses, 0u);
    RefConfig ref;
    ref.mem = makeCachedMem();
    SimResult b = simulateRef(t, ref);
    EXPECT_GT(b.cycles, 0u);
    EXPECT_GT(b.cacheHits + b.cacheMisses, 0u);
}

// ------------------------------------------------------ geometry
//
// Bank and set indices are masks, so the bank and set counts must be
// powers of two; anything else is refused loudly at construction,
// never rounded.

TEST(MemGeometryDeathTest, NonPowerOfTwoBankCountIsRejected)
{
    EXPECT_EXIT(makeMemorySystem(makeBankedMem(6), 50),
                ::testing::ExitedWithCode(1),
                "6 banks is not a power of two");
}

TEST(MemGeometryDeathTest, NonPowerOfTwoSetCountIsRejected)
{
    // 24 KiB of 64-byte lines in 4 ways is 96 sets.
    EXPECT_EXIT(makeMemorySystem(makeCachedMem(24 * 1024), 50),
                ::testing::ExitedWithCode(1),
                "96 sets .* is not a power of two");
}

TEST(MemGeometryDeathTest, CacheCapacityIsNeverRoundedDown)
{
    // Rounded down to whole sets, 33000 bytes would run as a 32 KiB
    // cache under the same /c32k4w8m label.
    EXPECT_EXIT(makeMemorySystem(makeCachedMem(33000), 50),
                ::testing::ExitedWithCode(1),
                "33000 bytes is not a whole number of 64-byte lines x 4 "
                "ways");
    EXPECT_EXIT(makeMemorySystem(makeCachedMem(40000), 50),
                ::testing::ExitedWithCode(1),
                "40000 bytes is not a whole number");
}

TEST(MemGeometryDeathTest, ValidateHoldsTheUnitModelAndTlbRules)
{
    // The rules no other death test breaks, each alone.
    MemConfig no_units;
    no_units.memUnits = 0;
    EXPECT_EXIT(validate(no_units), ::testing::ExitedWithCode(1),
                "memory system needs >= 1 load/store unit");
    MemConfig bad_model;
    bad_model.model = static_cast<MemModel>(3);
    EXPECT_EXIT(validate(bad_model), ::testing::ExitedWithCode(1),
                "unknown memory model 3");
    MemConfig no_pages;
    no_pages.tlb = makeTlb(64, 0);
    EXPECT_EXIT(validate(no_pages), ::testing::ExitedWithCode(1),
                "TLB needs >= 1 entry and a non-zero page size");
    // Rounded down to whole sets, 10 entries in 4 ways would hold 8.
    MemConfig odd_ways;
    odd_ways.tlb = makeTlb(10);
    EXPECT_EXIT(validate(odd_ways), ::testing::ExitedWithCode(1),
                "TLB: 10 entries not divisible by 4 ways");
}

TEST(MemGeometry, ExactCapacityHoldsEveryLineOnASecondPass)
{
    // 4 ways x 128 sets x 64 bytes.
    MemConfig cfg = makeCachedMem(32 * 1024);
    EXPECT_EQ(cfg.label(), "/c32k4w8m");
    auto mem = makeMemorySystem(cfg, 50);
    const unsigned lines = 32 * 1024 / kLineBytes;
    Cycle t = mem->reserve(0, 0, 64, lines, MemOp::Load).end;
    uint64_t misses = mem->stats().cacheMisses;
    EXPECT_EQ(misses, lines);
    mem->reserve(t, 0, 64, lines, MemOp::Load);
    EXPECT_EQ(mem->stats().cacheMisses, misses) << "capacity misses";
}

// ------------------------------------------- reference element loops
//
// The banked and cached models place a strided stream's cache-line
// runs and a banked stream's steady state in closed form.
// The classes below are the models as they were before that: every
// element of every stream walks the full per-element loop. Random
// stream sequences on random geometries must time, count and record
// busy intervals exactly alike on both.

namespace
{

/**
 * Per-unit earliest-free tracking, as in the banked model, with its
 * own copy of the assignment rule: every unit under Shared; under
 * Split the first ceil(N/2) units for loads, the rest for stores.
 */
class RefUnitPool
{
  public:
    explicit RefUnitPool(const MemConfig &cfg)
        : freeAt_(cfg.memUnits, 0)
    {
        unsigned n = cfg.memUnits;
        unsigned loads =
            cfg.lsPolicy == LsPolicy::Split && n > 1 ? (n + 1) / 2 : n;
        loadRange_ = {0, loads};
        storeRange_ = {loads == n ? 0 : loads, n};
    }

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

/** One busy cycle at a time, merged into runs. */
class RefBusyRunMerger
{
  public:
    explicit RefBusyRunMerger(IntervalRecorder &rec) : rec_(rec) {}

    void
    add(Cycle t)
    {
        if (runStart_ == kNoCycle) {
            runStart_ = t;
            runEnd_ = t + 1;
        } else if (t == runEnd_) {
            ++runEnd_;
        } else if (t > runEnd_) {
            rec_.add(runStart_, runEnd_);
            runStart_ = t;
            runEnd_ = t + 1;
        }
    }

    ~RefBusyRunMerger()
    {
        if (runStart_ != kNoCycle)
            rec_.add(runStart_, runEnd_);
    }

  private:
    IntervalRecorder &rec_;
    Cycle runStart_ = kNoCycle, runEnd_ = 0;
};

/** BankedMemory with one loop iteration per element. */
class RefBanked : public MemorySystem
{
  public:
    RefBanked(const MemConfig &cfg, unsigned latency)
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
        return stream(earliest, op, false, elems, [&](unsigned i) {
            return addr + static_cast<int64_t>(i) * stride;
        });
    }

    MemAccess
    place(Cycle earliest, const std::vector<Addr> &elem_addrs,
          MemOp op) override
    {
        return stream(earliest, op, true,
                      static_cast<unsigned>(elem_addrs.size()),
                      [&](unsigned i) { return elem_addrs[i]; });
    }

    template <typename AddrOf>
    MemAccess
    stream(Cycle earliest, MemOp op, bool indexed, unsigned elems,
           AddrOf addr_of)
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
        RefBusyRunMerger busy(busy_);
        for (unsigned i = 0; i < elems; ++i) {
            Addr a = addr_of(i);
            unsigned bank = static_cast<unsigned>((a / kWordBytes) &
                                                  bankMask_);
            Cycle t = std::max(cur, bankFreeAt_[bank]);
            if (t > cur) {
                ++stats_.bankConflicts;
                stats_.conflictCycles += t - cur;
                if (indexed) {
                    ++stats_.indexedConflicts;
                    stats_.indexedConflictCycles += t - cur;
                }
            }
            bankFreeAt_[bank] = t + kBankBusyCycles;
            busy.add(t);
            if (i == 0)
                acc.start = t;
            last = t;
            cur = t + 1;
        }
        stats_.requests += elems;
        acc.end = last + 1;
        acc.firstData = acc.start + latency_;
        acc.lastData = last + 1 + latency_;
        units_[u] = acc.end;
        return acc;
    }

    unsigned latency_;
    unsigned bankMask_;
    std::vector<Cycle> bankFreeAt_;
    RefUnitPool units_;
};

/**
 * CachedMemory with one loop iteration per element and one front,
 * filling lines over the library's flat bus (whose code the
 * shortcuts do not touch).
 */
class RefCached : public MemorySystem
{
  public:
    RefCached(const MemConfig &cfg, unsigned latency)
    {
        unsigned sets = cfg.cacheBytes / (kLineBytes * kCacheWays);
        setMask_ = sets - 1;
        ways_.assign(static_cast<size_t>(sets) * kCacheWays, Way{});
        mshrFreeAt_.assign(std::max(cfg.mshrs, 1u), 0);
        // The default MemConfig: one flat bus, no TLB.
        bus_ = makeMemorySystem(MemConfig{}, latency);
    }

    Cycle freeAt(MemOp) const override { return freeAt_; }

  private:
    MemAccess
    place(Cycle earliest, Addr addr, int64_t stride, unsigned elems,
          MemOp) override
    {
        return stream(earliest, elems, [&](unsigned i) {
            return addr + static_cast<int64_t>(i) * stride;
        });
    }

    MemAccess
    place(Cycle earliest, const std::vector<Addr> &elem_addrs,
          MemOp) override
    {
        return stream(earliest,
                      static_cast<unsigned>(elem_addrs.size()),
                      [&](unsigned i) { return elem_addrs[i]; });
    }

    struct Way
    {
        Addr line = 0;
        bool valid = false;
        Cycle lastUse = 0;
        Cycle fillDone = 0;
    };

    template <typename AddrOf>
    MemAccess
    stream(Cycle earliest, unsigned elems, AddrOf addr_of)
    {
        MemAccess acc;
        if (elems == 0) {
            acc.start = acc.end = earliest;
            acc.firstData = acc.lastData = earliest + kCacheHitLatency;
            return acc;
        }
        Cycle cur = std::max(earliest, freeAt_);
        Cycle last = cur;
        Cycle maxDataAt = 0;
        RefBusyRunMerger busy(busy_);
        for (unsigned i = 0; i < elems; ++i) {
            Addr a = addr_of(i);
            Addr line = a / kLineBytes;
            Cycle t = cur;
            Cycle dataAt;
            if (Way *w = lookup(line)) {
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
                MemAccess fill =
                    bus_->reserve(t, line * kLineBytes, 8,
                                  kLineBytes / kWordBytes, MemOp::Load);
                dataAt = fill.lastData - 1;
                *m = fill.lastData;
                Way &v = victim(line);
                v.line = line;
                v.valid = true;
                v.lastUse = t;
                v.fillDone = dataAt;
            }
            busy.add(t);
            if (i == 0) {
                acc.start = t;
                acc.firstData = dataAt;
            }
            maxDataAt = std::max(maxDataAt, dataAt);
            last = t;
            cur = t + 1;
        }
        stats_.requests = bus_->stats().requests;
        acc.end = last + 1;
        acc.lastData = maxDataAt + 1;
        freeAt_ = acc.end;
        return acc;
    }

    Way *
    lookup(Addr line)
    {
        Way *set = &ways_[(line & setMask_) * kCacheWays];
        for (unsigned w = 0; w < kCacheWays; ++w)
            if (set[w].valid && set[w].line == line)
                return &set[w];
        return nullptr;
    }

    Way &
    victim(Addr line)
    {
        Way *set = &ways_[(line & setMask_) * kCacheWays];
        Way *best = &set[0];
        for (unsigned w = 0; w < kCacheWays; ++w) {
            if (!set[w].valid)
                return set[w];
            if (set[w].lastUse < best->lastUse)
                best = &set[w];
        }
        return *best;
    }

    Addr setMask_ = 0;
    std::vector<Way> ways_;
    std::vector<Cycle> mshrFreeAt_;
    std::unique_ptr<MemorySystem> bus_;
    Cycle freeAt_ = 0;
};

template <typename T>
T
pickOne(Rng &rng, std::initializer_list<T> choices)
{
    return *(choices.begin() + rng.uniform(0, choices.size() - 1));
}

/** A random banked geometry inside the ranges the models accept. */
MemConfig
randomBankedConfig(Rng &rng)
{
    MemConfig cfg;
    cfg.model = MemModel::Banked;
    cfg.banks = pickOne(rng, {1u, 2u, 4u, 8u, 16u, 32u});
    cfg.memUnits = static_cast<unsigned>(rng.uniform(1, 3));
    cfg.lsPolicy = rng.chance(0.5) ? LsPolicy::Shared : LsPolicy::Split;
    return cfg;
}

/** A random cache (2-16 sets) with its one front. */
MemConfig
randomCachedConfig(Rng &rng)
{
    MemConfig cfg;
    cfg.model = MemModel::Cached;
    unsigned sets = pickOne(rng, {2u, 4u, 8u, 16u});
    cfg.cacheBytes = kLineBytes * kCacheWays * sets;
    cfg.mshrs = static_cast<unsigned>(rng.uniform(1, 8));
    return cfg;
}

/** A stride from the shapes the shortcuts must get right. */
int64_t
randomStride(Rng &rng)
{
    int64_t sign = rng.chance(0.5) ? 1 : -1;
    auto small = static_cast<int64_t>(rng.uniform(1, 40));
    switch (rng.uniform(0, 7)) {
    case 0:
        return 0;
    case 1:
        return sign * 8;
    case 2:
        return sign * 16;
    case 3: // odd
        return sign * (2 * small + 1);
    case 4: // whole words
        return sign * small * kWordBytes;
    case 5: // not a whole number of words
        return sign * (small * kWordBytes + 4);
    case 6: // line-sized
        return sign * kLineBytes * static_cast<int64_t>(rng.uniform(1, 3));
    default: // page-sized
        return sign * 4096;
    }
}

void
expectSameStats(const MemStats &got, const MemStats &want)
{
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.bankConflicts, want.bankConflicts);
    EXPECT_EQ(got.conflictCycles, want.conflictCycles);
    EXPECT_EQ(got.indexedConflicts, want.indexedConflicts);
    EXPECT_EQ(got.indexedConflictCycles, want.indexedConflictCycles);
    EXPECT_EQ(got.cacheHits, want.cacheHits);
    EXPECT_EQ(got.cacheMisses, want.cacheMisses);
    EXPECT_EQ(got.mshrStallCycles, want.mshrStallCycles);
    EXPECT_EQ(got.tlbHits, want.tlbHits);
    EXPECT_EQ(got.tlbMisses, want.tlbMisses);
    EXPECT_EQ(got.tlbIndexedMisses, want.tlbIndexedMisses);
    EXPECT_EQ(got.tlbMissCycles, want.tlbMissCycles);
}

/**
 * Drive @p model and @p ref with the same random stream sequence
 * and compare everything observable after every stream. Returns
 * false at the first difference.
 */
bool
sameStreams(Rng &rng, MemorySystem &model, MemorySystem &ref)
{
    Cycle earliest = 0;
    std::vector<Addr> gather;
    for (int s = 0; s < 40; ++s) {
        MemOp op = rng.chance(0.5) ? MemOp::Load : MemOp::Store;
        auto elems = static_cast<unsigned>(
            rng.chance(0.05) ? 0 : rng.uniform(1, 128));
        // Bases in a 64 KiB window (so lines and banks are reused),
        // mostly word-aligned.
        Addr base = rng.uniform(0, 0xFFFF);
        if (rng.chance(0.7))
            base &= ~Addr{7};
        MemAccess got, want;
        if (rng.chance(0.15)) {
            gather.clear();
            for (unsigned i = 0; i < elems; ++i)
                gather.push_back(base + 8 * rng.uniform(0, 511));
            got = model.reserve(earliest, gather, op);
            want = ref.reserve(earliest, gather, op);
        } else {
            int64_t stride = randomStride(rng);
            got = model.reserve(earliest, base, stride, elems, op);
            want = ref.reserve(earliest, base, stride, elems, op);
        }
        SCOPED_TRACE(testing::Message() << "stream " << s);
        EXPECT_EQ(got.start, want.start);
        EXPECT_EQ(got.end, want.end);
        EXPECT_EQ(got.firstData, want.firstData);
        EXPECT_EQ(got.lastData, want.lastData);
        expectSameStats(model.stats(), ref.stats());
        EXPECT_EQ(model.busy().intervals(), ref.busy().intervals());
        EXPECT_EQ(model.freeAt(), ref.freeAt());
        for (MemOp o : {MemOp::Load, MemOp::Store})
            EXPECT_EQ(model.freeAt(o), ref.freeAt(o));
        if (testing::Test::HasFailure())
            return false;
        // Sometimes request before the units free up, sometimes
        // after they went idle.
        earliest += rng.uniform(0, 3) == 0 ? rng.uniform(0, 400)
                                           : rng.uniform(0, 8);
    }
    return true;
}

} // namespace

TEST(MemShortcuts, BankedStreamsEqualTheElementLoop)
{
    Rng rng(0xba5eba11);
    for (int g = 0; g < 1500; ++g) {
        MemConfig cfg = randomBankedConfig(rng);
        unsigned latency = static_cast<unsigned>(rng.uniform(1, 100));
        auto model = makeMemorySystem(cfg, latency);
        RefBanked ref(cfg, latency);
        SCOPED_TRACE(testing::Message()
                     << "geometry " << g << " " << cfg.label());
        if (!sameStreams(rng, *model, ref))
            return;
    }
}

TEST(MemShortcuts, CachedStreamsEqualTheElementLoop)
{
    Rng rng(0xcac4e);
    for (int g = 0; g < 1500; ++g) {
        MemConfig cfg = randomCachedConfig(rng);
        unsigned latency = static_cast<unsigned>(rng.uniform(1, 100));
        auto model = makeMemorySystem(cfg, latency);
        RefCached ref(cfg, latency);
        SCOPED_TRACE(testing::Message()
                     << "geometry " << g << " " << cfg.label());
        if (!sameStreams(rng, *model, ref))
            return;
    }
}
