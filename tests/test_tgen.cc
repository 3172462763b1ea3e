/**
 * @file
 * Tests for the workload generator: kernel IR, VL patterns, the code
 * generator's structural invariants (spill pairing, stream address
 * progression, loop control), and the ten benchmark models.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "tgen/benchmarks.hh"
#include "tgen/program.hh"
#include "trace/trace_stats.hh"

using namespace oova;

TEST(Kernel, BuilderCountsValues)
{
    Kernel k("k");
    VVid a = k.vload(0);
    VVid b = k.vload(1);
    VVid c = k.vadd(a, b);
    k.vstore(2, c);
    SVid s = k.vreduce(c);
    (void)s;
    EXPECT_EQ(k.numVVals(), 3);
    EXPECT_EQ(k.numSVals(), 1);
    EXPECT_EQ(k.ops().size(), 5u);
}

TEST(Kernel, RecordsEachReadAtItsOpPosition)
{
    Kernel k("k");
    VVid a = k.vload(0);        // op 0
    VVid b = k.vmul(a, a);      // op 1 reads a twice
    k.vstore(1, b);             // op 2
    SVid s = k.vreduce(b);      // op 3
    SVid t = k.sarith(Opcode::SAdd, s, s); // op 4
    k.sstoreSlot(0, t);         // op 5
    using Uses = std::vector<std::vector<int>>;
    EXPECT_EQ(k.vUses(), (Uses{{1, 1}, {2, 3}}));
    EXPECT_EQ(k.sUses(), (Uses{{4, 4}, {5}}));
}

// A kernel that reads a value no earlier op defined dies where it is
// built, not later inside the code generator.
TEST(KernelDeathTest, UndefinedVectorSourceDiesWhenAdded)
{
    Kernel k("k");
    VVid a = k.vload(0);
    EXPECT_DEATH(k.vadd(a, 7),
                 "kernel k: op 1 reads vector value 7 before it is "
                 "defined");
}

TEST(KernelDeathTest, AnOpCannotReadItsOwnResult)
{
    Kernel k("k");
    VVid a = k.vload(0);
    // Value 1 is the id this vadd's own result would get.
    EXPECT_DEATH(k.vadd(a, a + 1), "reads vector value 1 before it is "
                                   "defined");
}

TEST(KernelDeathTest, UndefinedScalarSourceDiesWhenAdded)
{
    Kernel k("k");
    SVid s = k.sloadSlot(0);
    EXPECT_DEATH(k.sarith(Opcode::SAdd, s, 3),
                 "op 1 reads scalar value 3 before it is defined");
    EXPECT_DEATH(k.sstoreSlot(0, s + 1),
                 "op 1 reads scalar value 1 before it is defined");
}

TEST(VlPatterns, Constant)
{
    VlFn f = vlConstant(77);
    EXPECT_EQ(f(0), 77);
    EXPECT_EQ(f(1000), 77);
}

TEST(VlPatterns, Triangular)
{
    VlFn f = vlTriangular(120, 8, 8);
    EXPECT_EQ(f(0), 120);
    EXPECT_EQ(f(1), 112);
    EXPECT_EQ(f(14), 8);
    EXPECT_EQ(f(15), 120); // cycles
}

TEST(Program, ArrayLayoutIsDisjoint)
{
    Program p("layout");
    int a = p.array(1000);
    int b = p.array(5000);
    int c = p.array(1);
    EXPECT_GE(p.arrayBase(b), p.arrayBase(a) + 1000);
    EXPECT_GE(p.arrayBase(c), p.arrayBase(b) + 5000);
    EXPECT_EQ(p.arrayBase(a) % 0x1000, 0u);
}

TEST(Program, ScalarSlotsDistinct)
{
    Program p("slots");
    int s0 = p.scalarSlot();
    int s1 = p.scalarSlot();
    EXPECT_NE(p.scalarSlotAddr(s0), p.scalarSlotAddr(s1));
}

namespace
{

Trace
tinyLoopTrace(uint64_t trips, uint16_t vl)
{
    auto p = std::make_unique<Program>("tiny");
    int a = p->array(64 * 1024), b = p->array(64 * 1024);
    Kernel *k = p->newKernel("body");
    VVid x = k->vload(a);
    VVid y = k->vadd(x, x);
    k->vstore(b, y);
    p->addLoop(k, trips, vlConstant(vl));
    return p->generate();
}

} // namespace

TEST(CodeGen, LoopStructure)
{
    Trace t = tinyLoopTrace(5, 32);
    // Exactly one taken branch per non-final iteration, one
    // not-taken at the end, one call, one ret.
    unsigned taken = 0, not_taken = 0, calls = 0, rets = 0;
    for (const auto &inst : t) {
        if (inst.op == Opcode::Branch)
            ++(inst.taken ? taken : not_taken);
        if (inst.op == Opcode::Call)
            ++calls;
        if (inst.op == Opcode::Ret)
            ++rets;
    }
    EXPECT_EQ(taken, 4u);
    EXPECT_EQ(not_taken, 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(rets, 1u);
}

TEST(CodeGen, BranchPcStable)
{
    Trace t = tinyLoopTrace(6, 16);
    std::set<Addr> branch_pcs;
    for (const auto &inst : t)
        if (inst.op == Opcode::Branch)
            branch_pcs.insert(inst.pc);
    EXPECT_EQ(branch_pcs.size(), 1u); // the BTB can learn it
}

TEST(CodeGen, StreamAddressesAdvance)
{
    Trace t = tinyLoopTrace(4, 32);
    std::vector<Addr> load_addrs;
    for (const auto &inst : t)
        if (inst.op == Opcode::VLoad && !inst.isSpill)
            load_addrs.push_back(inst.addr);
    ASSERT_EQ(load_addrs.size(), 4u);
    for (size_t i = 1; i < load_addrs.size(); ++i)
        EXPECT_EQ(load_addrs[i], load_addrs[i - 1] + 32 * 8);
}

TEST(CodeGen, SetVlEmittedOncePerConstantLoop)
{
    Trace t = tinyLoopTrace(5, 32);
    unsigned setvls = 0;
    for (const auto &inst : t)
        if (inst.op == Opcode::SetVL)
            ++setvls;
    EXPECT_EQ(setvls, 1u);
}

TEST(CodeGen, SetVlTracksTriangularVl)
{
    auto p = std::make_unique<Program>("tri");
    int a = p->array(64 * 1024);
    Kernel *k = p->newKernel("body");
    VVid x = k->vload(a);
    k->vstore(a, x, 1);
    p->addLoop(k, 6, vlTriangular(96, 32, 32));
    Trace t = p->generate();
    unsigned setvls = 0;
    for (const auto &inst : t)
        if (inst.op == Opcode::SetVL)
            ++setvls;
    EXPECT_EQ(setvls, 6u); // changes every iteration
}

TEST(CodeGen, ScaleMultipliesTrips)
{
    GenOptions half;
    half.scale = 0.5;
    auto p1 = makeBenchmarkProgram("swm256");
    Trace full = p1->generate();
    auto p2 = makeBenchmarkProgram("swm256");
    Trace halved = p2->generate(half);
    EXPECT_LT(halved.size(), full.size());
    EXPECT_GT(halved.size(), full.size() / 4);
}

TEST(CodeGen, SpillStoresPrecedeReloads)
{
    // Build a kernel with pressure >> 8 and check every spill
    // reload reads an address some spill store wrote earlier in the
    // same iteration.
    auto p = std::make_unique<Program>("spilly");
    int a = p->array(256 * 1024), out = p->array(256 * 1024);
    Kernel *k = p->newKernel("wide");
    VVid vals[14];
    for (auto &v : vals)
        v = k->vload(a);
    VVid acc = k->vadd(vals[0], vals[1]);
    for (int i = 2; i < 14; ++i)
        acc = k->vadd(acc, vals[i]);
    k->vstore(out, acc);
    p->addLoop(k, 3, vlConstant(64));
    Trace t = p->generate();

    std::set<Addr> stored;
    unsigned reloads = 0;
    for (const auto &inst : t) {
        if (!inst.isSpill || !inst.isVector())
            continue;
        if (inst.isStore()) {
            stored.insert(inst.addr);
        } else {
            ++reloads;
            EXPECT_TRUE(stored.count(inst.addr))
                << "reload from never-written spill slot";
        }
    }
    EXPECT_GT(reloads, 0u);
}

TEST(CodeGen, PointerSpillsWhenStreamsExceedRegs)
{
    // 8 streams > 6 allocatable A registers -> pointer spill code.
    auto p = std::make_unique<Program>("manystreams");
    std::vector<int> arrays;
    for (int i = 0; i < 8; ++i)
        arrays.push_back(p->array(64 * 1024));
    Kernel *k = p->newKernel("body");
    VVid acc = k->vload(arrays[0]);
    for (int i = 1; i < 7; ++i)
        acc = k->vadd(acc, k->vload(arrays[i]));
    k->vstore(arrays[7], acc);
    p->addLoop(k, 4, vlConstant(32));
    Trace t = p->generate();
    TraceStats s = TraceStats::compute(t);
    EXPECT_GT(s.scalarSpillLoads + s.scalarSpillStores, 0u);
}

TEST(CodeGen, NoPointerSpillsWithSixStreams)
{
    auto p = std::make_unique<Program>("sixstreams");
    std::vector<int> arrays;
    for (int i = 0; i < 6; ++i)
        arrays.push_back(p->array(64 * 1024));
    Kernel *k = p->newKernel("body");
    VVid acc = k->vload(arrays[0]);
    for (int i = 1; i < 5; ++i)
        acc = k->vadd(acc, k->vload(arrays[i]));
    k->vstore(arrays[5], acc);
    p->addLoop(k, 4, vlConstant(32));
    Trace t = p->generate();
    TraceStats s = TraceStats::compute(t);
    EXPECT_EQ(s.scalarSpillLoads, 0u);
    EXPECT_EQ(s.scalarSpillStores, 0u);
}

TEST(CodeGen, FixedLoadsKeepAddress)
{
    auto p = std::make_unique<Program>("fixed");
    int a = p->array(64 * 1024), c = p->array(1024);
    Kernel *k = p->newKernel("body");
    VVid x = k->vload(a);
    VVid w = k->vloadFixed(c, 0, 32);
    VVid y = k->vmul(x, w);
    k->vstore(a, y);
    p->addLoop(k, 5, vlConstant(32));
    Trace t = p->generate();
    std::set<Addr> fixed_addrs;
    for (const auto &inst : t)
        if (inst.op == Opcode::VLoad && !inst.isSpill &&
            inst.addr >= p->arrayBase(c) &&
            inst.addr < p->arrayBase(c) + 1024) {
            fixed_addrs.insert(inst.addr);
        }
    EXPECT_EQ(fixed_addrs.size(), 1u);
}

// ---- the ten benchmarks --------------------------------------

class BenchmarkModels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkModels, GeneratesNonTrivialTrace)
{
    GenOptions small;
    small.scale = 0.25;
    Trace t = makeBenchmarkTrace(GetParam(), small);
    EXPECT_GT(t.size(), 500u);
    EXPECT_EQ(t.name(), GetParam());
}

TEST_P(BenchmarkModels, HighlyVectorized)
{
    GenOptions small;
    small.scale = 0.25;
    TraceStats s =
        TraceStats::compute(makeBenchmarkTrace(GetParam(), small));
    // Selection criterion from the paper: >= 70% vectorization.
    EXPECT_GE(s.vectorization(), 70.0) << GetParam();
    EXPECT_GT(s.avgVectorLength(), 8.0);
    EXPECT_LE(s.avgVectorLength(), 128.0);
}

TEST_P(BenchmarkModels, DeterministicGeneration)
{
    GenOptions small;
    small.scale = 0.25;
    Trace a = makeBenchmarkTrace(GetParam(), small);
    Trace b = makeBenchmarkTrace(GetParam(), small);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i += 97) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].addr, b[i].addr);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTen, BenchmarkModels,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(Benchmarks, NamesAndRegistry)
{
    EXPECT_EQ(benchmarkNames().size(), 10u);
}

TEST(Benchmarks, Swm256HasPaperProfile)
{
    TraceStats s = TraceStats::compute(makeBenchmarkTrace("swm256"));
    EXPECT_GE(s.vectorization(), 99.0); // paper: 99.9%
    EXPECT_NEAR(s.avgVectorLength(), 127.0, 1.0);
}

TEST(Benchmarks, DyfesmHasShortVectors)
{
    TraceStats s = TraceStats::compute(makeBenchmarkTrace("dyfesm"));
    EXPECT_LT(s.avgVectorLength(), 32.0);
}

TEST(Benchmarks, BdnaIsSpillHeavy)
{
    TraceStats s = TraceStats::compute(makeBenchmarkTrace("bdna"));
    EXPECT_GT(s.spillTrafficFraction(), 0.35);
}

TEST(Benchmarks, TomcatvIsScalarHeavy)
{
    TraceStats s = TraceStats::compute(makeBenchmarkTrace("tomcatv"));
    EXPECT_GT(static_cast<double>(s.scalarInsts) /
                  static_cast<double>(s.vectorInsts),
              8.0);
}

TEST(Benchmarks, TrfdHasCrossIterationTemp)
{
    Trace t = makeBenchmarkTrace("trfd");
    // The fixed-address temporary: some address both loaded and
    // stored repeatedly with identical vl.
    std::map<Addr, unsigned> loads, stores;
    for (const auto &inst : t) {
        if (inst.op == Opcode::VLoad && !inst.isSpill)
            ++loads[inst.addr];
        if (inst.op == Opcode::VStore && !inst.isSpill)
            ++stores[inst.addr];
    }
    bool found = false;
    for (const auto &[addr, n] : loads)
        if (n > 10 && stores.count(addr) && stores[addr] > 10)
            found = true;
    EXPECT_TRUE(found);
}

TEST(Benchmarks, Nasa7UsesGatherScatter)
{
    Trace t = makeBenchmarkTrace("nasa7");
    bool gather = false, scatter = false;
    for (const auto &inst : t) {
        gather |= inst.op == Opcode::VGather;
        scatter |= inst.op == Opcode::VScatter;
    }
    EXPECT_TRUE(gather);
    EXPECT_TRUE(scatter);
}
