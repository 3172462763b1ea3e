/**
 * @file
 * Cross-module integration tests: the paper's headline claims must
 * hold end to end on every benchmark — OOOVA beats REF, tolerates
 * latency, uses the memory port better, and IDEAL bounds both.
 */

#include <gtest/gtest.h>

#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "ref/refsim.hh"

using namespace oova;

namespace
{

GenOptions
smallScale()
{
    GenOptions o;
    o.scale = 0.25;
    return o;
}

} // namespace

class EndToEnd : public ::testing::TestWithParam<std::string>
{
  protected:
    Trace
    trace() const
    {
        return makeBenchmarkTrace(GetParam(), smallScale());
    }
};

TEST_P(EndToEnd, OoovaBeatsRef)
{
    Trace t = trace();
    SimResult ref = simulateRef(t, makeRefConfig(50));
    SimResult ooo = simulateOoo(t, makeOooConfig(16, 16, 50));
    EXPECT_GT(speedup(ref, ooo), 1.1) << GetParam();
}

TEST_P(EndToEnd, IdealBoundsBothMachines)
{
    Trace t = trace();
    Cycle ideal = idealCycles(t);
    EXPECT_LE(ideal, simulateOoo(t, makeOooConfig(64, 128, 1)).cycles);
    EXPECT_LE(ideal, simulateRef(t, makeRefConfig(1)).cycles);
}

TEST_P(EndToEnd, OoovaImprovesPortUtilization)
{
    Trace t = trace();
    SimResult ref = simulateRef(t, makeRefConfig(50));
    SimResult ooo = simulateOoo(t, makeOooConfig(16, 16, 50));
    EXPECT_LT(ooo.portIdleFraction(), ref.portIdleFraction())
        << GetParam();
}

TEST_P(EndToEnd, OoovaToleratesLatencyBetterThanRef)
{
    Trace t = trace();
    double ref_degrade =
        static_cast<double>(simulateRef(t, makeRefConfig(100)).cycles) /
        static_cast<double>(simulateRef(t, makeRefConfig(1)).cycles);
    double ooo_degrade =
        static_cast<double>(
            simulateOoo(t, makeOooConfig(16, 16, 100)).cycles) /
        static_cast<double>(
            simulateOoo(t, makeOooConfig(16, 16, 1)).cycles);
    // Scalar-bound programs (tomcatv) are nearly flat on both
    // machines; allow a small epsilon there.
    EXPECT_LT(ooo_degrade, ref_degrade + 0.05) << GetParam();
}

TEST_P(EndToEnd, MoreRegistersNeverHurt)
{
    Trace t = trace();
    Cycle c9 = simulateOoo(t, makeOooConfig(9, 16, 50)).cycles;
    Cycle c16 = simulateOoo(t, makeOooConfig(16, 16, 50)).cycles;
    Cycle c64 = simulateOoo(t, makeOooConfig(64, 16, 50)).cycles;
    EXPECT_GE(c9, c16);
    // Allow a tiny wobble between 16 and 64 from allocation order.
    EXPECT_LE(c64, c16 + c16 / 100);
}

TEST_P(EndToEnd, SimulationIsDeterministic)
{
    Trace t = trace();
    SimResult a = simulateOoo(t, makeOooConfig(16, 16, 50));
    SimResult b = simulateOoo(t, makeOooConfig(16, 16, 50));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.vectorLoadsEliminated, b.vectorLoadsEliminated);
}

INSTANTIATE_TEST_SUITE_P(AllTen, EndToEnd,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(Harness, WorkloadsCacheReturnsSameTrace)
{
    TraceCache traces(0.25);
    const Trace &a = traces.get("swm256");
    const Trace &b = traces.get("swm256");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(traces.names().size(), 10u);
}

TEST(Harness, ConfigBuilders)
{
    RefConfig rc = makeRefConfig(70);
    EXPECT_EQ(rc.lat.memLatency, 70u);
    OooConfig oc = makeOooConfig(32, 128, 70, CommitMode::Late,
                                 LoadElimMode::SleVle);
    EXPECT_EQ(oc.numPhysVRegs, 32u);
    EXPECT_EQ(oc.queueSize, 128u);
    EXPECT_EQ(oc.lat.memLatency, 70u);
    EXPECT_EQ(oc.commit, CommitMode::Late);
    EXPECT_EQ(oc.loadElim, LoadElimMode::SleVle);
    EXPECT_NE(oc.name().find("sle+vle"), std::string::npos);
}

TEST(Ideal, HandComputedBound)
{
    Trace t("hand");
    // 2 loads of 64 -> mem 128; 1 mul of 64 -> fu2 64; 1 add -> fu1.
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVLoad(vReg(1), aReg(0), 0x2000, 8, 64));
    t.push(makeVArith(Opcode::VMul, vReg(2), vReg(0), vReg(1), 64));
    t.push(makeVArith(Opcode::VAdd, vReg(3), vReg(0), vReg(1), 64));
    IdealBreakdown b = idealBreakdown(t);
    EXPECT_EQ(b.memCycles, 128u);
    EXPECT_EQ(b.fu2Cycles, 64u);
    EXPECT_EQ(b.fu1Cycles, 64u);
    EXPECT_EQ(b.bound(), 128u);
}

TEST(Ideal, ScalarMemCountsTowardPort)
{
    Trace t("hand2");
    t.push(makeSLoad(sReg(0), aReg(0), 0x100));
    t.push(makeSStore(sReg(0), aReg(0), 0x200));
    EXPECT_EQ(idealBreakdown(t).memCycles, 2u);
}

TEST(Ideal, BalancesNonPinnedWork)
{
    Trace t("adds");
    for (int i = 0; i < 4; ++i)
        t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0),
                          64));
    IdealBreakdown b = idealBreakdown(t);
    EXPECT_EQ(b.fu1Cycles, 128u);
    EXPECT_EQ(b.fu2Cycles, 128u);
}
