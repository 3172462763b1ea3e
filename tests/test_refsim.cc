/**
 * @file
 * Tests for the in-order reference simulator: timing of the basic
 * structures (chaining rules, memory unit serialization, scalar
 * interlocks, branches) on small hand-built traces, plus
 * monotonicity properties.
 */

#include <gtest/gtest.h>

#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

using namespace oova;

namespace
{

RefConfig
cfgLat(unsigned lat)
{
    RefConfig cfg;
    cfg.lat.memLatency = lat;
    return cfg;
}

} // namespace

TEST(RefSim, EmptyTrace)
{
    SimResult r = simulateRef(Trace("empty"));
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(RefSim, SingleVectorLoadTiming)
{
    Trace t("ld");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    RefConfig cfg = cfgLat(50);
    SimResult r = simulateRef(t, cfg);
    // startup + bus(64) ... data written [startup+50+wx, +64).
    Cycle expect = cfg.lat.vectorStartup + cfg.lat.memLatency +
                   kWriteXbarVector + 64;
    EXPECT_EQ(r.cycles, expect);
    EXPECT_EQ(r.memRequests, 64u);
}

TEST(RefSim, LoadUseNotChained)
{
    // The consumer of a load must wait for the load to complete.
    Trace t("ld-use");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    RefConfig cfg = cfgLat(50);
    SimResult r = simulateRef(t, cfg);
    Cycle load_done = cfg.lat.vectorStartup + cfg.lat.memLatency +
                      kWriteXbarVector + 64;
    EXPECT_GE(r.cycles, load_done + 64) << "add overlapped the load";
}

TEST(RefSim, FuToFuChainingWorks)
{
    // Dependent arithmetic should overlap nearly completely.
    Trace t("chain");
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(1), vReg(1), 64));
    SimResult r = simulateRef(t, cfgLat(50));
    // Unchained would be ~2*(lat+64); chained ~lat+smallconst+64.
    EXPECT_LT(r.cycles, 2 * 64u);
}

TEST(RefSim, ChainLoadsConfigRestoresOverlap)
{
    Trace t("ld-use");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    RefConfig no_chain = cfgLat(50);
    RefConfig chain = cfgLat(50);
    chain.chainLoadsToFus = true;
    EXPECT_LT(simulateRef(t, chain).cycles,
              simulateRef(t, no_chain).cycles);
}

TEST(RefSim, MemUnitSerializesVectorMemOps)
{
    Trace t("two-loads");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVLoad(vReg(1), aReg(0), 0x9000, 8, 64));
    SimResult r = simulateRef(t, cfgLat(50));
    // The second load's address phase starts after the first's.
    EXPECT_GE(r.memBusyCycles, 128u);
    EXPECT_GE(r.cycles, 128u + 50u);
}

TEST(RefSim, Fu2OnlyOpsSerializeOnFu2)
{
    Trace t("two-muls");
    t.push(makeVArith(Opcode::VMul, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVArith(Opcode::VMul, vReg(2), vReg(0), vReg(0), 64));
    SimResult r = simulateRef(t, cfgLat(1));
    EXPECT_GE(r.cycles, 2 * 64u);
    EXPECT_EQ(r.fu1BusyCycles, 0u);
    EXPECT_GE(r.fu2BusyCycles, 2 * 64u);
}

TEST(RefSim, MixedOpsUseBothFus)
{
    Trace t("mul-add");
    t.push(makeVArith(Opcode::VMul, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(0), vReg(0), 64));
    SimResult r = simulateRef(t, cfgLat(1));
    EXPECT_GT(r.fu1BusyCycles, 0u);
    EXPECT_GT(r.fu2BusyCycles, 0u);
    EXPECT_LT(r.cycles, 2 * 65u) << "add should run on FU1 in parallel";
}

TEST(RefSim, ScalarInterlock)
{
    Trace t("s-chain");
    t.push(makeScalar(Opcode::SAdd, sReg(1), sReg(0)));
    t.push(makeScalar(Opcode::SAdd, sReg(2), sReg(1)));
    t.push(makeScalar(Opcode::SAdd, sReg(3), sReg(2)));
    RefConfig cfg = cfgLat(1);
    SimResult r = simulateRef(t, cfg);
    unsigned per_op = kAddLogicLat + kWriteXbarScalar;
    EXPECT_GE(r.cycles, 2 * per_op);
    EXPECT_GT(r.stallCycles[static_cast<unsigned>(
                  StallCause::ScalarDep)],
              0u);
}

TEST(RefSim, TakenBranchPenalty)
{
    Trace nt("not-taken");
    nt.push(makeBranch(aReg(0), false, 0x0));
    nt.push(makeScalar(Opcode::SMove, sReg(0), RegId()));
    Trace tk("taken");
    tk.push(makeBranch(aReg(0), true, 0x0));
    tk.push(makeScalar(Opcode::SMove, sReg(0), RegId()));
    RefConfig cfg = cfgLat(1);
    EXPECT_GT(simulateRef(tk, cfg).cycles,
              simulateRef(nt, cfg).cycles);
}

TEST(RefSim, TakenBranchCostIsTheLatencyTables)
{
    // Table 1 lists lat.branchMispredict as REF's taken-branch cost:
    // each taken branch holds the next issue back by that many
    // cycles.
    Trace t("taken-loop");
    for (int i = 0; i < 4; ++i)
        t.push(makeBranch(aReg(0), true, 0x0));
    t.push(makeScalar(Opcode::SMove, sReg(0), RegId()));
    RefConfig cfg = cfgLat(1);
    Cycle base = simulateRef(t, cfg).cycles;
    cfg.lat.branchMispredict += 7;
    EXPECT_EQ(simulateRef(t, cfg).cycles, base + 4 * 7);
}

TEST(RefSim, ScalarLoadLatency)
{
    Trace t("sload-use");
    t.push(makeSLoad(sReg(0), aReg(0), 0x1000));
    t.push(makeScalar(Opcode::SAdd, sReg(1), sReg(0)));
    RefConfig cfg = cfgLat(50);
    SimResult r = simulateRef(t, cfg);
    EXPECT_GE(r.cycles, cfg.lat.memLatency);
    EXPECT_EQ(r.memRequests, 1u);
}

TEST(RefSim, StoreChainsFromProducer)
{
    Trace t("fu-store");
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVStore(vReg(1), aReg(0), 0x1000, 8, 64));
    SimResult r = simulateRef(t, cfgLat(1));
    // With FU->store chaining, total stays well under serial time.
    EXPECT_LT(r.cycles, 2 * 64u + 20u);
}

TEST(RefSim, PortConflictsCostWhenEnabled)
{
    // Same-bank sources conflict only when port modeling is on.
    Trace t("ports");
    t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(0), vReg(1), 64));
    t.push(makeVArith(Opcode::VLogic, vReg(4), vReg(0), vReg(1), 64));
    RefConfig off = cfgLat(1);
    RefConfig on = cfgLat(1);
    on.modelPortConflicts = true;
    EXPECT_GE(simulateRef(t, on).cycles, simulateRef(t, off).cycles);
}

TEST(RefSim, GatherWaitsForFullIndex)
{
    Trace t("gather");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64)); // index load
    DynInst g;
    g.op = Opcode::VGather;
    g.dst = vReg(1);
    g.addSrc(vReg(0));
    g.addSrc(aReg(0));
    g.vl = 64;
    g.addr = 0x8000;
    g.regionBytes = 0x1000;
    t.push(g);
    RefConfig cfg = cfgLat(50);
    SimResult r = simulateRef(t, cfg);
    // Index complete at ~1+50+2+64; gather bus then 64 more.
    EXPECT_GE(r.cycles, 50u + 64u + 64u);
}

// ---- properties over the benchmark set -------------------------

class RefSimProperties : public ::testing::TestWithParam<std::string>
{
  protected:
    Trace
    trace()
    {
        GenOptions small;
        small.scale = 0.2;
        return makeBenchmarkTrace(GetParam(), small);
    }
};

TEST_P(RefSimProperties, LatencyMonotonicity)
{
    Trace t = trace();
    Cycle prev = 0;
    for (unsigned lat : {1u, 20u, 50u, 100u}) {
        Cycle c = simulateRef(t, cfgLat(lat)).cycles;
        EXPECT_GE(c, prev) << "latency " << lat;
        prev = c;
    }
}

TEST_P(RefSimProperties, BusAccountingConsistent)
{
    Trace t = trace();
    SimResult r = simulateRef(t, cfgLat(50));
    // Every memory element request occupies exactly one bus cycle.
    EXPECT_EQ(r.memBusyCycles, r.memRequests);
    EXPECT_LE(r.memBusyCycles, r.cycles);
    // State breakdown must partition all cycles.
    uint64_t sum = 0;
    for (auto v : r.stateCycles)
        sum += v;
    EXPECT_EQ(sum, r.cycles);
}

TEST_P(RefSimProperties, PortModelOnlyAddsCycles)
{
    Trace t = trace();
    RefConfig off = cfgLat(50);
    RefConfig on = cfgLat(50);
    on.modelPortConflicts = true;
    EXPECT_GE(simulateRef(t, on).cycles, simulateRef(t, off).cycles);
}

INSTANTIATE_TEST_SUITE_P(AllTen, RefSimProperties,
                         ::testing::ValuesIn(benchmarkNames()));
