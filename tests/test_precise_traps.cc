/**
 * @file
 * Tests for the precise-trap machinery (paper section 5). The traps
 * come from the machine's own trap source, a software-refilled TLB
 * under late commit: a stream whose pages are not resident traps at
 * the ROB head, the squash rolls back every younger rename, the
 * handler installs the pages and the instruction replays. Every run
 * audits at checkLevel 2 and must commit each instruction exactly
 * once, under every load-elimination mode.
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "harness/experiment.hh"

using namespace oova;

namespace
{

/** Late-commit OOOVA whose TLB misses trap, under the full audit. */
OooConfig
trapCfg(LoadElimMode elim = LoadElimMode::None, unsigned tlb_entries = 64)
{
    OooConfig c = makeTlbOooConfig(tlb_entries, 4096, 50,
                                   CommitMode::Late,
                                   TlbRefill::SoftwareTrap);
    c.loadElim = elim;
    c.checkLevel = 2;
    return c;
}

/**
 * Run @p t on @p cfg and expect no audit violation and every
 * instruction committed once: squash and replay are exact.
 */
SimResult
runAudited(const Trace &t, const OooConfig &cfg)
{
    check::resetProcessViolations();
    SimResult r = simulateOoo(t, cfg);
    EXPECT_EQ(check::processViolationCount(), 0u);
    check::resetProcessViolations();
    EXPECT_EQ(r.instructions, t.size());
    return r;
}

/**
 * @p mem, the trace's only memory instruction, between vector and
 * scalar work that does not touch memory: on the cold TLB it traps
 * with older and younger instructions in flight.
 */
Trace
oneMemOp(const DynInst &mem)
{
    Trace t("one-mem-op");
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(2), vReg(3), 64));
    t.push(makeScalar(Opcode::SAdd, sReg(1), sReg(2), sReg(3)));
    t.push(mem);
    t.push(makeVArith(Opcode::VMul, vReg(4), vReg(1), vReg(5), 64));
    t.push(makeScalar(Opcode::SAdd, sReg(4), sReg(1), sReg(2)));
    return t;
}

Trace
loopTrace()
{
    GenOptions small;
    small.scale = 0.15;
    return makeBenchmarkTrace("swm256", small);
}

} // namespace

TEST(PreciseTraps, FaultingLoadReplaysAndCompletes)
{
    Trace t = oneMemOp(makeVLoad(vReg(0), aReg(0), 0x10000, 8, 64));
    SimResult r = runAudited(t, trapCfg());
    EXPECT_EQ(r.traps, 1u);
    EXPECT_EQ(r.tlbMisses, 1u) << "the handler installs the one page";
}

TEST(PreciseTraps, TrapCostsCycles)
{
    Trace t = oneMemOp(makeVLoad(vReg(0), aReg(0), 0x10000, 8, 64));
    SimResult clean =
        simulateOoo(t, makeOooConfig(16, 16, 50, CommitMode::Late));
    SimResult trapped = runAudited(t, trapCfg());
    EXPECT_GT(trapped.cycles, clean.cycles);
}

TEST(PreciseTraps, FaultOnStore)
{
    Trace t = oneMemOp(makeVStore(vReg(1), aReg(0), 0x10000, 8, 64));
    SimResult r = runAudited(t, trapCfg());
    EXPECT_EQ(r.traps, 1u);
}

TEST(PreciseTraps, FaultOnScalarLoad)
{
    Trace t = oneMemOp(makeSLoad(sReg(5), aReg(0), 0x10000));
    SimResult r = runAudited(t, trapCfg());
    EXPECT_EQ(r.traps, 1u);
}

TEST(PreciseTraps, FaultOnVeryFirstMemoryOp)
{
    // The load is instruction 0: nothing older is in flight, and the
    // replay refetches from the start of the program.
    Trace t("first-inst");
    t.push(makeVLoad(vReg(0), aReg(0), 0x10000, 8, 64));
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVStore(vReg(1), aReg(0), 0x10200, 8, 64));
    SimResult r = runAudited(t, trapCfg());
    EXPECT_EQ(r.traps, 1u) << "the store finds the page resident";
}

/** Recovery must work with load elimination active, too. */
class TrapsUnderElim
    : public ::testing::TestWithParam<LoadElimMode>
{
};

TEST_P(TrapsUnderElim, RecoversCleanly)
{
    SimResult r = runAudited(loopTrace(), trapCfg(GetParam()));
    EXPECT_GT(r.traps, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TrapsUnderElim,
    ::testing::Values(LoadElimMode::None, LoadElimMode::Sle,
                      LoadElimMode::SleVle));

/**
 * Move the first trap through a whole small program: dyfesm from its
 * Nth memory instruction on, so the cold TLB's first trap lands on a
 * different instruction each time. A TLB this small keeps missing,
 * so many more traps follow.
 */
class TrapPosition : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TrapPosition, AnyMemoryOpCanFault)
{
    GenOptions tiny;
    tiny.scale = 0.1;
    Trace whole = makeBenchmarkTrace("dyfesm", tiny);
    unsigned target = GetParam();
    SeqNum first = kNoSeq;
    unsigned seen = 0;
    for (SeqNum i = 0; i < whole.size(); ++i) {
        if (whole[i].isMem() && seen++ == target) {
            first = i;
            break;
        }
    }
    ASSERT_NE(first, kNoSeq);
    Trace t("dyfesm-tail");
    for (SeqNum i = first; i < whole.size(); ++i)
        t.push(whole[i]);
    SimResult r = runAudited(t, trapCfg(LoadElimMode::SleVle, 4));
    EXPECT_GT(r.traps, 1u);
}

INSTANTIATE_TEST_SUITE_P(Positions, TrapPosition,
                         ::testing::Values(0u, 3u, 17u, 101u, 500u));
