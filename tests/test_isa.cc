/**
 * @file
 * Unit tests for src/isa: registers, opcode traits, instruction
 * builders, memory ranges and the latency table.
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"
#include "isa/latency.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

using namespace oova;

TEST(Registers, LogicalCounts)
{
    EXPECT_EQ(numLogicalRegs(RegClass::A), 8u);
    EXPECT_EQ(numLogicalRegs(RegClass::S), 8u);
    EXPECT_EQ(numLogicalRegs(RegClass::V), 8u);
    EXPECT_EQ(numLogicalRegs(RegClass::M), 1u);
    EXPECT_EQ(numLogicalRegs(RegClass::None), 0u);
}

TEST(Registers, Prefixes)
{
    EXPECT_EQ(regClassPrefix(RegClass::A), 'a');
    EXPECT_EQ(regClassPrefix(RegClass::S), 's');
    EXPECT_EQ(regClassPrefix(RegClass::V), 'v');
    EXPECT_EQ(regClassPrefix(RegClass::M), 'm');
}

TEST(Registers, RegIdEquality)
{
    EXPECT_EQ(vReg(3), vReg(3));
    EXPECT_FALSE(vReg(3) == vReg(4));
    EXPECT_FALSE(vReg(3) == sReg(3));
    EXPECT_FALSE(RegId().valid());
    EXPECT_TRUE(aReg(0).valid());
}

/** Every opcode must have coherent traits. */
class OpcodeTraits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(OpcodeTraits, Coherent)
{
    Opcode op = static_cast<Opcode>(GetParam());
    const OpTraits &t = traits(op);
    EXPECT_NE(t.name, nullptr);
    // Load and store are mutually exclusive and imply memory.
    EXPECT_FALSE(t.isLoad && t.isStore);
    if (t.isLoad || t.isStore) {
        EXPECT_TRUE(t.isMem);
    }
    if (t.isMem) {
        EXPECT_EQ(t.lat, LatClass::Mem);
    }
    // Only vector ops may be FU2-only.
    if (t.fu2Only) {
        EXPECT_TRUE(t.isVector);
    }
    // Branches are not memory ops and not vector ops.
    if (t.isBranch) {
        EXPECT_FALSE(t.isMem);
        EXPECT_FALSE(t.isVector);
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeTraits,
                         ::testing::Range(0u, kNumOpcodes));

TEST(Opcodes, Fu2OnlySet)
{
    EXPECT_TRUE(traits(Opcode::VMul).fu2Only);
    EXPECT_TRUE(traits(Opcode::VDiv).fu2Only);
    EXPECT_TRUE(traits(Opcode::VSqrt).fu2Only);
    EXPECT_FALSE(traits(Opcode::VAdd).fu2Only);
    EXPECT_FALSE(traits(Opcode::VLogic).fu2Only);
    EXPECT_FALSE(traits(Opcode::VShift).fu2Only);
}

TEST(Opcodes, CallRetClassification)
{
    EXPECT_TRUE(isCallOp(Opcode::Call));
    EXPECT_TRUE(isRetOp(Opcode::Ret));
    EXPECT_FALSE(isCallOp(Opcode::Branch));
    EXPECT_TRUE(traits(Opcode::Call).isBranch);
    EXPECT_TRUE(traits(Opcode::Ret).isBranch);
}

TEST(Opcodes, MaskWriter)
{
    EXPECT_TRUE(traits(Opcode::VCmp).writesMask);
    EXPECT_FALSE(traits(Opcode::VMerge).writesMask);
}

TEST(Instruction, VLoadRange)
{
    DynInst ld = makeVLoad(vReg(0), aReg(1), 0x1000, 8, 4);
    auto [lo, hi] = ld.memRange();
    EXPECT_EQ(lo, 0x1000u);
    EXPECT_EQ(hi, 0x1000u + 3 * 8 + 8);
    EXPECT_EQ(ld.memElems(), 4u);
}

TEST(Instruction, StridedRange)
{
    DynInst ld = makeVLoad(vReg(0), aReg(1), 0x1000, 16, 4);
    auto [lo, hi] = ld.memRange();
    EXPECT_EQ(lo, 0x1000u);
    EXPECT_EQ(hi, 0x1000u + 3 * 16 + 8);
}

TEST(Instruction, NegativeStrideRange)
{
    DynInst ld = makeVLoad(vReg(0), aReg(1), 0x1000, -8, 4);
    auto [lo, hi] = ld.memRange();
    EXPECT_EQ(lo, 0x1000u - 3 * 8);
    EXPECT_EQ(hi, 0x1000u + 8);
    EXPECT_LT(lo, hi);
}

TEST(Instruction, ScalarRange)
{
    DynInst ld = makeSLoad(sReg(0), aReg(1), 0x2000);
    auto [lo, hi] = ld.memRange();
    EXPECT_EQ(lo, 0x2000u);
    EXPECT_EQ(hi, 0x2008u);
    EXPECT_EQ(ld.memElems(), 1u);
}

TEST(Instruction, GatherUsesRegion)
{
    DynInst g;
    g.op = Opcode::VGather;
    g.addr = 0x8000;
    g.regionBytes = 0x400;
    g.vl = 64;
    auto [lo, hi] = g.memRange();
    EXPECT_EQ(lo, 0x8000u);
    EXPECT_EQ(hi, 0x8400u);
    EXPECT_TRUE(g.isIndexedMem());
}

TEST(Instruction, BuildersSetOperands)
{
    DynInst add = makeVArith(Opcode::VAdd, vReg(2), vReg(0), vReg(1),
                             64);
    EXPECT_EQ(add.dst, vReg(2));
    EXPECT_EQ(add.numSrc, 2u);
    EXPECT_EQ(add.vl, 64u);
    EXPECT_TRUE(add.isVectorArith());
    EXPECT_FALSE(add.isMem());

    DynInst st = makeVStore(vReg(3), aReg(2), 0x100, 8, 32);
    EXPECT_EQ(st.numSrc, 2u);
    EXPECT_EQ(st.src[0], vReg(3));
    EXPECT_TRUE(st.isStore());

    DynInst br = makeBranch(aReg(7), true, 0x44);
    EXPECT_TRUE(br.isBranch());
    EXPECT_TRUE(br.taken);
    EXPECT_EQ(br.target, 0x44u);
}

TEST(Instruction, SpillFlagPropagates)
{
    DynInst ld = makeVLoad(vReg(0), aReg(6), 0x100, 8, 8, true);
    EXPECT_TRUE(ld.isSpill);
    DynInst st = makeSStore(sReg(0), aReg(6), 0x100, true);
    EXPECT_TRUE(st.isSpill);
}

TEST(Instruction, Disassembly)
{
    DynInst add = makeVArith(Opcode::VAdd, vReg(2), vReg(0), vReg(1),
                             64);
    std::string s = add.toString();
    EXPECT_NE(s.find("vadd"), std::string::npos);
    EXPECT_NE(s.find("v2"), std::string::npos);
    EXPECT_NE(s.find("vl=64"), std::string::npos);

    DynInst ld = makeVLoad(vReg(1), aReg(0), 0x1000, 8, 16, true);
    std::string l = ld.toString();
    EXPECT_NE(l.find("[spill]"), std::string::npos);
}

TEST(Latency, Defaults)
{
    LatencyTable ref = LatencyTable::refDefaults();
    LatencyTable ooo = LatencyTable::oooDefaults();
    EXPECT_EQ(ref.vectorStartup, 1u);
    EXPECT_EQ(ooo.vectorStartup, 0u); // Table 1 footnote
    EXPECT_EQ(ref.opLatency(Opcode::VMul), kMulLat);
    EXPECT_EQ(ref.opLatency(Opcode::VDiv), kDivSqrtLat);
    EXPECT_EQ(ref.opLatency(Opcode::VAdd), kAddLogicLat);
    EXPECT_EQ(ref.opLatency(Opcode::SMove), kMoveLat);
    EXPECT_EQ(ref.opLatency(Opcode::VLoad), ref.memLatency);
}
