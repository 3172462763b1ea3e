/**
 * @file
 * Unit tests for src/trace: the trace container, statistics (the
 * Table 2/3 columns) and binary serialization round-trips.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "tgen/benchmarks.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

using namespace oova;

namespace
{

Trace
smallTrace()
{
    Trace t("unit");
    t.push(makeScalar(Opcode::SAdd, aReg(0), aReg(0)));
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    t.push(makeVStore(vReg(1), aReg(0), 0x2000, 8, 64));
    t.push(makeBranch(aReg(0), true, 0x10));
    return t;
}

} // namespace

TEST(Trace, BasicContainer)
{
    Trace t = smallTrace();
    EXPECT_EQ(t.size(), 5u);
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t.name(), "unit");
    EXPECT_EQ(t[1].op, Opcode::VLoad);
}

TEST(TraceStats, CountsAndVectorization)
{
    TraceStats s = TraceStats::compute(smallTrace());
    EXPECT_EQ(s.scalarInsts, 2u);
    EXPECT_EQ(s.vectorInsts, 3u);
    EXPECT_EQ(s.vectorOps, 3u * 64u);
    EXPECT_EQ(s.branches, 1u);
    EXPECT_DOUBLE_EQ(s.avgVectorLength(), 64.0);
    double expect = 100.0 * 192.0 / (192.0 + 2.0);
    EXPECT_NEAR(s.vectorization(), expect, 1e-9);
}

TEST(TraceStats, SpillCensus)
{
    Trace t("spills");
    t.push(makeVLoad(vReg(0), aReg(0), 0x100, 8, 32, false));
    t.push(makeVLoad(vReg(1), aReg(0), 0x200, 8, 32, true));
    t.push(makeVStore(vReg(0), aReg(0), 0x300, 8, 32, true));
    t.push(makeSLoad(sReg(0), aReg(0), 0x400, true));
    t.push(makeSStore(sReg(0), aReg(0), 0x408, false));
    TraceStats s = TraceStats::compute(t);
    EXPECT_EQ(s.vecLoadOps, 32u);
    EXPECT_EQ(s.vecSpillLoadOps, 32u);
    EXPECT_EQ(s.vecStoreOps, 0u);
    EXPECT_EQ(s.vecSpillStoreOps, 32u);
    EXPECT_EQ(s.scalarSpillLoads, 1u);
    EXPECT_EQ(s.scalarStores, 1u);
    EXPECT_NEAR(s.spillTrafficFraction(), 64.0 / 96.0, 1e-9);
}

TEST(TraceStats, EmptyTraceSafe)
{
    TraceStats s = TraceStats::compute(Trace("empty"));
    EXPECT_EQ(s.totalInsts(), 0u);
    EXPECT_DOUBLE_EQ(s.vectorization(), 0.0);
    EXPECT_DOUBLE_EQ(s.avgVectorLength(), 0.0);
    EXPECT_DOUBLE_EQ(s.spillTrafficFraction(), 0.0);
}

TEST(TraceIo, RoundTripSmall)
{
    Trace t = smallTrace();
    std::stringstream ss;
    ASSERT_TRUE(saveTrace(t, ss));
    Trace u;
    ASSERT_TRUE(loadTrace(u, ss));
    ASSERT_EQ(u.size(), t.size());
    EXPECT_EQ(u.name(), t.name());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(u[i].op, t[i].op) << i;
        EXPECT_EQ(u[i].dst, t[i].dst) << i;
        EXPECT_EQ(u[i].numSrc, t[i].numSrc) << i;
        EXPECT_EQ(u[i].addr, t[i].addr) << i;
        EXPECT_EQ(u[i].vl, t[i].vl) << i;
        EXPECT_EQ(u[i].taken, t[i].taken) << i;
    }
}

/** Property: random traces survive serialization byte-exactly. */
class TraceIoRoundTrip : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TraceIoRoundTrip, RandomTrace)
{
    Rng rng(GetParam());
    Trace t("rand" + std::to_string(GetParam()));
    for (int i = 0; i < 500; ++i) {
        DynInst inst;
        inst.pc = rng.next();
        inst.op = static_cast<Opcode>(rng.uniform(0, kNumOpcodes - 1));
        // Register indices stay inside each class's architected
        // count: the deserializer rejects out-of-range registers
        // (they would index out of the rename tables downstream).
        auto rand_reg = [&](int max_cls) {
            auto cls = static_cast<RegClass>(rng.uniform(0, max_cls));
            if (cls == RegClass::None)
                return RegId();
            auto idx = static_cast<uint8_t>(
                rng.uniform(0, static_cast<int>(numLogicalRegs(cls)) -
                                   1));
            return RegId(cls, idx);
        };
        inst.dst = rand_reg(4);
        inst.numSrc = static_cast<uint8_t>(rng.uniform(0, 3));
        for (unsigned k = 0; k < inst.numSrc; ++k)
            inst.src[k] = rand_reg(3);
        inst.vl = static_cast<uint16_t>(rng.uniform(1, 128));
        inst.strideBytes = static_cast<int64_t>(rng.uniform(0, 64)) - 32;
        inst.addr = rng.next();
        inst.regionBytes = static_cast<uint32_t>(rng.uniform(0, 1 << 20));
        inst.taken = rng.chance(0.5);
        inst.target = rng.next();
        inst.isSpill = rng.chance(0.3);
        t.push(inst);
    }

    std::stringstream ss;
    ASSERT_TRUE(saveTrace(t, ss));
    Trace u;
    ASSERT_TRUE(loadTrace(u, ss));
    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(u[i].pc, t[i].pc);
        EXPECT_EQ(u[i].op, t[i].op);
        EXPECT_EQ(u[i].dst, t[i].dst);
        EXPECT_EQ(u[i].strideBytes, t[i].strideBytes);
        EXPECT_EQ(u[i].regionBytes, t[i].regionBytes);
        EXPECT_EQ(u[i].target, t[i].target);
        EXPECT_EQ(u[i].isSpill, t[i].isSpill);
        for (unsigned k = 0; k < t[i].numSrc; ++k)
            EXPECT_EQ(u[i].src[k], t[i].src[k]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoRoundTrip,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOTATRACE-FILE-AT-ALL";
    Trace u;
    EXPECT_FALSE(loadTrace(u, ss));
    EXPECT_TRUE(u.empty());
}

TEST(TraceIo, RejectsOutOfRangeEnumBytes)
{
    Trace t = smallTrace();
    std::stringstream ss;
    ASSERT_TRUE(saveTrace(t, ss));
    std::string bytes = ss.str();
    // First instruction's opcode byte: magic(8) + name_len(4) +
    // name + count(8) + pc(8); then dst reg (2), numSrc (1), three
    // src regs (6), vl (2), stride (8), addr (8), region (4),
    // esize (1), ipat. All of these feed unchecked array subscripts
    // (traits() table, register files, src[] loops), so a corrupted
    // byte at any of them must be rejected at deserialization.
    size_t op_off = 8 + 4 + t.name().size() + 8 + 8;
    size_t dst_cls_off = op_off + 1;
    size_t num_src_off = op_off + 3;
    size_t ipat_off = num_src_off + 1 + 6 + 2 + 8 + 8 + 4 + 1;
    for (size_t off : {op_off, dst_cls_off, num_src_off, ipat_off}) {
        std::string bad_bytes = bytes;
        bad_bytes[off] = static_cast<char>(0xff);
        std::stringstream bad(bad_bytes);
        Trace u;
        EXPECT_FALSE(loadTrace(u, bad)) << "offset=" << off;
        EXPECT_TRUE(u.empty()) << "offset=" << off;
    }
}

TEST(TraceIo, RejectsTruncation)
{
    Trace t = smallTrace();
    std::stringstream ss;
    ASSERT_TRUE(saveTrace(t, ss));
    std::string bytes = ss.str();
    for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t(9)}) {
        std::stringstream cut_ss(bytes.substr(0, cut));
        Trace u;
        EXPECT_FALSE(loadTrace(u, cut_ss)) << "cut=" << cut;
    }
}

TEST(TraceIo, FileRoundTrip)
{
    Trace t = smallTrace();
    std::string path = ::testing::TempDir() + "/oova_trace_test.bin";
    ASSERT_TRUE(saveTraceFile(t, path));
    Trace u;
    ASSERT_TRUE(loadTraceFile(u, path));
    EXPECT_EQ(u.size(), t.size());
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails)
{
    Trace u;
    EXPECT_FALSE(loadTraceFile(u, "/nonexistent/path/trace.bin"));
}

/**
 * traceContentHash() is the ResultStore key, so it must not move
 * when DynInst's in-memory layout does: trace_io serializes field by
 * field. The pinned values predate the 64-byte field order; a change
 * here invalidates every stored result.
 */
TEST(TraceIo, ContentHashIsIndependentOfDynInstLayout)
{
    const std::pair<const char *, uint64_t> pinned[] = {
        {"swm256", 0x442018480932094eull},
        {"hydro2d", 0xab8981aed0b87095ull},
        {"arc2d", 0x8c4b4da0537e73b6ull},
        {"flo52", 0x94460f258e3c1d79ull},
        {"nasa7", 0xd3fe4c51cdab4ef2ull},
        {"su2cor", 0xb9a8d3585de21db2ull},
        {"tomcatv", 0x25530eb29f70a771ull},
        {"bdna", 0x3031b7ea368224ceull},
        {"trfd", 0x45c7aab61714e5a6ull},
        {"dyfesm", 0xb1cc6fc345d07a17ull},
    };
    GenOptions opts;
    opts.scale = 0.25;
    for (const auto &[name, hash] : pinned) {
        EXPECT_EQ(traceContentHash(makeBenchmarkTrace(name, opts)), hash)
            << name;
    }
}
