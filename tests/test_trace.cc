/**
 * @file
 * Unit tests for src/trace: the trace container, statistics (the
 * Table 2/3 columns) and the content hash.
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
    EXPECT_EQ(s.scalarInsts + s.vectorInsts, 0u);
    EXPECT_DOUBLE_EQ(s.vectorization(), 0.0);
    EXPECT_DOUBLE_EQ(s.avgVectorLength(), 0.0);
    EXPECT_DOUBLE_EQ(s.spillTrafficFraction(), 0.0);
}

namespace
{

// The binary trace writer the project used to ship, kept as the
// reference for traceContentHash(): the hash is FNV-1a over exactly
// these bytes, so the store keys of every earlier build stay valid.

template <typename T>
void
put(std::ostream &os, T value)
{
    // Serialize little-endian regardless of host order.
    unsigned char buf[sizeof(T)];
    auto u = static_cast<uint64_t>(value);
    for (size_t i = 0; i < sizeof(T); ++i)
        buf[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
    os.write(reinterpret_cast<const char *>(buf), sizeof(T));
}

void
putReg(std::ostream &os, const RegId &r)
{
    put<uint8_t>(os, static_cast<uint8_t>(r.cls));
    put<uint8_t>(os, r.idx);
}

std::string
oldFormatBytes(const Trace &trace)
{
    constexpr char kMagic[8] = {'O', 'O', 'V', 'A', 'T', 'R', 'C', '2'};
    std::ostringstream os;
    os.write(kMagic, sizeof(kMagic));
    put<uint32_t>(os, static_cast<uint32_t>(trace.name().size()));
    os.write(trace.name().data(),
             static_cast<std::streamsize>(trace.name().size()));
    put<uint64_t>(os, trace.size());

    for (const DynInst &inst : trace) {
        put<uint64_t>(os, inst.pc);
        put<uint8_t>(os, static_cast<uint8_t>(inst.op));
        putReg(os, inst.dst);
        put<uint8_t>(os, inst.numSrc);
        for (unsigned i = 0; i < kMaxSrcRegs; ++i)
            putReg(os, inst.src[i]);
        put<uint16_t>(os, inst.vl);
        put<int64_t>(os, inst.strideBytes);
        put<uint64_t>(os, inst.addr);
        put<uint32_t>(os, inst.regionBytes);
        put<uint8_t>(os, inst.elemSize);
        put<uint8_t>(os, static_cast<uint8_t>(inst.idxPattern));
        put<uint32_t>(os, inst.idxParam);
        put<uint64_t>(os, inst.idxSeed);
        put<uint8_t>(os, inst.taken ? 1 : 0);
        put<uint64_t>(os, inst.target);
        put<uint8_t>(os, inst.isSpill ? 1 : 0);
    }
    return os.str();
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char b : bytes)
        h = (h ^ b) * 1099511628211ull;
    return h;
}

} // namespace

/**
 * Property: on random traces (gathers, negative strides, every index
 * pattern, odd names) the content hash covers the same bytes, in the
 * same order, as the old trace format.
 */
class TraceIoRoundTrip : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TraceIoRoundTrip, RandomTrace)
{
    Rng rng(GetParam());
    // Odd names: empty, or with a space, a NUL and non-ASCII bytes.
    std::string name;
    if (GetParam() % 2 == 0)
        name = std::string("rand ") + '\0' + "\xc3\xa9\xff" +
               std::to_string(GetParam());
    Trace t(name);
    for (int i = 0; i < 500; ++i) {
        DynInst inst;
        inst.pc = rng.next();
        inst.op = static_cast<Opcode>(rng.uniform(0, kNumOpcodes - 1));
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
        inst.elemSize = static_cast<uint8_t>(rng.uniform(1, 8));
        inst.idxPattern = static_cast<IndexPattern>(
            rng.uniform(0, static_cast<int>(IndexPattern::Random)));
        inst.idxParam = static_cast<uint32_t>(rng.next());
        inst.idxSeed = rng.next();
        inst.taken = rng.chance(0.5);
        inst.target = rng.next();
        inst.isSpill = rng.chance(0.3);
        t.push(inst);
    }
    EXPECT_EQ(traceContentHash(t), fnv1a(oldFormatBytes(t)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoRoundTrip,
                         ::testing::Values(1, 2, 3, 42, 1234));

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
