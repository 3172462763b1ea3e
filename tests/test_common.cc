/**
 * @file
 * Unit tests for src/common: formatting, RNG, interval statistics
 * and the 8-state breakdown.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace oova;

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("x=%d", 42), "x=42");
    EXPECT_EQ(csprintf("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(csprintf("%05u", 7u), "00007");
}

TEST(Csprintf, EmptyAndLong)
{
    EXPECT_EQ(csprintf("%s", ""), "");
    std::string big(3000, 'y');
    EXPECT_EQ(csprintf("%s", big.c_str()), big);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformSingleton)
{
    Rng r(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.uniform(5, 5), 5u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(IntervalRecorder, EmptyHasNoBusyCycles)
{
    IntervalRecorder rec;
    EXPECT_EQ(rec.busyCycles(), 0u);
    EXPECT_EQ(rec.count(), 0u);
}

TEST(IntervalRecorder, SingleInterval)
{
    IntervalRecorder rec;
    rec.add(10, 20);
    EXPECT_EQ(rec.busyCycles(), 10u);
    EXPECT_EQ(rec.intervals().back().second, 20u);
}

TEST(IntervalRecorder, ZeroLengthIgnored)
{
    IntervalRecorder rec;
    rec.add(5, 5);
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_EQ(rec.busyCycles(), 0u);
}

TEST(IntervalRecorder, OverlapsMerge)
{
    IntervalRecorder rec;
    rec.add(0, 10);
    rec.add(5, 15);
    rec.add(20, 30);
    EXPECT_EQ(rec.busyCycles(), 25u);
}

TEST(IntervalRecorder, OutOfOrderInsertion)
{
    IntervalRecorder rec;
    rec.add(50, 60);
    rec.add(0, 10);
    rec.add(10, 20); // adjacent, still contiguous with [0,10)
    EXPECT_EQ(rec.busyCycles(), 30u);
}

TEST(UnitStateBreakdown, AllIdle)
{
    IntervalRecorder a, b, c;
    auto st = UnitStateBreakdown::compute(a, b, c, 100);
    EXPECT_EQ(st[0], 100u);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(st[i], 0u);
}

TEST(UnitStateBreakdown, SingleUnitBusy)
{
    IntervalRecorder fu2, fu1, mem;
    mem.add(0, 40);
    auto st = UnitStateBreakdown::compute(fu2, fu1, mem, 100);
    EXPECT_EQ(st[1], 40u); // < , ,MEM>
    EXPECT_EQ(st[0], 60u);
}

TEST(UnitStateBreakdown, FullOverlap)
{
    IntervalRecorder fu2, fu1, mem;
    fu2.add(0, 10);
    fu1.add(0, 10);
    mem.add(0, 10);
    auto st = UnitStateBreakdown::compute(fu2, fu1, mem, 10);
    EXPECT_EQ(st[7], 10u); // <FU2,FU1,MEM>
}

TEST(UnitStateBreakdown, StaggeredStates)
{
    IntervalRecorder fu2, fu1, mem;
    fu2.add(0, 30);  // FU2 busy [0,30)
    fu1.add(10, 20); // FU1 busy [10,20)
    mem.add(15, 40); // MEM busy [15,40)
    auto st = UnitStateBreakdown::compute(fu2, fu1, mem, 50);
    EXPECT_EQ(st[4], 10u); // <FU2, , >   [0,10)
    EXPECT_EQ(st[6], 5u);  // <FU2,FU1, > [10,15)
    EXPECT_EQ(st[7], 5u);  // all three   [15,20)
    EXPECT_EQ(st[5], 10u); // <FU2, ,MEM> [20,30)
    EXPECT_EQ(st[1], 10u); // < , ,MEM>   [30,40)
    EXPECT_EQ(st[0], 10u); // idle        [40,50)
}

TEST(UnitStateBreakdown, IntervalsClampedToTotal)
{
    IntervalRecorder fu2, fu1, mem;
    mem.add(0, 1000);
    auto st = UnitStateBreakdown::compute(fu2, fu1, mem, 100);
    EXPECT_EQ(st[1], 100u);
    uint64_t sum = 0;
    for (auto v : st)
        sum += v;
    EXPECT_EQ(sum, 100u);
}

TEST(UnitStateBreakdown, SumAlwaysEqualsTotal)
{
    IntervalRecorder fu2, fu1, mem;
    fu2.add(3, 17);
    fu2.add(5, 9);
    fu1.add(0, 4);
    mem.add(16, 22);
    auto st = UnitStateBreakdown::compute(fu2, fu1, mem, 60);
    uint64_t sum = 0;
    for (auto v : st)
        sum += v;
    EXPECT_EQ(sum, 60u);
}

TEST(UnitStateBreakdown, StateNames)
{
    EXPECT_EQ(UnitStateBreakdown::stateName(0), "<   ,   ,   >");
    EXPECT_EQ(UnitStateBreakdown::stateName(7), "<FU2,FU1,MEM>");
    EXPECT_EQ(UnitStateBreakdown::stateName(5), "<FU2,   ,MEM>");
}
