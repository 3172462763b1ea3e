/**
 * @file
 * Tests for the memory-system substrate (the paper's shared address
 * bus, the default FlatBus model) and the REF stall-attribution
 * plumbing, plus cross-simulator sanity properties on degenerate
 * traces.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/ooosim.hh"
#include "mem/memsystem.hh"
#include "mem/simresult.hh"
#include "ref/refsim.hh"

using namespace oova;

namespace
{

/** The default memory system: the paper's one address bus. */
std::unique_ptr<MemorySystem>
makeBus()
{
    return makeMemorySystem(MemConfig{}, 50);
}

/** Reserve @p elems address slots; returns the first one's cycle. */
Cycle
reserve(MemorySystem &bus, Cycle earliest, unsigned elems)
{
    return bus.reserve(earliest, 0x1000, 8, elems).start;
}

} // namespace

TEST(FlatBus, FirstReservationStartsOnRequest)
{
    auto bus = makeBus();
    EXPECT_EQ(reserve(*bus, 10, 4), 10u);
    EXPECT_EQ(bus->freeAt(), 14u);
    EXPECT_EQ(bus->stats().requests, 4u);
}

TEST(FlatBus, BackToBackReservationsQueue)
{
    auto bus = makeBus();
    reserve(*bus, 0, 10);
    EXPECT_EQ(reserve(*bus, 0, 5), 10u) << "bus is exclusive";
    EXPECT_EQ(bus->freeAt(), 15u);
}

TEST(FlatBus, GapsStayIdle)
{
    auto bus = makeBus();
    reserve(*bus, 0, 5);
    reserve(*bus, 100, 5);
    EXPECT_EQ(bus->busy().busyCycles(), 10u);
    EXPECT_EQ(bus->stats().requests, 10u);
}

TEST(FlatBus, LaterEarliestWins)
{
    auto bus = makeBus();
    reserve(*bus, 0, 2);
    EXPECT_EQ(reserve(*bus, 50, 2), 50u);
}

TEST(FlatBus, ZeroElementReservationIsNoop)
{
    auto bus = makeBus();
    reserve(*bus, 0, 5);
    // A zero-element reservation returns its earliest untouched —
    // even one before freeAt() — and advances no state: no empty
    // busy interval, no requests, no bus occupancy.
    EXPECT_EQ(reserve(*bus, 2, 0), 2u);
    EXPECT_EQ(bus->freeAt(), 5u);
    EXPECT_EQ(bus->stats().requests, 5u);
    EXPECT_EQ(bus->busy().count(), 1u);
    EXPECT_EQ(reserve(*bus, 100, 0), 100u);
    EXPECT_EQ(bus->freeAt(), 5u);
}

TEST(StallCause, NamesAreStable)
{
    EXPECT_STREQ(stallCauseName(StallCause::ScalarDep), "scalar-dep");
    EXPECT_STREQ(stallCauseName(StallCause::VectorDep), "vector-dep");
    EXPECT_STREQ(stallCauseName(StallCause::MemUnit), "mem-unit");
    EXPECT_STREQ(stallCauseName(StallCause::Ports), "ports");
    EXPECT_STREQ(stallCauseName(StallCause::None), "none");
}

TEST(StallAttribution, VectorDepDominatesLoadUse)
{
    Trace t("ld-use");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVArith(Opcode::VAdd, vReg(1), vReg(0), vReg(0), 64));
    RefConfig cfg;
    cfg.lat.memLatency = 100;
    SimResult r = simulateRef(t, cfg);
    auto dep = r.stallCycles[static_cast<unsigned>(
        StallCause::VectorDep)];
    EXPECT_GT(dep, 90u);
}

TEST(StallAttribution, MemUnitStallOnSecondLoad)
{
    Trace t("two-loads");
    t.push(makeVLoad(vReg(0), aReg(0), 0x1000, 8, 64));
    t.push(makeVLoad(vReg(1), aReg(0), 0x9000, 8, 64));
    SimResult r = simulateRef(t, RefConfig{});
    EXPECT_GT(r.stallCycles[static_cast<unsigned>(
                  StallCause::MemUnit)],
              0u);
}

TEST(SimResult, PortIdleFractionBounds)
{
    SimResult r;
    r.cycles = 100;
    r.memBusyCycles = 25;
    EXPECT_DOUBLE_EQ(r.portIdleFraction(), 0.75);
    r.memBusyCycles = 100;
    EXPECT_DOUBLE_EQ(r.portIdleFraction(), 0.0);
    SimResult empty;
    EXPECT_DOUBLE_EQ(empty.portIdleFraction(), 0.0);
}

TEST(SimResult, IpcComputation)
{
    SimResult r;
    r.cycles = 200;
    r.instructions = 100;
    EXPECT_DOUBLE_EQ(r.ipc(), 0.5);
}

// ---- degenerate-trace sanity on both machines -------------------

TEST(CrossSim, PureScalarTraceRunsOnBoth)
{
    Trace t("scalars");
    for (int i = 0; i < 100; ++i)
        t.push(makeScalar(Opcode::SAdd,
                          sReg(static_cast<uint8_t>(i % 8)),
                          sReg(static_cast<uint8_t>((i + 1) % 8))));
    SimResult ref = simulateRef(t);
    SimResult ooo = simulateOoo(t);
    EXPECT_EQ(ref.instructions, 100u);
    EXPECT_EQ(ooo.instructions, 100u);
    EXPECT_EQ(ref.memRequests, 0u);
    EXPECT_EQ(ooo.memRequests, 0u);
}

TEST(CrossSim, PureStoreTraceDrainsTheBus)
{
    Trace t("stores");
    for (int i = 0; i < 10; ++i)
        t.push(makeVStore(vReg(0), aReg(0),
                          0x1000 + static_cast<Addr>(i) * 0x10000, 8,
                          32));
    SimResult ref = simulateRef(t);
    SimResult ooo = simulateOoo(t);
    EXPECT_EQ(ref.memRequests, 320u);
    EXPECT_EQ(ooo.memRequests, 320u);
    EXPECT_GE(ref.cycles, 320u);
    EXPECT_GE(ooo.cycles, 320u);
}

TEST(CrossSim, SingleInstructionTraces)
{
    for (Opcode op : {Opcode::SMove, Opcode::SetVL, Opcode::Branch}) {
        Trace t("one");
        DynInst inst;
        inst.op = op;
        inst.vl = 1;
        t.push(inst);
        EXPECT_GT(simulateRef(t).cycles, 0u) << opName(op);
        EXPECT_GT(simulateOoo(t).cycles, 0u) << opName(op);
        EXPECT_EQ(simulateOoo(t).instructions, 1u) << opName(op);
    }
}

TEST(CrossSim, MaskPipelineWorks)
{
    Trace t("mask");
    DynInst cmp = makeVArith(Opcode::VCmp, mReg(0), vReg(0), vReg(1),
                             64);
    t.push(cmp);
    DynInst merge = makeVArith(Opcode::VMerge, vReg(2), vReg(0),
                               vReg(1), 64);
    merge.addSrc(mReg(0));
    t.push(merge);
    SimResult ref = simulateRef(t);
    SimResult ooo = simulateOoo(t);
    EXPECT_GE(ref.cycles, 128u) << "merge must wait for the mask";
    EXPECT_EQ(ooo.instructions, 2u);
}

TEST(CrossSim, ScatterOrdersAgainstOverlappingLoad)
{
    Trace t("scatter-load");
    DynInst sc;
    sc.op = Opcode::VScatter;
    sc.addSrc(vReg(0));
    sc.addSrc(vReg(1));
    sc.addSrc(aReg(0));
    sc.vl = 32;
    sc.addr = 0x8000;
    sc.regionBytes = 0x1000;
    t.push(sc);
    t.push(makeVLoad(vReg(2), aReg(0), 0x8100, 8, 32));
    SimResult ooo = simulateOoo(t);
    // The load overlaps the scatter's region: it must wait for the
    // scatter's bus phase, so total >= both bus phases serialized.
    EXPECT_GE(ooo.cycles, 64u);
    EXPECT_EQ(ooo.instructions, 2u);
}
