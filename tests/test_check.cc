/**
 * @file
 * Tests for the invariant-audit subsystem (src/check/): registry
 * mechanics (recording caps, the structured report, the process-wide
 * tally and exit code), plus one injected violation
 * per checker family to prove each family actually fires on corrupt
 * state. The companion end-to-end coverage — a full simulation with
 * every checker enabled staying violation-free — lives in
 * test_rerename.cc and the invariant_audit ctest entry.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>

#include "check/check.hh"
#include "check/checkers.hh"

using namespace oova;
using namespace oova::check;

namespace
{

/** Run one ad-hoc checker at cycle @p now and return the registry. */
Registry
runOnce(const std::function<void(Reporter &)> &fn, Cycle now = 100)
{
    Registry reg;
    Reporter r = reg.reporter("test-checker", now);
    fn(r);
    return reg;
}

/** Count of violations a single checker-family call produces. */
uint64_t
countViolations(const std::function<void(Reporter &)> &fn)
{
    Registry reg = runOnce(fn);
    return reg.violationCount();
}

/** A structurally-sound two-register file: reg 0 live, reg 1 free. */
RegFileAudit
cleanFile()
{
    RegFileAudit rf;
    rf.cls = "V";
    rf.regs.push_back({1, false, 1, 1, 0});
    rf.regs.push_back({0, true, 0, 0, 0});
    rf.freeList.push_back(1);
    return rf;
}

/** A small sound TLB view: 2 sets x 1 way, page 2 in set 0. */
TlbAuditView
cleanTlb()
{
    TlbAuditView v;
    v.sets = 2;
    v.assoc = 1;
    v.ways = {{true, 2, 5}, {false, 0, 0}};
    v.tick = 10;
    v.hits = 4;
    v.misses = 2;
    v.indexedMisses = 1;
    v.missCycles = 40;
    return v;
}

} // namespace

TEST(CheckRegistry, ViolationIsRecordedStructured)
{
    resetProcessViolations();
    Registry reg = runOnce(
        [](Reporter &r) { r.fail("width %d exceeds %d", 7, 4); }, 42);

    ASSERT_EQ(reg.violationCount(), 1u);
    ASSERT_EQ(reg.violations().size(), 1u);
    const Violation &v = reg.violations()[0];
    EXPECT_EQ(v.cycle, 42u);
    EXPECT_EQ(v.checker, "test-checker");
    EXPECT_EQ(v.detail, "width 7 exceeds 4");

    std::string report = reg.report();
    EXPECT_NE(report.find("1 violation"), std::string::npos);
    EXPECT_NE(report.find("cycle=42"), std::string::npos);
    EXPECT_NE(report.find("checker=test-checker"), std::string::npos);
    EXPECT_NE(report.find("detail=width 7 exceeds 4"),
              std::string::npos);
    resetProcessViolations();
}

TEST(CheckRegistry, StoredViolationsAreCapped)
{
    resetProcessViolations();
    ::testing::internal::CaptureStderr();
    Registry reg = runOnce([](Reporter &r) {
        for (int i = 0; i < 100; ++i)
            r.fail("violation %d", i);
    });
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(reg.violationCount(), 100u);
    EXPECT_EQ(reg.violations().size(), Registry::kMaxStored);
    // The cap is noted once, with the violation that fills the
    // store: a hot broken invariant must not repeat it on each line.
    const std::string note = "violations stored; further ones are "
                             "counted but not recorded";
    size_t first = err.find(note);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(err.find(note, first + 1), std::string::npos);
    EXPECT_LT(first, err.find("violation 64\n"));
    resetProcessViolations();
}

TEST(CheckRegistry, ProcessTallyFeedsExitCode)
{
    resetProcessViolations();
    EXPECT_EQ(processViolationCount(), 0u);
    EXPECT_EQ(processExitCode(), 0);

    // Two independent registries (as in a parallel sweep) aggregate
    // into the one process tally the bench drivers exit with.
    Registry a = runOnce([](Reporter &r) { r.fail("a"); });
    Registry b = runOnce([](Reporter &r) { r.fail("b"); });
    EXPECT_EQ(a.violationCount() + b.violationCount(), 2u);
    EXPECT_EQ(processViolationCount(), 2u);
    EXPECT_EQ(processExitCode(), 3);
    resetProcessViolations();
    EXPECT_EQ(processExitCode(), 0);
}

TEST(CheckRegistry, ViolationTurnsExitCodeRed)
{
    EXPECT_EXIT(
        {
            resetProcessViolations();
            Registry reg = runOnce([](Reporter &r) {
                r.fail("injected for exit-code test");
            });
            std::exit(processExitCode());
        },
        ::testing::ExitedWithCode(3), "injected for exit-code test");
}

// ---------------------------------------------------------------
// One injected corruption per checker family.
// ---------------------------------------------------------------

TEST(CheckerFamilies, FreeListCleanStateIsQuiet)
{
    resetProcessViolations();
    EXPECT_EQ(countViolations([](Reporter &r) {
                  RegFileAudit rf = cleanFile();
                  checkFreeListStructure(rf, r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, FreeListCatchesLeakedRegister)
{
    resetProcessViolations();
    // refCount 0 but not on the free list: the classic leak.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  RegFileAudit rf = cleanFile();
                  rf.regs[1].inFreeList = false;
                  rf.freeList.clear();
                  checkFreeListStructure(rf, r);
              }),
              1u);
    resetProcessViolations();
}

TEST(CheckerFamilies, FreeListCatchesStructuralCorruption)
{
    resetProcessViolations();
    // Out-of-range index, duplicate entry, flag/membership mismatch,
    // free-with-claims, negative refCount, free-with-subscribers.
    EXPECT_GE(countViolations([](Reporter &r) {
                  RegFileAudit rf = cleanFile();
                  rf.freeList = {7, 1, 1};   // bogus + duplicate
                  rf.regs[0].refCount = -1;  // negative
                  rf.regs[1].elimRefs = 2;   // free with subscribers
                  checkFreeListStructure(rf, r);
              }),
              4u);
    resetProcessViolations();
}

TEST(CheckerFamilies, ConservationCatchesCountDrift)
{
    resetProcessViolations();
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCountsMatch("refCount", "V", {1, 0, 2},
                                   {1, 0, 1}, r);
              }),
              1u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCountsMatch("refCount", "V", {1}, {1, 0}, r);
              }),
              1u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCountsMatch("refCount", "V", {1, 0}, {1, 0},
                                   r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, AgeOrderCatchesOutOfOrderQueue)
{
    resetProcessViolations();
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkAgeOrdered("rob", {1, 2, 2, 5}, r);
              }),
              1u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkAgeOrdered("rob", {1, 2, 5}, r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, ScalarMismatchIsCaught)
{
    resetProcessViolations();
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkScalarMatch("memSlotsUsed", 3, 2, r);
              }),
              1u);
    resetProcessViolations();
}

TEST(CheckerFamilies, CalendarDivergenceIsCaught)
{
    resetProcessViolations();
    // A live transition earlier than the calendar minimum.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCalendarAgreement(100, 90, r);
              }),
              1u);
    // A calendar event with no live transition behind it.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCalendarAgreement(90, 100, r);
              }),
              1u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  checkCalendarAgreement(100, 100, r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, MemWindowViolationsAreCaught)
{
    resetProcessViolations();
    MemAccess ok{10, 20, 15, 25};
    EXPECT_EQ(countViolations(
                  [&](Reporter &r) { checkMemWindow(ok, 10, r); }),
              0u);
    // Address phase starting before the request cycle.
    MemAccess early{5, 20, 15, 25};
    EXPECT_EQ(countViolations(
                  [&](Reporter &r) { checkMemWindow(early, 10, r); }),
              1u);
    // Data arriving before the address phase.
    MemAccess bad_data{10, 20, 5, 25};
    EXPECT_EQ(
        countViolations(
            [&](Reporter &r) { checkMemWindow(bad_data, 10, r); }),
        1u);
    resetProcessViolations();
}

TEST(CheckerFamilies, MemStatsContainmentIsCaught)
{
    resetProcessViolations();
    MemStats s;
    s.bankConflicts = 2;
    s.indexedConflicts = 5; // subset larger than its superset
    EXPECT_EQ(countViolations(
                  [&](Reporter &r) { checkMemStatsBounds(s, r); }),
              1u);
    resetProcessViolations();
}

TEST(CheckerFamilies, MemStatsRegressionIsCaught)
{
    resetProcessViolations();
    MemStats before, after;
    before.requests = 10;
    after.requests = 8; // a counter ran backwards
    EXPECT_EQ(countViolations([&](Reporter &r) {
                  checkMemStatsMonotone(before, after, r);
              }),
              1u);
    EXPECT_EQ(countViolations([&](Reporter &r) {
                  checkMemStatsMonotone(after, before, r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, TlbCleanViewIsQuiet)
{
    resetProcessViolations();
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  checkTlbSoundness(v, r);
              }),
              0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, TlbCorruptionIsCaught)
{
    resetProcessViolations();
    // A page stored in the wrong set.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.ways[1] = {true, 2, 5}; // page 2 in set 1
                  checkTlbSoundness(v, r);
              }),
              1u);
    // An LRU stamp from the future.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.ways[0].lastUse = 99;
                  checkTlbSoundness(v, r);
              }),
              1u);
    // Counter containment: indexed misses exceeding all misses, and
    // more outcomes than lookups.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.indexedMisses = 3;
                  checkTlbSoundness(v, r);
              }),
              1u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.hits = 20;
                  checkTlbSoundness(v, r);
              }),
              1u);
    // A malformed geometry stops the per-way walk, never the counter
    // checks: both faults are reported.
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.sets = 3;
                  v.hits = 20;
                  checkTlbSoundness(v, r);
              }),
              2u);
    EXPECT_EQ(countViolations([](Reporter &r) {
                  TlbAuditView v = cleanTlb();
                  v.sets = 0;
                  v.ways.clear();
                  v.indexedMisses = 3;
                  checkTlbSoundness(v, r);
              }),
              2u);
    resetProcessViolations();
}

namespace
{

/** Four slots: 0 and 2 live (2 twice), 1 and 3 free. */
SlabAudit
cleanSlab()
{
    SlabAudit s;
    s.allocated = 4;
    s.freeSlots = {1, 3};
    s.reachable = {0, 2, 2};
    return s;
}

uint64_t
slabViolations(const SlabAudit &s)
{
    return countViolations([&](Reporter &r) { checkSlabSlots(s, r); });
}

} // namespace

TEST(CheckerFamilies, SlabSlotsCleanStateIsQuiet)
{
    resetProcessViolations();
    EXPECT_EQ(slabViolations(cleanSlab()), 0u);
    SlabAudit done;
    done.allocated = 3;
    done.freeSlots = {2, 0, 1};
    done.runOver = true;
    EXPECT_EQ(slabViolations(done), 0u);
    resetProcessViolations();
}

TEST(CheckerFamilies, SlabSlotsCatchDoubleFreeAndLiveFree)
{
    resetProcessViolations();
    SlabAudit twice = cleanSlab();
    twice.freeSlots.push_back(3);
    EXPECT_EQ(slabViolations(twice), 1u);
    // Slot 1 is freed but a waiter list still names it.
    SlabAudit reachable = cleanSlab();
    reachable.reachable.push_back(1);
    EXPECT_EQ(slabViolations(reachable), 1u);
    SlabAudit range = cleanSlab();
    range.freeSlots.push_back(9);
    range.reachable.push_back(7);
    EXPECT_EQ(slabViolations(range), 2u);
    resetProcessViolations();
}

TEST(CheckerFamilies, SlabSlotsCatchLeaksAndEndOfRunHolders)
{
    resetProcessViolations();
    // Slot 2 is neither reachable nor free.
    SlabAudit leak = cleanSlab();
    leak.reachable = {0};
    EXPECT_EQ(slabViolations(leak), 1u);
    // Live slots are fine mid-run, not once the run is over.
    SlabAudit held = cleanSlab();
    held.runOver = true;
    EXPECT_EQ(slabViolations(held), 1u);
    resetProcessViolations();
}
