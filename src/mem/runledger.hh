/**
 * @file
 * The books both simulators keep while they run: functional-unit
 * busy intervals, the CPI stack and the occupancy telemetry. At the
 * end of a run finish() settles them, with the memory system's own
 * busy intervals and counters, into the half of a SimResult the two
 * machines share.
 */

#ifndef OOVA_MEM_RUNLEDGER_HH
#define OOVA_MEM_RUNLEDGER_HH

#include <array>
#include <cstdint>

#include "check/check.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/simresult.hh"

namespace oova
{

class MemorySystem;

/** One run's cycle accounting; observe-only, like every caller. */
class RunLedger
{
  public:
    /** OOVA_TELEMETRY=1 turns @p telemetry on as well. */
    RunLedger(bool cpi_stack, bool telemetry);

    /** Cycle accounting is on: charge() every cycle of the run. */
    bool cpiStack() const { return cpiStack_; }
    /** Occupancy sampling is on: sample() every cycle of the run. */
    bool telemetry() const { return telemetry_; }

    /** Vector unit FU1 (@p fu 1) or FU2 was busy in [start, end). */
    void
    fuBusy(int fu, Cycle start, Cycle end)
    {
        (fu == 1 ? fu1_ : fu2_).add(start, end);
    }

    /** Charge @p cycles machine cycles to CPI bucket @p b. */
    void
    charge(CpiBucket b, uint64_t cycles)
    {
        cpi_[static_cast<size_t>(b)] += cycles;
    }

    /**
     * Size @p s's histogram for @p capacity entries. Does nothing
     * while telemetry is off: an unsampled distribution stays default.
     */
    void
    setCapacity(OccStruct s, uint64_t capacity)
    {
        if (telemetry_)
            occ_[static_cast<size_t>(s)].setCapacity(capacity);
    }

    /** Structure @p s held @p value entries for @p cycles cycles. */
    void
    sample(OccStruct s, uint64_t value, uint64_t cycles)
    {
        occ_[static_cast<size_t>(s)].sample(value, cycles);
        occTs_[static_cast<size_t>(s)].sample(value, cycles);
    }

    /**
     * Close the books of a run that ended at @p end: charge
     * [drain_from, end) to Drain, derive the mem-units occupancy from
     * @p mem's busy intervals, run the cpi-conservation and
     * occupancy-conservation checkers on what is on when given an
     * @p audit, and fill @p res's cycles, unit states, FU and memory
     * busy cycles, memory counters, CPI stack and occupancy.
     */
    void finish(Cycle end, Cycle drain_from, const MemorySystem &mem,
                check::Registry *audit, SimResult &res);

  private:
    bool cpiStack_;
    bool telemetry_;
    IntervalRecorder fu1_, fu2_;
    std::array<uint64_t, kNumCpiBuckets> cpi_{};
    std::array<StatDistribution, kNumOccStructs> occ_{};
    std::array<StatTimeSeries, kNumOccStructs> occTs_{};
};

} // namespace oova

#endif // OOVA_MEM_RUNLEDGER_HH
