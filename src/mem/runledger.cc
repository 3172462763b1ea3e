#include "mem/runledger.hh"

#include "check/checkers.hh"
#include "mem/memsystem.hh"

namespace oova
{

RunLedger::RunLedger(bool cpi_stack, bool telemetry)
    : cpiStack_(cpi_stack), telemetry_(telemetry || telemetryForced())
{
}

void
RunLedger::finish(Cycle end, Cycle drain_from, const MemorySystem &mem,
                  check::Registry *audit, SimResult &res)
{
    // After the last instruction, functional units and memory keep
    // draining until the run's last cycle.
    if (cpiStack_)
        charge(CpiBucket::Drain, end - drain_from);
    // Memory-unit busy depth comes from the busy-interval sweep: REF
    // has no cycle loop to hook, so both machines derive it this way.
    if (telemetry_) {
        size_t mu = static_cast<size_t>(OccStruct::MemUnits);
        accumulateIntervalDepth(mem.busy(), end, occ_[mu], occTs_[mu]);
    }

    if (audit && cpiStack_) {
        check::Reporter r = audit->reporter("cpi-conservation", end);
        check::checkCpiConservation(end, cpi_, r);
    }
    if (audit && telemetry_) {
        check::Reporter r =
            audit->reporter("occupancy-conservation", end);
        check::checkOccupancyConservation(end, occ_, occTs_, r);
    }

    const MemStats &s = mem.stats();
    res.cycles = end;
    res.stateCycles =
        UnitStateBreakdown::compute(fu2_, fu1_, mem.busy(), end);
    res.fu1BusyCycles = fu1_.busyCycles();
    res.fu2BusyCycles = fu2_.busyCycles();
    res.memBusyCycles = mem.busy().busyCycles();
    res.memRequests = s.requests;
    res.memBankConflicts = s.bankConflicts;
    res.memConflictCycles = s.conflictCycles;
    res.memIndexedConflicts = s.indexedConflicts;
    res.memIndexedConflictCycles = s.indexedConflictCycles;
    res.cacheHits = s.cacheHits;
    res.cacheMisses = s.cacheMisses;
    res.mshrStallCycles = s.mshrStallCycles;
    res.tlbHits = s.tlbHits;
    res.tlbMisses = s.tlbMisses;
    res.tlbIndexedMisses = s.tlbIndexedMisses;
    res.tlbMissCycles = s.tlbMissCycles;
    res.cpiCycles = cpi_;
    res.occupancy = occ_;
    res.occupancyTs = occTs_;
}

} // namespace oova
