/**
 * @file
 * The reference architecture simulator: an in-order vector machine
 * modeled on the Convex C3400 (paper section 2.1).
 *
 *  - the scalar unit issues at most one instruction per cycle, in
 *    program order, blocking on every hazard;
 *  - the vector unit has FU2 (general purpose), FU1 (everything but
 *    multiply/divide/sqrt) and one memory unit;
 *  - 8 architected vector registers; pairs of registers form a bank
 *    sharing two read ports and one write port;
 *  - chaining from functional units to functional units and to the
 *    store unit, but no chaining of memory loads into functional
 *    units;
 *  - one shared address bus, fixed memory latency, one element per
 *    cycle.
 *
 * The model is analytic: each instruction's issue cycle is the max
 * of its structural and data constraints, which is exactly
 * equivalent to cycle-stepping a blocking single-issue front end,
 * and busy intervals are accumulated for the figure-3/7 state
 * breakdown.
 */

#ifndef OOVA_REF_REFSIM_HH
#define OOVA_REF_REFSIM_HH

#include "isa/latency.hh"
#include "mem/memsystem.hh"
#include "mem/simresult.hh"
#include "trace/trace.hh"

namespace oova
{

/** Configuration of the reference machine. */
struct RefConfig
{
    LatencyTable lat = LatencyTable::refDefaults();

    /**
     * Model the banked V register file port conflicts dynamically.
     * Off by default: on the real C3400 "the compiler is
     * responsible for scheduling vector instructions and allocating
     * vector registers so that no port conflicts arise" (paper
     * section 2.1), and our generator does not perform that
     * port-aware allocation, so charging the conflicts to REF would
     * penalize it for stalls the real machine never saw. The `abl`
     * figure's port-conflict section turns this on to quantify what
     * port-oblivious allocation would cost.
     */
    bool modelPortConflicts = false;

    /** Allow load->FU chaining (off on the real C3400). */
    bool chainLoadsToFus = false;

    /**
     * Invariant-audit level (src/check/), mirroring
     * OooConfig::checkLevel: -1 inherits OOVA_CHECK; 0/1/2 force.
     * REF audits its memory system and TLB; checkers are
     * observe-only and never change simulated timing.
     */
    int checkLevel = -1;

    /**
     * Cycle accounting (CPI stack), mirroring OooConfig::cpiStack:
     * charge every cycle to one CpiBucket (SimResult::cpiCycles).
     * Observe-only; never changes simulated timing or output.
     */
    bool cpiStack = false;

    /**
     * Occupancy telemetry, mirroring OooConfig::telemetry. REF has
     * no out-of-order structures; it fills only the mem-units
     * occupancy (concurrently busy memory units, derived from the
     * busy-interval sweep at end of run). Observe-only.
     */
    bool telemetry = false;

    /**
     * The memory hierarchy (default: the paper's flat address bus;
     * see mem/memsystem.hh). Non-default models are reflected in the
     * result's machine label, e.g. "REF/mb8p1". REF drives one
     * memory unit: simulateRef refuses memUnits > 1.
     */
    MemConfig mem;
};

/** Every RefConfig member, named once (see common/configwalk.hh). */
template <ConfigOf<RefConfig> Cfg, typename Visitor>
void
walkConfig(Cfg &c, Visitor &v)
{
    v.nest("lat", c.lat);
    v.field("modelPortConflicts", c.modelPortConflicts);
    v.field("chainLoadsToFus", c.chainLoadsToFus);
    v.unkeyed("checkLevel", c.checkLevel);
    v.field("cpiStack", c.cpiStack);
    v.field("telemetry", c.telemetry, {.key = ConfigField::Key::Telemetry});
    v.nest("mem", c.mem);
}

/**
 * Stop with fatal() unless the reference machine can run @p cfg: it
 * drives one memory unit, and its memory system must be valid.
 */
void validate(const RefConfig &cfg);

/** Run @p trace through the reference machine. */
SimResult simulateRef(const Trace &trace, const RefConfig &cfg = {});

} // namespace oova

#endif // OOVA_REF_REFSIM_HH
