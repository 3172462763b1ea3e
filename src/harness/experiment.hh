/**
 * @file
 * Shared machinery for the figure functions that regenerate the
 * paper's tables and figures: standard machine-configuration
 * builders and the speedup helper.
 */

#ifndef OOVA_HARNESS_EXPERIMENT_HH
#define OOVA_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/tracecache.hh"
#include "ref/refsim.hh"
#include "tgen/benchmarks.hh"

namespace oova
{

/** Reference machine at a given memory latency. */
RefConfig makeRefConfig(unsigned mem_latency);

/** OOOVA with the paper's default parameters, varying the knobs. */
OooConfig makeOooConfig(unsigned phys_vregs = 16,
                        unsigned queue_size = 16,
                        unsigned mem_latency = 50,
                        CommitMode commit = CommitMode::Early,
                        LoadElimMode elim = LoadElimMode::None);

/** Default OOOVA over a banked memory hierarchy. */
OooConfig makeBankedOooConfig(unsigned banks,
                              unsigned mem_latency = 50);

/** Reference machine over a banked memory hierarchy. */
RefConfig makeBankedRefConfig(unsigned banks,
                              unsigned mem_latency = 50);

/** Default OOOVA over banked memory with N load/store units. */
OooConfig makeMultiUnitOooConfig(unsigned banks, unsigned units,
                                 LsPolicy policy = LsPolicy::Shared,
                                 unsigned mem_latency = 50);

/** An enabled TLB with the standard sweep knobs. */
TlbConfig makeTlb(unsigned entries, unsigned page_bytes = 4096,
                  TlbRefill refill = TlbRefill::HardwareWalk);

/**
 * Default OOOVA on the flat bus with a TLB in front, isolating
 * translation cost from bank effects (the memtlb figure).
 */
OooConfig makeTlbOooConfig(unsigned entries,
                           unsigned page_bytes = 4096,
                           unsigned mem_latency = 50,
                           CommitMode commit = CommitMode::Early,
                           TlbRefill refill = TlbRefill::HardwareWalk);

/**
 * Reference machine over banked memory with a TLB in front (the
 * memgather TLB-interaction section).
 */
RefConfig makeTlbBankedRefConfig(unsigned banks, unsigned entries,
                                 unsigned page_bytes = 4096,
                                 unsigned mem_latency = 50);

/**
 * base.cycles / x.cycles — how much faster x is than base. A result
 * with x.cycles == 0 can only come from a broken simulation, so the
 * degenerate case returns NaN (rendered as "nan" in tables) instead
 * of a value that could be mistaken for a measurement.
 */
double speedup(const SimResult &base, const SimResult &x);

} // namespace oova

#endif // OOVA_HARNESS_EXPERIMENT_HH
