/**
 * @file
 * Shared machinery for the figure functions that regenerate the
 * paper's tables and figures: a cached workload set, standard
 * machine-configuration builders, and speedup helpers.
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

/**
 * Generates and caches the ten benchmark traces. The trace scale can
 * be adjusted with the OOVA_SCALE environment variable (default 1.0)
 * to trade bench runtime against steady-state fidelity.
 *
 * A thin wrapper over TraceCache, kept for the single-threaded
 * call sites and tests; references returned by get() are stable for
 * the lifetime of the Workloads object (the cache pre-creates every
 * entry, so no lookup ever reallocates another trace's storage),
 * and get() is safe to call concurrently.
 */
class Workloads
{
  public:
    explicit Workloads(double scale = envScale());

    /** The trace for one benchmark (generated on first use). */
    const Trace &get(const std::string &name);

    /** All ten, in the paper's order. */
    const std::vector<std::string> &names() const;

    double scale() const { return cache_.scale(); }

    /** Scale from OOVA_SCALE, or 1.0. */
    static double envScale();

  private:
    TraceCache cache_;
};

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
                              unsigned mem_latency = 50,
                              unsigned address_ports = 1);

/** Reference machine over a banked memory hierarchy. */
RefConfig makeBankedRefConfig(unsigned banks,
                              unsigned mem_latency = 50,
                              unsigned address_ports = 1);

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
