/**
 * @file
 * OOOVA machine configuration (paper section 2.2, Machine
 * Parameters), with the knobs the evaluation sweeps: physical vector
 * register count (figure 5), queue depth (OOOVA-16 vs OOOVA-128),
 * memory latency (figure 8), commit model (figure 9) and dynamic
 * load elimination mode (figures 11-13).
 */

#ifndef OOVA_CORE_CONFIG_HH
#define OOVA_CORE_CONFIG_HH

#include <string>

#include "isa/latency.hh"
#include "mem/memsystem.hh"

namespace oova
{

class PipeTracer;

/** When may an instruction's ROB entry commit? */
enum class CommitMode
{
    /**
     * Paper's aggressive scheme: committable once the instruction
     * begins execution. Not precise.
     */
    Early,
    /**
     * Precise-trap scheme of section 5: committable only when fully
     * complete, and stores execute only at the head of the ROB.
     */
    Late,
};

/** Dynamic load elimination mode (section 6). */
enum class LoadElimMode
{
    None,
    Sle,    ///< scalar load elimination only
    SleVle, ///< scalar + vector load elimination
};

// Machine parameters of section 2.2 that the evaluation never varies.
constexpr unsigned kNumPhysARegs = 64;
constexpr unsigned kNumPhysSRegs = 64;
constexpr unsigned kNumPhysMRegs = 8;
constexpr unsigned kRobSize = 64;
constexpr unsigned kFetchBufferSize = 8;
constexpr unsigned kBtbEntries = 64;
constexpr unsigned kRasDepth = 8;

/** Full OOOVA configuration. */
struct OooConfig
{
    LatencyTable lat = LatencyTable::oooDefaults();

    unsigned numPhysVRegs = 16; ///< swept 9..64 in figure 5
    unsigned queueSize = 16; ///< all four instruction queues
    unsigned commitWidth = 4;

    CommitMode commit = CommitMode::Early;
    LoadElimMode loadElim = LoadElimMode::None;

    /**
     * Chain memory loads into functional units. The OOOVA inherits
     * the C3400 datapath, which does not support load chaining
     * (section 2.1); out-of-order issue is what hides the latency
     * instead. On in the `abl` figure's load->FU chaining section.
     */
    bool chainLoadsToFus = false;

    /** Cycles charged for trap entry on a faulting instruction. */
    unsigned trapPenalty = 50;

    /**
     * Invariant-audit level (src/check/): -1 inherits the OOVA_CHECK
     * environment variable; 0/1/2 force off / retire+end / full.
     * Checkers are observe-only, so the level never changes simulated
     * timing, figure output, or the machine name.
     */
    int checkLevel = -1;

    /**
     * Cycle accounting (CPI stack): charge every cycle of the run to
     * one CpiBucket, surfaced as SimResult::cpiCycles. Observe-only
     * like checkLevel — it never changes simulated timing, figure
     * output, or the machine name. Off by default so the hot path
     * pays nothing.
     */
    bool cpiStack = false;

    /**
     * Occupancy telemetry: sample ROB / queue / free-register /
     * MSHR / TLB occupancy at every event-calendar advance into
     * SimResult::occupancy (+Ts), charged in bulk across idle jumps
     * like the CPI stack. Observe-only like cpiStack — never changes
     * simulated timing, figure output, or the machine name — and off
     * by default so the hot path pays nothing. OOVA_TELEMETRY=1 in
     * the environment forces it on (the goldens-byte-identical CI
     * proof), exactly as OOVA_CHECK overrides checkLevel.
     */
    bool telemetry = false;

    /**
     * Optional instruction-lifecycle tracer (common/pipetrace.hh)
     * recording fetch/rename/dispatch/issue/complete/retire/squash
     * timestamps. Observe-only; null (the default) disables tracing
     * entirely. Not owned; the caller keeps it alive for the run.
     */
    PipeTracer *pipeTracer = nullptr;

    /**
     * The memory hierarchy behind the address path. The default
     * FlatBus reproduces the paper's single-bus fixed-latency model
     * exactly; see mem/memsystem.hh for the banked and cached
     * models. lat.memLatency feeds whichever model is selected.
     */
    MemConfig mem;

    /** Short label, e.g. "OOOVA-16/16r/early" or ".../mb8p1". */
    std::string name() const;
};

/**
 * Every OooConfig member, named once (see common/configwalk.hh). No
 * rule beyond the memory system's: a machine that cannot make
 * progress (queueSize 0, say) dies on the deadlock diagnostic.
 */
template <ConfigOf<OooConfig> Cfg, typename Visitor>
void
walkConfig(Cfg &c, Visitor &v)
{
    v.nest("lat", c.lat);
    v.field("numPhysVRegs", c.numPhysVRegs);
    v.field("queueSize", c.queueSize);
    v.field("commitWidth", c.commitWidth);
    v.field("commit", c.commit);
    v.field("loadElim", c.loadElim);
    v.field("chainLoadsToFus", c.chainLoadsToFus);
    v.field("trapPenalty", c.trapPenalty);
    v.unkeyed("checkLevel", c.checkLevel);
    v.field("cpiStack", c.cpiStack);
    v.field("telemetry", c.telemetry, {.key = ConfigField::Key::Telemetry});
    // A tracing job is uncacheable instead (oooJob()).
    v.unkeyed("pipeTracer", c.pipeTracer);
    v.nest("mem", c.mem);
}

} // namespace oova

#endif // OOVA_CORE_CONFIG_HH
