#include "harness/sweep.hh"

#include "common/logging.hh"
#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/backend.hh"

namespace oova
{

namespace
{

// BEGIN config-key fields
//
// Every data member of LatencyTable / TlbConfig / MemConfig /
// RefConfig / OooConfig that can influence a simulation result must
// be serialized between these markers — scripts/lint_oova.py fails
// the build when a member of those structs is missing here, so a new
// knob can never silently alias store entries of runs that set it.
// Deliberately excluded (observe-only, results unaffected):
// checkLevel, pipeTracer (tracing jobs are made uncacheable instead).

std::string
latKey(const LatencyTable &lat)
{
    return csprintf(
        "lat{%u,%u,%u,%u,%u,%u,%u,%u,%u,%u}", lat.readXbar,
        lat.writeXbarVector, lat.writeXbarScalar, lat.vectorStartup,
        lat.moveLat, lat.addLogic, lat.mul, lat.divSqrt,
        lat.memLatency, lat.branchMispredict);
}

std::string
tlbKey(const TlbConfig &tlb)
{
    if (!tlb.enabled)
        return "tlb{off}";
    return csprintf("tlb{%u,%u,%u,%u,%u,%u,%u,%d}", tlb.entries,
                    tlb.pageBytes, tlb.associativity, tlb.missPenalty,
                    tlb.l2Entries, tlb.l2Associativity,
                    tlb.l2HitPenalty, static_cast<int>(tlb.refill));
}

std::string
memKey(const MemConfig &mem)
{
    return csprintf(
        "mem{%d,%u,%d,%u,%u,%u,%u,%d,%u,%u,%u,%u,%u,%s}",
        static_cast<int>(mem.model), mem.memUnits,
        static_cast<int>(mem.lsPolicy), mem.banks, mem.addressPorts,
        mem.bankBusyCycles, mem.interleaveBytes,
        static_cast<int>(mem.backing), mem.cacheBytes, mem.lineBytes,
        mem.associativity, mem.mshrs, mem.cacheHitLatency,
        tlbKey(mem.tlb).c_str());
}

// END config-key fields

} // namespace

std::string
sweepConfigKey(const RefConfig &cfg)
{
    // BEGIN config-key fields
    return csprintf("REF/v1|%s|%d,%d,%u,%d,%d|%s",
                    latKey(cfg.lat).c_str(),
                    static_cast<int>(cfg.modelPortConflicts),
                    static_cast<int>(cfg.chainLoadsToFus),
                    cfg.takenBranchPenalty,
                    static_cast<int>(cfg.cpiStack),
                    static_cast<int>(cfg.telemetry),
                    memKey(cfg.mem).c_str());
    // END config-key fields
}

std::string
sweepConfigKey(const OooConfig &cfg)
{
    // BEGIN config-key fields
    return csprintf(
        "OOO/v1|%s|%u,%u,%u,%u|%u,%u,%u,%u,%u,%u|%d,%d,%d,%u,%d,%d|%s",
        latKey(cfg.lat).c_str(), cfg.numPhysVRegs, cfg.numPhysARegs,
        cfg.numPhysSRegs, cfg.numPhysMRegs, cfg.queueSize,
        cfg.robSize, cfg.commitWidth, cfg.fetchBufferSize,
        cfg.btbEntries, cfg.rasDepth, static_cast<int>(cfg.commit),
        static_cast<int>(cfg.loadElim),
        static_cast<int>(cfg.chainLoadsToFus), cfg.trapPenalty,
        static_cast<int>(cfg.cpiStack),
        static_cast<int>(cfg.telemetry), memKey(cfg.mem).c_str());
    // END config-key fields
}

SweepJob
refJob(std::string trace, RefConfig cfg)
{
    return {std::move(trace),
            [cfg](const Trace &t) { return simulateRef(t, cfg); },
            nullptr, sweepConfigKey(cfg)};
}

SweepJob
oooJob(std::string trace, OooConfig cfg)
{
    // A tracing run has an observation side effect (the tracer's
    // event stream), so serving it from the store would lose the
    // very output the caller asked for: mark it uncacheable.
    std::string key =
        cfg.pipeTracer ? std::string() : sweepConfigKey(cfg);
    return {std::move(trace),
            [cfg](const Trace &t) { return simulateOoo(t, cfg); },
            nullptr, std::move(key)};
}

SweepJob
oooTraceJob(std::shared_ptr<const Trace> trace, OooConfig cfg)
{
    SweepJob job;
    job.trace = trace->name();
    job.run = [cfg](const Trace &t) { return simulateOoo(t, cfg); };
    job.inlineTrace = std::move(trace);
    if (!cfg.pipeTracer)
        job.configKey = sweepConfigKey(cfg);
    return job;
}

SweepJob
refTraceJob(std::shared_ptr<const Trace> trace, RefConfig cfg)
{
    SweepJob job;
    job.trace = trace->name();
    job.run = [cfg](const Trace &t) { return simulateRef(t, cfg); };
    job.inlineTrace = std::move(trace);
    job.configKey = sweepConfigKey(cfg);
    return job;
}

SweepJob
idealJob(std::string trace)
{
    return {std::move(trace),
            [](const Trace &t) {
                SimResult r;
                r.machine = "IDEAL";
                r.cycles = idealCycles(t);
                return r;
            },
            nullptr, "IDEAL/v1"};
}

SweepEngine::SweepEngine(const TraceCache &traces, unsigned threads)
    : SweepEngine(traces,
                  std::make_unique<InProcessBackend>(traces, threads))
{
}

SweepEngine::SweepEngine(const TraceCache &traces,
                         std::unique_ptr<SweepBackend> backend)
    : traces_(traces), backend_(std::move(backend))
{
    sim_assert(backend_ != nullptr, "null sweep backend");
}

SweepEngine::~SweepEngine() = default;
SweepEngine::SweepEngine(SweepEngine &&) noexcept = default;

unsigned
SweepEngine::threads() const
{
    return backend_->parallelism();
}

std::string
SweepEngine::backendName() const
{
    return backend_->describe();
}

void
SweepEngine::setProgress(std::function<void(size_t, size_t)> cb)
{
    backend_->setProgress(std::move(cb));
}

void
SweepEngine::setTraceLog(SweepTraceLog *log)
{
    backend_->setTraceLog(log);
}

std::vector<SimResult>
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<JobOutcome> outcomes = backend_->run(jobs);

    // Prefetch dummies carry no machine label and are skipped, so
    // the manifest lists exactly the simulations that ran.
    if (manifestEnabled_)
        for (const JobOutcome &o : outcomes)
            if (!o.result.machine.empty())
                manifest_.push_back({o.result.program,
                                     o.result.machine, o.wallMs,
                                     o.fromStore});
    if (captureEnabled_)
        for (const JobOutcome &o : outcomes)
            if (!o.result.machine.empty())
                captured_.push_back(o.result);

    std::vector<SimResult> results;
    results.reserve(outcomes.size());
    for (JobOutcome &o : outcomes)
        results.push_back(std::move(o.result));
    return results;
}

void
SweepEngine::prefetch(const std::vector<std::string> &names) const
{
    std::vector<SweepJob> jobs;
    jobs.reserve(names.size());
    for (const auto &name : names)
        jobs.push_back({name,
                        [](const Trace &) { return SimResult{}; },
                        nullptr, std::string()});
    run(jobs);
}

void
JobSet::run(const SweepEngine &engine)
{
    results_ = engine.run(jobs_);
}

const SimResult &
JobSet::operator[](size_t index) const
{
    sim_assert(index < results_.size(),
               "job %zu read before run() or out of range (%zu)",
               index, results_.size());
    return results_[index];
}

} // namespace oova
