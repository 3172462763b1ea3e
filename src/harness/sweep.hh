/**
 * @file
 * The parallel sweep engine. Every paper figure is a sweep — a batch
 * of (benchmark × machine configuration) simulation jobs — and this
 * engine executes such a batch through a pluggable SweepBackend
 * (in-process threads, optionally wrapped by the content-addressed
 * result store), against the shared TraceCache, returning results in
 * submission order so table layout is deterministic regardless of
 * completion order.
 *
 * Jobs must be independent pure functions of (trace, config); both
 * simulators satisfy this, which is what makes the --threads 1,
 * --threads N and warm-store outputs bit-identical, and what lets
 * one engine simulate each distinct (trace, configKey) only once
 * (see InProcessBackend).
 */

#ifndef OOVA_HARNESS_SWEEP_HH
#define OOVA_HARNESS_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "harness/tracecache.hh"
#include "mem/simresult.hh"
#include "ref/refsim.hh"

namespace oova
{

class SweepBackend;
class SweepTraceLog;

/** One unit of sweep work: a trace × a machine model. */
struct SweepJob
{
    /** Benchmark name, resolved through the TraceCache. */
    std::string trace;
    /** The simulation to run on that trace. */
    std::function<SimResult(const Trace &)> run;
    /**
     * When set, this trace is simulated instead of resolving
     * @c trace by name — for synthetic sweeps (e.g. the memstride
     * figure) whose traces live outside the benchmark cache. Shared
     * so several jobs can sweep configurations over one trace.
     */
    std::shared_ptr<const Trace> inlineTrace;
    /**
     * Canonical serialization of the complete machine configuration,
     * produced by sweepConfigKey(); together with the trace content
     * hash and scale it addresses this job's result in the
     * ResultStore, and with the trace name it lets the in-process
     * backend copy a repeat instead of simulating it again. Empty
     * means the job always simulates (jobs with observation side
     * effects such as pipeline tracing).
     */
    std::string configKey;
};

/**
 * Canonical config-key strings: the value of every member the config
 * walks (walkConfig(), next to each config struct) mark keyed, in
 * walk order; lint_oova.py checks that the walks cover every member.
 * checkLevel and pipeTracer are unkeyed: the invariant audit and the
 * tracer observe, they never steer results.
 */
std::string sweepConfigKey(const RefConfig &cfg);
std::string sweepConfigKey(const OooConfig &cfg);

/** Job running the reference (in-order) simulator. */
SweepJob refJob(std::string trace, RefConfig cfg);

/** Job running the OOOVA simulator. */
SweepJob oooJob(std::string trace, OooConfig cfg);

/** Job running the OOOVA on a caller-supplied synthetic trace. */
SweepJob oooTraceJob(std::shared_ptr<const Trace> trace,
                     OooConfig cfg);

/** Job running the reference simulator on a synthetic trace. */
SweepJob refTraceJob(std::shared_ptr<const Trace> trace,
                     RefConfig cfg);

/**
 * Job computing the IDEAL bound; the result carries only .cycles
 * (and the machine label "IDEAL").
 */
SweepJob idealJob(std::string trace);

/**
 * One executed job's entry in the run manifest: what ran (program ×
 * machine label), how long the job took on its worker, and whether
 * the result was served instead of simulated.
 */
struct JobRecord
{
    std::string program;
    std::string machine;
    double wallMs = 0.0;
    /**
     * Served without simulating (JobOutcome::fromStore): a result
     * store hit, or a copy of an identical job the engine already
     * ran. Not a store-hit count on its own.
     */
    bool cached = false;
};

/**
 * Executes batches of SweepJobs through a SweepBackend. The engine
 * owns manifest recording and result capture; all execution policy
 * (threads, store) lives in the backend.
 */
class SweepEngine
{
  public:
    /**
     * In-process convenience constructor, the default everywhere a
     * figure or test doesn't care about backends.
     *
     * @param traces  shared trace cache (must outlive the engine)
     * @param threads worker count; 0 means hardware concurrency
     */
    explicit SweepEngine(const TraceCache &traces,
                         unsigned threads = 0);

    /** Run batches through an explicit backend (takes ownership). */
    SweepEngine(const TraceCache &traces,
                std::unique_ptr<SweepBackend> backend);

    ~SweepEngine();
    SweepEngine(SweepEngine &&) noexcept;

    /**
     * Run all jobs and return their results, index-aligned with
     * @p jobs (submission order, not completion order).
     */
    std::vector<SimResult> run(const std::vector<SweepJob> &jobs) const;

    /** The backend's worker parallelism (threads). */
    unsigned threads() const;
    /** The backend's self-description, e.g. "store+in-process x4". */
    std::string backendName() const;
    const TraceCache &traces() const { return traces_; }

    /**
     * Install a per-job completion callback (jobs done, batch size),
     * invoked from workers after every finished job — the callback
     * must be thread-safe. Used by --progress; never called when
     * unset, so the default costs nothing.
     */
    void setProgress(std::function<void(size_t, size_t)> cb);

    /**
     * Record a JobRecord for every job of subsequent run() calls.
     * Drives the --json run manifest.
     */
    void enableManifest() { manifestEnabled_ = true; }

    /** The records accumulated since enableManifest(). */
    const std::vector<JobRecord> &manifest() const
    {
        return manifest_;
    }

    /**
     * Install a span sink on the backend chain for --perfetto; the
     * log must outlive the engine's last run(). nullptr detaches.
     */
    void setTraceLog(SweepTraceLog *log);

    /**
     * Keep a copy of every SimResult of subsequent run() calls.
     * Drives the --stats dump, which needs the raw telemetry after
     * the figure has reduced its results to table cells.
     */
    void enableResultCapture() { captureEnabled_ = true; }

    /** The results accumulated since enableResultCapture(). */
    const std::vector<SimResult> &captured() const
    {
        return captured_;
    }

  private:
    const TraceCache &traces_;
    std::unique_ptr<SweepBackend> backend_;
    bool manifestEnabled_ = false;
    bool captureEnabled_ = false;
    /**
     * Appended after each batch's workers have joined (figures run
     * batches serially from one thread), so no lock is needed —
     * same discipline for captured_.
     */
    mutable std::vector<JobRecord> manifest_;
    mutable std::vector<SimResult> captured_;
};

} // namespace oova

#endif // OOVA_HARNESS_SWEEP_HH
