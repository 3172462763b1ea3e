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
 * --threads N and warm-store outputs bit-identical.
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
     * ResultStore. Empty means uncacheable (prefetch dummies, jobs
     * with observation side effects such as pipeline tracing).
     */
    std::string configKey;
};

/**
 * Canonical config-key strings: every field that can influence a
 * simulation result, enumerated explicitly (lint_oova.py checks the
 * enumeration stays complete as configs grow). checkLevel is
 * deliberately excluded — the invariant audit observes, it never
 * steers results.
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
 * the result was served from the result store instead of simulated.
 */
struct JobRecord
{
    std::string program;
    std::string machine;
    double wallMs = 0.0;
    bool cached = false;
};

/**
 * Executes batches of SweepJobs through a SweepBackend. The engine
 * owns manifest recording and prefetching; all execution policy
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

    /**
     * Generate (and cache) the named traces using the worker pool,
     * for figures that read traces without simulating them.
     */
    void prefetch(const std::vector<std::string> &names) const;

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
     * Record a JobRecord for every job of subsequent run() calls
     * (prefetch dummies excluded). Drives the --json run manifest.
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
     * Keep a copy of every SimResult of subsequent run() calls
     * (prefetch dummies excluded). Drives the --stats dump, which
     * needs the raw telemetry after the figure has reduced its
     * results to table text.
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

/**
 * Convenience builder used by the figure implementations: collect
 * jobs while remembering their indices, run them all at once, then
 * read results back by index while assembling tables.
 */
class JobSet
{
  public:
    /** Append a job; returns its index for later lookup. */
    size_t
    add(SweepJob job)
    {
        jobs_.push_back(std::move(job));
        return jobs_.size() - 1;
    }

    size_t addRef(std::string trace, RefConfig cfg)
    {
        return add(refJob(std::move(trace), cfg));
    }
    size_t addOoo(std::string trace, OooConfig cfg)
    {
        return add(oooJob(std::move(trace), cfg));
    }
    size_t addOooTrace(std::shared_ptr<const Trace> trace,
                       OooConfig cfg)
    {
        return add(oooTraceJob(std::move(trace), cfg));
    }
    size_t addRefTrace(std::shared_ptr<const Trace> trace,
                       RefConfig cfg)
    {
        return add(refTraceJob(std::move(trace), cfg));
    }
    size_t addIdeal(std::string trace)
    {
        return add(idealJob(std::move(trace)));
    }

    /** Execute everything added so far. */
    void run(const SweepEngine &engine);

    /** Result of the job that add() numbered @p index. */
    const SimResult &operator[](size_t index) const;

    size_t size() const { return jobs_.size(); }

  private:
    std::vector<SweepJob> jobs_;
    std::vector<SimResult> results_;
};

} // namespace oova

#endif // OOVA_HARNESS_SWEEP_HH
