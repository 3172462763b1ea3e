/**
 * @file
 * Execution backends for the sweep engine: figures declare *what*
 * to run (a batch of SweepJobs), a backend decides *how*.
 *
 *   InProcessBackend  worker threads in this process (the default);
 *                     simulates each distinct named (trace, config)
 *                     once per instance and copies the result to
 *                     every repeat.
 *   StoreBackend      decorator: consults a content-addressed
 *                     ResultStore first, delegates only the misses
 *                     to the wrapped backend, persists their
 *                     results.
 *
 * Every backend returns outcomes index-aligned with the submitted
 * jobs, so figure output is byte-identical whichever backend (and
 * whatever parallelism) ran the sweep — that invariant is what lets
 * the golden-figure gate double as the store's correctness net.
 */

#ifndef OOVA_HARNESS_BACKEND_HH
#define OOVA_HARNESS_BACKEND_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/resultstore.hh"
#include "harness/sweep.hh"

namespace oova
{

class SweepTraceLog;

/** One job's execution outcome, index-aligned with the batch. */
struct JobOutcome
{
    SimResult result;
    /** Worker wall time; for a served result, the load or copy time. */
    double wallMs = 0.0;
    /**
     * Served without simulating: from the ResultStore, or copied
     * from an identical job this backend already ran.
     */
    bool fromStore = false;
};

/** How a backend executes a batch. See the file comment. */
class SweepBackend
{
  public:
    virtual ~SweepBackend() = default;

    /**
     * Execute all of @p jobs; outcome i belongs to job i regardless
     * of completion order. Figures run batches serially from one
     * thread; run() itself may fan out however it likes.
     */
    virtual std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) = 0;

    /** Worker parallelism (threads). */
    virtual unsigned parallelism() const = 0;

    /** Human-readable description, e.g. "in-process x8". */
    virtual std::string describe() const = 0;

    /**
     * Install a per-job completion callback (jobs done, batch
     * size), invoked concurrently from workers — must be
     * thread-safe. Never called when unset.
     */
    virtual void
    setProgress(std::function<void(size_t, size_t)> cb)
    {
        progress_ = std::move(cb);
    }

    /**
     * Install a span sink for --perfetto (nullptr detaches). The
     * log must outlive every subsequent run(); backends record one
     * span per executed job plus spans for their internal batch
     * phases. Never consulted when unset, so the default costs
     * nothing.
     */
    virtual void setTraceLog(SweepTraceLog *log) { traceLog_ = log; }

  protected:
    std::function<void(size_t, size_t)> progress_;
    SweepTraceLog *traceLog_ = nullptr;
};

/**
 * The thread pool, behind the backend API. It simulates each distinct
 * job once for its lifetime: the paper's figures compare their
 * variants against the same baseline machines, so a suite repeats
 * many (trace, config) pairs. A job with a non-empty configKey and a
 * named trace is keyed by (trace name, configKey); a key seen in an
 * earlier batch, or earlier in the same batch, is served as a copy of
 * the first result (JobOutcome::fromStore) instead of reaching a
 * worker. Jobs are pure, so a copy is identical to a rerun. Inline-
 * trace and empty-key jobs always simulate. Each distinct result is
 * kept until the backend is destroyed.
 */
class InProcessBackend : public SweepBackend
{
  public:
    /**
     * @param traces  shared trace cache (must outlive the backend)
     * @param threads worker count; 0 means hardware concurrency
     */
    explicit InProcessBackend(const TraceCache &traces,
                              unsigned threads = 0);

    std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) override;
    unsigned parallelism() const override { return threads_; }
    std::string describe() const override;

  private:
    /** (trace name, configKey): a memoizable job's identity. */
    using MemoKey = std::pair<std::string, std::string>;

    const TraceCache &traces_;
    unsigned threads_;
    /**
     * Results of the distinct jobs run so far. Read and written only
     * by run()'s calling thread, before dispatch and after the join.
     */
    std::map<MemoKey, SimResult> memo_;
};

/**
 * Content-addressed caching decorator: keys every cacheable job
 * (non-empty SweepJob::configKey) through ResultStore::makeKey,
 * serves hits without simulating, runs only the misses through the
 * wrapped backend, and persists the results it simulated (a miss the
 * wrapped backend served as a copy was stored with its first
 * occurrence). Outcomes keep submission order, so a warm store is
 * byte-identical to a cold run.
 */
class StoreBackend : public SweepBackend
{
  public:
    /** @param store shared result store (must outlive the backend) */
    StoreBackend(ResultStore &store, const TraceCache &traces,
                 std::unique_ptr<SweepBackend> inner);

    std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) override;
    unsigned
    parallelism() const override
    {
        return inner_->parallelism();
    }
    std::string describe() const override;
    /** Kept by the decorator and forwarded to the inner backend. */
    void setTraceLog(SweepTraceLog *log) override;

  private:
    ResultStore &store_;
    const TraceCache &traces_;
    std::unique_ptr<SweepBackend> inner_;
};

} // namespace oova

#endif // OOVA_HARNESS_BACKEND_HH
