/**
 * @file
 * Execution backends for the sweep engine: figures declare *what*
 * to run (a batch of SweepJobs), a backend decides *how*.
 *
 *   InProcessBackend  worker threads in this process (the default;
 *                     byte-identical to the original engine).
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
#include <memory>
#include <string>
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
    /** Worker wall time (store hits: the load is effectively free). */
    double wallMs = 0.0;
    /** Served from the ResultStore instead of simulated. */
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

/** The original thread-pool execution, behind the backend API. */
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
    const TraceCache &traces_;
    unsigned threads_;
};

/**
 * Content-addressed caching decorator: keys every cacheable job
 * (non-empty SweepJob::configKey) through ResultStore::makeKey,
 * serves hits without simulating, runs only the misses through the
 * wrapped backend, and persists their results. Outcomes keep
 * submission order, so a warm store is byte-identical to a cold
 * run.
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
