/**
 * @file
 * Sweep tracing in Chrome trace-event JSON (--perfetto FILE): one
 * complete-event ("ph":"X") span per executed job, laid out on one
 * track per worker thread, plus a span for the silent result-store
 * lookup phase of each batch. The file loads directly into
 * ui.perfetto.dev or chrome://tracing, turning a sweep run into a
 * waterfall: which worker ran what, where the stragglers are, and
 * how much of the wall time the store absorbed.
 *
 * The log is a passive sink shared by every backend in the chain
 * (SweepEngine::setTraceLog): backends record spans only when a log
 * is installed, so the default costs nothing and figure output is
 * untouched either way. Recording is mutex-serialized — workers call
 * in concurrently — and timestamps are microseconds since the log's
 * construction, so every worker's spans share one clock.
 */

#ifndef OOVA_HARNESS_PERFETTO_HH
#define OOVA_HARNESS_PERFETTO_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace oova
{

/** One complete event on the trace timeline. */
struct TraceSpan
{
    std::string name;
    std::string category;
    uint64_t tsUs = 0;  ///< start, microseconds since log creation
    uint64_t durUs = 0; ///< duration in microseconds
    uint32_t tid = 0;   ///< track (worker) the span belongs to
    /** Extra "args" entries, shown in the Perfetto detail pane. */
    std::vector<std::pair<std::string, std::string>> args;
};

/** Thread-safe span collector; write() emits the JSON trace. */
class SweepTraceLog
{
  public:
    SweepTraceLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Microseconds elapsed since the log was created. */
    uint64_t
    nowUs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - origin_)
                .count());
    }

    void
    addSpan(TraceSpan span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Label @p tid's track ("worker-0", "sweep-main", ...). */
    void
    setThreadName(uint32_t tid, std::string name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        threadNames_[tid] = std::move(name);
    }

    /** The trace as Chrome trace-event JSON text. */
    std::string render() const;

    /**
     * Render and write to @p path. Returns false (with a message on
     * stderr) when the file cannot be written.
     */
    bool write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
    std::map<uint32_t, std::string> threadNames_;
};

} // namespace oova

#endif // OOVA_HARNESS_PERFETTO_HH
