/**
 * @file
 * Shared pieces of the benchmark driver: timing helpers, order
 * statistics, the span log that attributes host time to layers, the
 * result verifier, and the layer ledger entry point.
 */

#ifndef OOVA_PERFBENCH_BENCH_HH
#define OOVA_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "mem/simresult.hh"
#include "ref/refsim.hh"
#include "trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One reported metric: its median and quartiles over n samples. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 1;
    /** Free-form note printed beside the value (e.g. "p99.5"). */
    std::string note;
};

using Metrics = std::map<std::string, Metric>;

/** Median and quartiles of @p samples as a Metric. */
Metric summarize(const std::vector<double> &samples, std::string unit);

/** A single exact or derived value (n = 1, no spread). */
Metric single(double value, std::string unit);

/** @p s as a quoted JSON string (control characters dropped). */
std::string jsonString(const std::string &s);

// ------------------------------------------------------------ spans

/**
 * Span recorder for the traced run. Spans nest on the driver's own
 * thread (open/close in stack order); work done in parallel inside a
 * sweep batch is charged to its layer as a "virtual" child of the
 * batch span, since the batch's workers do not record spans
 * themselves. Everything stays in memory until writeChrome().
 */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span of @p layer under the innermost open span. */
    int open(const char *layer, std::string name);
    void close(int id);

    /**
     * Charge @p ms of wall-equivalent time to @p layer inside the
     * innermost open span (parallel job time divided by the batch's
     * worker count).
     */
    void charge(const char *layer, double ms);
    /** The same, inside span @p parent (after it has closed). */
    void charge(const char *layer, double ms, int parent);

    /** Attach a key/value shown in the Perfetto detail pane. */
    void arg(int id, std::string key, std::string value);

    /**
     * Self time per layer over every span recorded since @p fromSpan
     * (a span's duration minus its children's, virtual children
     * included), in milliseconds; "unattributed" is the part of
     * @p wallMs covered by no top-level span.
     */
    std::map<std::string, double> selfMs(size_t fromSpan,
                                         double wallMs) const;

    size_t size() const { return spans_.size(); }

    /** Write Chrome trace-event JSON (loads in ui.perfetto.dev). */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string layer;
        std::string name;
        double startUs = 0.0;
        double durUs = 0.0;
        int parent = -1;
        std::vector<std::pair<std::string, std::string>> args;
    };
    struct Charge
    {
        int parent;
        std::string layer;
        double ms;
    };

    double nowUs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<Charge> charges_;
    std::vector<int> stack_;
};

/** RAII span; a null log makes it a no-op (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *layer, std::string name)
        : log_(log), id_(log ? log->open(layer, std::move(name)) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// ----------------------------------------------------- verification

/** FNV-1a digest of every simulated statistic a run must repeat. */
uint64_t resultDigest(const oova::SimResult &r);
uint64_t textDigest(const std::string &text);

/**
 * Checks digests against a reference recorded from a known-good
 * commit (one "key hex-digest" line per result). In recording mode
 * it collects digests instead; a key seen twice with different
 * digests is a failure in either mode.
 */
class Verifier
{
  public:
    /** Load reference sets; false if a file is missing or bad. */
    bool load(const std::string &path);
    void setRecording(bool on) { recording_ = on; }

    /** Check one result; returns false (and counts it) on mismatch. */
    bool check(const std::string &key, uint64_t digest);
    /** Count @p n results as attempted and failed (crash, miss). */
    void fail(const std::string &why, uint64_t n = 1);

    /** Write the recorded digests whose key starts with @p prefix. */
    bool save(const std::string &path, const std::string &prefix) const;

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::unordered_map<std::string, uint64_t> ref_;
    bool recording_ = false;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

// --------------------------------------------------------- machines

/** One simulated machine of the direct (sweep-less) workloads. */
struct Machine
{
    /** Metric tag, e.g. "early16r" or "banked.ref". */
    std::string tag;
    bool isOoo = true;
    oova::OooConfig ooo;
    oova::RefConfig ref;
};

/** ooo_flatbus: OOOVA-16/16r early, 16/64r early, 16/32r late SLE+VLE. */
std::vector<Machine> flatbusMachines();

/**
 * mem_hierarchy: OOOVA-16/16r and REF over banked (8 banks), cached
 * (32 KiB, 8 MSHRs) behind a 16-entry TLB, and late commit with an
 * 8-entry software-refilled TLB.
 */
std::vector<Machine> memMachines();

oova::SimResult simulate(const Machine &m, const oova::Trace &trace);

// ----------------------------------------------------------- ledger

/**
 * The layer ledger: fixed microbenchmarks and small measured
 * simulations, identical on every workload, that fill the per-layer
 * metrics of tgen, trace, core, ref, mem and harness.store (see
 * README.md). Appends to @p out; results are verified through @p ver.
 */
void runLedger(unsigned seed, const std::string &workDir, Verifier &ver,
               Metrics &out);

/** The ledger's trace scale (the golden-gate scale). */
constexpr double kLedgerScale = 0.25;

} // namespace perfbench

#endif // OOVA_PERFBENCH_BENCH_HH
