#include "harness/sweep.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/backend.hh"

namespace oova
{

namespace
{

/**
 * Writes the value of every keyed member the config walks name, in
 * walk order, one after another. The walks fix the order and the
 * count, so the values alone say which run a key stands for.
 */
class KeyWriter
{
  public:
    explicit KeyWriter(const char *prefix) : key_(prefix) {}

    template <typename T>
    void
    field(const char *, const T &value, const ConfigField &f = {})
    {
        auto v = static_cast<uint64_t>(value);
        if (f.key == ConfigField::Key::Telemetry)
            v = v || telemetryForced();
        key_ += std::to_string(v);
        key_ += ',';
    }

    template <typename T>
    void
    unkeyed(const char *, const T &)
    {
    }

    template <typename C>
    void
    nest(const char *, const C &sub)
    {
        walkConfig(sub, *this);
    }

    std::string take() { return std::move(key_); }

  private:
    std::string key_;
};

} // namespace

std::string
sweepConfigKey(const RefConfig &cfg)
{
    KeyWriter key("REF/v5|");
    walkConfig(cfg, key);
    return key.take();
}

std::string
sweepConfigKey(const OooConfig &cfg)
{
    KeyWriter key("OOO/v5|");
    walkConfig(cfg, key);
    return key.take();
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

} // namespace oova
