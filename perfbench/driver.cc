/**
 * @file
 * perfbench: the repository's benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scale X] [--ref-dir DIR]
 *             [--work-dir DIR] [--record]
 *
 * Runs one workload (paper_suite, ooo_flatbus, mem_hierarchy,
 * warm_store) in this process through the library's public API, pinned
 * to the fastest CPU it may use: set
 * up several times, one untimed warm-up pass, then timed passes for
 * S seconds. Every simulated result and every figure text is checked
 * against the recorded reference. With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it alternates untraced and
 * traced passes, reports the layer ledger, each layer's share of the
 * traced wall time and the tracing overhead, and writes the spans as
 * Chrome trace-event JSON. The last stdout line is a JSON summary
 * that perfbench/run.py turns into the benchmark's result line.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/backend.hh"
#include "harness/figure.hh"
#include "harness/perfetto.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "tgen/benchmarks.hh"
#include "trace/trace_io.hh"

using namespace oova;
using namespace perfbench;

namespace
{

/**
 * The 22 golden-gated figures, fixed by name so that a later figure
 * does not read as a regression: every registered figure except the
 * timing-only simspeed.
 */
const std::vector<std::string> kSuiteFigures = {
    "tab1",      "tab2",     "tab3",      "fig3",   "fig4",
    "fig5",      "fig6",     "fig7",      "fig8",   "fig9",
    "fig11",     "fig12",    "fig13",     "abl",    "membank",
    "memstride", "memunits", "memgather", "memlat", "memtlb",
    "cpistack",  "occupancy"};

/** The layers of the self-time table, named after the modules. */
const char *const kLayers[] = {"tgen",          "trace",
                               "core",          "ref",
                               "mem",           "harness.sweep",
                               "harness.store", "harness.figure"};

struct Options
{
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0; ///< 0: the workload's default
    std::string refDir = "perfbench/reference";
    std::string workDir = ".bench_work";
    bool record = false;
};

/** What one pass did, filled in by the workloads. */
struct Pass
{
    std::vector<double> jobMs;
    /** Verification key of each jobMs entry. */
    std::vector<std::string> jobKeys;
    /** Instructions of every result produced, simulated or served. */
    uint64_t instr = 0;
    /** Simulated work only (store hits excluded). */
    uint64_t simInstr = 0, simCycles = 0, traps = 0;
    uint64_t batches = 0, lookups = 0, hits = 0;
    double sweepMs = 0.0, simJobMs = 0.0, renderMs = 0.0;
    std::map<std::string, double> figureMs;
    /** Order-independent digest of every result of the pass. */
    uint64_t digest = 0;
    /** jobMs slots of store hits, filled from the store's spans. */
    std::vector<size_t> hitSlots;
    /** Batch span ids, in order (traced passes only). */
    std::vector<int> batchSpans;
    /** Simulated instructions per machine tag (traced passes only). */
    std::map<std::string, uint64_t> tagInstr;
};

/** The state a workload's pass writes into. */
struct Ctx
{
    Verifier &ver;
    /** Reference-set prefix of this workload, e.g. "suite-0.25/". */
    std::string set;
    /** Non-null on traced passes only. */
    SpanLog *log = nullptr;
    Pass pass;
    /** Figure being run and the index of its next job. */
    std::string figure;
    size_t jobIndex = 0;

    Ctx(Verifier &v, std::string s) : ver(v), set(std::move(s)) {}

    void
    result(const std::string &key, const SimResult &r, double ms,
           bool simulated = true)
    {
        uint64_t d = resultDigest(r);
        ver.check(set + key, d);
        pass.digest += textDigest(key) ^ d;
        pass.jobMs.push_back(ms);
        pass.jobKeys.push_back(key);
        pass.instr += r.instructions;
        if (!simulated)
            return;
        pass.simInstr += r.instructions;
        pass.simCycles += r.cycles;
        pass.traps += r.traps;
    }
};

const char *
layerOf(const SimResult &r)
{
    return r.machine.compare(0, 3, "REF") == 0 ? "ref" : "core";
}

/** How a suite pass uses the result store. */
enum class StoreMode
{
    None,  ///< paper_suite: no store
    Fill,  ///< warm_store's untimed cold pass: misses are stored
    Serve, ///< warm_store's passes: every job must be a hit
};

/**
 * Outermost backend of the sweep workloads: times each batch, checks
 * every result in submission order (keyed figure#index), and on a
 * traced pass charges each simulated job to its layer, divided by the
 * batch's worker count, inside the batch span. Per-job times are the
 * engine's own job outcomes, the numbers its manifest records; a store
 * hit's time is filled in after the pass (SuiteWorkload::collect).
 */
class AccountingBackend : public SweepBackend
{
  public:
    AccountingBackend(std::unique_ptr<SweepBackend> inner, Ctx &c,
                      StoreMode mode)
        : inner_(std::move(inner)), c_(c), mode_(mode)
    {
    }

    std::vector<JobOutcome>
    run(const std::vector<SweepJob> &jobs) override
    {
        ScopedSpan span(c_.log, "harness.sweep", "batch");
        if (c_.log)
            c_.pass.batchSpans.push_back(span.id());
        auto t0 = Clock::now();
        std::vector<JobOutcome> out = inner_->run(jobs);
        c_.pass.sweepMs += msSince(t0);
        ++c_.pass.batches;
        size_t simulated = std::count_if(
            out.begin(), out.end(),
            [](const JobOutcome &o) { return !o.fromStore; });
        double workers = static_cast<double>(std::max<size_t>(
            1, std::min<size_t>(inner_->parallelism(), simulated)));
        for (const JobOutcome &o : out) {
            if (o.result.machine.empty())
                continue; // prefetch: trace lookup only
            std::string key =
                c_.figure + "#" + std::to_string(c_.jobIndex++);
            if (mode_ != StoreMode::None)
                ++c_.pass.lookups;
            if (o.fromStore) {
                ++c_.pass.hits;
                c_.pass.hitSlots.push_back(c_.pass.jobMs.size());
            } else if (mode_ == StoreMode::Serve) {
                c_.ver.fail(key + ": store miss");
                continue;
            }
            c_.result(key, o.result, o.wallMs, !o.fromStore);
            if (o.fromStore)
                continue;
            c_.pass.simJobMs += o.wallMs;
            if (c_.log)
                c_.log->charge(layerOf(o.result), o.wallMs / workers);
        }
        if (c_.log)
            c_.log->arg(span.id(), "jobs", std::to_string(jobs.size()));
        return out;
    }

    unsigned parallelism() const override { return inner_->parallelism(); }
    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<SweepBackend> inner_;
    Ctx &c_;
    StoreMode mode_;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the workload's inputs afresh (the measured set-up). */
    virtual void setup(Ctx &c) = 0;
    /** Untimed preparation after the first set-up. */
    virtual void prepare(Ctx &) {}
    virtual void pass(Ctx &c) = 0;
    /** Finish a pass's bookkeeping, after its time is taken. */
    virtual void collect(Ctx &) {}

  protected:
    /** Generate every program's trace into a fresh cache. */
    static std::unique_ptr<TraceCache>
    generate(Ctx &c, double scale)
    {
        auto traces = std::make_unique<TraceCache>(scale);
        for (const auto &name : traces->names()) {
            ScopedSpan s(c.log, "tgen", name);
            traces->get(name);
        }
        return traces;
    }
};

/**
 * paper_suite and warm_store: the 22 golden-gated figures through a
 * SweepEngine, rendered to text, in a seeded order per pass.
 */
class SuiteWorkload : public Workload
{
  public:
    SuiteWorkload(double scale, unsigned threads, unsigned seed,
                  std::string storeDir)
        : scale_(scale), threads_(threads), rng_(seed),
          storeDir_(std::move(storeDir))
    {
    }

    void
    setup(Ctx &c) override
    {
        store_.reset();
        traces_.reset(); // free the old traces before generating anew
        traces_ = generate(c, scale_);
        if (storeDir_.empty())
            return;
        store_ = std::make_unique<ResultStore>(storeDir_);
        for (const auto &name : traces_->names()) {
            ScopedSpan s(c.log, "trace", "hash " + name);
            traces_->contentHash(name);
        }
    }

    /** warm_store: fill the store with one cold pass. */
    void
    prepare(Ctx &c) override
    {
        if (store_)
            run(c, true);
    }

    void pass(Ctx &c) override { run(c, false); }

    /**
     * warm_store: each hit's job time is the span StoreBackend records
     * around its load. On a traced pass each batch's store-lookup span
     * (trace hash, key and load of every job) is charged to
     * harness.store inside that batch's span.
     */
    void
    collect(Ctx &c) override
    {
        if (!storeLog_)
            return;
        std::vector<double> hitMs, lookupMs;
        std::istringstream in(storeLog_->render());
        for (std::string line; std::getline(in, line);) {
            size_t dur = line.find("\"dur\": ");
            if (dur == std::string::npos)
                continue;
            double ms = std::strtod(line.c_str() + dur + 7, nullptr) / 1e3;
            if (line.find("\"cat\": \"store-hit\"") != std::string::npos)
                hitMs.push_back(ms);
            else if (line.find("\"name\": \"store-lookup\"") !=
                     std::string::npos)
                lookupMs.push_back(ms);
        }
        storeLog_.reset();
        if (hitMs.size() != c.pass.hitSlots.size()) {
            c.ver.fail("store hit spans do not match the hits");
            return;
        }
        for (size_t i = 0; i < hitMs.size(); ++i)
            c.pass.jobMs[c.pass.hitSlots[i]] = hitMs[i];
        if (c.log && lookupMs.size() == c.pass.batchSpans.size())
            for (size_t i = 0; i < lookupMs.size(); ++i)
                c.log->charge("harness.store", lookupMs[i],
                              c.pass.batchSpans[i]);
    }

  private:
    void
    run(Ctx &c, bool fill)
    {
        std::unique_ptr<SweepBackend> backend =
            std::make_unique<InProcessBackend>(*traces_, threads_);
        StoreMode mode = StoreMode::None;
        if (store_) {
            backend = std::make_unique<StoreBackend>(*store_, *traces_,
                                                     std::move(backend));
            storeLog_ = std::make_unique<SweepTraceLog>();
            backend->setTraceLog(storeLog_.get());
            mode = fill ? StoreMode::Fill : StoreMode::Serve;
        }
        SweepEngine engine(*traces_, std::make_unique<AccountingBackend>(
                                         std::move(backend), c, mode));
        std::vector<std::string> order = kSuiteFigures;
        std::shuffle(order.begin(), order.end(), rng_);
        for (const std::string &name : order) {
            const FigureDef *def = findFigure(name);
            if (!def) {
                c.ver.fail("unknown figure " + name);
                continue;
            }
            c.figure = name;
            c.jobIndex = 0;
            auto t0 = Clock::now();
            FigureResult res;
            {
                ScopedSpan s(c.log, "harness.figure", name);
                res = def->fn(engine);
            }
            auto t1 = Clock::now();
            std::string text;
            {
                ScopedSpan s(c.log, "harness.figure", "render " + name);
                text = renderFigureText(*def, res, scale_);
            }
            c.pass.renderMs += msSince(t1);
            c.pass.figureMs[name] = msSince(t0);
            uint64_t d = textDigest(text);
            c.ver.check(c.set + name + "#text", d);
            c.pass.digest += textDigest(name) ^ d;
            // A warm pass must print exactly what the cold fill did.
            if (fill)
                coldText_[name] = d;
            else if (store_ && coldText_[name] != d)
                c.ver.fail(name + ": warm text differs from cold");
        }
    }

    double scale_;
    unsigned threads_;
    std::mt19937_64 rng_;
    std::string storeDir_;
    std::unique_ptr<TraceCache> traces_;
    std::unique_ptr<ResultStore> store_;
    /** The store backend's spans of the current pass. */
    std::unique_ptr<SweepTraceLog> storeLog_;
    std::map<std::string, uint64_t> coldText_;
};

/**
 * ooo_flatbus and mem_hierarchy: the ten programs on a fixed machine
 * list, one thread, each simulate call made by the driver itself in a
 * seeded order per pass.
 */
class DirectWorkload : public Workload
{
  public:
    DirectWorkload(double scale, std::vector<Machine> machines,
                   unsigned seed)
        : scale_(scale), machines_(std::move(machines)), rng_(seed)
    {
    }

    void
    setup(Ctx &c) override
    {
        traces_.reset(); // free the old traces before generating anew
        traces_ = generate(c, scale_);
    }

    void
    pass(Ctx &c) override
    {
        const auto &names = traces_->names();
        std::vector<std::pair<size_t, size_t>> order;
        for (size_t p = 0; p < names.size(); ++p)
            for (size_t m = 0; m < machines_.size(); ++m)
                order.emplace_back(p, m);
        std::shuffle(order.begin(), order.end(), rng_);
        for (auto [p, m] : order) {
            const Machine &mach = machines_[m];
            const Trace &t = traces_->get(names[p]);
            SimResult r;
            auto t0 = Clock::now();
            {
                ScopedSpan s(c.log, mach.isOoo ? "core" : "ref",
                             c.log ? names[p] + " " + mach.tag : "");
                r = simulate(mach, t);
            }
            double ms = msSince(t0);
            c.result(names[p] + "|" + r.machine, r, ms);
            if (c.log)
                c.pass.tagInstr[mach.tag] += r.instructions;
        }
    }

  private:
    double scale_;
    std::vector<Machine> machines_;
    std::mt19937_64 rng_;
    std::unique_ptr<TraceCache> traces_;
};

double
cpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &tv) {
        return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * A run whose canary drifts by more than this is flagged noisy: the
 * bound of the end-to-end time metrics in BENCHMARK.json.
 */
constexpr double kNoiseBound = 0.25;

/** The percentile of a run's samples that each reported time is. */
constexpr double kSlowQ = 0.95;

/**
 * The pure-CPU canary: generating bdna's trace at scale 1 (a few
 * ms), median of 30 after one untimed run. Run before and after the
 * timed passes; a drift past kNoiseBound flags the host as noisy.
 */
double
canaryMs()
{
    GenOptions o;
    std::vector<double> samples;
    size_t n = 0;
    for (int i = 0; i < 31; ++i) {
        auto t0 = Clock::now();
        n += makeBenchmarkTrace("bdna", o).size();
        if (i > 0)
            samples.push_back(msSince(t0));
    }
    return n ? median(samples) : 0.0;
}

/** Keeps the optimizer from discarding the CPU probe. */
volatile uint64_t gProbeSink = 0;

/**
 * The CPU probe: a fixed loop of the benchmark's own, random
 * read-modify-writes over a 2 MiB table (a few ms), so that ranking
 * the CPUs does not depend on the code under test.
 */
double
probeMs()
{
    static std::vector<uint64_t> table(1 << 18, 1);
    auto t0 = Clock::now();
    uint64_t x = 88172645463325252ull, s = 0;
    for (int i = 0; i < 1000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &e = table[x & (table.size() - 1)];
        e += s;
        s += e * 3 + (x >> 40);
        if (s & 1)
            s ^= x;
    }
    gProbeSink = s;
    return msSince(t0);
}

bool
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
}

/**
 * Pin this thread, and the threads it starts, to the fastest CPU of
 * @p allowed: the one with the lowest median probe time over nine
 * rounds that visit every CPU in turn. On a shared host the CPUs are
 * not equal, and the scheduler keeps a one-thread process on one CPU
 * for seconds to minutes, so an unpinned run is fast or slow by where
 * it lands. Returns the CPU, or -1 (unpinned) if there is no choice;
 * @p probe gets each CPU's median.
 */
int
pinFastestCpu(const cpu_set_t &allowed, std::map<int, double> &probe)
{
    std::map<int, std::vector<double>> samples;
    for (int round = 0; round < 9; ++round)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed) && pinTo(cpu))
                samples[cpu].push_back(probeMs());
    int best = -1;
    for (const auto &[cpu, ms] : samples) {
        probe[cpu] = median(ms);
        if (best < 0 || probe[cpu] < probe[best])
            best = cpu;
    }
    if (samples.size() < 2 || !pinTo(best)) {
        sched_setaffinity(0, sizeof allowed, &allowed);
        return -1;
    }
    return best;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--ref-dir DIR] "
                 "[--work-dir DIR] [--record]\n"
                 "workloads: paper_suite ooo_flatbus mem_hierarchy "
                 "warm_store\n");
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--record") {
            o.record = true;
            continue;
        }
        if (!(v = value()))
            return false;
        char *end = nullptr;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = static_cast<unsigned>(std::strtoul(v, &end, 10));
        else if (a == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (a == "--trace")
            o.trace = std::strtol(v, &end, 10) != 0;
        else if (a == "--scale")
            o.scale = std::strtod(v, &end);
        else if (a == "--ref-dir")
            o.refDir = v;
        else if (a == "--work-dir")
            o.workDir = v;
        else
            return false;
        if (end && *end)
            return false;
    }
    return !o.workload.empty() && o.seconds > 0 && o.scale >= 0;
}

/** Default trace scale of each workload. */
double
defaultScale(const std::string &workload)
{
    if (workload == "paper_suite" || workload == "warm_store")
        return kLedgerScale;
    return 1.0;
}

std::string
setName(const std::string &kind, double scale)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s-%g", kind.c_str(), scale);
    return buf;
}

void
printMetric(const std::string &name, const Metric &m)
{
    if (m.n > 1)
        std::printf("  %-40s %12.6g %-9s [q1 %.6g .. q3 %.6g] n=%zu %s\n",
                    name.c_str(), m.value, m.unit.c_str(), m.q1, m.q3, m.n,
                    m.note.c_str());
    else
        std::printf("  %-40s %12.6g %-9s %s\n", name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    // Audit and telemetry stay at their defaults (off) in every
    // workload, whatever the caller's environment says.
    unsetenv("OOVA_CHECK");
    unsetenv("OOVA_TELEMETRY");
    if (opt.scale == 0.0)
        opt.scale = defaultScale(opt.workload);
    // Every workload runs on one thread: on a shared host, suite runs
    // on every core varied far more than the bounds allow. The figure
    // ledger sweeps on every core and reports parallel_eff.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    constexpr unsigned kThreads = 1;

    std::string kind;
    std::unique_ptr<Workload> wl;
    std::string storeDir;
    std::filesystem::create_directories(opt.workDir);
    if (opt.workload == "paper_suite") {
        kind = "suite";
        wl = std::make_unique<SuiteWorkload>(opt.scale, kThreads,
                                             opt.seed, "");
    } else if (opt.workload == "warm_store") {
        kind = "suite";
        storeDir = opt.workDir + "/store-" + std::to_string(getpid());
        std::filesystem::remove_all(storeDir);
        wl = std::make_unique<SuiteWorkload>(opt.scale, kThreads,
                                             opt.seed, storeDir);
    } else if (opt.workload == "ooo_flatbus") {
        kind = "ooo_flatbus";
        wl = std::make_unique<DirectWorkload>(opt.scale, flatbusMachines(),
                                              opt.seed);
    } else if (opt.workload == "mem_hierarchy") {
        kind = "mem_hierarchy";
        wl = std::make_unique<DirectWorkload>(opt.scale, memMachines(),
                                              opt.seed);
    } else {
        usage();
        return 2;
    }

    // Reference sets this run checks against (or records).
    std::vector<std::string> sets = {setName(kind, opt.scale)};
    if (opt.trace) {
        sets.push_back(setName("ledger", kLedgerScale));
        sets.push_back(setName("suite", kLedgerScale));
    }
    Verifier ver;
    ver.setRecording(opt.record);
    for (const std::string &s : sets) {
        if (!ver.load(opt.refDir + "/" + s + ".txt") && !opt.record) {
            std::fprintf(stderr,
                         "perfbench: no reference %s/%s.txt; record one "
                         "with --record\n",
                         opt.refDir.c_str(), s.c_str());
            return 2;
        }
    }

    // Pin to the fastest CPU before anything is timed. The figure
    // ledger below sweeps on every allowed CPU again.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::map<int, double> probe;
    const int pinned = sched_getaffinity(0, sizeof allowed, &allowed) == 0
                           ? pinFastestCpu(allowed, probe)
                           : -1;

    Ctx c{ver, sets[0] + "/"};
    Metrics metrics;
    std::map<std::string, double> selfMs;
    double tracedWallMs = 0.0;
    SpanLog log;
    std::vector<uint64_t> digests;
    std::vector<double> walls, tracedWalls;
    std::map<std::string, uint64_t> tracedTagInstr;
    /** One untraced timed pass. */
    struct Sample
    {
        double wall, cpu, rate;
        std::vector<double> jobMs;
        std::vector<std::string> jobKeys;
    };
    std::vector<Sample> samples;

    // Set-up: three times before the passes and, untraced, again
    // after every timed pass, so the set-up samples see the same host
    // as the passes: at least once, and as often as fits in a tenth of
    // the pass time, so that a cheap set-up gets many samples.
    // warm_store fills its store after the first and times only
    // set-ups that open a filled store.
    std::vector<double> setupS;
    double setupMs = 0.0, passMs = 0.0;
    auto setup = [&] {
        auto t0 = Clock::now();
        wl->setup(c);
        double ms = msSince(t0);
        setupMs += ms;
        setupS.push_back(ms / 1e3);
    };
    c.log = opt.trace ? &log : nullptr; // trace generation spans
    setup();
    c.log = nullptr;
    if (!storeDir.empty()) {
        setupS.clear();
        wl->prepare(c);
    }
    for (int k = 0; k < 2 && !opt.trace; ++k)
        setup();

    // Warm-up, then timed passes (alternately traced with --trace 1),
    // bracketed by the canary.
    double canaryBefore = canaryMs();
    c.pass = {};
    wl->pass(c);
    wl->collect(c);
    digests.push_back(c.pass.digest);
    // The peak of the workload run once, as a user runs it. Later
    // set-ups and passes only repeat it, yet the peak drifted with
    // them by up to 10% from run to run, as freed traces were reused.
    const double rssMb = peakRssMb();
    // At least four timed passes, however short the run.
    constexpr size_t minPasses = 4;
    auto start = Clock::now();
    for (unsigned n = 0;; ++n) {
        bool traced = opt.trace && n % 2 == 1;
        c.pass = {};
        c.log = traced ? &log : nullptr;
        size_t from = log.size();
        double cpu0 = cpuMs();
        auto t0 = Clock::now();
        wl->pass(c);
        double wall = msSince(t0);
        double cpu = cpuMs() - cpu0;
        wl->collect(c);
        c.log = nullptr;
        digests.push_back(c.pass.digest);
        if (traced) {
            tracedWalls.push_back(wall / 1e3);
            tracedWallMs += wall;
            for (const auto &[layer, ms] : log.selfMs(from, wall))
                selfMs[layer] += ms;
            for (const auto &[tag, n] : c.pass.tagInstr)
                tracedTagInstr[tag] += n;
        } else {
            walls.push_back(wall / 1e3);
            samples.push_back({wall / 1e3, cpu / 1e3,
                               static_cast<double>(c.pass.instr) / wall / 1e3,
                               c.pass.jobMs, c.pass.jobKeys});
            passMs += wall;
            if (!opt.trace)
                do
                    setup();
                while (setupMs < 0.1 * passMs);
        }
        bool enough = walls.size() >= minPasses &&
                      (!opt.trace || tracedWalls.size() >= 2);
        if (enough && msSince(start) >= opt.seconds * 1e3)
            break;
    }
    const Pass last = c.pass;
    double canaryAfter = canaryMs();
    double drift = canaryAfter / canaryBefore - 1.0;
    bool noisy = std::fabs(drift) > kNoiseBound;
    bool digestsEqual =
        std::all_of(digests.begin(), digests.end(),
                    [&](uint64_t d) { return d == digests[0]; });
    if (!digestsEqual)
        ver.fail("simulated results differ between passes");

    if (!opt.trace) {
        // On a shared host each CPU switches every few seconds between
        // two speeds about 1.4x apart. The slow speed was the same on
        // every CPU and in every run; the share of time a run spent at
        // the fast one was not, and it moved the run's median pass by
        // up to 30%. So every time is the run's slow speed: the 95th
        // percentile of its samples (the 5th of a rate).
        std::vector<double> wall, cpu, rate;
        std::map<std::string, std::vector<double>> byJob;
        for (const Sample &p : samples) {
            wall.push_back(p.wall);
            cpu.push_back(p.cpu);
            rate.push_back(p.rate);
            for (size_t i = 0; i < p.jobMs.size(); ++i)
                byJob[p.jobKeys[i]].push_back(p.jobMs[i]);
        }
        auto slow = [&](const std::vector<double> &v, std::string unit,
                        double q) {
            Metric m = summarize(v, std::move(unit));
            m.value = quantile(v, q);
            m.note = "p" + std::to_string(std::lround(q * 100)) +
                     " of " + std::to_string(v.size());
            return m;
        };
        metrics["wall_s"] = slow(wall, "s", kSlowQ);
        metrics["setup_s"] = slow(setupS, "s", kSlowQ);
        metrics["sim_minstr_per_s"] = slow(rate, "Minstr/s", 1.0 - kSlowQ);
        metrics["cpu_s"] = slow(cpu, "s", kSlowQ);
        metrics["peak_rss_mb"] = single(rssMb, "MiB");
        // Every pass runs the same jobs. Each job's time is its slow
        // speed over the passes, and the median and tail are taken
        // over the jobs of one pass: over all job times, the median sat
        // on the boundary between two jobs and jumped with the noise.
        std::vector<double> jobMs;
        for (const auto &[key, ms] : byJob)
            jobMs.push_back(quantile(ms, kSlowQ));
        const std::string of = " of " + std::to_string(jobMs.size()) +
                               " jobs' p95 over " +
                               std::to_string(samples.size()) + " passes";
        Metric p50 = summarize(jobMs, "ms");
        p50.note = "p50" + of;
        metrics["job_ms_p50"] = p50;
        // The highest percentile with ten jobs beyond it.
        double q = jobMs.size() > 11
                       ? 1.0 - 10.0 / static_cast<double>(jobMs.size() - 1)
                       : 0.5;
        Metric tail = single(quantile(jobMs, q), "ms");
        char pct[16];
        std::snprintf(pct, sizeof pct, "p%.1f", q * 100.0);
        tail.note = pct + of;
        metrics["job_ms_tail"] = tail;
    } else {
        double overhead = median(tracedWalls) - median(walls);
        metrics["tracing.overhead_ms"] = single(overhead * 1e3, "ms");
        metrics["tracing.overhead_frac"] =
            single(overhead / median(walls), "ratio");
        metrics["core.sim_instr"] =
            single(static_cast<double>(last.simInstr), "count");
        metrics["core.sim_cycles"] =
            single(static_cast<double>(last.simCycles), "count");
        metrics["core.traps"] = single(static_cast<double>(last.traps), "count");
        metrics["harness.sweep.jobs"] =
            single(static_cast<double>(last.jobMs.size()), "count");
        metrics["harness.sweep.batches"] =
            single(static_cast<double>(last.batches), "count");
        metrics["harness.store.hit_ratio"] =
            single(last.lookups ? static_cast<double>(last.hits) /
                                      static_cast<double>(last.lookups)
                                : 0.0,
                   "ratio");

        // The layer ledger, then the figure ledger: two passes of
        // the suite at the ledger scale on all threads.
        runLedger(opt.seed, opt.workDir, ver, metrics);
        if (pinned >= 0)
            sched_setaffinity(0, sizeof allowed, &allowed);
        Ctx lc{ver, setName("suite", kLedgerScale) + "/"};
        SuiteWorkload figures(kLedgerScale, nproc, opt.seed, "");
        figures.setup(lc);
        std::map<std::string, std::vector<double>> figMs;
        std::vector<double> render, sweep, jobSum;
        for (int rep = 0; rep < 2; ++rep) {
            lc.pass = {};
            figures.pass(lc);
            for (const auto &[name, ms] : lc.pass.figureMs)
                figMs[name].push_back(ms);
            render.push_back(lc.pass.renderMs);
            sweep.push_back(lc.pass.sweepMs);
            jobSum.push_back(lc.pass.simJobMs);
        }
        for (const auto &[name, ms] : figMs)
            metrics["harness.figure.ms." + name] = single(median(ms), "ms");
        metrics["harness.figure.render_ms"] = single(median(render), "ms");
        metrics["harness.sweep.wall_ms"] = single(median(sweep), "ms");
        metrics["harness.sweep.job_ms_sum"] = single(median(jobSum), "ms");
        metrics["harness.sweep.parallel_eff"] =
            single(median(jobSum) / (nproc * median(sweep)), "ratio");

        // mem runs inside the simulate calls, so no span isolates it.
        // Its share is estimated instead: the ledger's per-instruction
        // overhead of each memory configuration over the flat bus,
        // times the instructions the traced passes simulated on it,
        // moved from core to mem. Only the direct OOOVA calls of
        // mem_hierarchy carry such a configuration; elsewhere it is 0.
        double memMs = 0.0;
        for (const auto &[tag, n] : tracedTagInstr) {
            auto it = metrics.find("mem.overhead_ns_per_instr." + tag);
            if (it != metrics.end())
                memMs += std::max(0.0, it->second.value) *
                         static_cast<double>(n) / 1e6;
        }
        memMs = std::min(memMs, selfMs["core"]);
        selfMs["core"] -= memMs;
        selfMs["mem"] += memMs;
        for (const char *layer : kLayers)
            metrics[std::string("self_share.") + layer] =
                single(selfMs[layer] / tracedWallMs, "ratio");
        metrics["self_share.unattributed"] =
            single(selfMs["unattributed"] / tracedWallMs, "ratio");
    }
    if (!storeDir.empty())
        std::filesystem::remove_all(storeDir);
    std::string traceFile;
    if (opt.trace) {
        traceFile = opt.workDir + "/trace-" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + ".json";
        if (!log.writeChrome(traceFile))
            ver.fail("cannot write " + traceFile);
    }
    if (opt.record)
        for (const std::string &s : sets)
            if (!ver.save(opt.refDir + "/" + s + ".txt", s + "/"))
                ver.fail("cannot write reference " + s);

    // Human-readable report.
    std::printf("perfbench %s seed=%u scale=%g threads=%u trace=%d "
                "passes=%zu\n",
                opt.workload.c_str(), opt.seed, opt.scale, kThreads,
                opt.trace ? 1 : 0, walls.size() + tracedWalls.size());
    for (const auto &[name, m] : metrics)
        printMetric(name, m);
    if (opt.trace) {
        std::printf("  layer self time over %zu traced passes "
                    "(%.1f ms):\n",
                    tracedWalls.size(), tracedWallMs);
        for (const auto &[layer, ms] : selfMs)
            std::printf("    %-16s %10.2f ms %6.2f%%\n", layer.c_str(), ms,
                        100.0 * ms / tracedWallMs);
        std::printf("  trace written to %s\n", traceFile.c_str());
    }
    double failedFrac = ver.attempted()
                            ? static_cast<double>(ver.failed()) /
                                  static_cast<double>(ver.attempted())
                            : 1.0;
    std::printf("  results: %.6g failed (failed_frac; %llu of %llu)\n",
                failedFrac,
                static_cast<unsigned long long>(ver.failed()),
                static_cast<unsigned long long>(ver.attempted()));
    std::printf("  canary: %.3f -> %.3f ms (drift %+.1f%%)%s\n", canaryBefore,
                canaryAfter, drift * 100.0, noisy ? " NOISY" : "");
    std::printf("  cpu: %s", pinned >= 0 ? "pinned to the fastest,"
                                          : "unpinned,");
    for (const auto &[cpu, ms] : probe)
        std::printf(" %d%s %.3f ms", cpu, cpu == pinned ? "*" : "", ms);
    std::printf("\n");
    for (const std::string &f : ver.failures())
        std::printf("  FAILED %s\n", f.c_str());

    // Summary line for run.py.
    std::printf("{\"workload\":%s,\"seed\":%u,\"scale\":%.17g,"
                "\"threads\":%u,\"trace\":%d,\"attempted\":%llu,"
                "\"failed\":%llu,\"passes_identical\":%s,"
                "\"results_digest\":\"%016llx\","
                "\"canary\":{\"before_ms\":%.6g,\"after_ms\":%.6g,"
                "\"drift\":%.6g,\"noisy\":%s},\"trace_file\":%s,"
                "\"layers_ms\":{",
                jsonString(opt.workload).c_str(), opt.seed, opt.scale,
                kThreads, opt.trace ? 1 : 0,
                static_cast<unsigned long long>(ver.attempted()),
                static_cast<unsigned long long>(ver.failed()),
                digestsEqual ? "true" : "false",
                static_cast<unsigned long long>(digests[0]), canaryBefore,
                canaryAfter,
                drift, noisy ? "true" : "false",
                jsonString(traceFile).c_str());
    bool first = true;
    for (const auto &[layer, ms] : selfMs) {
        std::printf("%s%s:%.10g", first ? "" : ",", jsonString(layer).c_str(),
                    ms);
        first = false;
    }
    std::printf("},\"cpu\":{\"pinned\":%d,\"probe_ms\":{", pinned);
    first = true;
    for (const auto &[cpu, ms] : probe) {
        std::printf("%s\"%d\":%.6g", first ? "" : ",", cpu, ms);
        first = false;
    }
    std::printf("}},\"wall_samples_s\":[");
    for (size_t i = 0; i < walls.size(); ++i)
        std::printf("%s%.6g", i ? "," : "", walls[i]);
    std::printf("],\"metrics\":{");
    first = true;
    for (const auto &[name, m] : metrics) {
        std::printf("%s%s:{\"value\":%.10g,\"unit\":%s,\"q1\":%.10g,"
                    "\"q3\":%.10g,\"n\":%zu,\"note\":%s}",
                    first ? "" : ",", jsonString(name).c_str(), m.value,
                    jsonString(m.unit).c_str(), m.q1, m.q3, m.n,
                    jsonString(m.note).c_str());
        first = false;
    }
    std::printf("}}\n");
    return ver.failed() ? 1 : 0;
}
