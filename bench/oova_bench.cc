/**
 * @file
 * The figure driver: run any paper table/figure (or all of them) by
 * name through the parallel sweep engine.
 *
 *   oova_bench --list
 *   oova_bench fig5 --threads 8
 *   oova_bench all --store .oova-store --threads 4 --store-stats
 *   oova_bench all --json > BENCH_all.json
 *   oova_bench hydro2d --pipetrace=hydro2d.pipeview
 *
 * Trace scale comes from OOVA_SCALE or --scale; --json emits the
 * machine-readable result tables used to track the perf trajectory
 * across PRs, each wrapped in a run-manifest envelope. --store makes
 * the run read and feed a content-addressed result store; like
 * --threads it leaves figure output byte-identical, so it composes
 * freely with the golden gate. With --pipetrace=FILE the positional
 * name selects a benchmark instead of a figure: one OOOVA run is
 * traced per instruction and written in O3PipeView format, which
 * Konata renders as a pipeline waterfall.
 */

#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "common/pipetrace.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "harness/perfetto.hh"
#include "harness/statsdump.hh"

using namespace oova;

namespace
{

void
printUsage(std::FILE *to, const char *argv0)
{
    std::fprintf(
        to,
        "usage: %s --list | --help\n"
        "       %s <figure>|all [--threads N]\n"
        "       %*s [--store DIR] [--store-stats] [--store-fsync]\n"
        "       %*s [--stats FILE] [--perfetto FILE]\n"
        "       %*s [--json] [--progress] [--scale S]\n"
        "       %s <benchmark> --pipetrace=FILE [--trace-limit=N] "
        "[--scale S]\n"
        "\n"
        "  --threads N     sweep worker threads (0 = all cores, the "
        "default)\n"
        "  --store DIR     content-addressed result store: serve "
        "previously computed\n"
        "                  results from DIR, persist fresh results "
        "into it\n"
        "  --store-stats   print the [store] hit/miss line to "
        "stderr (needs --store)\n"
        "  --store-fsync   fsync store entries before publishing "
        "them (crash\n"
        "                  durability; needs --store)\n"
        "  --stats FILE    gem5-style `name value` telemetry dump "
        "of every result\n"
        "                  (\"-\" = stdout); occupancy needs "
        "OOVA_TELEMETRY=1 or a\n"
        "                  telemetry figure\n"
        "  --perfetto FILE Chrome trace-event JSON of the sweep; "
        "open in\n"
        "                  ui.perfetto.dev\n"
        "  --json          machine-readable output with run "
        "manifests\n"
        "  --progress      per-job heartbeat on stderr\n"
        "  --scale S       trace scale (overrides OOVA_SCALE)\n",
        argv0, argv0, static_cast<int>(std::strlen(argv0)), "",
        static_cast<int>(std::strlen(argv0)), "",
        static_cast<int>(std::strlen(argv0)), "", argv0);
    std::fprintf(to, "figures:\n");
    for (const auto &fig : figureRegistry())
        std::fprintf(to, "  %-8s  %s\n", fig.name, fig.title);
}

int
usage(const char *argv0)
{
    printUsage(stderr, argv0);
    return 2;
}

void
list()
{
    for (const auto &fig : figureRegistry())
        std::printf("%-8s  %s\n", fig.name, fig.title);
}

/**
 * Flush stdout and report whether everything written to it arrived:
 * a full disk or a closed pipe must not pass for success.
 */
bool
stdoutWritten()
{
    if (std::fflush(stdout) == 0 && !std::ferror(stdout))
        return true;
    std::fprintf(stderr, "oova_bench: cannot write to stdout\n");
    return false;
}

/** Run one traced OOOVA simulation and write the Konata file. */
int
runPipetrace(const std::string &bench, const std::string &path,
             size_t limit, double scale)
{
    TraceCache traces(scale);
    const std::vector<std::string> &names = traces.names();
    bool known = false;
    for (const auto &name : names)
        known = known || name == bench;
    if (!known) {
        std::fprintf(stderr, "unknown benchmark '%s'; choose from:",
                     bench.c_str());
        for (const auto &name : names)
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    PipeTracer tracer(limit);
    OooConfig cfg = makeOooConfig();
    cfg.pipeTracer = &tracer;
    SimResult res = simulateOoo(traces.get(bench), cfg);
    tracer.finish();
    if (!tracer.write(path)) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "%s: traced %llu of %llu instructions over %llu "
                 "cycles -> %s (load into Konata)\n",
                 bench.c_str(),
                 static_cast<unsigned long long>(tracer.recorded()),
                 static_cast<unsigned long long>(res.instructions),
                 static_cast<unsigned long long>(res.cycles),
                 path.c_str());
    return check::processExitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string which;
    std::string pipetracePath;
    size_t traceLimit = PipeTracer::kDefaultLimit;
    bool traceLimitSet = false;
    bool threadsSet = false;
    const char *infoFlag = nullptr; // --list or --help
    FigureOptions opts;
    opts.scale = envTraceScale();

    // Every argument is parsed before any is acted on, so a bad one
    // is refused wherever it stands.
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        int r = parseCommonFlag(argc, argv, i, opts);
        if (r < 0)
            return 2;
        if (r == 1) {
            if (std::strncmp(arg, "--threads", 9) == 0)
                threadsSet = true;
            continue;
        }
        if (std::strcmp(arg, "--list") == 0 ||
            std::strcmp(arg, "--help") == 0) {
            infoFlag = arg;
        } else if (std::strncmp(arg, "--pipetrace=", 12) == 0) {
            pipetracePath = arg + 12;
            if (pipetracePath.empty()) {
                std::fprintf(stderr,
                             "--pipetrace needs a file name\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--trace-limit=", 14) == 0) {
            const char *val = arg + 14;
            char *end = nullptr;
            unsigned long long n = std::strtoull(val, &end, 10);
            if (!std::isdigit(static_cast<unsigned char>(val[0])) ||
                end == val || *end != '\0' || n == 0) {
                std::fprintf(stderr, "bad --trace-limit '%s'\n",
                             val);
                return 2;
            }
            traceLimit = static_cast<size_t>(n);
            traceLimitSet = true;
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else if (which.empty()) {
            which = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (infoFlag) {
        if (argc > 2) {
            std::fprintf(stderr, "%s takes no other argument\n",
                         infoFlag);
            return 2;
        }
        if (std::strcmp(infoFlag, "--list") == 0)
            list();
        else
            printUsage(stdout, argv[0]);
        return stdoutWritten() ? 0 : 1;
    }
    if (which.empty())
        return usage(argv[0]);
    if (!validateFigureOptions(opts))
        return 2;

    // A flag the chosen mode cannot honour is refused, never dropped:
    // the pipetrace run is one OOOVA simulation with no sweep, store
    // or result dump behind it.
    if (pipetracePath.empty() && traceLimitSet) {
        std::fprintf(stderr, "--trace-limit needs --pipetrace=FILE\n");
        return 2;
    }
    if (!pipetracePath.empty()) {
        if (threadsSet || opts.json || opts.progress ||
            !opts.storeDir.empty() || opts.storeStats ||
            opts.storeFsync || !opts.statsPath.empty() ||
            !opts.perfettoPath.empty()) {
            std::fprintf(stderr,
                         "--pipetrace runs one simulation: --threads, "
                         "--json, --progress, --store*, --stats and "
                         "--perfetto do not apply\n");
            return 2;
        }
        return runPipetrace(which, pipetracePath, traceLimit,
                            opts.scale);
    }

    std::vector<const FigureDef *> figs;
    if (which == "all") {
        for (const auto &fig : figureRegistry())
            figs.push_back(&fig);
    } else {
        const FigureDef *fig = findFigure(which);
        if (!fig) {
            std::fprintf(stderr, "unknown figure '%s'\n",
                         which.c_str());
            return usage(argv[0]);
        }
        figs.push_back(fig);
    }

    // One cache, one store and one engine shared across figures, so
    // `all` only generates each trace once and every figure feeds
    // the same store.
    TraceCache traces(opts.scale);
    std::unique_ptr<ResultStore> store;
    if (!opts.storeDir.empty()) {
        store = std::make_unique<ResultStore>(opts.storeDir);
        if (opts.storeFsync)
            store->setFsync(true);
    }
    SweepEngine engine = makeSweepEngine(traces, opts, store.get());
    if (opts.progress)
        installProgressMeter(engine);
    if (opts.json)
        engine.enableManifest();
    SweepTraceLog traceLog;
    if (!opts.perfettoPath.empty())
        engine.setTraceLog(&traceLog);
    if (!opts.statsPath.empty())
        engine.enableResultCapture();

    if (opts.json)
        std::printf("[\n");
    for (size_t i = 0; i < figs.size(); ++i) {
        // The engine's manifest accumulates across figures; this
        // figure's jobs are the records added while it ran, and its
        // store traffic is the counter movement while it ran.
        size_t firstJob = engine.manifest().size();
        StoreStats before;
        if (store)
            before = store->stats();
        auto t0 = std::chrono::steady_clock::now();
        FigureResult result = figs[i]->fn(engine);
        std::string out;
        if (opts.json) {
            RunManifest manifest;
            manifest.scale = traces.scale();
            manifest.threads = engine.threads();
            manifest.backend = engine.backendName();
            manifest.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (store) {
                manifest.hasStore = true;
                manifest.store = store->stats() - before;
            }
            manifest.jobs.assign(
                engine.manifest().begin() +
                    static_cast<std::ptrdiff_t>(firstJob),
                engine.manifest().end());
            out = renderFigureJson(*figs[i], result, traces.scale(),
                                   engine.threads(), &manifest);
        } else {
            out = renderFigureText(*figs[i], result, traces.scale());
        }
        std::fputs(out.c_str(), stdout);
        if (opts.json && i + 1 < figs.size())
            std::printf(",\n");
        if (!stdoutWritten())
            return 1;
    }
    if (opts.json) {
        std::printf("]\n");
        if (!stdoutWritten())
            return 1;
    }
    if (store && opts.storeStats)
        printStoreStats(*store);
    bool sideFilesOk = true;
    if (!opts.statsPath.empty())
        sideFilesOk = writeStatsDump(opts.statsPath,
                                     engine.captured()) &&
                      sideFilesOk;
    if (!opts.perfettoPath.empty())
        sideFilesOk = traceLog.write(opts.perfettoPath) &&
                      sideFilesOk;
    if (!sideFilesOk)
        return 1;
    // Checkers are observe-only, so a violation never perturbs the
    // figure output above — it only turns the exit code red.
    return check::processExitCode();
}
