/**
 * @file
 * The figure registry: every paper table/figure (and the extra
 * ablation study) is implemented as a function that declares its
 * sweep through the SweepEngine and returns its tables as data. One
 * renderer prints the classic text output (byte-identical to the
 * original hand-rolled bench binaries); another emits JSON so sweep
 * results are machine-readable for perf tracking across PRs.
 *
 * The oova_bench driver runs any entry by name.
 */

#ifndef OOVA_HARNESS_FIGURE_HH
#define OOVA_HARNESS_FIGURE_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"

namespace oova
{

/** One table of a figure, with an optional section heading line. */
struct FigureSection
{
    /**
     * Heading printed verbatim on its own line before the table
     * (e.g. "--- hydro2d ---"); empty for single-table figures.
     */
    std::string heading;
    TextTable table;
};

/** Everything a figure produces, ready to render. */
struct FigureResult
{
    std::vector<FigureSection> sections;
    /** Closing "(paper: ...)" comparison note; empty to omit. */
    std::string footnote;
    /** Print the "trace scale:" line under the banner. */
    bool showScale = true;
};

using FigureFn = FigureResult (*)(const SweepEngine &engine);

/** A registered figure. */
struct FigureDef
{
    const char *name;  ///< short id, e.g. "fig5"
    const char *title; ///< banner title
    FigureFn fn;
};

/** All figures, in the paper's order. */
const std::vector<FigureDef> &figureRegistry();

/** Look up a figure by short name; nullptr if unknown. */
const FigureDef *findFigure(const std::string &name);

/** Classic text rendering (banner, tables, footnote). */
std::string renderFigureText(const FigureDef &fig,
                             const FigureResult &result,
                             double scale);

/**
 * Run metadata attached to each --json figure object, so a stored
 * result is self-describing: which schema wrote it, at what trace
 * scale, on how many workers, and what each job cost in wall time.
 */
struct RunManifest
{
    /**
     * Bump when the JSON envelope's shape changes. v2: added
     * resultSchemaVersion, the backend description, the optional
     * store-stats block, and the per-job "cached" flag. v3: the
     * store block gained "evictions" (the --store-max-mb cap). v4:
     * the store block gained "quarantined" and the envelope gained
     * a "faults" recovery-counter block. v5: the "faults" block is
     * gone with the forked worker backend whose recoveries it
     * counted.
     */
    static constexpr int kSchemaVersion = 5;
    /** SimResult::kResultSchemaVersion in force when this ran. */
    int resultSchemaVersion = SimResult::kResultSchemaVersion;
    double scale = 1.0;   ///< effective OOVA_SCALE
    unsigned threads = 1; ///< sweep worker count
    /** Backend self-description, e.g. "store+in-process x4". */
    std::string backend;
    double wallMs = 0.0;  ///< wall time for the whole figure
    /** Result-store traffic for this run; valid when hasStore. */
    bool hasStore = false;
    StoreStats store;
    std::vector<JobRecord> jobs;
};

/**
 * JSON rendering, one object per figure; @p manifest (when non-null)
 * is embedded as a "manifest" metadata envelope.
 */
std::string renderFigureJson(const FigureDef &fig,
                             const FigureResult &result, double scale,
                             unsigned threads,
                             const RunManifest *manifest = nullptr);

/** The oova_bench driver's common options. */
struct FigureOptions
{
    unsigned threads = 0; ///< 0 = hardware concurrency
    bool json = false;
    bool progress = false; ///< stderr heartbeat while sweeping
    double scale = 1.0;
    /** Result-store directory (--store); empty = no store. */
    std::string storeDir;
    /** Print the [store] hit/miss line to stderr (--store-stats). */
    bool storeStats = false;
    /**
     * Store size cap in MiB (--store-max-mb); on-disk payload past
     * it evicts the oldest entries at store time. 0 = uncapped.
     */
    uint64_t storeMaxMb = 0;
    /** --stats FILE: gem5-style `name value` dump ("-" = stdout). */
    std::string statsPath;
    /** --perfetto FILE: Chrome trace-event JSON of the sweep. */
    std::string perfettoPath;
    /** --store-fsync: fsync entries before publishing them. */
    bool storeFsync = false;
};

/**
 * Cross-flag validation after parsing: rejects --store-stats,
 * --store-max-mb or --store-fsync without --store, each with an
 * explanatory message on stderr. Returns false on rejection.
 */
bool validateFigureOptions(const FigureOptions &opts);

/**
 * Build the engine the options ask for: an InProcessBackend of
 * --threads workers, wrapped in a StoreBackend when @p store is
 * non-null.
 */
SweepEngine makeSweepEngine(const TraceCache &traces,
                            const FigureOptions &opts,
                            ResultStore *store);

/**
 * One machine-parseable summary line on stderr:
 * "[store] dir=... hits=... misses=... stores=... bytesRead=...
 *  bytesWritten=... hitRate=...%". Never stdout, so figure output
 * and goldens are unaffected.
 */
void printStoreStats(const ResultStore &store);

/**
 * Install the --progress heartbeat on @p engine: a per-job stderr
 * line (jobs done / batch total, elapsed, ETA). Never writes to
 * stdout, so figure output and goldens are unaffected.
 */
void installProgressMeter(SweepEngine &engine);

/**
 * Largest accepted --threads value: far above any real machine, but
 * small enough to catch typos and strtoul negative wrap-around.
 */
constexpr unsigned kMaxSweepThreads = 4096;

/**
 * Try to consume argv[i] (and its value, if any) as one of the
 * common flags --threads N / --json / --progress / --scale S /
 * --store DIR / --store-stats / --store-max-mb N / --store-fsync /
 * --stats FILE / --perfetto FILE (value-taking flags also accept
 * the --flag=value spelling). Returns 1 if consumed
 * (advancing @p i past any value), 0 if argv[i] is not a common
 * flag, -1 on a malformed value (after printing an error to stderr).
 * Cross-flag rules are validateFigureOptions()'s job, once parsing
 * is done.
 */
int parseCommonFlag(int argc, char **argv, int &i,
                    FigureOptions &opts);

} // namespace oova

#endif // OOVA_HARNESS_FIGURE_HH
