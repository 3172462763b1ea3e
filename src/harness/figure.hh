/**
 * @file
 * The figure registry: every paper table/figure (and the extra
 * ablation study) is implemented as a function that declares its
 * sweep as a FigureGrid and returns its tables as numbers. One
 * renderer prints the classic text output (byte-identical to the
 * original hand-rolled bench binaries); another emits JSON so sweep
 * results are machine-readable for perf tracking across PRs.
 *
 * The oova_bench driver runs any entry by name.
 */

#ifndef OOVA_HARNESS_FIGURE_HH
#define OOVA_HARNESS_FIGURE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness/resultstore.hh"
#include "harness/sweep.hh"

namespace oova
{

/**
 * One table cell: an exact integer, a value printed with a fixed
 * number of decimals, or absent (a structure the machine does not
 * model). The figure keeps the number; only formatCell() turns it
 * into text.
 */
struct Cell
{
    enum class Kind : uint8_t
    {
        Absent,
        Int,
        Fixed
    };
    Kind kind = Kind::Absent;
    int decimals = 0;   ///< Fixed: digits after the point
    uint64_t count = 0; ///< Int: the exact value
    double value = 0.0; ///< Fixed: the unrounded value
};

inline Cell
intCell(uint64_t v)
{
    return {Cell::Kind::Int, 0, v, 0.0};
}

inline Cell
fixedCell(double v, int decimals)
{
    return {Cell::Kind::Fixed, decimals, 0, v};
}

/** "-" when absent, the integer's digits, or printf "%.*f". */
std::string formatCell(const Cell &cell);

/** One table line: a label (program, state, ...) and its cells. */
struct FigureRow
{
    std::string label;
    std::vector<Cell> cells;
};

/** One table of a figure, with an optional section heading line. */
struct FigureSection
{
    /**
     * Heading printed verbatim on its own line before the table
     * (e.g. "--- hydro2d ---"); empty for single-table figures.
     */
    std::string heading;
    /** Column headers, the label column's first. */
    std::vector<std::string> headers;
    std::vector<FigureRow> rows;
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

/** A grid row: a benchmark by name, or a synthetic trace. */
struct GridRow
{
    std::string label;
    /** Simulated instead of the benchmark named @c label when set. */
    std::shared_ptr<const Trace> trace;
};

/** A machine of a grid: the job it runs on one row. */
struct GridMachine
{
    std::function<SweepJob(const GridRow &)> job;

    static GridMachine ref(RefConfig cfg);
    static GridMachine ooo(OooConfig cfg);
    /** The IDEAL bound; benchmark rows only. */
    static GridMachine ideal();
};

/** One row's results, a SimResult per machine, in declared order. */
using RowResults = std::span<const SimResult>;

/** A table column: its header and its cell from a row's results. */
struct Column
{
    std::string header;
    std::function<Cell(RowResults)> cell;
};

/**
 * The batch behind a figure: blocks of rows x machines, every machine
 * of a block run on every row of it. run() submits all jobs as one
 * batch, block by block and row by row in declaration order, so a
 * figure's manifest lists its jobs in the order it declared them.
 */
class FigureGrid
{
  public:
    /** Declare a block; returns its index. */
    size_t add(std::vector<GridRow> rows,
               const std::vector<GridMachine> &machines);

    void run(const SweepEngine &engine);

    const std::vector<GridRow> &rows(size_t block) const;

    /** The results of row @p row of @p block (after run()). */
    RowResults results(size_t block, size_t row) const;

    /**
     * A table with a line per row of @p block: the row's label under
     * @p label_header, then each column's cell.
     */
    FigureSection table(size_t block, std::string label_header,
                        const std::vector<Column> &columns,
                        std::string heading = "") const;

  private:
    struct Block
    {
        std::vector<GridRow> rows;
        size_t machines;
        size_t first; ///< index of the block's first job
    };
    std::vector<Block> blocks_;
    std::vector<SweepJob> jobs_;
    std::vector<SimResult> results_;
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
     * store block gained "evictions" (a store size cap). v4:
     * the store block gained "quarantined" and the envelope gained
     * a "faults" recovery-counter block. v5: the "faults" block is
     * gone with the forked worker backend whose recoveries it
     * counted. v6: a job's "cached" also marks a copy of an
     * identical job the engine already ran, so it no longer counts
     * store hits (the store block does). v7: the store block lost
     * "evictions" with the size cap.
     */
    static constexpr int kSchemaVersion = 7;
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
    /** --stats FILE: gem5-style `name value` dump ("-" = stdout). */
    std::string statsPath;
    /** --perfetto FILE: Chrome trace-event JSON of the sweep. */
    std::string perfettoPath;
    /** --store-fsync: fsync entries before publishing them. */
    bool storeFsync = false;
};

/**
 * Cross-flag validation after parsing: rejects --store-stats or
 * --store-fsync without --store, each with an explanatory message
 * on stderr. Returns false on rejection.
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
 *  bytesWritten=... quarantined=... hitRate=...%". Never stdout, so
 *  figure output and goldens are unaffected.
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
 * --store DIR / --store-stats / --store-fsync / --stats FILE /
 * --perfetto FILE (value-taking flags also accept the --flag=value
 * spelling). Returns 1 if consumed
 * (advancing @p i past any value), 0 if argv[i] is not a common
 * flag, -1 on a malformed value (after printing an error to stderr).
 * Cross-flag rules are validateFigureOptions()'s job, once parsing
 * is done.
 */
int parseCommonFlag(int argc, char **argv, int &i,
                    FigureOptions &opts);

} // namespace oova

#endif // OOVA_HARNESS_FIGURE_HH
