/**
 * @file
 * Implementations of every paper table/figure as sweep declarations:
 * each declares a FigureGrid of (benchmark × config) jobs, hands it
 * to the SweepEngine as one batch, and computes its tables' cells
 * from the row-aligned results, so the output is identical no matter
 * how many worker threads execute the batch. Each figure's banner
 * comment below says what it sweeps and what the paper reports to
 * compare against.
 */

#include <numeric>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "isa/latency.hh"
#include "trace/trace_stats.hh"

namespace oova
{

namespace
{

/** One grid row per named benchmark. */
std::vector<GridRow>
programs(const std::vector<std::string> &names)
{
    std::vector<GridRow> rows;
    rows.reserve(names.size());
    for (const std::string &name : names)
        rows.push_back({name, nullptr});
    return rows;
}

/** The ten benchmarks, in the paper's order. */
std::vector<GridRow>
benchmarks(const SweepEngine &engine)
{
    return programs(engine.traces().names());
}

/** Append @p m to @p machines; returns its index in a row's results. */
size_t
declare(std::vector<GridMachine> &machines, GridMachine m)
{
    machines.push_back(std::move(m));
    return machines.size() - 1;
}

/** @p part as a percentage of @p whole, to one decimal. */
Cell
percent(uint64_t part, uint64_t whole)
{
    return fixedCell(100.0 * static_cast<double>(part) /
                         static_cast<double>(whole),
                     1);
}

/** The exact counter @p field of machine @p m. */
Column
counter(std::string header, size_t m,
        uint64_t SimResult::*field = &SimResult::cycles)
{
    return {std::move(header),
            [m, field](RowResults r) { return intCell(r[m].*field); }};
}

/**
 * Machine @p num's cycles over machine @p den's, to two decimals: a
 * speedup of @p den over @p num, or a slowdown of @p num.
 */
Column
cycleRatio(std::string header, size_t num, size_t den)
{
    return {std::move(header), [num, den](RowResults r) {
                return fixedCell(speedup(r[num], r[den]), 2);
            }};
}

/** Percentage of cycles machine @p m's memory port sat idle. */
Column
portIdle(std::string header, size_t m)
{
    return {std::move(header), [m](RowResults r) {
                return fixedCell(100.0 * r[m].portIdleFraction(), 1);
            }};
}

/** The ten benchmarks on @p machines, as one "Program" table. */
FigureResult
programTable(const SweepEngine &engine,
             const std::vector<GridMachine> &machines,
             const std::vector<Column> &columns, std::string footnote)
{
    FigureGrid grid;
    grid.add(benchmarks(engine), machines);
    grid.run(engine);
    return {{grid.table(0, "Program", columns)}, std::move(footnote)};
}

/** Appends one line's cells for one machine's result. */
using LineCells =
    std::function<void(std::vector<Cell> &, const SimResult &, size_t)>;

/**
 * The ten benchmarks on @p machines, one section per program headed
 * "--- <program> ---": a line per entry of @p lines, whose cells
 * @p cells appends for each machine's result in turn.
 */
FigureResult
perProgram(const SweepEngine &engine,
           const std::vector<GridMachine> &machines,
           const std::vector<std::string> &headers,
           const std::vector<std::string> &lines,
           const LineCells &cells, std::string footnote)
{
    FigureGrid grid;
    grid.add(benchmarks(engine), machines);
    grid.run(engine);
    FigureResult out;
    for (size_t p = 0; p < grid.rows(0).size(); ++p) {
        FigureSection sec{"--- " + grid.rows(0)[p].label + " ---",
                          headers, {}};
        for (size_t l = 0; l < lines.size(); ++l) {
            FigureRow row{lines[l], {}};
            for (const SimResult &r : grid.results(0, p))
                cells(row.cells, r, l);
            sec.rows.push_back(std::move(row));
        }
        out.sections.push_back(std::move(sec));
    }
    out.footnote = std::move(footnote);
    return out;
}

/** fig3/fig7 lines: the states, fully busy first, then the total. */
std::vector<std::string>
stateLines()
{
    std::vector<std::string> lines;
    for (int st = UnitStateBreakdown::kNumStates - 1; st >= 0; --st)
        lines.push_back(UnitStateBreakdown::stateName(st));
    lines.push_back("total cycles");
    return lines;
}

/** fig3/fig7 cells: a state's share of the cycles, or the total. */
void
stateCells(std::vector<Cell> &cells, const SimResult &r, size_t line)
{
    constexpr size_t kStates = UnitStateBreakdown::kNumStates;
    if (line == kStates)
        cells.push_back(intCell(r.cycles));
    else
        cells.push_back(
            percent(r.stateCycles[kStates - 1 - line], r.cycles));
}

// ------------------------------------------------------------- fig3
// Functional-unit usage breakdown for the reference architecture.
// Each execution cycle is classified by the 3-tuple (FU2, FU1, MEM)
// of busy units; the paper plots the time in each of the 8 states
// for memory latencies 1, 20, 70 and 100 (hydro2d and dyfesm shown
// there; we print all ten programs). The tables list states from
// fully-busy down to all-idle, then a total-cycles row.
//
// Paper: few cycles at the peak state <FU2,FU1,MEM>; the all-idle
// state < , , > grows with memory latency.

FigureResult
fig3RefStates(const SweepEngine &engine)
{
    std::vector<GridMachine> machines;
    std::vector<std::string> headers{"State"};
    for (unsigned lat : {1u, 20u, 70u, 100u}) {
        machines.push_back(GridMachine::ref(makeRefConfig(lat)));
        headers.push_back("lat" + std::to_string(lat) + " (%)");
    }
    return perProgram(engine, machines, headers, stateLines(),
                      stateCells,
                      "(paper: few cycles at peak state <FU2,FU1,MEM>; "
                      "idle state < , , > grows with latency)");
}

// ------------------------------------------------------------- fig4
// Percentage of cycles the memory port is idle on the reference
// architecture, for memory latencies of 1, 20, 70 and 100 cycles.
//
// Paper: 30-65% idle at latency 70 across the ten programs — the
// in-order machine cannot keep its single memory port busy.

FigureResult
fig4PortIdle(const SweepEngine &engine)
{
    std::vector<GridMachine> machines;
    std::vector<Column> columns;
    for (unsigned lat : {1u, 20u, 70u, 100u})
        columns.push_back(portIdle(
            "lat" + std::to_string(lat),
            declare(machines, GridMachine::ref(makeRefConfig(lat)))));
    return programTable(engine, machines, columns,
                        "(paper: 30-65% idle at latency 70; all ten "
                        "programs are memory bound)");
}

// ------------------------------------------------------------- fig5
// Speedup of the OOOVA over the reference architecture as the number
// of physical vector registers varies (9, 12, 16, 32, 64), for
// 16-deep and 128-deep instruction queues, against the IDEAL bound.
// Memory latency 50 cycles, early commit.
//
// Paper: speedups of 1.24-1.72 at 16 registers (lowest tomcatv,
// highest trfd/dyfesm); 12 registers already close; little further
// gain past 16 except bdna; deeper queues add little.

FigureResult
fig5Speedup(const SweepEngine &engine)
{
    std::vector<GridMachine> machines{
        GridMachine::ref(makeRefConfig(50))};
    std::vector<Column> columns;
    auto add = [&](std::string header, GridMachine m) {
        columns.push_back(cycleRatio(std::move(header), 0,
                                     declare(machines, std::move(m))));
    };
    for (unsigned regs : {9u, 12u, 16u, 32u, 64u})
        add(csprintf("q16/%ur", regs),
            GridMachine::ooo(makeOooConfig(regs, 16, 50)));
    for (unsigned regs : {16u, 64u})
        add(csprintf("q128/%ur", regs),
            GridMachine::ooo(makeOooConfig(regs, 128, 50)));
    add("IDEAL", GridMachine::ideal());
    return programTable(engine, machines, columns,
                        "(paper: 1.24-1.72 at 16 regs; 12 regs nearly as "
                        "good; queues 128 ~ queues 16)");
}

// ------------------------------------------------------------- fig6
// Percentage of idle memory-port cycles, REF vs OOOVA (16 physical
// vector registers, memory latency 50).
//
// Paper: "the fraction of idle memory cycles is more than cut in
// half in most cases; for all but two benchmarks the port is idle
// less than 20% of the time."

FigureResult
fig6PortIdleOoo(const SweepEngine &engine)
{
    return programTable(engine,
                        {GridMachine::ref(makeRefConfig(50)),
                         GridMachine::ooo(makeOooConfig(16, 16, 50))},
                        {portIdle("REF idle%", 0),
                         portIdle("OOOVA idle%", 1)},
                        "(paper: OOOVA cuts idle cycles by more than half "
                        "in most cases)");
}

// ------------------------------------------------------------- fig7
// Breakdown of execution cycles into the 8 (FU2, FU1, MEM) states
// for REF vs OOOVA (16 physical vector registers, latency 50).
//
// Paper: the all-idle state ( , , ) almost disappears under the
// OOOVA and the fully-utilized state becomes relatively more
// frequent.

FigureResult
fig7StatesOoo(const SweepEngine &engine)
{
    return perProgram(engine,
                      {GridMachine::ref(makeRefConfig(50)),
                       GridMachine::ooo(makeOooConfig(16, 16, 50))},
                      {"State", "REF %", "OOOVA %"}, stateLines(),
                      stateCells,
                      "(paper: the all-idle state < , , > almost "
                      "disappears on the OOOVA)");
}

// ------------------------------------------------------------- fig8
// Total execution time as main-memory latency varies over
// {1, 50, 100} cycles, for REF, OOOVA-16 and IDEAL (16 physical
// vector registers).
//
// Paper: REF is very sensitive to latency; OOOVA performance is
// nearly flat from 1 to 100 cycles (less than 6% degradation at
// 100), and OOOVA beats REF by 1.15-1.25 even at latency 1.

FigureResult
fig8Latency(const SweepEngine &engine)
{
    const unsigned lats[] = {1, 50, 100};
    std::vector<GridMachine> machines;
    std::vector<Column> columns;
    for (unsigned lat : lats)
        columns.push_back(counter(
            csprintf("REF@%u", lat),
            declare(machines, GridMachine::ref(makeRefConfig(lat)))));
    for (unsigned lat : lats)
        columns.push_back(
            counter(csprintf("OOO@%u", lat),
                    declare(machines, GridMachine::ooo(
                                          makeOooConfig(16, 16, lat)))));
    columns.push_back(
        counter("IDEAL", declare(machines, GridMachine::ideal())));
    columns.push_back(cycleRatio("OOO 100/1", 5, 3));
    columns.push_back(cycleRatio("spdup@1", 0, 3));
    return programTable(engine, machines, columns,
                        "(paper: OOOVA flat across 1..100 cycles; speedup "
                        "1.15-1.25 even at latency 1)");
}

// ------------------------------------------------------------- fig9
// Early vs late commit (precise traps, section 5): speedups over REF
// for 9..64 physical vector registers at memory latency 50.
//
// Paper: late commit costs <5% for five programs, 7%/10.3% for
// flo52/nasa7, but 41%/47% for trfd/dyfesm, whose cross-iteration
// store->load dependences serialize on stores executing only at the
// ROB head; and 12 registers are no longer enough under late commit.

FigureResult
fig9Commit(const SweepEngine &engine)
{
    std::vector<GridMachine> machines{
        GridMachine::ref(makeRefConfig(50))};
    std::vector<Column> columns;
    size_t early16 = 0, late16 = 0;
    auto add = [&](const char *prefix, unsigned regs, CommitMode mode) {
        size_t m = declare(machines, GridMachine::ooo(makeOooConfig(
                                         regs, 16, 50, mode)));
        columns.push_back(cycleRatio(csprintf("%s/%ur", prefix, regs),
                                     0, m));
        return m;
    };
    for (unsigned regs : {9u, 16u, 64u})
        if (size_t m = add("e", regs, CommitMode::Early); regs == 16)
            early16 = m;
    for (unsigned regs : {9u, 12u, 16u, 32u, 64u})
        if (size_t m = add("l", regs, CommitMode::Late); regs == 16)
            late16 = m;
    columns.push_back({"late/early@16", [=](RowResults r) {
                           return fixedCell(speedup(r[0], r[late16]) /
                                                speedup(r[0], r[early16]),
                                            2);
                       }});
    return programTable(engine, machines, columns,
                        "(paper: late commit costs <10% for eight programs "
                        "but 41%/47% for trfd/dyfesm)");
}

/**
 * fig11/fig12: the late-commit OOOVA with and without @p elim at
 * 16/32/64 registers, speedup per register count, then @p at32's
 * counters of the 32-register @p elim machine (index 3).
 */
FigureResult
loadElimSpeedup(const SweepEngine &engine, LoadElimMode elim,
                const std::vector<Column> &at32, std::string footnote)
{
    std::vector<GridMachine> machines;
    std::vector<Column> columns;
    for (unsigned regs : {16u, 32u, 64u}) {
        size_t base = declare(machines, GridMachine::ooo(makeOooConfig(
                                            regs, 16, 50, CommitMode::Late)));
        size_t with = declare(
            machines, GridMachine::ooo(makeOooConfig(
                          regs, 16, 50, CommitMode::Late, elim)));
        columns.push_back(
            cycleRatio(std::to_string(regs) + "r", base, with));
    }
    columns.insert(columns.end(), at32.begin(), at32.end());
    return programTable(engine, machines, columns, std::move(footnote));
}

// ------------------------------------------------------------ fig11
// Speedup of scalar load elimination (SLE) over the late-commit
// OOOVA, for 16/32/64 physical vector registers.
//
// Paper: most programs gain under 5%, but trfd and dyfesm reach
// 1.30/1.36 because bypassing scalar loop-carried data lets the
// machine overlap ("dynamically unroll") more iterations.

FigureResult
fig11Sle(const SweepEngine &engine)
{
    return loadElimSpeedup(
        engine, LoadElimMode::Sle,
        {counter("sElims@32", 3, &SimResult::scalarLoadsEliminated)},
        "(paper: <1.05 for most programs; 1.30/1.36 for "
        "trfd/dyfesm at 32 regs)");
}

// ------------------------------------------------------------ fig12
// Speedup of SLE+VLE (scalar + vector dynamic load elimination) over
// the late-commit OOOVA, for 16/32/64 physical vector registers.
//
// Paper: 1.04-1.16 for most programs at 16 registers (1.78 and 2.13
// for dyfesm/trfd); at 32 registers typically 1.10-1.20; 64
// registers add little except tomcatv (1.19 -> 1.40).

FigureResult
fig12SleVle(const SweepEngine &engine)
{
    return loadElimSpeedup(
        engine, LoadElimMode::SleVle,
        {counter("vElims@32", 3, &SimResult::vectorLoadsEliminated),
         counter("sElims@32", 3, &SimResult::scalarLoadsEliminated)},
        "(paper: 1.04-1.16 typical at 16 regs, up to 2.13 "
        "trfd; 1.10-1.20 at 32 regs)");
}

// ------------------------------------------------------------ fig13
// Memory-traffic reduction under dynamic load elimination with 32
// physical vector registers: the ratio of address-bus requests
// issued by the baseline late-commit OOOVA to those issued by the
// SLE and SLE+VLE configurations.
//
// Paper: SLE+VLE removes 15-20% of all memory requests for most
// programs and up to 40% for trfd/dyfesm.

FigureResult
fig13Traffic(const SweepEngine &engine)
{
    std::vector<GridMachine> machines;
    for (LoadElimMode elim :
         {LoadElimMode::None, LoadElimMode::Sle, LoadElimMode::SleVle})
        machines.push_back(GridMachine::ooo(
            makeOooConfig(32, 16, 50, CommitMode::Late, elim)));
    auto reduction = [](std::string header, size_t m) {
        return Column{std::move(header), [m](RowResults r) {
                          double kept =
                              static_cast<double>(r[m].memRequests) /
                              static_cast<double>(r[0].memRequests);
                          return fixedCell(100.0 * (1.0 - kept), 1);
                      }};
    };
    const auto reqs = &SimResult::memRequests;
    return programTable(engine, machines,
                        {counter("base reqs", 0, reqs),
                         counter("SLE reqs", 1, reqs),
                         counter("SLE+VLE reqs", 2, reqs),
                         reduction("SLE red%", 1),
                         reduction("SLE+VLE red%", 2)},
                        "(paper: 15-20% typical reduction, up to 40% for "
                        "trfd/dyfesm)");
}

// ------------------------------------------------------------- tab1
// Functional-unit latencies of the two architectures. The scanned
// paper's table is partially illegible; these are the reconstructed
// values used throughout this reproduction (src/isa/latency.hh),
// printed so every experiment's parameters are on record.

FigureResult
tab1Machine(const SweepEngine &)
{
    unsigned mem = LatencyTable{}.memLatency;

    FigureSection table{"", {"Parameter", "REF", "OOOVA"}, {}};
    auto row = [&](const char *name, unsigned a, unsigned b) {
        table.rows.push_back({name, {intCell(a), intCell(b)}});
    };
    row("read x-bar", kReadXbar, kReadXbar);
    row("write x-bar (vector)", kWriteXbarVector, kWriteXbarVector);
    row("write x-bar (scalar)", kWriteXbarScalar, kWriteXbarScalar);
    row("vector startup (*)", kRefVectorStartup, kOooVectorStartup);
    row("move", kMoveLat, kMoveLat);
    row("add/logic/shift", kAddLogicLat, kAddLogicLat);
    row("mul", kMulLat, kMulLat);
    row("div/sqrt", kDivSqrtLat, kDivSqrtLat);
    row("memory (default, swept)", mem, mem);
    row("branch mispredict", kBranchMispredict, kBranchMispredict);

    return {{std::move(table)},
            "(*) as in the paper's footnote: 0 in OOOVA, 1 in REF.",
            false};
}

/**
 * tab2/tab3: a line per benchmark whose cells @p cells computes from
 * the trace itself; nothing is simulated.
 */
FigureResult
traceTable(const SweepEngine &engine,
           std::vector<std::string> headers,
           const std::function<std::vector<Cell>(const TraceStats &)>
               &cells,
           std::string footnote)
{
    const auto &names = engine.traces().names();
    engine.prefetch(names);
    FigureSection table{"", std::move(headers), {}};
    for (const auto &name : names)
        table.rows.push_back(
            {name, cells(TraceStats::compute(engine.traces().get(name)))});
    return {{std::move(table)}, std::move(footnote)};
}

// ------------------------------------------------------------- tab2
// Basic operation counts for the ten benchmark programs —
// scalar/vector instruction counts, vector operations, percentage of
// vectorization and average vector length — regenerated from the
// synthetic traces (the paper's are from Convex C3480 runs).

FigureResult
tab2Programs(const SweepEngine &engine)
{
    return traceTable(
        engine,
        {"Program", "#Scalar", "#Vector", "#VecOps", "%Vect", "AvgVL"},
        [](const TraceStats &s) {
            return std::vector<Cell>{
                intCell(s.scalarInsts), intCell(s.vectorInsts),
                intCell(s.vectorOps), fixedCell(s.vectorization(), 1),
                fixedCell(s.avgVectorLength(), 1)};
        },
        "(paper, for reference: >=70% vectorization for "
        "all ten; swm256 99.9% / VL 127; tomcatv most "
        "scalar instructions)");
}

// ------------------------------------------------------------- tab3
// Vector memory spill operations (words moved) per program, split
// into real and spill traffic, plus the scalar spill census.
//
// Paper: bdna stands out, with over 69% of all memory traffic being
// spill traffic.

FigureResult
tab3Spills(const SweepEngine &engine)
{
    return traceTable(
        engine,
        {"Program", "VLoad", "VLoadSpill", "VStore", "VStoreSpill",
         "Spill%", "SLoadSpill", "SStoreSpill"},
        [](const TraceStats &s) {
            return std::vector<Cell>{
                intCell(s.vecLoadOps),
                intCell(s.vecSpillLoadOps),
                intCell(s.vecStoreOps),
                intCell(s.vecSpillStoreOps),
                fixedCell(100.0 * s.spillTrafficFraction(), 1),
                intCell(s.scalarSpillLoads),
                intCell(s.scalarSpillStores)};
        },
        "(paper: several programs have large spill "
        "traffic; bdna over 69% of total)");
}

// -------------------------------------------------------- ablations
// Ablation studies beyond the paper:
//   1. load->FU chaining in the OOOVA (the paper's machine inherits
//      the C3400's no-load-chaining datapath; what would adding the
//      chaining path buy?)
//   2. instruction-queue depth sweep (extends figure 5's two points)
//   3. REF with dynamic port-conflict modeling (what careless,
//      port-oblivious register allocation would cost the in-order
//      machine)
//   4. commit width sweep

FigureResult
ablAblations(const SweepEngine &engine)
{
    FigureGrid grid;

    // 1. load->FU chaining.
    OooConfig chain = makeOooConfig(16, 16, 50);
    chain.chainLoadsToFus = true;
    grid.add(benchmarks(engine),
             {GridMachine::ooo(makeOooConfig(16, 16, 50)),
              GridMachine::ooo(chain)});

    // 2. queue depth sweep.
    std::vector<GridMachine> queueMachines{
        GridMachine::ref(makeRefConfig(50))};
    std::vector<Column> queueColumns;
    for (unsigned q : {4u, 8u, 16u, 32u, 64u, 128u})
        queueColumns.push_back(cycleRatio(
            "q" + std::to_string(q), 0,
            declare(queueMachines,
                    GridMachine::ooo(makeOooConfig(16, q, 50)))));
    grid.add(programs({"swm256", "trfd", "dyfesm", "bdna"}),
             queueMachines);

    // 3. REF banked-file port conflicts.
    RefConfig ports = makeRefConfig(50);
    ports.modelPortConflicts = true;
    grid.add(programs({"swm256", "arc2d", "su2cor"}),
             {GridMachine::ref(makeRefConfig(50)),
              GridMachine::ref(ports)});

    // 4. commit width.
    std::vector<GridMachine> widthMachines;
    std::vector<Column> widthColumns;
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        OooConfig c = makeOooConfig(16, 16, 50);
        c.commitWidth = w;
        widthColumns.push_back(
            counter("w" + std::to_string(w),
                    declare(widthMachines, GridMachine::ooo(c))));
    }
    grid.add(programs({"tomcatv", "dyfesm"}), widthMachines);

    grid.run(engine);

    Column slowdown{"slowdown", [](RowResults r) {
                        double s = speedup(r[0], r[1]);
                        return fixedCell(s > 0 ? 1.0 / s : 0.0, 2);
                    }};
    FigureResult out;
    out.sections = {
        grid.table(0, "Program",
                   {counter("no-chain cyc", 0), counter("chain cyc", 1),
                    cycleRatio("chain gain", 0, 1)},
                   "-- load->FU chaining --"),
        grid.table(1, "Program", queueColumns,
                   "-- queue depth (speedup over REF) --"),
        grid.table(2, "Program",
                   {counter("compiler-sched cyc", 0),
                    counter("port-oblivious cyc", 1), slowdown},
                   "-- REF register-file port conflicts --"),
        grid.table(3, "Program", widthColumns,
                   "-- commit width (cycles) --"),
    };
    return out;
}

// ---------------------------------------------------------- membank
// Memory-hierarchy study: speedup over REF as the banked model's
// bank count grows. With one address port and a 4-cycle bank busy
// time, unit-stride programs need 4+ banks to sustain one element
// per cycle; programs with power-of-two strides (su2cor, nasa7,
// arc2d) keep colliding on a subset of the banks.

FigureResult
figMemBanks(const SweepEngine &engine)
{
    std::vector<GridMachine> machines{
        GridMachine::ref(makeRefConfig(50)),
        GridMachine::ref(makeBankedRefConfig(8, 50)),
        GridMachine::ooo(makeOooConfig(16, 16, 50))};
    std::vector<Column> columns{cycleRatio("flat", 0, 2)};
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u})
        columns.push_back(cycleRatio(
            "b" + std::to_string(banks), 0,
            declare(machines,
                    GridMachine::ooo(makeBankedOooConfig(banks, 50)))));
    // Both machines on the same 8-bank memory (machine 6): does the
    // OOOVA's advantage survive when REF also pays bank conflicts?
    columns.push_back(cycleRatio("vsREFb8", 1, 6));
    columns.push_back(counter("confl@b8", 6, &SimResult::memBankConflicts));
    columns.push_back(
        counter("confCyc@b8", 6, &SimResult::memConflictCycles));
    return programTable(engine, machines, columns,
                        "(speedup over REF/flat at latency 50, except "
                        "vsREFb8 = OOOVA/b8 over REF/b8; unit-stride "
                        "programs climb monotonically with banks and "
                        "approach the flat bus, strided programs keep "
                        "residual bank conflicts)");
}

// -------------------------------------------------------- memstride
// Stride-conflict study on the banked model: a synthetic streaming
// kernel (two strided loads, two arithmetic ops, one strided store)
// swept over element strides against an 8-bank memory. Strides
// sharing a factor with the bank count hit fewer distinct banks and
// dilate the address phase; co-prime strides behave like stride 1.

FigureResult
figMemStride(const SweepEngine &engine)
{
    const unsigned strides[] = {1, 2, 3, 4, 7, 8, 16};
    const double scale = engine.traces().scale();

    auto makeStrideTrace = [&](unsigned stride_elems) {
        Program p("stride" + std::to_string(stride_elems));
        // Big enough for the scaled trip count: scale multiplies
        // trips inside generate(), so the arrays must cover
        // trips*scale * vl * stride elements of 8 bytes per outer
        // rep or the streams would run past their arrays.
        uint64_t trips = std::max<uint64_t>(
            1, static_cast<uint64_t>(48.0 * scale + 1.0));
        uint64_t bytes = trips * 2 * 64 * stride_elems * 8 + 4096;
        int a = p.array(bytes), b = p.array(bytes), c = p.array(bytes);
        Kernel *k = p.newKernel("stream");
        VVid x = k->vload(a, stride_elems);
        VVid y = k->vload(b, stride_elems);
        VVid t1 = k->vadd(x, y);
        VVid t2 = k->vmul(t1, x);
        k->vstore(c, t2, stride_elems);
        p.addLoop(k, 48, vlConstant(64));
        p.setOuterReps(2);
        GenOptions opts;
        opts.scale = scale;
        return std::make_shared<const Trace>(p.generate(opts));
    };

    FigureGrid grid;
    // The flat bus ignores addresses entirely, so its cycle count is
    // stride-invariant: simulate it once on the stride-1 trace.
    auto t1trace = makeStrideTrace(1);
    grid.add({{"1", t1trace}},
             {GridMachine::ooo(makeOooConfig(16, 16, 50))});
    std::vector<GridRow> rows;
    for (unsigned s : strides)
        rows.push_back({std::to_string(s),
                        s == 1 ? t1trace : makeStrideTrace(s)});
    // The same 8-bank memory behind two load/store units: the
    // kernel's two load streams overlap their address phases.
    grid.add(std::move(rows),
             {GridMachine::ooo(makeBankedOooConfig(8, 50)),
              GridMachine::ooo(makeMultiUnitOooConfig(8, 2))});
    grid.run(engine);

    const SimResult &flat = grid.results(0, 0)[0];
    FigureSection table{"",
                        {"Stride", "flat cyc", "b8 cyc", "slowdown",
                         "conflicts", "confCycles", "distinct banks",
                         "b8x2 cyc", "x2 gain"},
                        {}};
    for (size_t i = 0; i < std::size(strides); ++i) {
        const SimResult &banked = grid.results(1, i)[0];
        const SimResult &dual = grid.results(1, i)[1];
        table.rows.push_back(
            {grid.rows(1)[i].label,
             {intCell(flat.cycles), intCell(banked.cycles),
              fixedCell(speedup(banked, flat), 2),
              intCell(banked.memBankConflicts),
              intCell(banked.memConflictCycles),
              intCell(8 / std::gcd(8u, strides[i])),
              intCell(dual.cycles), fixedCell(speedup(banked, dual), 2)}});
    }
    return {{std::move(table)},
            "(8 banks, 1 port, 4-cycle bank busy; stride 8 "
            "hits one bank and serializes at the bank busy "
            "time, co-prime strides 3/7 match stride 1; the "
            "x2 columns re-run the sweep with two shared "
            "memory units)"};
}

// --------------------------------------------------------- memunits
// Multi-unit scaling study: hand-built dual-stream microprograms
// (the DSL's streaming loads cannot pin two streams to disjoint
// bank sets, so these traces control base alignment exactly) run
// against 1/2/4 memory units over 8 and 16 banks. "dual-load" is
// two independent strided loads on disjoint bank sets; "ld+st" is a
// load stream plus a store of the loaded value, the case a Split
// policy is built for. Independent streams on disjoint bank sets
// overlap their address phases as soon as a second unit exists; a
// Split (dedicated load/store) policy only helps when the program
// actually mixes the two directions.

FigureResult
figMemUnits(const SweepEngine &engine)
{
    const double scale = engine.traces().scale();
    const uint64_t iters = std::max<uint64_t>(
        1, static_cast<uint64_t>(96.0 * scale + 1.0));

    // Two loads per iteration, stride 16 bytes: stream A covers the
    // even banks of an 8-bank memory, stream B (base offset by one
    // word) the odd banks, so only unit count limits their overlap.
    auto makeDualLoad = [&] {
        Trace t("dual-load");
        Addr a = 0x100000, b = 0x200008;
        for (uint64_t k = 0; k < iters; ++k) {
            t.push(makeVLoad(vReg(0), aReg(0), a, 16, 64));
            t.push(makeVLoad(vReg(1), aReg(1), b, 16, 64));
            t.push(makeVArith(Opcode::VAdd, vReg(2), vReg(0),
                              vReg(1), 64));
            a += 64 * 16;
            b += 64 * 16;
        }
        return std::make_shared<const Trace>(std::move(t));
    };

    // A load stream feeding a store stream: with a Split policy the
    // two directions run on dedicated units.
    auto makeLoadStore = [&] {
        Trace t("ld+st");
        Addr a = 0x100000, c = 0x400000;
        for (uint64_t k = 0; k < iters; ++k) {
            t.push(makeVLoad(vReg(0), aReg(0), a, 8, 64));
            t.push(makeVStore(vReg(0), aReg(1), c, 8, 64));
            a += 64 * 8;
            c += 64 * 8;
        }
        return std::make_shared<const Trace>(std::move(t));
    };

    // Four unit setups at 8 banks, then the same four at 16.
    const unsigned bankCounts[] = {8, 16};
    std::vector<GridMachine> machines;
    for (unsigned banks : bankCounts) {
        machines.push_back(
            GridMachine::ooo(makeMultiUnitOooConfig(banks, 1)));
        machines.push_back(
            GridMachine::ooo(makeMultiUnitOooConfig(banks, 2)));
        machines.push_back(GridMachine::ooo(
            makeMultiUnitOooConfig(banks, 2, LsPolicy::Split)));
        machines.push_back(
            GridMachine::ooo(makeMultiUnitOooConfig(banks, 4)));
    }
    FigureGrid grid;
    grid.add({{"dual-load", makeDualLoad()},
              {"ld+st", makeLoadStore()}},
             machines);
    grid.run(engine);

    FigureSection table{"",
                        {"Program", "banks", "x1 cyc", "x2", "x2 split",
                         "x4", "confl@x2"},
                        {}};
    for (size_t p = 0; p < grid.rows(0).size(); ++p)
        for (size_t b = 0; b < std::size(bankCounts); ++b) {
            RowResults r = grid.results(0, p).subspan(4 * b, 4);
            table.rows.push_back(
                {grid.rows(0)[p].label,
                 {intCell(bankCounts[b]), intCell(r[0].cycles),
                  fixedCell(speedup(r[0], r[1]), 2),
                  fixedCell(speedup(r[0], r[2]), 2),
                  fixedCell(speedup(r[0], r[3]), 2),
                  intCell(r[1].memBankConflicts)}});
        }
    return {{std::move(table)},
            "(speedup over the same memory with one unit; "
            "dual-load's disjoint-bank streams overlap fully "
            "at two shared units but not under a split "
            "policy, which pays off only for ld+st)"};
}

// -------------------------------------------------------- memgather
// Gather index-pattern study: the same gather loop with its index
// vector declared as a bank-friendly permutation, as congruent
// mod 8 (every element on one of 8 banks), and as uniform random,
// against an 8-bank memory. The REF machine isolates the pattern:
// in-order issue leaves the banks idle while the index vector
// loads, so gather conflicts come from the index pattern alone. With
// per-element bank mapping the three patterns separate cleanly: the
// permutation runs conflict-free, congruent-mod-8 serializes on one
// bank, and random indices sit in between.

FigureResult
figMemGather(const SweepEngine &engine)
{
    const double scale = engine.traces().scale();

    struct Pattern
    {
        const char *name;
        IndexPattern pat;
        uint32_t param;
    };
    const Pattern patterns[] = {
        {"permutation", IndexPattern::Permutation, 0},
        {"congruent-mod-8", IndexPattern::CongruentMod, 8},
        {"random", IndexPattern::Random, 0},
    };

    auto makeGatherTrace = [&](const Pattern &p) {
        Program prog(std::string("gather-") + p.name);
        int idx = prog.array(64 * 8);
        int tbl = prog.array(512 * 1024);
        Kernel *k = prog.newKernel("gather");
        // A short fixed index load: long enough to model fetching
        // the indices, short enough that its banks are long free
        // when the gather (which must wait for the full index
        // vector) issues.
        VVid iv = k->vloadFixed(idx, 0, 8);
        (void)k->vgather(tbl, iv, p.pat, p.param);
        prog.addLoop(k, 48, vlConstant(64));
        GenOptions opts;
        opts.scale = scale;
        return std::make_shared<const Trace>(prog.generate(opts));
    };

    std::vector<GridRow> rows;
    for (const Pattern &p : patterns)
        rows.push_back({p.name, makeGatherTrace(p)});
    FigureGrid grid;
    grid.add(std::move(rows),
             {GridMachine::ref(makeRefConfig(50)),
              GridMachine::ref(makeBankedRefConfig(8, 50)),
              GridMachine::ooo(makeBankedOooConfig(8, 50)),
              GridMachine::ref(makeTlbBankedRefConfig(8, 16, 4096, 50))});
    grid.run(engine);

    FigureResult out;
    out.sections.push_back(grid.table(
        0, "Pattern",
        {counter("REF flat", 0), counter("REF b8", 1),
         cycleRatio("dilation", 1, 0),
         counter("idxConfl", 1, &SimResult::memIndexedConflicts),
         counter("idxConfCyc", 1, &SimResult::memIndexedConflictCycles),
         counter("OOO b8", 2)}));

    // TLB interaction: the same three patterns against the same
    // 8-bank REF machine with a small TLB in front. Per-element
    // translation makes the index pattern decide the miss rate: the
    // permutation stays inside one page window, congruent-mod-8
    // spans a few pages, uniform-random indices thrash 16 entries.
    out.sections.push_back(grid.table(
        0, "Pattern",
        {counter("REF b8 cyc", 1), counter("+t16e4k cyc", 3),
         cycleRatio("dilation", 3, 1),
         counter("tlbMiss", 3, &SimResult::tlbMisses),
         counter("idxMiss", 3, &SimResult::tlbIndexedMisses),
         counter("missCyc", 3, &SimResult::tlbMissCycles)},
        "-- TLB interaction (16 entries, 4K pages, hardware walk) --"));

    out.footnote = "(8 banks, 4-cycle busy; a bank-friendly "
                   "permutation gathers conflict-free like stride 1, "
                   "congruent-mod-8 indices serialize on one bank "
                   "and dilate ~4x, random indices sit in between; "
                   "with a small TLB the random pattern's "
                   "per-element translation misses dominate while "
                   "the single-window permutation stays warm)";
    return out;
}

// ----------------------------------------------------------- memtlb
// Virtual-memory study: the OOOVA on the flat bus with a TLB in
// front, swept over TLB reach (entries x page size) across the ten
// benchmarks. Strided streams translate once per page crossed, so
// most programs barely feel an 8-entry TLB; nasa7's gather
// translates per element and thrashes it, and larger pages buy back
// reach without more entries. A second section compares the refill
// policies under late commit: hardware walks charged in the memory
// model vs software refills through the precise-trap path.

FigureResult
figMemTlb(const SweepEngine &engine)
{
    struct TlbPoint
    {
        const char *label;
        unsigned entries;
        unsigned pageBytes;
    };
    const TlbPoint points[] = {
        {"t8e4k", 8, 4096},
        {"t32e4k", 32, 4096},
        {"t256e4k", 256, 4096},
        {"t32e64k", 32, 64 * 1024},
    };

    std::vector<GridMachine> machines{
        GridMachine::ooo(makeOooConfig(16, 16, 50))};
    std::vector<Column> reach{counter("no-TLB cyc", 0)};
    for (const TlbPoint &pt : points)
        reach.push_back(cycleRatio(
            pt.label,
            declare(machines, GridMachine::ooo(makeTlbOooConfig(
                                  pt.entries, pt.pageBytes))),
            0));
    reach.push_back(counter("miss@t8", 1, &SimResult::tlbMisses));
    reach.push_back(counter("idxMiss@t8", 1, &SimResult::tlbIndexedMisses));
    reach.push_back(counter("missCyc@t8", 1, &SimResult::tlbMissCycles));
    // Machines 5 and 6: hardware walk vs software refill trap.
    machines.push_back(GridMachine::ooo(
        makeTlbOooConfig(8, 4096, 50, CommitMode::Late)));
    machines.push_back(GridMachine::ooo(makeTlbOooConfig(
        8, 4096, 50, CommitMode::Late, TlbRefill::SoftwareTrap)));

    FigureGrid grid;
    grid.add(benchmarks(engine), machines);
    grid.run(engine);

    FigureResult out;
    out.sections = {
        grid.table(0, "Program", reach,
                   "-- TLB reach (slowdown over no TLB, latency 50) --"),
        grid.table(0, "Program",
                   {counter("hw cyc", 5), counter("sw cyc", 6),
                    cycleRatio("sw/hw", 6, 5),
                    counter("traps@sw", 6, &SimResult::traps),
                    counter("miss@hw", 5, &SimResult::tlbMisses)},
                   "-- refill policy at t8e4k (late commit) --"),
    };
    out.footnote = "(strided streams translate once per page "
                   "crossed, so unit-stride programs stay warm even "
                   "at 8 entries; nasa7's random gather translates "
                   "per element and thrashes small TLBs; software "
                   "refill pays a full squash-and-replay trap per "
                   "missing stream)";
    return out;
}

// ----------------------------------------------------------- memlat
// Latency x banks: figure 8's latency-tolerance experiment extended
// with the memory hierarchy as a second axis. OOOVA cycles for the
// flat bus and for 4/16-bank memories at latencies 1/50/100.

FigureResult
figMemLatBanks(const SweepEngine &engine)
{
    // Per latency: flat, b4, b16; machine 3*i + k is memory k at
    // latency i.
    const unsigned lats[] = {1, 50, 100};
    std::vector<GridMachine> machines;
    for (unsigned lat : lats) {
        machines.push_back(GridMachine::ooo(makeOooConfig(16, 16, lat)));
        machines.push_back(GridMachine::ooo(makeBankedOooConfig(4, lat)));
        machines.push_back(GridMachine::ooo(makeBankedOooConfig(16, lat)));
    }
    std::vector<Column> columns;
    const char *mems[] = {"flat", "b4", "b16"};
    for (size_t k = 0; k < 3; ++k)
        for (size_t i = 0; i < 3; ++i)
            columns.push_back(
                counter(csprintf("%s@%u", mems[k], lats[i]), 3 * i + k));
    columns.push_back(cycleRatio("b16 100/1", 8, 2));
    return programTable(engine, machines, columns,
                        "(the OOOVA's latency tolerance survives a banked "
                        "hierarchy: the 100/1 ratio stays near the flat "
                        "bus's figure-8 value even with 16 banks)");
}

// --------------------------------------------------------- cpistack
// Top-down cycle accounting: every cycle of a run charged to exactly
// one bucket (the cpi-conservation checker enforces the sum). REF
// shows where the in-order machine stalls; the two OOOVA columns
// show how out-of-order issue converts those stalls into commit
// cycles, and how a tight rename pool (9 physical vector registers)
// brings rename/queue stalls back.

FigureResult
figCpiStack(const SweepEngine &engine)
{
    RefConfig refCfg = makeRefConfig(50);
    refCfg.cpiStack = true;
    OooConfig ooo16 = makeOooConfig(16, 16, 50);
    ooo16.cpiStack = true;
    OooConfig ooo9 = makeOooConfig(9, 16, 50);
    ooo9.cpiStack = true;

    std::vector<std::string> lines;
    lines.reserve(kNumCpiBuckets + 1);
    for (unsigned b = 0; b < kNumCpiBuckets; ++b)
        lines.push_back(cpiBucketName(static_cast<CpiBucket>(b)));
    lines.push_back("total cycles");
    return perProgram(
        engine,
        {GridMachine::ref(refCfg), GridMachine::ooo(ooo16),
         GridMachine::ooo(ooo9)},
        {"Bucket", "REF %", "OOOVA-16r %", "OOOVA-9r %"}, lines,
        [](std::vector<Cell> &cells, const SimResult &r, size_t line) {
            cells.push_back(line < kNumCpiBuckets
                                ? percent(r.cpiCycles[line], r.cycles)
                                : intCell(r.cycles));
        },
        "(columns sum to 100% of each machine's cycles; "
        "the cpi-conservation checker enforces the sum "
        "exactly)");
}

// -------------------------------------------------------- occupancy
// Structure-occupancy telemetry: mean and p95 occupancy of every
// sampled machine structure, REF vs two OOOVA register pools, over
// a cached + TLB memory hierarchy so the mshrs and tlb-pages rows
// are non-trivial. Sampling is observe-only — the
// occupancy-conservation checker pins every non-empty
// distribution's weight to the run's cycle count — so this figure
// is the telemetry layer's golden gate. REF models no ROB, issue
// queues or renaming, so those rows render "-" in its columns.

FigureResult
figOccupancy(const SweepEngine &engine)
{
    auto cachedTlbMem = [](MemConfig &m) {
        m.model = MemModel::Cached;
        m.tlb = makeTlb(64);
    };
    RefConfig refCfg = makeRefConfig(50);
    refCfg.telemetry = true;
    cachedTlbMem(refCfg.mem);
    OooConfig ooo16 = makeOooConfig(16, 16, 50);
    ooo16.telemetry = true;
    cachedTlbMem(ooo16.mem);
    OooConfig ooo64 = makeOooConfig(64, 16, 50);
    ooo64.telemetry = true;
    cachedTlbMem(ooo64.mem);

    std::vector<std::string> lines;
    lines.reserve(kNumOccStructs);
    for (size_t s = 0; s < kNumOccStructs; ++s)
        lines.push_back(occStructName(static_cast<OccStruct>(s)));
    return perProgram(
        engine,
        {GridMachine::ref(refCfg), GridMachine::ooo(ooo16),
         GridMachine::ooo(ooo64)},
        {"Structure", "REF mean", "REF p95", "O-16r mean", "O-16r p95",
         "O-64r mean", "O-64r p95"},
        lines,
        [](std::vector<Cell> &cells, const SimResult &r, size_t line) {
            const StatDistribution &d = r.occupancy[line];
            bool none = d.samples == 0;
            cells.push_back(none ? Cell{} : fixedCell(d.mean(), 2));
            cells.push_back(none ? Cell{} : intCell(d.p95()));
        },
        "(per-cycle occupancy over the whole run; \"-\" marks "
        "structures a machine does not model. The "
        "occupancy-conservation checker pins every distribution's "
        "sample weight to the cycle count.)");
}

} // namespace

const std::vector<FigureDef> &
figureRegistry()
{
    static const std::vector<FigureDef> registry = {
        {"tab1", "Table 1: functional unit latencies (cycles)",
         tab1Machine},
        {"tab2", "Table 2: basic operation counts", tab2Programs},
        {"tab3", "Table 3: vector memory spill operations", tab3Spills},
        {"fig3", "Figure 3: REF execution-state breakdown",
         fig3RefStates},
        {"fig4", "Figure 4: REF memory-port idle cycles", fig4PortIdle},
        {"fig5", "Figure 5: OOOVA speedup vs physical vector registers",
         fig5Speedup},
        {"fig6", "Figure 6: memory-port idle, REF vs OOOVA",
         fig6PortIdleOoo},
        {"fig7", "Figure 7: execution-state breakdown, REF vs OOOVA",
         fig7StatesOoo},
        {"fig8", "Figure 8: tolerance of main-memory latency",
         fig8Latency},
        {"fig9", "Figure 9: early vs late commit (precise traps)",
         fig9Commit},
        {"fig11", "Figure 11: SLE speedup over late-commit OOOVA",
         fig11Sle},
        {"fig12", "Figure 12: SLE+VLE speedup over late-commit OOOVA",
         fig12SleVle},
        {"fig13", "Figure 13: traffic reduction at 32 registers",
         fig13Traffic},
        {"abl", "Ablations: chaining, queue depth, ports, commit width",
         ablAblations},
        {"membank", "Memory: OOOVA speedup vs bank count", figMemBanks},
        {"memstride", "Memory: stride vs bank conflicts (8 banks)",
         figMemStride},
        {"memunits", "Memory: load/store unit scaling (units x banks)",
         figMemUnits},
        {"memgather", "Memory: gather/scatter index patterns (8 banks)",
         figMemGather},
        {"memtlb",
         "Memory: TLB reach and refill policy (entries x page size)",
         figMemTlb},
        {"memlat", "Memory: latency tolerance x bank count",
         figMemLatBanks},
        {"cpistack", "CPI stack: top-down cycle accounting, REF vs OOOVA",
         figCpiStack},
        {"occupancy",
         "Occupancy: structure-occupancy telemetry, REF vs OOOVA",
         figOccupancy},
    };
    return registry;
}

} // namespace oova
