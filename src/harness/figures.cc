/**
 * @file
 * Implementations of every paper table/figure as sweep declarations:
 * each builds a flat batch of (benchmark × config) jobs, hands it to
 * the SweepEngine, and assembles its tables from the index-aligned
 * results, so the output is identical no matter how many worker
 * threads execute the batch. Each figure's banner comment below says
 * what it sweeps and what the paper reports to compare against.
 */

#include <array>
#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/figure.hh"
#include "isa/latency.hh"
#include "trace/trace_stats.hh"

namespace oova
{

namespace
{

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
    const auto &names = engine.traces().names();
    const unsigned lats[] = {1, 20, 70, 100};

    JobSet js;
    std::vector<std::array<size_t, 4>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p)
        for (size_t i = 0; i < 4; ++i)
            idx[p][i] = js.addRef(names[p], makeRefConfig(lats[i]));
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> hdr{"State"};
        for (unsigned l : lats)
            hdr.push_back("lat" + std::to_string(l) + " (%)");
        TextTable table(hdr);
        for (int st = UnitStateBreakdown::kNumStates - 1; st >= 0;
             --st) {
            std::vector<std::string> row{
                UnitStateBreakdown::stateName(st)};
            for (size_t i = 0; i < 4; ++i) {
                const SimResult &r = js[idx[p][i]];
                double pct = 100.0 *
                             static_cast<double>(r.stateCycles[st]) /
                             static_cast<double>(r.cycles);
                row.push_back(TextTable::fmt(pct, 1));
            }
            table.addRow(row);
        }
        std::vector<std::string> tot{"total cycles"};
        for (size_t i = 0; i < 4; ++i)
            tot.push_back(TextTable::fmt(js[idx[p][i]].cycles));
        table.addRow(tot);
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote = "(paper: few cycles at peak state <FU2,FU1,MEM>; "
                   "idle state < , , > grows with latency)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned lats[] = {1, 20, 70, 100};

    JobSet js;
    std::vector<std::array<size_t, 4>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p)
        for (size_t i = 0; i < 4; ++i)
            idx[p][i] = js.addRef(names[p], makeRefConfig(lats[i]));
    js.run(engine);

    TextTable table({"Program", "lat1", "lat20", "lat70", "lat100"});
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> row{names[p]};
        for (size_t i = 0; i < 4; ++i)
            row.push_back(TextTable::fmt(
                100.0 * js[idx[p][i]].portIdleFraction(), 1));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: 30-65% idle at latency 70; all ten "
                   "programs are memory bound)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned regs[] = {9, 12, 16, 32, 64};

    struct Row
    {
        size_t ref;
        std::array<size_t, 5> q16;
        std::array<size_t, 2> q128;
        size_t ideal;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p].ref = js.addRef(names[p], makeRefConfig(50));
        for (size_t i = 0; i < 5; ++i)
            idx[p].q16[i] =
                js.addOoo(names[p], makeOooConfig(regs[i], 16, 50));
        const unsigned q128regs[] = {16, 64};
        for (size_t i = 0; i < 2; ++i)
            idx[p].q128[i] = js.addOoo(
                names[p], makeOooConfig(q128regs[i], 128, 50));
        idx[p].ideal = js.addIdeal(names[p]);
    }
    js.run(engine);

    TextTable table({"Program", "q16/9r", "q16/12r", "q16/16r",
                     "q16/32r", "q16/64r", "q128/16r", "q128/64r",
                     "IDEAL"});
    for (size_t p = 0; p < names.size(); ++p) {
        const SimResult &ref = js[idx[p].ref];
        std::vector<std::string> row{names[p]};
        for (size_t i = 0; i < 5; ++i)
            row.push_back(
                TextTable::fmt(speedup(ref, js[idx[p].q16[i]]), 2));
        for (size_t i = 0; i < 2; ++i)
            row.push_back(
                TextTable::fmt(speedup(ref, js[idx[p].q128[i]]), 2));
        double ideal = static_cast<double>(ref.cycles) /
                       static_cast<double>(js[idx[p].ideal].cycles);
        row.push_back(TextTable::fmt(ideal, 2));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: 1.24-1.72 at 16 regs; 12 regs nearly as "
                   "good; queues 128 ~ queues 16)";
    return out;
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
    const auto &names = engine.traces().names();

    JobSet js;
    std::vector<std::array<size_t, 2>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p][0] = js.addRef(names[p], makeRefConfig(50));
        idx[p][1] = js.addOoo(names[p], makeOooConfig(16, 16, 50));
    }
    js.run(engine);

    TextTable table({"Program", "REF idle%", "OOOVA idle%"});
    for (size_t p = 0; p < names.size(); ++p)
        table.addRow(
            {names[p],
             TextTable::fmt(100.0 * js[idx[p][0]].portIdleFraction(),
                            1),
             TextTable::fmt(100.0 * js[idx[p][1]].portIdleFraction(),
                            1)});

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: OOOVA cuts idle cycles by more than half "
                   "in most cases)";
    return out;
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
    const auto &names = engine.traces().names();

    JobSet js;
    std::vector<std::array<size_t, 2>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p][0] = js.addRef(names[p], makeRefConfig(50));
        idx[p][1] = js.addOoo(names[p], makeOooConfig(16, 16, 50));
    }
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        const SimResult &ref = js[idx[p][0]];
        const SimResult &ooo = js[idx[p][1]];
        TextTable table({"State", "REF %", "OOOVA %"});
        for (int st = UnitStateBreakdown::kNumStates - 1; st >= 0;
             --st) {
            table.addRow(
                {UnitStateBreakdown::stateName(st),
                 TextTable::fmt(100.0 *
                                    static_cast<double>(
                                        ref.stateCycles[st]) /
                                    static_cast<double>(ref.cycles),
                                1),
                 TextTable::fmt(100.0 *
                                    static_cast<double>(
                                        ooo.stateCycles[st]) /
                                    static_cast<double>(ooo.cycles),
                                1)});
        }
        table.addRow({"total cycles", TextTable::fmt(ref.cycles),
                      TextTable::fmt(ooo.cycles)});
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote = "(paper: the all-idle state < , , > almost "
                   "disappears on the OOOVA)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned lats[] = {1, 50, 100};

    struct Row
    {
        std::array<size_t, 3> ref;
        std::array<size_t, 3> ooo;
        size_t ideal;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        for (size_t i = 0; i < 3; ++i)
            idx[p].ref[i] = js.addRef(names[p], makeRefConfig(lats[i]));
        for (size_t i = 0; i < 3; ++i)
            idx[p].ooo[i] =
                js.addOoo(names[p], makeOooConfig(16, 16, lats[i]));
        idx[p].ideal = js.addIdeal(names[p]);
    }
    js.run(engine);

    TextTable table({"Program", "REF@1", "REF@50", "REF@100", "OOO@1",
                     "OOO@50", "OOO@100", "IDEAL", "OOO 100/1",
                     "spdup@1"});
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> row{names[p]};
        for (size_t i = 0; i < 3; ++i)
            row.push_back(TextTable::fmt(js[idx[p].ref[i]].cycles));
        for (size_t i = 0; i < 3; ++i)
            row.push_back(TextTable::fmt(js[idx[p].ooo[i]].cycles));
        row.push_back(TextTable::fmt(js[idx[p].ideal].cycles));
        Cycle ref1 = js[idx[p].ref[0]].cycles;
        Cycle ooo1 = js[idx[p].ooo[0]].cycles;
        Cycle ooo100 = js[idx[p].ooo[2]].cycles;
        row.push_back(TextTable::fmt(
            static_cast<double>(ooo100) / static_cast<double>(ooo1),
            2));
        row.push_back(TextTable::fmt(
            static_cast<double>(ref1) / static_cast<double>(ooo1),
            2));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: OOOVA flat across 1..100 cycles; speedup "
                   "1.15-1.25 even at latency 1)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned earlyRegs[] = {9, 16, 64};
    const unsigned lateRegs[] = {9, 12, 16, 32, 64};

    struct Row
    {
        size_t ref;
        std::array<size_t, 3> early;
        std::array<size_t, 5> late;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p].ref = js.addRef(names[p], makeRefConfig(50));
        for (size_t i = 0; i < 3; ++i)
            idx[p].early[i] = js.addOoo(
                names[p], makeOooConfig(earlyRegs[i], 16, 50,
                                        CommitMode::Early));
        for (size_t i = 0; i < 5; ++i)
            idx[p].late[i] = js.addOoo(
                names[p],
                makeOooConfig(lateRegs[i], 16, 50, CommitMode::Late));
    }
    js.run(engine);

    TextTable table({"Program", "e/9r", "e/16r", "e/64r", "l/9r",
                     "l/12r", "l/16r", "l/32r", "l/64r",
                     "late/early@16"});
    for (size_t p = 0; p < names.size(); ++p) {
        const SimResult &ref = js[idx[p].ref];
        std::vector<std::string> row{names[p]};
        double early16 = 0, late16 = 0;
        for (size_t i = 0; i < 3; ++i) {
            double s = speedup(ref, js[idx[p].early[i]]);
            if (earlyRegs[i] == 16)
                early16 = s;
            row.push_back(TextTable::fmt(s, 2));
        }
        for (size_t i = 0; i < 5; ++i) {
            double s = speedup(ref, js[idx[p].late[i]]);
            if (lateRegs[i] == 16)
                late16 = s;
            row.push_back(TextTable::fmt(s, 2));
        }
        row.push_back(TextTable::fmt(late16 / early16, 2));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: late commit costs <10% for eight programs "
                   "but 41%/47% for trfd/dyfesm)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned regs[] = {16, 32, 64};

    struct Row
    {
        std::array<size_t, 3> base;
        std::array<size_t, 3> sle;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        for (size_t i = 0; i < 3; ++i) {
            idx[p].base[i] = js.addOoo(
                names[p],
                makeOooConfig(regs[i], 16, 50, CommitMode::Late));
            idx[p].sle[i] = js.addOoo(
                names[p], makeOooConfig(regs[i], 16, 50,
                                        CommitMode::Late,
                                        LoadElimMode::Sle));
        }
    }
    js.run(engine);

    TextTable table({"Program", "16r", "32r", "64r", "sElims@32"});
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> row{names[p]};
        uint64_t elims = 0;
        for (size_t i = 0; i < 3; ++i) {
            const SimResult &sle = js[idx[p].sle[i]];
            if (regs[i] == 32)
                elims = sle.scalarLoadsEliminated;
            row.push_back(
                TextTable::fmt(speedup(js[idx[p].base[i]], sle), 2));
        }
        row.push_back(TextTable::fmt(elims));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: <1.05 for most programs; 1.30/1.36 for "
                   "trfd/dyfesm at 32 regs)";
    return out;
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
    const auto &names = engine.traces().names();
    const unsigned regs[] = {16, 32, 64};

    struct Row
    {
        std::array<size_t, 3> base;
        std::array<size_t, 3> vle;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        for (size_t i = 0; i < 3; ++i) {
            idx[p].base[i] = js.addOoo(
                names[p],
                makeOooConfig(regs[i], 16, 50, CommitMode::Late));
            idx[p].vle[i] = js.addOoo(
                names[p], makeOooConfig(regs[i], 16, 50,
                                        CommitMode::Late,
                                        LoadElimMode::SleVle));
        }
    }
    js.run(engine);

    TextTable table(
        {"Program", "16r", "32r", "64r", "vElims@32", "sElims@32"});
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> row{names[p]};
        uint64_t velims = 0, selims = 0;
        for (size_t i = 0; i < 3; ++i) {
            const SimResult &vle = js[idx[p].vle[i]];
            if (regs[i] == 32) {
                velims = vle.vectorLoadsEliminated;
                selims = vle.scalarLoadsEliminated;
            }
            row.push_back(
                TextTable::fmt(speedup(js[idx[p].base[i]], vle), 2));
        }
        row.push_back(TextTable::fmt(velims));
        row.push_back(TextTable::fmt(selims));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: 1.04-1.16 typical at 16 regs, up to 2.13 "
                   "trfd; 1.10-1.20 at 32 regs)";
    return out;
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
    const auto &names = engine.traces().names();

    JobSet js;
    std::vector<std::array<size_t, 3>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p][0] = js.addOoo(
            names[p], makeOooConfig(32, 16, 50, CommitMode::Late));
        idx[p][1] = js.addOoo(
            names[p], makeOooConfig(32, 16, 50, CommitMode::Late,
                                    LoadElimMode::Sle));
        idx[p][2] = js.addOoo(
            names[p], makeOooConfig(32, 16, 50, CommitMode::Late,
                                    LoadElimMode::SleVle));
    }
    js.run(engine);

    TextTable table({"Program", "base reqs", "SLE reqs",
                     "SLE+VLE reqs", "SLE red%", "SLE+VLE red%"});
    for (size_t p = 0; p < names.size(); ++p) {
        const SimResult &base = js[idx[p][0]];
        const SimResult &sle = js[idx[p][1]];
        const SimResult &vle = js[idx[p][2]];
        auto reduction = [&](const SimResult &x) {
            return 100.0 * (1.0 - static_cast<double>(x.memRequests) /
                                      static_cast<double>(
                                          base.memRequests));
        };
        table.addRow({names[p], TextTable::fmt(base.memRequests),
                      TextTable::fmt(sle.memRequests),
                      TextTable::fmt(vle.memRequests),
                      TextTable::fmt(reduction(sle), 1),
                      TextTable::fmt(reduction(vle), 1)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: 15-20% typical reduction, up to 40% for "
                   "trfd/dyfesm)";
    return out;
}

// ------------------------------------------------------------- tab1
// Functional-unit latencies of the two architectures. The scanned
// paper's table is partially illegible; these are the reconstructed
// values used throughout this reproduction (see DESIGN.md section
// 2), printed so every experiment's parameters are on record.

FigureResult
tab1Machine(const SweepEngine &)
{
    LatencyTable ref = LatencyTable::refDefaults();
    LatencyTable ooo = LatencyTable::oooDefaults();

    TextTable table({"Parameter", "REF", "OOOVA"});
    auto row = [&](const char *name, unsigned a, unsigned b) {
        table.addRow({name, TextTable::fmt(uint64_t(a)),
                      TextTable::fmt(uint64_t(b))});
    };
    row("read x-bar", ref.readXbar, ooo.readXbar);
    row("write x-bar (vector)", ref.writeXbarVector,
        ooo.writeXbarVector);
    row("write x-bar (scalar)", ref.writeXbarScalar,
        ooo.writeXbarScalar);
    row("vector startup (*)", ref.vectorStartup, ooo.vectorStartup);
    row("move", ref.moveLat, ooo.moveLat);
    row("add/logic/shift", ref.addLogic, ooo.addLogic);
    row("mul", ref.mul, ooo.mul);
    row("div/sqrt", ref.divSqrt, ooo.divSqrt);
    row("memory (default, swept)", ref.memLatency, ooo.memLatency);
    row("branch mispredict", ref.branchMispredict,
        ooo.branchMispredict);

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(*) as in the paper's footnote: 0 in OOOVA, 1 in "
                   "REF.";
    out.showScale = false;
    return out;
}

// ------------------------------------------------------------- tab2
// Basic operation counts for the ten benchmark programs —
// scalar/vector instruction counts, vector operations, percentage of
// vectorization and average vector length — regenerated from the
// synthetic traces (the paper's are from Convex C3480 runs).

FigureResult
tab2Programs(const SweepEngine &engine)
{
    const auto &names = engine.traces().names();
    engine.prefetch(names);

    TextTable table({"Program", "#Scalar", "#Vector", "#VecOps",
                     "%Vect", "AvgVL"});
    for (const auto &name : names) {
        TraceStats s = TraceStats::compute(engine.traces().get(name));
        table.addRow({name, TextTable::fmt(s.scalarInsts),
                      TextTable::fmt(s.vectorInsts),
                      TextTable::fmt(s.vectorOps),
                      TextTable::fmt(s.vectorization(), 1),
                      TextTable::fmt(s.avgVectorLength(), 1)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper, for reference: >=70% vectorization for "
                   "all ten; swm256 99.9% / VL 127; tomcatv most "
                   "scalar instructions)";
    return out;
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
    const auto &names = engine.traces().names();
    engine.prefetch(names);

    TextTable table({"Program", "VLoad", "VLoadSpill", "VStore",
                     "VStoreSpill", "Spill%", "SLoadSpill",
                     "SStoreSpill"});
    for (const auto &name : names) {
        TraceStats s = TraceStats::compute(engine.traces().get(name));
        table.addRow(
            {name, TextTable::fmt(s.vecLoadOps),
             TextTable::fmt(s.vecSpillLoadOps),
             TextTable::fmt(s.vecStoreOps),
             TextTable::fmt(s.vecSpillStoreOps),
             TextTable::fmt(100.0 * s.spillTrafficFraction(), 1),
             TextTable::fmt(s.scalarSpillLoads),
             TextTable::fmt(s.scalarSpillStores)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(paper: several programs have large spill "
                   "traffic; bdna over 69% of total)";
    return out;
}

// -------------------------------------------------------- ablations
// Ablation studies beyond the paper (DESIGN.md section 8):
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
    const auto &names = engine.traces().names();
    const std::vector<std::string> queueProgs = {"swm256", "trfd",
                                                 "dyfesm", "bdna"};
    const std::vector<std::string> portProgs = {"swm256", "arc2d",
                                                "su2cor"};
    const std::vector<std::string> widthProgs = {"tomcatv", "dyfesm"};
    const unsigned queues[] = {4, 8, 16, 32, 64, 128};
    const unsigned widths[] = {1, 2, 4, 8};

    JobSet js;

    // 1. load->FU chaining.
    std::vector<std::array<size_t, 2>> chainIdx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        OooConfig base = makeOooConfig(16, 16, 50);
        OooConfig chain = base;
        chain.chainLoadsToFus = true;
        chainIdx[p][0] = js.addOoo(names[p], base);
        chainIdx[p][1] = js.addOoo(names[p], chain);
    }

    // 2. queue depth sweep.
    struct QueueRow
    {
        size_t ref;
        std::array<size_t, 6> ooo;
    };
    std::vector<QueueRow> queueIdx(queueProgs.size());
    for (size_t p = 0; p < queueProgs.size(); ++p) {
        queueIdx[p].ref = js.addRef(queueProgs[p], makeRefConfig(50));
        for (size_t i = 0; i < 6; ++i)
            queueIdx[p].ooo[i] = js.addOoo(
                queueProgs[p], makeOooConfig(16, queues[i], 50));
    }

    // 3. REF banked-file port conflicts.
    std::vector<std::array<size_t, 2>> portIdx(portProgs.size());
    for (size_t p = 0; p < portProgs.size(); ++p) {
        RefConfig off = makeRefConfig(50);
        RefConfig on = makeRefConfig(50);
        on.modelPortConflicts = true;
        portIdx[p][0] = js.addRef(portProgs[p], off);
        portIdx[p][1] = js.addRef(portProgs[p], on);
    }

    // 4. commit width.
    std::vector<std::array<size_t, 4>> widthIdx(widthProgs.size());
    for (size_t p = 0; p < widthProgs.size(); ++p)
        for (size_t i = 0; i < 4; ++i) {
            OooConfig c = makeOooConfig(16, 16, 50);
            c.commitWidth = widths[i];
            widthIdx[p][i] = js.addOoo(widthProgs[p], c);
        }

    js.run(engine);

    FigureResult out;
    {
        TextTable t({"Program", "no-chain cyc", "chain cyc",
                     "chain gain"});
        for (size_t p = 0; p < names.size(); ++p) {
            const SimResult &a = js[chainIdx[p][0]];
            const SimResult &b = js[chainIdx[p][1]];
            t.addRow({names[p], TextTable::fmt(a.cycles),
                      TextTable::fmt(b.cycles),
                      TextTable::fmt(speedup(a, b), 2)});
        }
        out.sections.push_back(
            {"-- load->FU chaining --", std::move(t)});
    }
    {
        TextTable t({"Program", "q4", "q8", "q16", "q32", "q64",
                     "q128"});
        for (size_t p = 0; p < queueProgs.size(); ++p) {
            const SimResult &ref = js[queueIdx[p].ref];
            std::vector<std::string> row{queueProgs[p]};
            for (size_t i = 0; i < 6; ++i)
                row.push_back(TextTable::fmt(
                    speedup(ref, js[queueIdx[p].ooo[i]]), 2));
            t.addRow(row);
        }
        out.sections.push_back(
            {"-- queue depth (speedup over REF) --", std::move(t)});
    }
    {
        TextTable t({"Program", "compiler-sched cyc",
                     "port-oblivious cyc", "slowdown"});
        for (size_t p = 0; p < portProgs.size(); ++p) {
            const SimResult &a = js[portIdx[p][0]];
            const SimResult &b = js[portIdx[p][1]];
            t.addRow({portProgs[p], TextTable::fmt(a.cycles),
                      TextTable::fmt(b.cycles),
                      TextTable::fmt(speedup(a, b) > 0
                                         ? 1.0 / speedup(a, b)
                                         : 0.0,
                                     2)});
        }
        out.sections.push_back(
            {"-- REF register-file port conflicts --", std::move(t)});
    }
    {
        TextTable t({"Program", "w1", "w2", "w4", "w8"});
        for (size_t p = 0; p < widthProgs.size(); ++p) {
            std::vector<std::string> row{widthProgs[p]};
            for (size_t i = 0; i < 4; ++i)
                row.push_back(
                    TextTable::fmt(js[widthIdx[p][i]].cycles));
            t.addRow(row);
        }
        out.sections.push_back(
            {"-- commit width (cycles) --", std::move(t)});
    }
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
    const auto &names = engine.traces().names();
    const unsigned bankCounts[] = {1, 2, 4, 8, 16};

    struct Row
    {
        size_t ref;
        size_t refB8;
        size_t flat;
        std::array<size_t, 5> banked;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p].ref = js.addRef(names[p], makeRefConfig(50));
        idx[p].refB8 = js.addRef(names[p], makeBankedRefConfig(8, 50));
        idx[p].flat = js.addOoo(names[p], makeOooConfig(16, 16, 50));
        for (size_t i = 0; i < 5; ++i)
            idx[p].banked[i] = js.addOoo(
                names[p], makeBankedOooConfig(bankCounts[i], 50));
    }
    js.run(engine);

    TextTable table({"Program", "flat", "b1", "b2", "b4", "b8", "b16",
                     "vsREFb8", "confl@b8", "confCyc@b8"});
    for (size_t p = 0; p < names.size(); ++p) {
        const SimResult &ref = js[idx[p].ref];
        std::vector<std::string> row{names[p]};
        row.push_back(TextTable::fmt(speedup(ref, js[idx[p].flat]), 2));
        for (size_t i = 0; i < 5; ++i)
            row.push_back(
                TextTable::fmt(speedup(ref, js[idx[p].banked[i]]), 2));
        const SimResult &b8 = js[idx[p].banked[3]];
        // Both machines on the same 8-bank memory: does the OOOVA's
        // advantage survive when REF also pays bank conflicts?
        row.push_back(
            TextTable::fmt(speedup(js[idx[p].refB8], b8), 2));
        row.push_back(TextTable::fmt(b8.memBankConflicts));
        row.push_back(TextTable::fmt(b8.memConflictCycles));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(speedup over REF/flat at latency 50, except "
                   "vsREFb8 = OOOVA/b8 over REF/b8; unit-stride "
                   "programs climb monotonically with banks and "
                   "approach the flat bus, strided programs keep "
                   "residual bank conflicts)";
    return out;
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

    JobSet js;
    // The flat bus ignores addresses entirely, so its cycle count is
    // stride-invariant: simulate it once on the stride-1 trace.
    auto t1trace = makeStrideTrace(1);
    size_t flatIdx = js.addOooTrace(t1trace, makeOooConfig(16, 16, 50));
    std::array<size_t, 7> bankedIdx;
    std::array<size_t, 7> dualIdx;
    for (size_t i = 0; i < 7; ++i) {
        auto t = strides[i] == 1 ? t1trace : makeStrideTrace(strides[i]);
        bankedIdx[i] = js.addOooTrace(t, makeBankedOooConfig(8, 50));
        // The same 8-bank memory behind two load/store units: the
        // kernel's two load streams overlap their address phases.
        dualIdx[i] = js.addOooTrace(t, makeMultiUnitOooConfig(8, 2));
    }
    js.run(engine);

    const SimResult &flat = js[flatIdx];
    TextTable table({"Stride", "flat cyc", "b8 cyc", "slowdown",
                     "conflicts", "confCycles", "distinct banks",
                     "b8x2 cyc", "x2 gain"});
    for (size_t i = 0; i < 7; ++i) {
        unsigned s = strides[i];
        const SimResult &banked = js[bankedIdx[i]];
        const SimResult &dual = js[dualIdx[i]];
        unsigned distinct = 8 / std::gcd(8u, s);
        table.addRow(
            {std::to_string(s), TextTable::fmt(flat.cycles),
             TextTable::fmt(banked.cycles),
             TextTable::fmt(static_cast<double>(banked.cycles) /
                                static_cast<double>(flat.cycles),
                            2),
             TextTable::fmt(banked.memBankConflicts),
             TextTable::fmt(banked.memConflictCycles),
             TextTable::fmt(uint64_t(distinct)),
             TextTable::fmt(dual.cycles),
             TextTable::fmt(speedup(banked, dual), 2)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(8 banks, 1 port, 4-cycle bank busy; stride 8 "
                   "hits one bank and serializes at the bank busy "
                   "time, co-prime strides 3/7 match stride 1; the "
                   "x2 columns re-run the sweep with two shared "
                   "memory units)";
    return out;
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

    const unsigned bankCounts[] = {8, 16};
    struct Row
    {
        const char *program;
        unsigned banks;
        size_t x1, x2, x2s, x4;
    };
    JobSet js;
    std::vector<Row> rows;
    auto addProgram = [&](const char *name, auto make) {
        auto trace = make();
        for (unsigned banks : bankCounts) {
            Row r;
            r.program = name;
            r.banks = banks;
            r.x1 = js.addOooTrace(trace,
                                  makeMultiUnitOooConfig(banks, 1));
            r.x2 = js.addOooTrace(trace,
                                  makeMultiUnitOooConfig(banks, 2));
            r.x2s = js.addOooTrace(
                trace,
                makeMultiUnitOooConfig(banks, 2, LsPolicy::Split));
            r.x4 = js.addOooTrace(trace,
                                  makeMultiUnitOooConfig(banks, 4));
            rows.push_back(r);
        }
    };
    addProgram("dual-load", makeDualLoad);
    addProgram("ld+st", makeLoadStore);
    js.run(engine);

    TextTable table({"Program", "banks", "x1 cyc", "x2", "x2 split",
                     "x4", "confl@x2"});
    for (const Row &r : rows) {
        const SimResult &base = js[r.x1];
        table.addRow({r.program, std::to_string(r.banks),
                      TextTable::fmt(base.cycles),
                      TextTable::fmt(speedup(base, js[r.x2]), 2),
                      TextTable::fmt(speedup(base, js[r.x2s]), 2),
                      TextTable::fmt(speedup(base, js[r.x4]), 2),
                      TextTable::fmt(js[r.x2].memBankConflicts)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(speedup over the same memory with one unit; "
                   "dual-load's disjoint-bank streams overlap fully "
                   "at two shared units but not under a split "
                   "policy, which pays off only for ld+st)";
    return out;
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
    const std::vector<Pattern> patterns = {
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

    struct Row
    {
        size_t refFlat, refB8, oooB8, refTlb;
    };
    JobSet js;
    std::vector<Row> idx(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
        auto t = makeGatherTrace(patterns[i]);
        idx[i].refFlat = js.addRefTrace(t, makeRefConfig(50));
        idx[i].refB8 = js.addRefTrace(t, makeBankedRefConfig(8, 50));
        idx[i].oooB8 = js.addOooTrace(t, makeBankedOooConfig(8, 50));
        idx[i].refTlb = js.addRefTrace(
            t, makeTlbBankedRefConfig(8, 16, 4096, 50));
    }
    js.run(engine);

    TextTable table({"Pattern", "REF flat", "REF b8", "dilation",
                     "idxConfl", "idxConfCyc", "OOO b8"});
    for (size_t i = 0; i < patterns.size(); ++i) {
        const SimResult &flat = js[idx[i].refFlat];
        const SimResult &b8 = js[idx[i].refB8];
        table.addRow(
            {patterns[i].name, TextTable::fmt(flat.cycles),
             TextTable::fmt(b8.cycles),
             TextTable::fmt(static_cast<double>(b8.cycles) /
                                static_cast<double>(flat.cycles),
                            2),
             TextTable::fmt(b8.memIndexedConflicts),
             TextTable::fmt(b8.memIndexedConflictCycles),
             TextTable::fmt(js[idx[i].oooB8].cycles)});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});

    // TLB interaction: the same three patterns against the same
    // 8-bank REF machine with a small TLB in front. Per-element
    // translation makes the index pattern decide the miss rate: the
    // permutation stays inside one page window, congruent-mod-8
    // spans a few pages, uniform-random indices thrash 16 entries.
    TextTable tlbTable({"Pattern", "REF b8 cyc", "+t16e4k cyc",
                        "dilation", "tlbMiss", "idxMiss",
                        "missCyc"});
    for (size_t i = 0; i < patterns.size(); ++i) {
        const SimResult &b8 = js[idx[i].refB8];
        const SimResult &tlb = js[idx[i].refTlb];
        tlbTable.addRow(
            {patterns[i].name, TextTable::fmt(b8.cycles),
             TextTable::fmt(tlb.cycles),
             TextTable::fmt(static_cast<double>(tlb.cycles) /
                                static_cast<double>(b8.cycles),
                            2),
             TextTable::fmt(tlb.tlbMisses),
             TextTable::fmt(tlb.tlbIndexedMisses),
             TextTable::fmt(tlb.tlbMissCycles)});
    }
    out.sections.push_back({"-- TLB interaction (16 entries, 4K "
                            "pages, hardware walk) --",
                            std::move(tlbTable)});

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
    const auto &names = engine.traces().names();

    struct TlbPoint
    {
        const char *label;
        unsigned entries;
        unsigned pageBytes;
    };
    const std::vector<TlbPoint> points = {
        {"t8e4k", 8, 4096},
        {"t32e4k", 32, 4096},
        {"t256e4k", 256, 4096},
        {"t32e64k", 32, 64 * 1024},
    };

    struct Row
    {
        size_t base;
        std::vector<size_t> tlb;
        size_t hw, sw;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p].base = js.addOoo(names[p], makeOooConfig(16, 16, 50));
        for (const TlbPoint &pt : points)
            idx[p].tlb.push_back(js.addOoo(
                names[p],
                makeTlbOooConfig(pt.entries, pt.pageBytes)));
        idx[p].hw = js.addOoo(
            names[p],
            makeTlbOooConfig(8, 4096, 50, CommitMode::Late));
        idx[p].sw = js.addOoo(
            names[p], makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                       TlbRefill::SoftwareTrap));
    }
    js.run(engine);

    FigureResult out;
    {
        TextTable t({"Program", "no-TLB cyc", "t8e4k", "t32e4k",
                     "t256e4k", "t32e64k", "miss@t8", "idxMiss@t8",
                     "missCyc@t8"});
        for (size_t p = 0; p < names.size(); ++p) {
            const SimResult &base = js[idx[p].base];
            std::vector<std::string> row{names[p],
                                         TextTable::fmt(base.cycles)};
            for (size_t i = 0; i < points.size(); ++i)
                row.push_back(TextTable::fmt(
                    static_cast<double>(js[idx[p].tlb[i]].cycles) /
                        static_cast<double>(base.cycles),
                    2));
            const SimResult &t8 = js[idx[p].tlb[0]];
            row.push_back(TextTable::fmt(t8.tlbMisses));
            row.push_back(TextTable::fmt(t8.tlbIndexedMisses));
            row.push_back(TextTable::fmt(t8.tlbMissCycles));
            t.addRow(row);
        }
        out.sections.push_back(
            {"-- TLB reach (slowdown over no TLB, latency 50) --",
             std::move(t)});
    }
    {
        TextTable t({"Program", "hw cyc", "sw cyc", "sw/hw",
                     "traps@sw", "miss@hw"});
        for (size_t p = 0; p < names.size(); ++p) {
            const SimResult &hw = js[idx[p].hw];
            const SimResult &sw = js[idx[p].sw];
            t.addRow({names[p], TextTable::fmt(hw.cycles),
                      TextTable::fmt(sw.cycles),
                      TextTable::fmt(static_cast<double>(sw.cycles) /
                                         static_cast<double>(
                                             hw.cycles),
                                     2),
                      TextTable::fmt(sw.traps),
                      TextTable::fmt(hw.tlbMisses)});
        }
        out.sections.push_back(
            {"-- refill policy at t8e4k (late commit) --",
             std::move(t)});
    }
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
    const auto &names = engine.traces().names();
    const unsigned lats[] = {1, 50, 100};

    struct Row
    {
        std::array<size_t, 3> flat;
        std::array<size_t, 3> b4;
        std::array<size_t, 3> b16;
    };
    JobSet js;
    std::vector<Row> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        for (size_t i = 0; i < 3; ++i) {
            idx[p].flat[i] =
                js.addOoo(names[p], makeOooConfig(16, 16, lats[i]));
            idx[p].b4[i] = js.addOoo(
                names[p], makeBankedOooConfig(4, lats[i]));
            idx[p].b16[i] = js.addOoo(
                names[p], makeBankedOooConfig(16, lats[i]));
        }
    }
    js.run(engine);

    TextTable table({"Program", "flat@1", "flat@50", "flat@100",
                     "b4@1", "b4@50", "b4@100", "b16@1", "b16@50",
                     "b16@100", "b16 100/1"});
    for (size_t p = 0; p < names.size(); ++p) {
        std::vector<std::string> row{names[p]};
        for (size_t i = 0; i < 3; ++i)
            row.push_back(TextTable::fmt(js[idx[p].flat[i]].cycles));
        for (size_t i = 0; i < 3; ++i)
            row.push_back(TextTable::fmt(js[idx[p].b4[i]].cycles));
        for (size_t i = 0; i < 3; ++i)
            row.push_back(TextTable::fmt(js[idx[p].b16[i]].cycles));
        row.push_back(TextTable::fmt(
            static_cast<double>(js[idx[p].b16[2]].cycles) /
                static_cast<double>(js[idx[p].b16[0]].cycles),
            2));
        table.addRow(row);
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(the OOOVA's latency tolerance survives a banked "
                   "hierarchy: the 100/1 ratio stays near the flat "
                   "bus's figure-8 value even with 16 banks)";
    return out;
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
    const auto &names = engine.traces().names();

    RefConfig refCfg = makeRefConfig(50);
    refCfg.cpiStack = true;
    OooConfig ooo16 = makeOooConfig(16, 16, 50);
    ooo16.cpiStack = true;
    OooConfig ooo9 = makeOooConfig(9, 16, 50);
    ooo9.cpiStack = true;

    JobSet js;
    std::vector<std::array<size_t, 3>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p][0] = js.addRef(names[p], refCfg);
        idx[p][1] = js.addOoo(names[p], ooo16);
        idx[p][2] = js.addOoo(names[p], ooo9);
    }
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        TextTable table(
            {"Bucket", "REF %", "OOOVA-16r %", "OOOVA-9r %"});
        for (unsigned b = 0; b < kNumCpiBuckets; ++b) {
            std::vector<std::string> row = {
                cpiBucketName(static_cast<CpiBucket>(b))};
            for (size_t m = 0; m < 3; ++m) {
                const SimResult &r = js[idx[p][m]];
                row.push_back(TextTable::fmt(
                    100.0 *
                        static_cast<double>(r.cpiCycles[b]) /
                        static_cast<double>(r.cycles),
                    1));
            }
            table.addRow(row);
        }
        table.addRow({"total cycles",
                      TextTable::fmt(js[idx[p][0]].cycles),
                      TextTable::fmt(js[idx[p][1]].cycles),
                      TextTable::fmt(js[idx[p][2]].cycles)});
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote = "(columns sum to 100% of each machine's cycles; "
                   "the cpi-conservation checker enforces the sum "
                   "exactly)";
    return out;
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
    const auto &names = engine.traces().names();

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

    JobSet js;
    std::vector<std::array<size_t, 3>> idx(names.size());
    for (size_t p = 0; p < names.size(); ++p) {
        idx[p][0] = js.addRef(names[p], refCfg);
        idx[p][1] = js.addOoo(names[p], ooo16);
        idx[p][2] = js.addOoo(names[p], ooo64);
    }
    js.run(engine);

    FigureResult out;
    for (size_t p = 0; p < names.size(); ++p) {
        TextTable table({"Structure", "REF mean", "REF p95",
                         "O-16r mean", "O-16r p95", "O-64r mean",
                         "O-64r p95"});
        for (size_t s = 0; s < kNumOccStructs; ++s) {
            std::vector<std::string> row = {
                occStructName(static_cast<OccStruct>(s))};
            for (size_t m = 0; m < 3; ++m) {
                const StatDistribution &d =
                    js[idx[p][m]].occupancy[s];
                if (d.samples == 0) {
                    row.push_back("-");
                    row.push_back("-");
                } else {
                    row.push_back(TextTable::fmt(d.mean(), 2));
                    row.push_back(TextTable::fmt(d.p95()));
                }
            }
            table.addRow(row);
        }
        out.sections.push_back(
            {"--- " + names[p] + " ---", std::move(table)});
    }
    out.footnote =
        "(per-cycle occupancy over the whole run; \"-\" marks "
        "structures a machine does not model. The "
        "occupancy-conservation checker pins every distribution's "
        "sample weight to the cycle count.)";
    return out;
}

// --------------------------------------------------------- simspeed
// Sweep-engine throughput: how many simulated instructions per
// second the full pool sustains for each machine model. The
// google-benchmark binary (bench/simspeed.cc) measures single-sim
// throughput; this entry measures the batch path the figures use,
// so --json runs can track sweep performance across PRs.

FigureResult
simspeedThroughput(const SweepEngine &engine)
{
    const auto &names = engine.traces().names();
    engine.prefetch(names);

    struct Model
    {
        const char *label;
        std::function<SweepJob(const std::string &)> make;
    };
    const std::vector<Model> models = {
        {"REF",
         [](const std::string &n) { return refJob(n, RefConfig{}); }},
        {"OOOVA-16",
         [](const std::string &n) {
             return oooJob(n, makeOooConfig(16, 16, 50));
         }},
        {"OOOVA-32 late SLE+VLE",
         [](const std::string &n) {
             return oooJob(n, makeOooConfig(32, 16, 50,
                                            CommitMode::Late,
                                            LoadElimMode::SleVle));
         }},
    };

    // The raw integer "instr/s" column is the stable machine-readable
    // field scripts/bench_speed.sh records into BENCH_simspeed.json;
    // the formatted columns are for humans.
    TextTable table({"Model", "jobs", "Minstr", "wall ms",
                     "Minstr/s", "instr/s"});
    for (const auto &m : models) {
        std::vector<SweepJob> jobs;
        for (const auto &n : names)
            jobs.push_back(m.make(n));
        auto t0 = std::chrono::steady_clock::now();
        std::vector<SimResult> res = engine.run(jobs);
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        uint64_t instrs = 0;
        for (const auto &r : res)
            instrs += r.instructions;
        double minstr = static_cast<double>(instrs) / 1e6;
        double per_s =
            ms > 0.0 ? static_cast<double>(instrs) / (ms / 1e3) : 0.0;
        table.addRow({m.label, TextTable::fmt(uint64_t(jobs.size())),
                      TextTable::fmt(minstr, 2),
                      TextTable::fmt(ms, 1),
                      TextTable::fmt(minstr / (ms / 1e3), 2),
                      TextTable::fmt(static_cast<uint64_t>(per_s))});
    }

    FigureResult out;
    out.sections.push_back({"", std::move(table)});
    out.footnote = "(timing, not simulation output: varies run to "
                   "run and with --threads)";
    return out;
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
        {"simspeed", "Sweep-engine throughput", simspeedThroughput},
    };
    return registry;
}

} // namespace oova
