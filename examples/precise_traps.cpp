/**
 * @file
 * Precise-exception demo (paper section 5): run a program on a
 * late-commit OOOVA whose TLB is refilled in software, so every TLB
 * miss is a trap. At each trap the machine squashes every younger
 * instruction, restores the rename maps from the reorder buffer's
 * old-mapping records, installs the missing translations and
 * re-executes from the faulting instruction, and still commits every
 * instruction exactly once — the property that makes virtual memory
 * practical on a vector machine.
 */

#include <cstdio>

#include "harness/experiment.hh"

using namespace oova;

int
main()
{
    GenOptions opts;
    opts.scale = 0.5;
    Trace trace = makeBenchmarkTrace("hydro2d", opts);
    std::printf("program: %s, %zu instructions\n", trace.name().c_str(),
                trace.size());
    std::printf("an 8-entry TLB of 4 KiB pages, late commit\n\n");

    SimResult walked =
        simulateOoo(trace, makeTlbOooConfig(8, 4096, 50, CommitMode::Late));
    SimResult trapped = simulateOoo(
        trace, makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                TlbRefill::SoftwareTrap));

    std::printf("%-18s %12s %12s %8s\n", "TLB refill", "cycles",
                "committed", "traps");
    std::printf("%-18s %12llu %12llu %8llu\n", "hardware walk",
                (unsigned long long)walked.cycles,
                (unsigned long long)walked.instructions,
                (unsigned long long)walked.traps);
    std::printf("%-18s %12llu %12llu %8llu\n", "software trap",
                (unsigned long long)trapped.cycles,
                (unsigned long long)trapped.instructions,
                (unsigned long long)trapped.traps);

    bool precise = trapped.instructions == trace.size() &&
                   trapped.traps > 0;
    std::printf("\nprecise recovery: %s (every instruction committed "
                "exactly once across %llu traps)\n",
                precise ? "YES" : "NO",
                (unsigned long long)trapped.traps);

    // The early-commit model cannot do this: it has already freed
    // the registers needed to rebuild the faulting state.
    SimResult early = simulateOoo(trace, makeOooConfig(16, 16, 50));
    SimResult late =
        simulateOoo(trace, makeOooConfig(16, 16, 50, CommitMode::Late));
    std::printf("\nthe price of precision (paper section 5): early "
                "commit %llu cycles vs late %llu (%.1f%% slower)\n",
                (unsigned long long)early.cycles,
                (unsigned long long)late.cycles,
                100.0 * ((double)late.cycles / (double)early.cycles -
                         1.0));
    return precise ? 0 : 1;
}
