/**
 * @file
 * The ten synthetic benchmark programs.
 *
 * The paper traces 10 highly vectorizable Perfect Club / SPECfp92
 * programs on a Convex C3480. We cannot obtain those traces, so each
 * program here is a synthetic model that reproduces the trace-level
 * characteristics the paper documents for it (Table 2 statistics,
 * spill behaviour, loop structure, cross-iteration dependences).
 * The comment above each generator in benchmarks.cc gives its
 * program's inventory.
 */

#ifndef OOVA_TGEN_BENCHMARKS_HH
#define OOVA_TGEN_BENCHMARKS_HH

#include <memory>
#include <string>
#include <vector>

#include "tgen/program.hh"

namespace oova
{

/** Names of the ten benchmark programs, in the paper's order. */
const std::vector<std::string> &benchmarkNames();

/** Construct the synthetic program model for @p name. */
std::unique_ptr<Program> makeBenchmarkProgram(const std::string &name);

/** Convenience: build the program and generate its trace. */
Trace makeBenchmarkTrace(const std::string &name,
                         const GenOptions &opts = {});

} // namespace oova

#endif // OOVA_TGEN_BENCHMARKS_HH
