/**
 * @file
 * gem5-style statistics dump for sweep results (--stats FILE).
 *
 * One Begin/End block per simulation result, each line a
 * `name value` pair with the name left-justified in a fixed-width
 * column — the classic stats.txt grammar, so existing gem5 tooling
 * (grep pipelines, stat-diff scripts) works unchanged:
 *
 *   ---------- Begin Simulation Statistics ----------
 *   hydro2d.OOOVA-16r.cycles                              123456
 *   hydro2d.OOOVA-16r.occupancy.rob.mean                  41.25
 *   ...
 *   ---------- End Simulation Statistics   ----------
 *
 * Names are `<program>.<machine>.<stat>` with '/' mapped to '.' and
 * spaces to '_' so every name is one dot-separated token. Every
 * registered occupancy structure (enum OccStruct) is emitted for
 * every result — zero-sample distributions included — so the set of
 * lines per block is a function of the schema, never of the run.
 */

#ifndef OOVA_HARNESS_STATSDUMP_HH
#define OOVA_HARNESS_STATSDUMP_HH

#include <string>
#include <vector>

#include "mem/simresult.hh"

namespace oova
{

/** The full dump text for @p results, in order. */
std::string renderStatsDump(const std::vector<SimResult> &results);

/**
 * Render and write the dump to @p path ("-" writes to stdout).
 * Returns false (with a message on stderr) when the file or stdout
 * cannot be written.
 */
bool writeStatsDump(const std::string &path,
                    const std::vector<SimResult> &results);

} // namespace oova

#endif // OOVA_HARNESS_STATSDUMP_HH
