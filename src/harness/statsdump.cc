#include "harness/statsdump.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace oova
{

namespace
{

/** Collapse a label into one dot-separated stats-name token. */
std::string
sanitizeName(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '/')
            out += '.';
        else if (c == ' ')
            out += '_';
        else
            out += c;
    }
    return out;
}

/** One `name value` line, name left-justified to the gem5 column. */
void
emit(std::ostringstream &os, const std::string &name,
     const std::string &value)
{
    os << csprintf("%-56s %s\n", name.c_str(), value.c_str());
}

void
emitU64(std::ostringstream &os, const std::string &name, uint64_t v)
{
    emit(os, name, csprintf("%llu",
                            static_cast<unsigned long long>(v)));
}

void
emitF64(std::ostringstream &os, const std::string &name, double v)
{
    emit(os, name, csprintf("%.6f", v));
}

void
emitResult(std::ostringstream &os, const SimResult &r)
{
    std::string prefix =
        sanitizeName(r.program) + "." + sanitizeName(r.machine);
    os << "---------- Begin Simulation Statistics ----------\n";
    emitU64(os, prefix + ".cycles", r.cycles);
    emitU64(os, prefix + ".instructions", r.instructions);
    emitF64(os, prefix + ".ipc",
            r.cycles == 0 ? 0.0
                          : static_cast<double>(r.instructions) /
                                static_cast<double>(r.cycles));
    for (size_t i = 0; i < kNumOccStructs; ++i) {
        const StatDistribution &d = r.occupancy[i];
        std::string p = prefix + ".occupancy." +
                        occStructName(static_cast<OccStruct>(i)) +
                        ".";
        emitU64(os, p + "samples", d.samples);
        emitU64(os, p + "min", d.minValue);
        emitU64(os, p + "max", d.maxValue);
        emitF64(os, p + "mean", d.mean());
        emitF64(os, p + "stddev", d.stddev());
        emitU64(os, p + "p95", d.p95());
        emitU64(os, p + "bucket-width", d.width);
        for (size_t b = 0; b < StatDistribution::kNumBuckets; ++b)
            emitU64(os, p + csprintf("bucket%02zu", b),
                    d.buckets[b]);
        const StatTimeSeries &ts = r.occupancyTs[i];
        emitU64(os, p + "ts-epoch-len", ts.epochLen);
        emitU64(os, p + "ts-epochs",
                static_cast<uint64_t>(ts.epochsUsed()));
        for (size_t e = 0; e < ts.epochsUsed(); ++e)
            emitF64(os, p + csprintf("ts-mean%02zu", e),
                    ts.epochMean(e));
    }
    os << "---------- End Simulation Statistics   ----------\n";
}

} // namespace

std::string
renderStatsDump(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    for (const SimResult &r : results)
        emitResult(os, r);
    return os.str();
}

bool
writeStatsDump(const std::string &path,
               const std::vector<SimResult> &results)
{
    std::string text = renderStatsDump(results);
    if (path == "-") {
        if (std::fputs(text.c_str(), stdout) >= 0 &&
            std::fflush(stdout) == 0)
            return true;
        std::fprintf(stderr, "--stats: short write to stdout\n");
        return false;
    }
    return writeTextFile(path, text, "--stats");
}

} // namespace oova
