/**
 * @file
 * Result digests and the reference verifier.
 */

#include <cinttypes>
#include <cstdlib>
#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
mix(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
mix(uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    mix(h, s.size());
}

} // namespace

uint64_t
resultDigest(const oova::SimResult &r)
{
    uint64_t h = kFnvBasis;
    mix(h, r.program);
    mix(h, r.machine);
    for (uint64_t v :
         {uint64_t(r.cycles), r.instructions, r.fu1BusyCycles,
          r.fu2BusyCycles, r.memBusyCycles, r.memRequests,
          r.memBankConflicts, r.memConflictCycles, r.memIndexedConflicts,
          r.memIndexedConflictCycles, r.cacheHits, r.cacheMisses,
          r.mshrStallCycles, r.tlbHits, r.tlbMisses, r.tlbIndexedMisses,
          r.tlbMissCycles, r.vectorLoadsEliminated,
          r.scalarLoadsEliminated, r.branchMispredicts,
          r.renameStallCycles, r.robStallCycles, r.queueStallCycles,
          r.traps})
        mix(h, v);
    for (uint64_t v : r.stateCycles)
        mix(h, v);
    for (uint64_t v : r.stallCycles)
        mix(h, v);
    for (uint64_t v : r.cpiCycles)
        mix(h, v);
    return h;
}

uint64_t
textDigest(const std::string &text)
{
    uint64_t h = kFnvBasis;
    mix(h, text);
    return h;
}

bool
Verifier::load(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp + 17 != line.size())
            return false;
        char *end = nullptr;
        uint64_t digest = std::strtoull(line.c_str() + sp + 1, &end, 16);
        if (*end != '\0')
            return false;
        ref_[line.substr(0, sp)] = digest;
    }
    return true;
}

bool
Verifier::check(const std::string &key, uint64_t digest)
{
    auto it = ref_.find(key);
    if (it == ref_.end() && recording_)
        it = ref_.emplace(key, digest).first;
    if (it != ref_.end() && it->second == digest) {
        ++attempted_;
        return true;
    }
    fail(key + (it == ref_.end() ? ": no reference"
                                 : ": differs from the reference"));
    return false;
}

void
Verifier::fail(const std::string &why, uint64_t n)
{
    attempted_ += n;
    failed_ += n;
    if (failures_.size() < 20)
        failures_.push_back(why);
}

bool
Verifier::save(const std::string &path, const std::string &prefix) const
{
    std::map<std::string, uint64_t> sorted;
    for (const auto &[key, digest] : ref_)
        if (key.compare(0, prefix.size(), prefix) == 0)
            sorted.emplace(key, digest);
    std::ofstream f(path);
    f << "# perfbench reference digests: key fnv1a64(result)\n";
    char hex[17];
    for (const auto &[key, digest] : sorted) {
        std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
        f << key << ' ' << hex << '\n';
    }
    return static_cast<bool>(f);
}

} // namespace perfbench
