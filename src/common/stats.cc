#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace oova
{

const IntervalRecorder::Runs &
IntervalRecorder::unionRuns(Runs &scratch) const
{
    if (sortedDisjoint_)
        return intervals_;
    scratch = intervals_;
    std::sort(scratch.begin(), scratch.end());
    size_t n = 0;
    for (const auto &[s, e] : scratch) {
        if (n > 0 && s <= scratch[n - 1].second)
            scratch[n - 1].second = std::max(scratch[n - 1].second, e);
        else
            scratch[n++] = {s, e};
    }
    scratch.resize(n);
    return scratch;
}

uint64_t
IntervalRecorder::busyCycles() const
{
    Runs scratch;
    uint64_t busy = 0;
    for (const auto &[s, e] : unionRuns(scratch))
        busy += e - s;
    return busy;
}

std::array<uint64_t, UnitStateBreakdown::kNumStates>
UnitStateBreakdown::compute(const IntervalRecorder &fu2,
                            const IntervalRecorder &fu1,
                            const IntervalRecorder &mem,
                            Cycle total_cycles)
{
    // Each unit's busy time as sorted, non-overlapping runs, merged
    // with one cursor per unit. Index by state bit: 2 = FU2,
    // 1 = FU1, 0 = MEM.
    IntervalRecorder::Runs scratch[3];
    const IntervalRecorder::Runs *ivs[3] = {&mem.unionRuns(scratch[0]),
                                            &fu1.unionRuns(scratch[1]),
                                            &fu2.unionRuns(scratch[2])};
    size_t idx[3] = {0, 0, 0};
    bool busy[3] = {false, false, false};

    auto clampEnd = [&](const std::pair<Cycle, Cycle> &iv) {
        return std::min<Cycle>(iv.second, total_cycles);
    };
    // Skip runs the clamp makes empty (entirely past the end).
    auto skipDead = [&](int u) {
        const auto &v = *ivs[u];
        while (idx[u] < v.size() &&
               v[idx[u]].first >= clampEnd(v[idx[u]])) {
            ++idx[u];
        }
    };
    for (int u = 0; u < 3; ++u)
        skipDead(u);

    std::array<uint64_t, kNumStates> out{};
    Cycle prev = 0;
    while (true) {
        Cycle next = kNoCycle;
        for (int u = 0; u < 3; ++u) {
            const auto &v = *ivs[u];
            if (idx[u] >= v.size())
                continue;
            Cycle b =
                busy[u] ? clampEnd(v[idx[u]]) : v[idx[u]].first;
            next = std::min(next, b);
        }
        if (next == kNoCycle)
            break;
        if (next > prev) {
            int state = (busy[2] ? 4 : 0) | (busy[1] ? 2 : 0) |
                        (busy[0] ? 1 : 0);
            out[static_cast<size_t>(state)] += next - prev;
            prev = next;
        }
        for (int u = 0; u < 3; ++u) {
            const auto &v = *ivs[u];
            if (busy[u] && idx[u] < v.size() &&
                clampEnd(v[idx[u]]) == next) {
                busy[u] = false;
                ++idx[u];
                skipDead(u);
            }
            // Back-to-back runs re-enter at the same boundary.
            if (!busy[u] && idx[u] < v.size() &&
                v[idx[u]].first == next) {
                busy[u] = true;
            }
        }
    }
    if (total_cycles > prev)
        out[0] += total_cycles - prev; // trailing all-idle time
    return out;
}

std::string
UnitStateBreakdown::stateName(int state)
{
    sim_assert(state >= 0 && state < kNumStates, "state %d", state);
    std::string s = "<";
    s += (state & 4) ? "FU2," : "   ,";
    s += (state & 2) ? "FU1," : "   ,";
    s += (state & 1) ? "MEM" : "   ";
    s += ">";
    return s;
}

// ------------------------------------------------ occupancy telemetry

const char *
occStructName(OccStruct s)
{
    switch (s) {
    case OccStruct::Rob:
        return "rob";
    case OccStruct::AQueue:
        return "aqueue";
    case OccStruct::SQueue:
        return "squeue";
    case OccStruct::VQueue:
        return "vqueue";
    case OccStruct::FreeVRegs:
        return "free-vregs";
    case OccStruct::Mshrs:
        return "mshrs";
    case OccStruct::MemUnits:
        return "mem-units";
    case OccStruct::TlbPages:
        return "tlb-pages";
    case OccStruct::NumStructs:
        break;
    }
    panic("occStructName on %d", static_cast<int>(s));
}

double
StatDistribution::mean() const
{
    return samples ? static_cast<double>(sum) / samples : 0.0;
}

double
StatDistribution::stddev() const
{
    if (samples == 0)
        return 0.0;
    double n = static_cast<double>(samples);
    double m = static_cast<double>(sum) / n;
    double var = static_cast<double>(sumSquares) / n - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

uint64_t
StatDistribution::p95() const
{
    if (samples == 0)
        return 0;
    // Smallest rank covering 95% of the weight, in exact integers.
    uint64_t rank = (samples * 95 + 99) / 100;
    uint64_t cum = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
        cum += buckets[b];
        if (cum >= rank) {
            uint64_t edge = (b + 1) * width - 1;
            return std::min(edge, maxValue);
        }
    }
    return maxValue; // unreachable: buckets sum to samples
}

void
StatTimeSeries::sample(uint64_t value, uint64_t n)
{
    // epochLen only ever doubles from 1: the epoch index is a shift
    // and the offset into the epoch a mask.
    auto shift = static_cast<unsigned>(std::countr_zero(epochLen));
    while (n > 0) {
        size_t cur = static_cast<size_t>(total >> shift);
        if (cur >= kMaxEpochs) {
            // Window full: halve the resolution, keep exact sums.
            for (size_t i = 0; i < kMaxEpochs / 2; ++i)
                sums[i] = sums[2 * i] + sums[2 * i + 1];
            std::fill(sums.begin() + kMaxEpochs / 2, sums.end(),
                      uint64_t{0});
            epochLen *= 2;
            ++shift;
            continue;
        }
        uint64_t room = epochLen - (total & (epochLen - 1));
        uint64_t take = std::min(room, n);
        sums[cur] += value * take;
        total += take;
        n -= take;
    }
}

uint64_t
StatTimeSeries::epochCycles(size_t e) const
{
    uint64_t start = e * epochLen;
    if (start >= total)
        return 0;
    return std::min(epochLen, total - start);
}

double
StatTimeSeries::epochMean(size_t e) const
{
    uint64_t cycles = epochCycles(e);
    return cycles ? static_cast<double>(sums[e]) / cycles : 0.0;
}

void
accumulateIntervalDepth(const IntervalRecorder &rec, Cycle total,
                        StatDistribution &dist, StatTimeSeries &ts)
{
    if (total == 0)
        return;
    // Sweep-line over begin/end events, clipped to [0, total).
    std::vector<std::pair<Cycle, int>> events;
    events.reserve(rec.intervals().size() * 2);
    for (const auto &[s, e] : rec.intervals()) {
        Cycle end = std::min<Cycle>(e, total);
        if (s >= end)
            continue;
        events.emplace_back(s, +1);
        events.emplace_back(end, -1);
    }
    std::sort(events.begin(), events.end());

    Cycle prev = 0;
    int64_t depth = 0;
    size_t i = 0;
    while (i < events.size()) {
        Cycle now = events[i].first;
        if (now > prev) {
            dist.sample(static_cast<uint64_t>(depth), now - prev);
            ts.sample(static_cast<uint64_t>(depth), now - prev);
            prev = now;
        }
        while (i < events.size() && events[i].first == now) {
            depth += events[i].second;
            ++i;
        }
    }
    if (total > prev) {
        dist.sample(static_cast<uint64_t>(depth), total - prev);
        ts.sample(static_cast<uint64_t>(depth), total - prev);
    }
}

bool
telemetryForced()
{
    static const bool forced = [] {
        const char *env = std::getenv("OOVA_TELEMETRY");
        return env && *env && std::strcmp(env, "0") != 0;
    }();
    return forced;
}

} // namespace oova
