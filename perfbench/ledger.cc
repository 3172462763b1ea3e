/**
 * @file
 * The layer ledger: per-layer microbenchmarks (trace generation and
 * hashing, the memory models and the TLB, the result store and the
 * SimResult JSON) and per-layer simulation timings (OOOVA, IDEAL, REF
 * and each memory configuration), all at kLedgerScale so the ledger
 * costs the same on every workload.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>

#include "bench.hh"
#include "core/ideal.hh"
#include "core/ooosim.hh"
#include "harness/experiment.hh"
#include "harness/resultstore.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "mem/tlb.hh"
#include "trace/trace_io.hh"

using namespace oova;

namespace perfbench
{

namespace
{

/** Repetitions of each ledger timing; the median is reported. */
constexpr int kReps = 3;

Machine
oooMachine(std::string tag, OooConfig cfg)
{
    cfg.checkLevel = 0;
    return {std::move(tag), true, cfg, {}};
}

Machine
refMachine(std::string tag, RefConfig cfg)
{
    cfg.checkLevel = 0;
    return {std::move(tag), false, {}, cfg};
}

/** Keeps the optimizer from discarding measured work. */
volatile uint64_t gSink = 0;

} // namespace

std::vector<Machine>
flatbusMachines()
{
    return {oooMachine("early16r", makeOooConfig(16, 16, 50)),
            oooMachine("early64r", makeOooConfig(64, 16, 50)),
            oooMachine("late32r_slevle",
                       makeOooConfig(32, 16, 50, CommitMode::Late,
                                     LoadElimMode::SleVle))};
}

std::vector<Machine>
memMachines()
{
    MemConfig cached = makeCachedMem(32 * 1024, 8);
    cached.tlb = makeTlb(16);
    OooConfig oooCached = makeOooConfig(16, 16, 50);
    oooCached.mem = cached;
    RefConfig refCached = makeRefConfig(50);
    refCached.mem = cached;
    RefConfig refSw = makeRefConfig(50);
    refSw.mem.tlb = makeTlb(8, 4096, TlbRefill::SoftwareTrap);
    return {oooMachine("banked", makeBankedOooConfig(8)),
            refMachine("banked.ref", makeBankedRefConfig(8)),
            oooMachine("cachedtlb", oooCached),
            refMachine("cachedtlb.ref", refCached),
            oooMachine("lateswtlb",
                       makeTlbOooConfig(8, 4096, 50, CommitMode::Late,
                                        TlbRefill::SoftwareTrap)),
            refMachine("lateswtlb.ref", refSw)};
}

SimResult
simulate(const Machine &m, const Trace &trace)
{
    return m.isOoo ? simulateOoo(trace, m.ooo) : simulateRef(trace, m.ref);
}

namespace
{

/** A strided stream or a gather of the mem microbenchmark. */
struct Stream
{
    Addr addr = 0;
    int64_t stride = 8;
    unsigned elems = 0;
    std::vector<Addr> elemAddrs; ///< non-empty for a gather
};

/**
 * The fixed stream mix: unit, small, odd, page-sized and negative
 * strides at vector lengths 64 and 128, and index vectors that are
 * either a permutation of a 64-element window or uniform random over
 * 8 MiB.
 */
void
makeStreams(unsigned seed, std::vector<Stream> &strided,
            std::vector<Stream> &gathers)
{
    std::mt19937_64 rng(seed);
    const int64_t strides[] = {8, 8, 8, 16, 24, 56, 64, 4096, -8};
    for (int i = 0; i < 2048; ++i) {
        Stream s;
        s.addr = (1u << 24) + (rng() % (1u << 22)) * 8;
        s.stride = strides[rng() % std::size(strides)];
        s.elems = rng() % 2 ? 64 : 128;
        strided.push_back(s);
    }
    for (int i = 0; i < 512; ++i) {
        Stream s;
        Addr base = (1u << 24) + (rng() % (1u << 20)) * 8;
        s.elems = 64;
        if (i % 2 == 0) {
            std::vector<Addr> perm(64);
            std::iota(perm.begin(), perm.end(), 0);
            std::shuffle(perm.begin(), perm.end(), rng);
            for (Addr p : perm)
                s.elemAddrs.push_back(base + p * 8);
        } else {
            for (unsigned e = 0; e < s.elems; ++e)
                s.elemAddrs.push_back((1u << 24) + (rng() % (1u << 20)) * 8);
        }
        gathers.push_back(std::move(s));
    }
}

/** ns per element of reserving every stream on a fresh model. */
double
reserveNs(const MemConfig &cfg, const std::vector<Stream> &streams)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        auto mem = makeMemorySystem(cfg, 50);
        uint64_t elems = 0;
        Cycle t = 0;
        auto t0 = Clock::now();
        for (const Stream &s : streams) {
            MemAccess a = s.elemAddrs.empty()
                              ? mem->reserve(t, s.addr, s.stride, s.elems)
                              : mem->reserve(t, s.elemAddrs);
            t = a.start;
            elems += s.elems;
        }
        samples.push_back(msSince(t0) * 1e6 / static_cast<double>(elems));
        gSink = gSink + t;
    }
    return median(samples);
}

void
memLedger(unsigned seed, Metrics &out)
{
    std::vector<Stream> strided, gathers;
    makeStreams(seed, strided, gathers);
    MemConfig flat;
    MemConfig banked = makeBankedMem(8);
    MemConfig cached = makeCachedMem(32 * 1024, 8);
    out["mem.flatbus.reserve_ns_per_elem"] =
        single(reserveNs(flat, strided), "ns");
    out["mem.banked.reserve_ns_per_elem"] =
        single(reserveNs(banked, strided), "ns");
    out["mem.cached.reserve_ns_per_elem"] =
        single(reserveNs(cached, strided), "ns");
    out["mem.banked.gather_ns_per_elem"] =
        single(reserveNs(banked, gathers), "ns");
    out["mem.cached.gather_ns_per_elem"] =
        single(reserveNs(cached, gathers), "ns");

    // Tlb::translate over the page sequences both stream kinds
    // look up: per page crossed when strided, per element gathered.
    std::vector<std::vector<Addr>> pages;
    Tlb probe(makeTlb(16));
    uint64_t total = 0;
    for (const Stream &s : strided)
        pages.push_back(probe.stridedPages(s.addr, s.stride, s.elems));
    for (const Stream &s : gathers)
        pages.push_back(probe.indexedPages(s.elemAddrs));
    for (const auto &p : pages)
        total += p.size();
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        Tlb tlb(makeTlb(16));
        uint64_t stall = 0;
        auto t0 = Clock::now();
        for (size_t i = 0; i < pages.size(); ++i)
            stall += tlb.translate(pages[i], i >= strided.size());
        samples.push_back(msSince(t0) * 1e6 / static_cast<double>(total));
        gSink = gSink + stall;
    }
    out["mem.tlb.translate_ns_per_page"] = single(median(samples), "ns");
}

/** One timed simulation of the core/ref ledger. */
struct LedgerJob
{
    std::string program;
    const Machine *machine = nullptr; ///< null: idealCycles
    std::vector<double> ms;
    SimResult result;
};

void
storeLedger(const std::vector<LedgerJob> &jobs, const TraceCache &traces,
            const std::string &workDir, Verifier &ver, Metrics &out)
{
    std::vector<const LedgerJob *> sims;
    for (const LedgerJob &j : jobs)
        if (j.machine)
            sims.push_back(&j);
    const double n = static_cast<double>(sims.size());

    std::vector<std::string> json(sims.size()), keys(sims.size());
    std::vector<double> tojson, fromjson, key, load;
    for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < sims.size(); ++i)
            json[i] = sims[i]->result.toJson();
        tojson.push_back(msSince(t0) * 1000.0 / n);

        t0 = Clock::now();
        for (size_t i = 0; i < sims.size(); ++i) {
            const Machine &m = *sims[i]->machine;
            keys[i] = ResultStore::makeKey(
                traces.contentHash(sims[i]->program),
                m.isOoo ? sweepConfigKey(m.ooo) : sweepConfigKey(m.ref),
                traces.scale());
        }
        key.push_back(msSince(t0) * 1000.0 / n);

        t0 = Clock::now();
        uint64_t bad = 0;
        for (size_t i = 0; i < sims.size(); ++i) {
            SimResult back;
            if (!SimResult::fromJson(json[i], back) ||
                resultDigest(back) != resultDigest(sims[i]->result))
                ++bad;
        }
        fromjson.push_back(msSince(t0) * 1000.0 / n);
        if (bad)
            ver.fail("SimResult JSON round trip", bad);
    }

    std::string dir = workDir + "/ledger-store";
    std::filesystem::remove_all(dir);
    {
        ResultStore store(dir);
        for (size_t i = 0; i < sims.size(); ++i)
            store.store(keys[i], sims[i]->result);
        for (int rep = 0; rep < kReps; ++rep) {
            uint64_t misses = 0;
            auto t0 = Clock::now();
            for (size_t i = 0; i < sims.size(); ++i) {
                SimResult back;
                if (!store.load(keys[i], back))
                    ++misses;
            }
            load.push_back(msSince(t0) * 1000.0 / n);
            if (misses)
                ver.fail("ledger store load missed", misses);
        }
    }
    std::filesystem::remove_all(dir);
    out["harness.store.tojson_us"] = single(median(tojson), "us");
    out["harness.store.fromjson_us"] = single(median(fromjson), "us");
    out["harness.store.key_us"] = single(median(key), "us");
    out["harness.store.load_us"] = single(median(load), "us");
}

} // namespace

void
runLedger(unsigned seed, const std::string &workDir, Verifier &ver,
          Metrics &out)
{
    // tgen and trace: generate and hash the ten programs afresh.
    std::vector<double> genMs, hashMs;
    std::map<std::string, std::vector<double>> programMs;
    uint64_t insts = 0;
    std::unique_ptr<TraceCache> traces;
    for (int rep = 0; rep < kReps; ++rep) {
        traces.reset();
        traces = std::make_unique<TraceCache>(kLedgerScale);
        insts = 0;
        auto t0 = Clock::now();
        for (const auto &name : traces->names()) {
            auto p0 = Clock::now();
            insts += traces->get(name).size();
            programMs[name].push_back(msSince(p0));
        }
        genMs.push_back(msSince(t0));
        t0 = Clock::now();
        for (const auto &name : traces->names())
            gSink = gSink + traceContentHash(traces->get(name));
        hashMs.push_back(msSince(t0));
    }
    out["tgen.gen_ms"] = single(median(genMs), "ms");
    out["tgen.minstr_per_s"] =
        single(static_cast<double>(insts) / median(genMs) / 1e3, "Minstr/s");
    for (const auto &[name, ms] : programMs)
        out["tgen.gen_ms." + name] = single(median(ms), "ms");
    out["trace.hash_ms"] = single(median(hashMs), "ms");

    // core, ref and the simulated memory configurations.
    std::vector<Machine> machines = flatbusMachines();
    for (Machine &m : memMachines())
        machines.push_back(std::move(m));
    machines.push_back(refMachine("flat.ref", makeRefConfig(50)));
    std::vector<LedgerJob> jobs;
    for (const auto &name : traces->names()) {
        for (const Machine &m : machines)
            jobs.push_back({name, &m, {}, {}});
        jobs.push_back({name, nullptr, {}, {}});
    }
    char scale[32];
    std::snprintf(scale, sizeof scale, "ledger-%g/", kLedgerScale);
    for (int rep = 0; rep < kReps; ++rep) {
        for (LedgerJob &j : jobs) {
            const Trace &t = traces->get(j.program);
            auto t0 = Clock::now();
            if (j.machine) {
                j.result = simulate(*j.machine, t);
            } else {
                j.result = SimResult{};
                j.result.program = j.program;
                j.result.machine = "IDEAL";
                j.result.cycles = idealCycles(t);
            }
            j.ms.push_back(msSince(t0));
            ver.check(scale + j.program + "|" + j.result.machine,
                      resultDigest(j.result));
        }
    }

    struct Sum
    {
        double ms = 0.0;
        uint64_t instr = 0, cycles = 0;
        uint64_t requests = 0, conflicts = 0;
        uint64_t cacheHits = 0, cacheMisses = 0;
        uint64_t tlbHits = 0, tlbMisses = 0;
    };
    std::map<std::string, Sum> byTag;
    std::map<std::string, double> oooByProgram;
    double idealMs = 0.0;
    // machines[0, nFlat) are the flat-bus OOOVA machines.
    const Machine *flatEnd = machines.data() + flatbusMachines().size();
    for (const LedgerJob &j : jobs) {
        double ms = median(j.ms);
        if (!j.machine) {
            idealMs += ms;
            continue;
        }
        Sum &s = byTag[j.machine->tag];
        const SimResult &r = j.result;
        s.ms += ms;
        s.instr += r.instructions;
        s.cycles += r.cycles;
        s.requests += r.memRequests;
        s.conflicts += r.memBankConflicts;
        s.cacheHits += r.cacheHits;
        s.cacheMisses += r.cacheMisses;
        s.tlbHits += r.tlbHits;
        s.tlbMisses += r.tlbMisses;
        if (j.machine < flatEnd)
            oooByProgram[j.program] += ms;
    }
    auto nsPer = [](double ms, uint64_t n) {
        return n ? ms * 1e6 / static_cast<double>(n) : 0.0;
    };
    Sum ooo;
    for (const Machine &m : flatbusMachines()) {
        const Sum &s = byTag[m.tag];
        out["core.ooo_ns_per_instr." + m.tag] =
            single(nsPer(s.ms, s.instr), "ns");
        ooo.ms += s.ms;
        ooo.instr += s.instr;
        ooo.cycles += s.cycles;
    }
    out["core.ooo_ms"] = single(ooo.ms, "ms");
    out["core.ooo_ns_per_instr"] = single(nsPer(ooo.ms, ooo.instr), "ns");
    out["core.ooo_ns_per_cycle"] = single(nsPer(ooo.ms, ooo.cycles), "ns");
    for (const auto &[program, ms] : oooByProgram)
        out["core.ooo_ms." + program] = single(ms, "ms");
    out["core.ideal_ms"] = single(idealMs, "ms");
    const Sum &ref = byTag["flat.ref"];
    out["ref.ms"] = single(ref.ms, "ms");
    out["ref.ns_per_instr"] = single(nsPer(ref.ms, ref.instr), "ns");
    double base = nsPer(byTag["early16r"].ms, byTag["early16r"].instr);
    for (const char *tag : {"banked", "cachedtlb", "lateswtlb"}) {
        const Sum &s = byTag[tag];
        out[std::string("mem.overhead_ns_per_instr.") + tag] =
            single(nsPer(s.ms, s.instr) - base, "ns");
    }
    auto ratio = [](uint64_t a, uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const Sum &banked = byTag["banked"];
    const Sum &cachedTlb = byTag["cachedtlb"];
    out["mem.bank_conflict_ratio"] =
        single(ratio(banked.conflicts, banked.requests), "ratio");
    out["mem.cache_hit_ratio"] =
        single(ratio(cachedTlb.cacheHits,
                     cachedTlb.cacheHits + cachedTlb.cacheMisses),
               "ratio");
    out["mem.tlb_miss_ratio"] =
        single(ratio(cachedTlb.tlbMisses,
                     cachedTlb.tlbHits + cachedTlb.tlbMisses),
               "ratio");

    memLedger(seed, out);
    storeLedger(jobs, *traces, workDir, ver, out);
}

} // namespace perfbench
