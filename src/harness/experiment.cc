#include "harness/experiment.hh"

#include <cmath>

#include "common/logging.hh"

namespace oova
{

RefConfig
makeRefConfig(unsigned mem_latency)
{
    RefConfig cfg;
    cfg.lat = LatencyTable::refDefaults();
    cfg.lat.memLatency = mem_latency;
    return cfg;
}

OooConfig
makeOooConfig(unsigned phys_vregs, unsigned queue_size,
              unsigned mem_latency, CommitMode commit,
              LoadElimMode elim)
{
    OooConfig cfg;
    cfg.lat = LatencyTable::oooDefaults();
    cfg.lat.memLatency = mem_latency;
    cfg.numPhysVRegs = phys_vregs;
    cfg.queueSize = queue_size;
    cfg.commit = commit;
    cfg.loadElim = elim;
    return cfg;
}

OooConfig
makeBankedOooConfig(unsigned banks, unsigned mem_latency)
{
    OooConfig cfg = makeOooConfig(16, 16, mem_latency);
    cfg.mem = makeBankedMem(banks);
    return cfg;
}

RefConfig
makeBankedRefConfig(unsigned banks, unsigned mem_latency)
{
    RefConfig cfg = makeRefConfig(mem_latency);
    cfg.mem = makeBankedMem(banks);
    return cfg;
}

OooConfig
makeMultiUnitOooConfig(unsigned banks, unsigned units,
                       LsPolicy policy, unsigned mem_latency)
{
    OooConfig cfg = makeOooConfig(16, 16, mem_latency);
    cfg.mem = makeMultiUnitMem(banks, units, policy);
    return cfg;
}

TlbConfig
makeTlb(unsigned entries, unsigned page_bytes, TlbRefill refill)
{
    TlbConfig cfg;
    cfg.enabled = true;
    cfg.entries = entries;
    cfg.pageBytes = page_bytes;
    cfg.refill = refill;
    return cfg;
}

OooConfig
makeTlbOooConfig(unsigned entries, unsigned page_bytes,
                 unsigned mem_latency, CommitMode commit,
                 TlbRefill refill)
{
    OooConfig cfg = makeOooConfig(16, 16, mem_latency, commit);
    cfg.mem.tlb = makeTlb(entries, page_bytes, refill);
    return cfg;
}

RefConfig
makeTlbBankedRefConfig(unsigned banks, unsigned entries,
                       unsigned page_bytes, unsigned mem_latency)
{
    RefConfig cfg = makeBankedRefConfig(banks, mem_latency);
    cfg.mem.tlb = makeTlb(entries, page_bytes);
    return cfg;
}

double
speedup(const SimResult &base, const SimResult &x)
{
    if (x.cycles == 0)
        return std::nan("");
    return static_cast<double>(base.cycles) /
           static_cast<double>(x.cycles);
}

} // namespace oova
