#include "isa/instruction.hh"

#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace oova
{

namespace
{

/** splitmix64: scrambles the per-instance seed into placements. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
indexedElemAddrs(const DynInst &di, std::vector<Addr> &out)
{
    sim_assert(di.isIndexedMem(),
               "indexedElemAddrs() on non-indexed op %s", opName(di.op));
    unsigned esz = std::max<unsigned>(di.elemSize, 1);
    uint64_t words = std::max<uint64_t>(di.regionBytes / esz, 1);
    unsigned vl = di.vl;

    out.clear();
    // A zero-length gather/scatter reserves nothing, matching the
    // strided path's zero-element no-op.
    if (vl == 0)
        return;
    out.reserve(vl);
    switch (di.idxPattern) {
    case IndexPattern::None:
        // Pre-pattern behavior: a contiguous word walk of the region.
        for (unsigned i = 0; i < vl; ++i)
            out.push_back(di.addr + static_cast<Addr>(i) * esz);
        break;
    case IndexPattern::Permutation: {
        // Window placed on an 8-word boundary so repeated gathers
        // continue the same arithmetic bank walk; step odd (co-prime
        // with any power-of-two bank count) and co-prime with vl
        // (so it really is a permutation of the window).
        uint64_t step = di.idxParam ? (di.idxParam | 1) : 5;
        while (std::gcd<uint64_t>(step, vl) != 1)
            step += 2;
        uint64_t window = 0;
        if (words > vl)
            window = (mix64(di.idxSeed) % ((words - vl) / 8 + 1)) * 8;
        for (unsigned i = 0; i < vl; ++i) {
            uint64_t w = window + (static_cast<uint64_t>(i) * step) % vl;
            out.push_back(di.addr + (w % words) * esz);
        }
        break;
    }
    case IndexPattern::CongruentMod: {
        uint64_t m = std::max<uint64_t>(di.idxParam, 1);
        // Wrap within the largest multiple of m that fits the
        // region, so wrapped indices keep the residue class.
        uint64_t span = words - words % m;
        if (span < m)
            span = words;
        uint64_t c = mix64(di.idxSeed) % m;
        for (unsigned i = 0; i < vl; ++i) {
            uint64_t w = (c + static_cast<uint64_t>(i) * m) % span;
            out.push_back(di.addr + w * esz);
        }
        break;
    }
    case IndexPattern::Random: {
        uint64_t x = di.idxSeed | 1;
        for (unsigned i = 0; i < vl; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.push_back(di.addr + (x % words) * esz);
        }
        break;
    }
    }
}

std::pair<Addr, Addr>
DynInst::memRange() const
{
    sim_assert(isMem(), "memRange() on non-memory op %s", opName(op));
    if (isIndexedMem())
        return {addr, addr + regionBytes};
    if (!isVector())
        return {addr, addr + elemSize};

    int64_t span = static_cast<int64_t>(vl - 1) * strideBytes;
    if (span >= 0)
        return {addr, addr + static_cast<Addr>(span) + elemSize};
    // Negative stride: the last element has the lowest address.
    return {addr - static_cast<Addr>(-span),
            addr + elemSize};
}

namespace
{

std::string
regStr(const RegId &r)
{
    if (!r.valid())
        return "-";
    std::string s = std::to_string(r.idx);
    s.insert(s.begin(), regClassPrefix(r.cls));
    return s;
}

} // namespace

std::string
DynInst::toString() const
{
    std::ostringstream os;
    os << opName(op);
    if (dst.valid())
        os << " " << regStr(dst);
    for (unsigned i = 0; i < numSrc; ++i)
        os << (i == 0 && !dst.valid() ? " " : ", ") << regStr(src[i]);
    if (isMem()) {
        os << " @0x" << std::hex << addr << std::dec;
        if (isVector())
            os << " vl=" << vl << " vs=" << strideBytes;
        if (isSpill)
            os << " [spill]";
    } else if (isVector()) {
        os << " vl=" << vl;
    }
    if (isBranch())
        os << (taken ? " T" : " N");
    return os.str();
}

DynInst
makeVArith(Opcode op, RegId dst, RegId src_a, RegId src_b, uint16_t vl)
{
    sim_assert(traits(op).isVector && !traits(op).isMem,
               "%s is not vector arithmetic", opName(op));
    DynInst inst;
    inst.op = op;
    inst.dst = dst;
    if (src_a.valid())
        inst.addSrc(src_a);
    if (src_b.valid())
        inst.addSrc(src_b);
    inst.vl = vl;
    return inst;
}

DynInst
makeVLoad(RegId dst, RegId base_reg, Addr addr, int64_t stride_bytes,
          uint16_t vl, bool is_spill)
{
    DynInst inst;
    inst.op = Opcode::VLoad;
    inst.dst = dst;
    if (base_reg.valid())
        inst.addSrc(base_reg);
    inst.addr = addr;
    inst.strideBytes = stride_bytes;
    inst.vl = vl;
    inst.isSpill = is_spill;
    return inst;
}

DynInst
makeVStore(RegId data, RegId base_reg, Addr addr, int64_t stride_bytes,
           uint16_t vl, bool is_spill)
{
    DynInst inst;
    inst.op = Opcode::VStore;
    inst.addSrc(data);
    if (base_reg.valid())
        inst.addSrc(base_reg);
    inst.addr = addr;
    inst.strideBytes = stride_bytes;
    inst.vl = vl;
    inst.isSpill = is_spill;
    return inst;
}

DynInst
makeScalar(Opcode op, RegId dst, RegId src_a, RegId src_b)
{
    DynInst inst;
    inst.op = op;
    inst.dst = dst;
    if (src_a.valid())
        inst.addSrc(src_a);
    if (src_b.valid())
        inst.addSrc(src_b);
    return inst;
}

DynInst
makeSLoad(RegId dst, RegId base_reg, Addr addr, bool is_spill)
{
    DynInst inst;
    inst.op = Opcode::SLoad;
    inst.dst = dst;
    if (base_reg.valid())
        inst.addSrc(base_reg);
    inst.addr = addr;
    inst.vl = 1;
    inst.isSpill = is_spill;
    return inst;
}

DynInst
makeSStore(RegId data, RegId base_reg, Addr addr, bool is_spill)
{
    DynInst inst;
    inst.op = Opcode::SStore;
    inst.addSrc(data);
    if (base_reg.valid())
        inst.addSrc(base_reg);
    inst.addr = addr;
    inst.vl = 1;
    inst.isSpill = is_spill;
    return inst;
}

DynInst
makeBranch(RegId cond, bool taken, Addr target)
{
    DynInst inst;
    inst.op = Opcode::Branch;
    if (cond.valid())
        inst.addSrc(cond);
    inst.taken = taken;
    inst.target = target;
    return inst;
}

DynInst
makeCall(Addr target)
{
    DynInst inst;
    inst.op = Opcode::Call;
    inst.taken = true;
    inst.target = target;
    return inst;
}

DynInst
makeRet(Addr target)
{
    DynInst inst;
    inst.op = Opcode::Ret;
    inst.taken = true;
    inst.target = target;
    return inst;
}

} // namespace oova
