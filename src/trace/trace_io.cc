#include "trace/trace_io.hh"

namespace oova
{

namespace
{

/** 64-bit FNV-1a over fixed-width little-endian fields. */
class Fnv1a
{
  public:
    template <typename T>
    void
    put(T value)
    {
        auto u = static_cast<uint64_t>(value);
        for (size_t i = 0; i < sizeof(T); ++i)
            mix(static_cast<unsigned char>(u >> (8 * i)));
    }

    void
    putReg(const RegId &r)
    {
        put<uint8_t>(static_cast<uint8_t>(r.cls));
        put<uint8_t>(r.idx);
    }

    void
    mix(unsigned char b)
    {
        hash_ = (hash_ ^ b) * 1099511628211ull;
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ull; // FNV-1a offset basis
};

// Version 2 of the format added the gather/scatter index-pattern fields.
constexpr char kFormatTag[8] = {'O', 'O', 'V', 'A', 'T', 'R', 'C', '2'};

} // namespace

uint64_t
traceContentHash(const Trace &trace)
{
    Fnv1a h;
    for (char c : kFormatTag)
        h.mix(static_cast<unsigned char>(c));
    h.put<uint32_t>(static_cast<uint32_t>(trace.name().size()));
    for (char c : trace.name())
        h.mix(static_cast<unsigned char>(c));
    h.put<uint64_t>(trace.size());

    for (const DynInst &inst : trace) {
        h.put<uint64_t>(inst.pc);
        h.put<uint8_t>(static_cast<uint8_t>(inst.op));
        h.putReg(inst.dst);
        h.put<uint8_t>(inst.numSrc);
        for (unsigned i = 0; i < kMaxSrcRegs; ++i)
            h.putReg(inst.src[i]);
        h.put<uint16_t>(inst.vl);
        h.put<int64_t>(inst.strideBytes);
        h.put<uint64_t>(inst.addr);
        h.put<uint32_t>(inst.regionBytes);
        h.put<uint8_t>(inst.elemSize);
        h.put<uint8_t>(static_cast<uint8_t>(inst.idxPattern));
        h.put<uint32_t>(inst.idxParam);
        h.put<uint64_t>(inst.idxSeed);
        h.put<uint8_t>(inst.taken ? 1 : 0);
        h.put<uint64_t>(inst.target);
        h.put<uint8_t>(inst.isSpill ? 1 : 0);
    }
    return h.value();
}

} // namespace oova
