/**
 * @file
 * The dynamic instruction record — one element of a trace.
 *
 * The simulators are trace driven, as in the paper: the workload
 * generator (our Dixie substitute) emits fully resolved dynamic
 * instructions, including memory addresses, per-instruction vector
 * length / stride, and branch outcomes. The simulators never compute
 * data values; they model time.
 */

#ifndef OOVA_ISA_INSTRUCTION_HH
#define OOVA_ISA_INSTRUCTION_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace oova
{

/** Maximum source operands on any instruction. */
constexpr unsigned kMaxSrcRegs = 3;

/**
 * One dynamic (executed) instruction.
 *
 * Memory operands: for strided ops, @c addr is the base address and
 * @c strideBytes the element stride (possibly negative). For
 * gather/scatter the individual element addresses are unknown to the
 * hardware ahead of time, so the generator supplies the conservative
 * enclosing region [addr, addr+regionBytes) used for disambiguation,
 * matching the paper's range mechanism.
 *
 * Fields are ordered by size, widest first, so the record packs into
 * one 64-byte cache line with no padding (traces hold millions of
 * them). The order is not the hashed order: traceContentHash()
 * mixes the fields one by one, so the hash does not depend on it.
 */
struct DynInst
{
    Addr pc = 0;
    int64_t strideBytes = kElemBytes;
    Addr addr = 0;
    uint64_t idxSeed = 0; ///< per-instance gather seed (window placement)
    Addr target = 0;      ///< branch target

    uint32_t regionBytes = 0; ///< gather/scatter only
    uint32_t idxParam = 0;    ///< index-pattern parameter (e.g. the modulus)

    /** Vector length in elements for vector ops (1 for scalars). */
    uint16_t vl = 1;

    RegId dst;
    std::array<RegId, kMaxSrcRegs> src{};

    Opcode op = Opcode::SMove;
    uint8_t numSrc = 0;
    uint8_t elemSize = kElemBytes;
    /** Gather/scatter index-vector shape (see indexedElemAddrs()). */
    IndexPattern idxPattern = IndexPattern::None;
    bool taken = false;   ///< branch outcome from the trace
    bool isSpill = false; ///< compiler-generated spill load/store

    const OpTraits &traits() const { return oova::traits(op); }

    bool isVector() const { return traits().isVector; }
    bool isMem() const { return traits().isMem; }
    bool isLoad() const { return traits().isLoad; }
    bool isStore() const { return traits().isStore; }
    bool isBranch() const { return traits().isBranch; }
    bool isVectorMem() const { return isMem() && isVector(); }
    bool isVectorArith() const { return isVector() && !isMem(); }
    bool isIndexedMem() const
    {
        return op == Opcode::VGather || op == Opcode::VScatter;
    }

    /** Number of element requests this op puts on the address bus. */
    unsigned
    memElems() const
    {
        return isVectorMem() ? vl : 1;
    }

    /**
     * Conservative byte range touched by a memory op, as computed by
     * the paper's Range pipeline stage: [first, last) half-open.
     */
    std::pair<Addr, Addr> memRange() const;

    /** Append a source operand. */
    void
    addSrc(RegId r)
    {
        src[numSrc++] = r;
    }

    /** Disassembly for debugging and trace dumps. */
    std::string toString() const;
};

static_assert(sizeof(DynInst) == 64,
              "DynInst must pack into one 64-byte cache line");

/**
 * Reconstruct the per-element addresses of a gather/scatter from its
 * recorded index pattern into @p out, clearing it first and reusing
 * its capacity (the simulators call this on their hot paths). Pure
 * and deterministic — the same instruction always yields the same
 * addresses — so simulation results stay reproducible. Patterns:
 *
 *  - None: contiguous word walk of [addr, addr+regionBytes), the
 *    pre-pattern conservative assumption;
 *  - Permutation: every word of a vl-element window (placed by
 *    idxSeed on an 8-word boundary) exactly once, stepped by an odd
 *    stride co-prime with vl, so the bank sequence is an arithmetic
 *    walk that never revisits a bank within 8 elements;
 *  - CongruentMod: indices c, c+m, c+2m, ... (m = idxParam), all
 *    congruent mod m — the pathological case that serializes on a
 *    bank subset;
 *  - Random: xorshift-uniform words of the region.
 */
void indexedElemAddrs(const DynInst &di, std::vector<Addr> &out);

/** Build a vector arithmetic instruction. */
DynInst makeVArith(Opcode op, RegId dst, RegId src_a, RegId src_b,
                   uint16_t vl);

/** Build a strided vector load. */
DynInst makeVLoad(RegId dst, RegId base_reg, Addr addr,
                  int64_t stride_bytes, uint16_t vl,
                  bool is_spill = false);

/** Build a strided vector store. */
DynInst makeVStore(RegId data, RegId base_reg, Addr addr,
                   int64_t stride_bytes, uint16_t vl,
                   bool is_spill = false);

/** Build a scalar ALU instruction. */
DynInst makeScalar(Opcode op, RegId dst, RegId src_a,
                   RegId src_b = RegId());

/** Build a scalar load. */
DynInst makeSLoad(RegId dst, RegId base_reg, Addr addr,
                  bool is_spill = false);

/** Build a scalar store. */
DynInst makeSStore(RegId data, RegId base_reg, Addr addr,
                   bool is_spill = false);

/** Build a conditional branch. */
DynInst makeBranch(RegId cond, bool taken, Addr target);

/** Build a subroutine call (always taken). */
DynInst makeCall(Addr target);

/** Build a subroutine return (always taken). */
DynInst makeRet(Addr target);

} // namespace oova

#endif // OOVA_ISA_INSTRUCTION_HH
