/**
 * @file
 * Loop-body kernel IR for the synthetic workload generator.
 *
 * A Kernel describes one vectorized loop body as a DAG of operations
 * on virtual vector values (VVid) and virtual scalar values (SVid).
 * The code generator lowers a kernel to the architected ISA once per
 * strip-mined iteration, allocating the 8 logical V registers and
 * inserting spill code exactly where a compiler for the reference
 * machine would have to — this is what reproduces the paper's
 * Table 3 spill census and the dynamic-load-elimination results.
 */

#ifndef OOVA_TGEN_KERNEL_HH
#define OOVA_TGEN_KERNEL_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace oova
{

/** Virtual vector value id (SSA-like, block scoped). */
using VVid = int;

/** Virtual scalar value id (block scoped). */
using SVid = int;

/** One kernel-IR operation. */
struct KOp
{
    enum class Kind : uint8_t
    {
        VLoad,      ///< streaming or fixed-address vector load
        VStore,     ///< streaming or fixed-address vector store
        VGather,    ///< indexed vector load
        VScatter,   ///< indexed vector store
        VArith,     ///< vector arithmetic (opc selects flavor)
        VCmpMerge,  ///< compare to mask + merge (two instructions)
        VReduce,    ///< vector -> scalar reduction
        SArith,     ///< scalar arithmetic on virtual scalars
        SLoadSlot,  ///< load a loop-carried scalar from its home slot
        SStoreSlot, ///< store a loop-carried scalar to its home slot
        ScalarChain,///< chain of dependent scalar ops (scalar work)
    };

    Kind kind;
    Opcode opc = Opcode::VAdd;
    int dst = -1;                  ///< VVid or SVid depending on kind
    int srcs[3] = {-1, -1, -1};
    int nsrcs = 0;
    int array = -1;                ///< memory ops: program array id
    bool fixedAddr = false;        ///< loop-invariant address
    uint64_t offsetBytes = 0;      ///< offset for fixed-address ops
    int64_t strideElems = 1;       ///< stream stride in elements
    int slot = -1;                 ///< scalar slot id (program scope)
    int chainLen = 0;              ///< ScalarChain length
    uint16_t vlOverride = 0;       ///< 0 = use the iteration VL

    // Gather/scatter only: how the index vector was generated (the
    // memory system maps banks from the real pattern).
    IndexPattern idxPattern = IndexPattern::Random;
    uint32_t idxParam = 0;
};

/**
 * Builder for one loop body. All building methods return the id of
 * the produced virtual value (where applicable). A source must be a
 * value an earlier op defined: a call that reads anything else
 * panics where the kernel is built. As each op is added, the kernel
 * records it as a use of every value it reads.
 */
class Kernel
{
  public:
    explicit Kernel(std::string name) : name_(std::move(name)) {}

    /** Streaming load: address advances by vl*stride each iter. */
    VVid vload(int array, int64_t stride_elems = 1);

    /**
     * Loop-invariant load: same address every iteration. A nonzero
     * @p vl_override fixes the length regardless of the iteration
     * VL (used for cross-iteration temporaries whose tag must match
     * exactly for dynamic load elimination).
     */
    VVid vloadFixed(int array, uint64_t offset_bytes = 0,
                    uint16_t vl_override = 0);

    void vstore(int array, VVid v, int64_t stride_elems = 1);
    void vstoreFixed(int array, VVid v, uint64_t offset_bytes = 0,
                     uint16_t vl_override = 0);

    /**
     * Indexed load over the whole array region. @p pattern declares
     * how the index vector was generated (the default Random models
     * an arbitrary table lookup); @p pattern_param is its parameter
     * (e.g. the modulus of IndexPattern::CongruentMod).
     */
    VVid vgather(int array, VVid index,
                 IndexPattern pattern = IndexPattern::Random,
                 uint32_t pattern_param = 0);
    void vscatter(int array, VVid data, VVid index,
                  IndexPattern pattern = IndexPattern::Random,
                  uint32_t pattern_param = 0);

    VVid varith(Opcode op, VVid a, VVid b = -1);
    VVid vadd(VVid a, VVid b) { return varith(Opcode::VAdd, a, b); }
    VVid vmul(VVid a, VVid b) { return varith(Opcode::VMul, a, b); }
    VVid vdiv(VVid a, VVid b) { return varith(Opcode::VDiv, a, b); }
    VVid vsqrt(VVid a) { return varith(Opcode::VSqrt, a); }
    VVid vlogic(VVid a, VVid b) { return varith(Opcode::VLogic, a, b); }
    VVid vshift(VVid a) { return varith(Opcode::VShift, a); }

    /** Compare a,b into the mask then merge a,b under the mask. */
    VVid vcmpMerge(VVid a, VVid b);

    /** Reduce a vector to a scalar (sum/max style). */
    SVid vreduce(VVid v);

    SVid sarith(Opcode op, SVid a, SVid b = -1);

    /** Load/store a loop-carried scalar via its memory home slot. */
    SVid sloadSlot(int slot);
    void sstoreSlot(int slot, SVid v);

    /** n dependent scalar ALU ops modeling non-vectorized work. */
    void scalarChain(int n);

    const std::string &name() const { return name_; }
    const std::vector<KOp> &ops() const { return ops_; }
    int numVVals() const { return static_cast<int>(vUses_.size()); }
    int numSVals() const { return static_cast<int>(sUses_.size()); }

    /**
     * Per vector (scalar) value, the positions in ops() of the ops
     * that read it, in op order. An op that reads a value twice is
     * listed twice.
     */
    const std::vector<std::vector<int>> &vUses() const { return vUses_; }
    const std::vector<std::vector<int>> &sUses() const { return sUses_; }

  private:
    /** @p op, about to be added, reads value @p id of @p uses's class. */
    void read(KOp &op, std::vector<std::vector<int>> &uses, int id);

    /**
     * Append @p op. A non-null @p result gives the op a new value of
     * that class (vUses_ or sUses_), whose id it returns.
     */
    int add(KOp op, std::vector<std::vector<int>> *result = nullptr);

    std::string name_;
    std::vector<KOp> ops_;
    std::vector<std::vector<int>> vUses_;
    std::vector<std::vector<int>> sUses_;
};

} // namespace oova

#endif // OOVA_TGEN_KERNEL_HH
