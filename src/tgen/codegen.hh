/**
 * @file
 * Lowering from the kernel IR to the dynamic instruction trace.
 *
 * The generator plays the role of the Convex compiler plus the Dixie
 * tracer: it strip-mines loops, and one register allocator assigns
 * both the 8 architected vector registers and the 6 allocatable S
 * registers with a Belady (farthest-next-use) policy, spilling to a
 * dedicated spill region when pressure exceeds the file. It keeps
 * array stream pointers in the 6 allocatable A registers with LRU
 * replacement (spilling pointers to their memory homes when they
 * overflow), and emits the loop-control scalar code and branches.
 *
 * The spill code it emits is the raw material for the paper's
 * Table 3 and the dynamic-load-elimination experiments.
 */

#ifndef OOVA_TGEN_CODEGEN_HH
#define OOVA_TGEN_CODEGEN_HH

#include <array>
#include <map>
#include <vector>

#include "tgen/program.hh"

namespace oova
{

/** One-shot lowering engine; use Program::generate() normally. */
class CodeGen
{
  public:
    CodeGen(const Program &prog, const GenOptions &opts);

    /** Produce the trace (callable once). */
    Trace run();

  private:
    // Block-scoped register allocation state for one register class
    // (V or S). A value's uses are the kernel's vUses() or sUses().
    struct BlockAlloc
    {
        BlockAlloc(RegClass cls, int num_regs, Addr spill_region,
                   Addr slot_bytes);

        const RegClass cls;
        const int numRegs;
        const Addr spillRegion; // this class's spill slots, all loops
        const Addr slotBytes;   // one spill slot

        const std::vector<std::vector<int>> *uses = nullptr;
        Addr spillBase = 0;       // the current loop's spill slots
        std::vector<int> holder;  // reg -> value (-1 free)
        std::vector<int> regOf;   // value -> reg (-1 not resident)
        std::vector<bool> spilled;
        std::vector<int> cursor;  // next unconsumed use index
        std::vector<bool> pinned; // per reg, during one op
        int rrNext = 0;           // round-robin start for free scan

        /** Start a block of one iteration of loop @p loop_idx. */
        void reset(const std::vector<std::vector<int>> &value_uses,
                   size_t loop_idx);
        /** Reads of @p vid not yet consumed. */
        int usesLeft(int vid) const;
        /** Op position of @p vid's next read (INT_MAX if none). */
        int nextUse(int vid) const;
        /** The unpinned holder with the farthest next use. */
        int pickVictim() const;
        /** Free @p vid's register, if it holds one. */
        void release(int vid);
    };

    // Array stream pointers living in A registers a0..a5.
    struct Stream
    {
        Addr cur = 0;
        Addr home = 0;
        int areg = -1; // index into stream regs (0..5)
        bool dirty = false;
        uint64_t lastUse = 0;
        bool loaded = false; // pointer has been in a register before
    };

    static constexpr int kNumStreamRegs = 6;  // a0..a5
    static constexpr int kSpillBaseAReg = 6;  // a6
    static constexpr int kCounterAReg = 7;    // a7
    static constexpr int kChainSRegA = 7;     // s7 scratch chain 1
    static constexpr int kChainSRegB = 6;     // s6 scratch chain 2
    static constexpr int kNumAllocSRegs = 6;  // s0..s5

    void emit(DynInst inst);
    void runLoop(const LoopSpec &loop, size_t loop_idx);
    void emitIteration(const LoopSpec &loop, size_t loop_idx,
                       uint16_t vl, bool last_iter);

    // Stream (A register) management.
    int streamId(size_t loop_idx, int op_idx);
    /** The A register holding stream @p sid, loaded if needed. */
    RegId streamReg(int sid);
    void bumpStream(int sid, int64_t advance_bytes);
    void resetStreamRegs();

    // Register allocation, one algorithm for both classes; spill
    // code is emitted as needed.
    /** A register for @p vid: a free one, else evict a victim. */
    int alloc(BlockAlloc &ba, int vid);
    /** @p vid's register for the current op (reloaded if spilled). */
    RegId ensure(BlockAlloc &ba, int vid);
    /** Allocate an op's result, freed at once when nothing reads it. */
    RegId define(BlockAlloc &ba, int vid);
    /** The op has read its sources (all of @p ba's class). */
    void consume(BlockAlloc &ba, const KOp &op);
    /** Emit the class's spill store or reload of @p vid in @p reg. */
    void spillInst(const BlockAlloc &ba, int reg, int vid, bool store);

    const Program &prog_;
    GenOptions opts_;
    Trace trace_;

    std::map<std::pair<size_t, int>, int> streamIds_;
    std::vector<Stream> streams_;
    std::array<int, kNumStreamRegs> streamRegHolder_;
    uint64_t useClock_ = 0;

    BlockAlloc vAlloc_;
    BlockAlloc sAlloc_;

    uint16_t curVl_ = 0;
    Addr blockBase_ = 0;
    uint64_t pcIndex_ = 0;
    bool ran_ = false;
};

} // namespace oova

#endif // OOVA_TGEN_CODEGEN_HH
