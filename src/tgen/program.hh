/**
 * @file
 * A synthetic program: arrays, scalar slots, and a sequence of
 * strip-mined loops over kernels, optionally repeated (outer loop).
 * Program::generate() lowers everything to a dynamic instruction
 * Trace through the code generator.
 */

#ifndef OOVA_TGEN_PROGRAM_HH
#define OOVA_TGEN_PROGRAM_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "tgen/kernel.hh"
#include "trace/trace.hh"

namespace oova
{

/** Per-iteration vector length function. */
using VlFn = std::function<uint16_t(uint64_t iter)>;

/** Constant vector length. */
VlFn vlConstant(uint16_t vl);

/** Triangular loop: vl cycles max_vl, max_vl-step, ..., down to lo. */
VlFn vlTriangular(uint16_t max_vl, uint16_t lo, uint16_t step);

/** One strip-mined loop over a kernel. */
struct LoopSpec
{
    const Kernel *kernel;
    uint64_t trips;
    VlFn vlOf;
};

/** Trace-generation options. */
struct GenOptions
{
    /** Multiplies every loop's trip count (>= 1 trip kept). */
    double scale = 1.0;
};

/** A whole synthetic program. */
class Program
{
  public:
    explicit Program(std::string name);
    ~Program();

    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /** Allocate a data array; returns its id. */
    int array(uint64_t bytes);

    /** Allocate a loop-carried scalar home slot; returns its id. */
    int scalarSlot();

    /** Create a kernel owned by this program. */
    Kernel *newKernel(const std::string &kernel_name);

    /** Append a loop executing @p kernel for @p trips iterations. */
    void addLoop(const Kernel *kernel, uint64_t trips, VlFn vl_of);

    /** Repeat the whole loop sequence @p reps times. */
    void setOuterReps(unsigned reps) { outerReps_ = reps; }

    /** Lower to a dynamic instruction trace. */
    Trace generate(const GenOptions &opts = {}) const;

    const std::string &name() const { return name_; }
    Addr arrayBase(int id) const;
    uint64_t arrayBytes(int id) const;
    Addr scalarSlotAddr(int id) const;
    const std::vector<LoopSpec> &loops() const { return loops_; }
    unsigned outerReps() const { return outerReps_; }

    /** Base of the region holding vector spill slots. */
    Addr vectorSpillBase() const;

    /** Base of the region holding stream-pointer home locations. */
    Addr streamHomeBase() const;

  private:
    struct ArrayInfo
    {
        Addr base;
        uint64_t bytes;
    };

    std::string name_;
    std::vector<ArrayInfo> arrays_;
    int numScalarSlots_ = 0;
    std::deque<Kernel> kernels_;
    std::vector<LoopSpec> loops_;
    unsigned outerReps_ = 1;
    Addr nextArrayBase_;
};

} // namespace oova

#endif // OOVA_TGEN_PROGRAM_HH
