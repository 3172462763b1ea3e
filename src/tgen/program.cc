#include "tgen/program.hh"

#include "common/logging.hh"
#include "isa/registers.hh"
#include "tgen/codegen.hh"

namespace oova
{

namespace
{

// Fixed regions of the synthetic address space.
constexpr Addr kArrayRegion = 0x10000000ULL;
constexpr Addr kVectorSpillRegion = 0x70000000ULL;
constexpr Addr kScalarSlotRegion = 0x78000000ULL;
constexpr Addr kStreamHomeRegion = 0x7c000000ULL;

constexpr Addr
align4k(Addr a)
{
    return (a + 0xfffULL) & ~0xfffULL;
}

} // namespace

VlFn
vlConstant(uint16_t vl)
{
    sim_assert(vl >= 1 && vl <= kMaxVectorLength, "bad vl %u", vl);
    return [vl](uint64_t) { return vl; };
}

VlFn
vlTriangular(uint16_t max_vl, uint16_t lo, uint16_t step)
{
    sim_assert(max_vl >= lo && lo >= 1 && step >= 1,
               "bad triangular spec");
    unsigned levels = (max_vl - lo) / step + 1;
    return [max_vl, step, levels](uint64_t iter) -> uint16_t {
        unsigned level = static_cast<unsigned>(iter % levels);
        return static_cast<uint16_t>(max_vl - level * step);
    };
}

Program::Program(std::string name)
    : name_(std::move(name)), nextArrayBase_(kArrayRegion)
{
}

Program::~Program() = default;

int
Program::array(uint64_t bytes)
{
    sim_assert(bytes > 0, "empty array");
    ArrayInfo info{nextArrayBase_, bytes};
    nextArrayBase_ = align4k(nextArrayBase_ + bytes);
    arrays_.push_back(info);
    return static_cast<int>(arrays_.size()) - 1;
}

int
Program::scalarSlot()
{
    return numScalarSlots_++;
}

Kernel *
Program::newKernel(const std::string &kernel_name)
{
    kernels_.emplace_back(kernel_name);
    return &kernels_.back();
}

void
Program::addLoop(const Kernel *kernel, uint64_t trips, VlFn vl_of)
{
    sim_assert(kernel != nullptr, "null kernel");
    sim_assert(trips >= 1, "loop with no trips");
    loops_.push_back(LoopSpec{kernel, trips, std::move(vl_of)});
}

Addr
Program::arrayBase(int id) const
{
    sim_assert(id >= 0 && id < static_cast<int>(arrays_.size()),
               "bad array id %d", id);
    return arrays_[id].base;
}

uint64_t
Program::arrayBytes(int id) const
{
    sim_assert(id >= 0 && id < static_cast<int>(arrays_.size()),
               "bad array id %d", id);
    return arrays_[id].bytes;
}

Addr
Program::scalarSlotAddr(int id) const
{
    sim_assert(id >= 0 && id < numScalarSlots_, "bad slot id %d", id);
    return kScalarSlotRegion + static_cast<Addr>(id) * kElemBytes;
}

Addr
Program::vectorSpillBase() const
{
    return kVectorSpillRegion;
}

Addr
Program::streamHomeBase() const
{
    return kStreamHomeRegion;
}

Trace
Program::generate(const GenOptions &opts) const
{
    CodeGen gen(*this, opts);
    return gen.run();
}

} // namespace oova
