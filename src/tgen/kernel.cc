#include "tgen/kernel.hh"

#include "common/logging.hh"

namespace oova
{

void
Kernel::read(KOp &op, std::vector<std::vector<int>> &uses, int id)
{
    sim_assert(id >= 0 && id < static_cast<int>(uses.size()),
               "kernel %s: op %zu reads %s value %d before it is defined",
               name_.c_str(), ops_.size(),
               &uses == &vUses_ ? "vector" : "scalar", id);
    uses[id].push_back(static_cast<int>(ops_.size()));
    op.srcs[op.nsrcs++] = id;
}

int
Kernel::add(KOp op, std::vector<std::vector<int>> *result)
{
    if (result) {
        op.dst = static_cast<int>(result->size());
        result->emplace_back();
    }
    ops_.push_back(op);
    return op.dst;
}

VVid
Kernel::vload(int array, int64_t stride_elems)
{
    return add({.kind = KOp::Kind::VLoad,
                .opc = Opcode::VLoad,
                .array = array,
                .strideElems = stride_elems},
               &vUses_);
}

VVid
Kernel::vloadFixed(int array, uint64_t offset_bytes,
                   uint16_t vl_override)
{
    return add({.kind = KOp::Kind::VLoad,
                .opc = Opcode::VLoad,
                .array = array,
                .fixedAddr = true,
                .offsetBytes = offset_bytes,
                .vlOverride = vl_override},
               &vUses_);
}

void
Kernel::vstore(int array, VVid v, int64_t stride_elems)
{
    KOp op{.kind = KOp::Kind::VStore,
           .opc = Opcode::VStore,
           .array = array,
           .strideElems = stride_elems};
    read(op, vUses_, v);
    add(op);
}

void
Kernel::vstoreFixed(int array, VVid v, uint64_t offset_bytes,
                    uint16_t vl_override)
{
    KOp op{.kind = KOp::Kind::VStore,
           .opc = Opcode::VStore,
           .array = array,
           .fixedAddr = true,
           .offsetBytes = offset_bytes,
           .vlOverride = vl_override};
    read(op, vUses_, v);
    add(op);
}

VVid
Kernel::vgather(int array, VVid index, IndexPattern pattern,
                uint32_t pattern_param)
{
    KOp op{.kind = KOp::Kind::VGather,
           .opc = Opcode::VGather,
           .array = array,
           .fixedAddr = true,
           .idxPattern = pattern,
           .idxParam = pattern_param};
    read(op, vUses_, index);
    return add(op, &vUses_);
}

void
Kernel::vscatter(int array, VVid data, VVid index,
                 IndexPattern pattern, uint32_t pattern_param)
{
    KOp op{.kind = KOp::Kind::VScatter,
           .opc = Opcode::VScatter,
           .array = array,
           .fixedAddr = true,
           .idxPattern = pattern,
           .idxParam = pattern_param};
    read(op, vUses_, data);
    read(op, vUses_, index);
    add(op);
}

VVid
Kernel::varith(Opcode opc, VVid a, VVid b)
{
    sim_assert(traits(opc).isVector && !traits(opc).isMem,
               "varith with non-arith opcode %s", opName(opc));
    KOp op{.kind = KOp::Kind::VArith, .opc = opc};
    read(op, vUses_, a);
    if (b >= 0)
        read(op, vUses_, b);
    return add(op, &vUses_);
}

VVid
Kernel::vcmpMerge(VVid a, VVid b)
{
    KOp op{.kind = KOp::Kind::VCmpMerge, .opc = Opcode::VMerge};
    read(op, vUses_, a);
    read(op, vUses_, b);
    return add(op, &vUses_);
}

SVid
Kernel::vreduce(VVid v)
{
    KOp op{.kind = KOp::Kind::VReduce, .opc = Opcode::VReduce};
    read(op, vUses_, v);
    return add(op, &sUses_);
}

SVid
Kernel::sarith(Opcode opc, SVid a, SVid b)
{
    KOp op{.kind = KOp::Kind::SArith, .opc = opc};
    if (a >= 0)
        read(op, sUses_, a);
    if (b >= 0)
        read(op, sUses_, b);
    return add(op, &sUses_);
}

SVid
Kernel::sloadSlot(int slot)
{
    return add({.kind = KOp::Kind::SLoadSlot,
                .opc = Opcode::SLoad,
                .slot = slot},
               &sUses_);
}

void
Kernel::sstoreSlot(int slot, SVid v)
{
    KOp op{.kind = KOp::Kind::SStoreSlot,
           .opc = Opcode::SStore,
           .slot = slot};
    read(op, sUses_, v);
    add(op);
}

void
Kernel::scalarChain(int n)
{
    sim_assert(n > 0, "empty scalar chain");
    add({.kind = KOp::Kind::ScalarChain, .chainLen = n});
}

} // namespace oova
