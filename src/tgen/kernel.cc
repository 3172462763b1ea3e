#include "tgen/kernel.hh"

#include "common/logging.hh"

namespace oova
{

VVid
Kernel::vload(int array, int64_t stride_elems)
{
    KOp op;
    op.kind = KOp::Kind::VLoad;
    op.opc = Opcode::VLoad;
    op.dst = newV();
    op.array = array;
    op.strideElems = stride_elems;
    ops_.push_back(op);
    return op.dst;
}

VVid
Kernel::vloadFixed(int array, uint64_t offset_bytes,
                   uint16_t vl_override)
{
    KOp op;
    op.kind = KOp::Kind::VLoad;
    op.opc = Opcode::VLoad;
    op.dst = newV();
    op.array = array;
    op.fixedAddr = true;
    op.offsetBytes = offset_bytes;
    op.vlOverride = vl_override;
    ops_.push_back(op);
    return op.dst;
}

void
Kernel::vstore(int array, VVid v, int64_t stride_elems)
{
    sim_assert(v >= 0 && v < numVVals_, "vstore of undefined value");
    KOp op;
    op.kind = KOp::Kind::VStore;
    op.opc = Opcode::VStore;
    op.srcs[0] = v;
    op.nsrcs = 1;
    op.array = array;
    op.strideElems = stride_elems;
    ops_.push_back(op);
}

void
Kernel::vstoreFixed(int array, VVid v, uint64_t offset_bytes,
                    uint16_t vl_override)
{
    sim_assert(v >= 0 && v < numVVals_, "vstore of undefined value");
    KOp op;
    op.kind = KOp::Kind::VStore;
    op.opc = Opcode::VStore;
    op.srcs[0] = v;
    op.nsrcs = 1;
    op.array = array;
    op.fixedAddr = true;
    op.offsetBytes = offset_bytes;
    op.vlOverride = vl_override;
    ops_.push_back(op);
}

VVid
Kernel::vgather(int array, VVid index, IndexPattern pattern,
                uint32_t pattern_param)
{
    sim_assert(index >= 0 && index < numVVals_, "gather bad index");
    KOp op;
    op.kind = KOp::Kind::VGather;
    op.opc = Opcode::VGather;
    op.dst = newV();
    op.srcs[0] = index;
    op.nsrcs = 1;
    op.array = array;
    op.fixedAddr = true;
    op.idxPattern = pattern;
    op.idxParam = pattern_param;
    ops_.push_back(op);
    return op.dst;
}

void
Kernel::vscatter(int array, VVid data, VVid index,
                 IndexPattern pattern, uint32_t pattern_param)
{
    sim_assert(data >= 0 && index >= 0, "scatter bad operands");
    KOp op;
    op.kind = KOp::Kind::VScatter;
    op.opc = Opcode::VScatter;
    op.srcs[0] = data;
    op.srcs[1] = index;
    op.nsrcs = 2;
    op.array = array;
    op.fixedAddr = true;
    op.idxPattern = pattern;
    op.idxParam = pattern_param;
    ops_.push_back(op);
}

VVid
Kernel::varith(Opcode opc, VVid a, VVid b)
{
    sim_assert(traits(opc).isVector && !traits(opc).isMem,
               "varith with non-arith opcode %s", opName(opc));
    KOp op;
    op.kind = KOp::Kind::VArith;
    op.opc = opc;
    op.dst = newV();
    op.srcs[0] = a;
    op.nsrcs = 1;
    if (b >= 0) {
        op.srcs[1] = b;
        op.nsrcs = 2;
    }
    ops_.push_back(op);
    return op.dst;
}

VVid
Kernel::vcmpMerge(VVid a, VVid b)
{
    KOp op;
    op.kind = KOp::Kind::VCmpMerge;
    op.opc = Opcode::VMerge;
    op.dst = newV();
    op.srcs[0] = a;
    op.srcs[1] = b;
    op.nsrcs = 2;
    ops_.push_back(op);
    return op.dst;
}

SVid
Kernel::vreduce(VVid v)
{
    KOp op;
    op.kind = KOp::Kind::VReduce;
    op.opc = Opcode::VReduce;
    op.dst = newS();
    op.srcs[0] = v;
    op.nsrcs = 1;
    ops_.push_back(op);
    return op.dst;
}

SVid
Kernel::sarith(Opcode opc, SVid a, SVid b)
{
    KOp op;
    op.kind = KOp::Kind::SArith;
    op.opc = opc;
    op.dst = newS();
    if (a >= 0) {
        op.srcs[0] = a;
        op.nsrcs = 1;
    }
    if (b >= 0) {
        op.srcs[op.nsrcs] = b;
        op.nsrcs++;
    }
    ops_.push_back(op);
    return op.dst;
}

SVid
Kernel::sloadSlot(int slot)
{
    KOp op;
    op.kind = KOp::Kind::SLoadSlot;
    op.opc = Opcode::SLoad;
    op.dst = newS();
    op.slot = slot;
    ops_.push_back(op);
    return op.dst;
}

void
Kernel::sstoreSlot(int slot, SVid v)
{
    KOp op;
    op.kind = KOp::Kind::SStoreSlot;
    op.opc = Opcode::SStore;
    op.srcs[0] = v;
    op.nsrcs = 1;
    op.slot = slot;
    ops_.push_back(op);
}

void
Kernel::scalarChain(int n)
{
    sim_assert(n > 0, "empty scalar chain");
    KOp op;
    op.kind = KOp::Kind::ScalarChain;
    op.chainLen = n;
    ops_.push_back(op);
}

} // namespace oova
