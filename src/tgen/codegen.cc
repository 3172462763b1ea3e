#include "tgen/codegen.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace oova
{

namespace
{

constexpr Addr kScalarSpillRegion = 0x7a000000ULL;
constexpr int kMaxVVidsPerLoop = 512;
constexpr int kMaxSVidsPerLoop = 512;
constexpr int kInfinity = std::numeric_limits<int>::max();

/** V-source operand positions of an op (indices into op.srcs). */
void
forEachVSrc(const KOp &op, const std::function<void(int)> &fn)
{
    using K = KOp::Kind;
    switch (op.kind) {
    case K::VStore:
    case K::VGather:
    case K::VReduce:
        fn(op.srcs[0]);
        break;
    case K::VScatter:
        fn(op.srcs[0]);
        fn(op.srcs[1]);
        break;
    case K::VArith:
    case K::VCmpMerge:
        for (int i = 0; i < op.nsrcs; ++i)
            fn(op.srcs[i]);
        break;
    default:
        break;
    }
}

void
forEachSSrc(const KOp &op, const std::function<void(int)> &fn)
{
    using K = KOp::Kind;
    switch (op.kind) {
    case K::SArith:
        for (int i = 0; i < op.nsrcs; ++i)
            fn(op.srcs[i]);
        break;
    case K::SStoreSlot:
        fn(op.srcs[0]);
        break;
    default:
        break;
    }
}

} // namespace

CodeGen::CodeGen(const Program &prog, const GenOptions &opts)
    : prog_(prog), opts_(opts)
{
    streamRegHolder_.fill(-1);
}

void
CodeGen::BlockAlloc::reset(int num_regs, int num_vids,
                           const std::vector<std::vector<int>> &use_pos)
{
    numRegs = num_regs;
    holder.assign(num_regs, -1);
    pinned.assign(num_regs, false);
    regOf.assign(num_vids, -1);
    spilled.assign(num_vids, false);
    cursor.assign(num_vids, 0);
    usesLeft.assign(num_vids, 0);
    for (int v = 0; v < num_vids; ++v)
        usesLeft[v] = static_cast<int>(use_pos[v].size());
    rrNext = 0;
}

int
CodeGen::BlockAlloc::nextUse(
    int vid, const std::vector<std::vector<int>> &use_pos) const
{
    if (cursor[vid] >= static_cast<int>(use_pos[vid].size()))
        return kInfinity;
    return use_pos[vid][cursor[vid]];
}

const CodeGen::KernelInfo &
CodeGen::kernelInfo(const Kernel *k)
{
    auto it = kernelInfoCache_.find(k);
    if (it != kernelInfoCache_.end())
        return it->second;

    KernelInfo info;
    info.vUsePos.resize(k->numVVals());
    info.sUsePos.resize(k->numSVals());
    const auto &ops = k->ops();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        forEachVSrc(ops[i], [&](int v) {
            sim_assert(v >= 0 && v < k->numVVals(),
                       "kernel %s: op %d uses undefined vector value",
                       k->name().c_str(), i);
            info.vUsePos[v].push_back(i);
        });
        forEachSSrc(ops[i], [&](int s) {
            sim_assert(s >= 0 && s < k->numSVals(),
                       "kernel %s: op %d uses undefined scalar value",
                       k->name().c_str(), i);
            info.sUsePos[s].push_back(i);
        });
    }
    return kernelInfoCache_.emplace(k, std::move(info)).first->second;
}

void
CodeGen::emit(DynInst inst)
{
    inst.pc = blockBase_ + pcIndex_ * 4;
    ++pcIndex_;
    trace_.push(inst);
}

Addr
CodeGen::vSpillAddr(size_t loop_idx, int vvid) const
{
    sim_assert(vvid < kMaxVVidsPerLoop, "too many vector values");
    return prog_.vectorSpillBase() +
           (static_cast<Addr>(loop_idx) * kMaxVVidsPerLoop + vvid) *
               (kMaxVectorLength * kElemBytes);
}

Addr
CodeGen::sSpillAddr(size_t loop_idx, int svid) const
{
    sim_assert(svid < kMaxSVidsPerLoop, "too many scalar values");
    return kScalarSpillRegion +
           (static_cast<Addr>(loop_idx) * kMaxSVidsPerLoop + svid) *
               kElemBytes;
}

int
CodeGen::pickVictim(BlockAlloc &ba,
                    const std::vector<std::vector<int>> &use_pos) const
{
    int victim = -1;
    int victim_next = -1;
    for (int r = 0; r < ba.numRegs; ++r) {
        if (ba.pinned[r] || ba.holder[r] < 0)
            continue;
        int nu = ba.nextUse(ba.holder[r], use_pos);
        if (nu > victim_next) {
            victim_next = nu;
            victim = r;
        }
    }
    sim_assert(victim >= 0, "no evictable register");
    return victim;
}

int
CodeGen::allocV(int vvid, uint16_t vl, size_t loop_idx)
{
    // Free register first (round-robin scan to spread usage over the
    // banked file of the reference machine).
    for (int i = 0; i < vAlloc_.numRegs; ++i) {
        int r = (vAlloc_.rrNext + i) % vAlloc_.numRegs;
        if (vAlloc_.holder[r] < 0 && !vAlloc_.pinned[r]) {
            vAlloc_.rrNext = (r + 1) % vAlloc_.numRegs;
            vAlloc_.holder[r] = vvid;
            vAlloc_.regOf[vvid] = r;
            return r;
        }
    }
    // Evict the holder with the farthest next use; spill it if it is
    // still needed and has no valid spill copy.
    int r = pickVictim(vAlloc_, curInfo_->vUsePos);
    int victim = vAlloc_.holder[r];
    if (vAlloc_.usesLeft[victim] > 0 && !vAlloc_.spilled[victim]) {
        emit(makeVStore(vReg(static_cast<uint8_t>(r)),
                        aReg(kSpillBaseAReg),
                        vSpillAddr(loop_idx, victim), kElemBytes, vl,
                        /*is_spill=*/true));
        vAlloc_.spilled[victim] = true;
    }
    vAlloc_.regOf[victim] = -1;
    vAlloc_.holder[r] = vvid;
    vAlloc_.regOf[vvid] = r;
    return r;
}

int
CodeGen::ensureV(int vvid, uint16_t vl, size_t loop_idx)
{
    int r = vAlloc_.regOf[vvid];
    if (r >= 0) {
        vAlloc_.pinned[r] = true;
        return r;
    }
    sim_assert(vAlloc_.spilled[vvid],
               "vector value %d neither resident nor spilled", vvid);
    r = allocV(vvid, vl, loop_idx);
    vAlloc_.pinned[r] = true;
    emit(makeVLoad(vReg(static_cast<uint8_t>(r)), aReg(kSpillBaseAReg),
                   vSpillAddr(loop_idx, vvid), kElemBytes, vl,
                   /*is_spill=*/true));
    return r;
}

void
CodeGen::consumeV(int vvid)
{
    ++vAlloc_.cursor[vvid];
    --vAlloc_.usesLeft[vvid];
    sim_assert(vAlloc_.usesLeft[vvid] >= 0, "over-consumed value");
    if (vAlloc_.usesLeft[vvid] == 0) {
        int r = vAlloc_.regOf[vvid];
        if (r >= 0) {
            vAlloc_.holder[r] = -1;
            vAlloc_.regOf[vvid] = -1;
        }
    }
}

int
CodeGen::allocS(int svid, size_t loop_idx)
{
    for (int i = 0; i < sAlloc_.numRegs; ++i) {
        int r = (sAlloc_.rrNext + i) % sAlloc_.numRegs;
        if (sAlloc_.holder[r] < 0 && !sAlloc_.pinned[r]) {
            sAlloc_.rrNext = (r + 1) % sAlloc_.numRegs;
            sAlloc_.holder[r] = svid;
            sAlloc_.regOf[svid] = r;
            return r;
        }
    }
    int r = pickVictim(sAlloc_, curInfo_->sUsePos);
    int victim = sAlloc_.holder[r];
    if (sAlloc_.usesLeft[victim] > 0 && !sAlloc_.spilled[victim]) {
        emit(makeSStore(sReg(static_cast<uint8_t>(r)),
                        aReg(kSpillBaseAReg),
                        sSpillAddr(loop_idx, victim),
                        /*is_spill=*/true));
        sAlloc_.spilled[victim] = true;
    }
    sAlloc_.regOf[victim] = -1;
    sAlloc_.holder[r] = svid;
    sAlloc_.regOf[svid] = r;
    return r;
}

int
CodeGen::ensureS(int svid, size_t loop_idx)
{
    int r = sAlloc_.regOf[svid];
    if (r >= 0) {
        sAlloc_.pinned[r] = true;
        return r;
    }
    sim_assert(sAlloc_.spilled[svid],
               "scalar value %d neither resident nor spilled", svid);
    r = allocS(svid, loop_idx);
    sAlloc_.pinned[r] = true;
    emit(makeSLoad(sReg(static_cast<uint8_t>(r)), aReg(kSpillBaseAReg),
                   sSpillAddr(loop_idx, svid), /*is_spill=*/true));
    return r;
}

void
CodeGen::consumeS(int svid)
{
    ++sAlloc_.cursor[svid];
    --sAlloc_.usesLeft[svid];
    sim_assert(sAlloc_.usesLeft[svid] >= 0, "over-consumed value");
    if (sAlloc_.usesLeft[svid] == 0) {
        int r = sAlloc_.regOf[svid];
        if (r >= 0) {
            sAlloc_.holder[r] = -1;
            sAlloc_.regOf[svid] = -1;
        }
    }
}

int
CodeGen::streamId(size_t loop_idx, int op_idx)
{
    auto key = std::make_pair(loop_idx, op_idx);
    auto it = streamIds_.find(key);
    if (it != streamIds_.end())
        return it->second;
    int sid = static_cast<int>(streams_.size());
    Stream s;
    s.home = prog_.streamHomeBase() +
             static_cast<Addr>(sid) * kElemBytes;
    streams_.push_back(s);
    streamIds_.emplace(key, sid);
    return sid;
}

void
CodeGen::resetStreamRegs()
{
    streamRegHolder_.fill(-1);
    for (auto &s : streams_) {
        s.areg = -1;
        s.dirty = false;
    }
}

int
CodeGen::ensureStream(int sid)
{
    Stream &s = streams_[sid];
    s.lastUse = ++useClock_;
    if (s.areg >= 0)
        return s.areg;

    // Find a free stream register, else evict the LRU one.
    int reg = -1;
    for (int r = 0; r < kNumStreamRegs; ++r) {
        if (streamRegHolder_[r] < 0) {
            reg = r;
            break;
        }
    }
    if (reg < 0) {
        uint64_t oldest = UINT64_MAX;
        for (int r = 0; r < kNumStreamRegs; ++r) {
            const Stream &h = streams_[streamRegHolder_[r]];
            if (h.lastUse < oldest) {
                oldest = h.lastUse;
                reg = r;
            }
        }
        Stream &victim = streams_[streamRegHolder_[reg]];
        if (victim.dirty) {
            emit(makeSStore(aReg(static_cast<uint8_t>(reg)),
                            aReg(kSpillBaseAReg), victim.home,
                            /*is_spill=*/true));
            victim.dirty = false;
        }
        victim.areg = -1;
    }
    // Load the pointer from its home. The very first touch is the
    // initial pointer load (not pressure induced), so not a spill.
    emit(makeSLoad(aReg(static_cast<uint8_t>(reg)),
                   aReg(kSpillBaseAReg), s.home,
                   /*is_spill=*/s.loaded));
    s.loaded = true;
    s.areg = reg;
    streamRegHolder_[reg] = sid;
    return reg;
}

void
CodeGen::bumpStream(int sid, int64_t advance_bytes)
{
    Stream &s = streams_[sid];
    sim_assert(s.areg >= 0, "bump of non-resident stream");
    s.cur = static_cast<Addr>(static_cast<int64_t>(s.cur) +
                              advance_bytes);
    emit(makeScalar(Opcode::SAdd, aReg(static_cast<uint8_t>(s.areg)),
                    aReg(static_cast<uint8_t>(s.areg))));
    s.dirty = true;
}

void
CodeGen::emitIteration(const LoopSpec &loop, size_t loop_idx,
                       uint64_t iter, uint16_t vl, bool last_iter)
{
    (void)iter;
    const Kernel &k = *loop.kernel;
    const KernelInfo &info = kernelInfo(&k);
    curInfo_ = &info;

    if (vl != curVl_) {
        DynInst setvl;
        setvl.op = Opcode::SetVL;
        setvl.vl = 1;
        emit(setvl);
    }
    curVl_ = vl;

    vAlloc_.reset(static_cast<int>(kNumLogicalVRegs), k.numVVals(),
                  info.vUsePos);
    sAlloc_.reset(kNumAllocSRegs, k.numSVals(), info.sUsePos);

    const auto &ops = k.ops();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        const KOp &op = ops[i];
        using K = KOp::Kind;

        // Reset per-op pinning.
        std::fill(vAlloc_.pinned.begin(), vAlloc_.pinned.end(), false);
        std::fill(sAlloc_.pinned.begin(), sAlloc_.pinned.end(), false);

        switch (op.kind) {
        case K::VLoad: {
            int sid = streamId(loop_idx, i);
            int areg = ensureStream(sid);
            Addr addr = op.fixedAddr
                            ? prog_.arrayBase(op.array) + op.offsetBytes
                            : streams_[sid].cur;
            uint16_t use_vl = op.vlOverride ? op.vlOverride : vl;
            int r = allocV(op.dst, vl, loop_idx);
            emit(makeVLoad(vReg(static_cast<uint8_t>(r)),
                           aReg(static_cast<uint8_t>(areg)), addr,
                           op.strideElems * kElemBytes, use_vl));
            if (vAlloc_.usesLeft[op.dst] == 0) {
                vAlloc_.holder[r] = -1; // dead load
                vAlloc_.regOf[op.dst] = -1;
            }
            if (!op.fixedAddr)
                bumpStream(sid, static_cast<int64_t>(vl) *
                                    op.strideElems * kElemBytes);
            break;
        }
        case K::VStore: {
            int r = ensureV(op.srcs[0], vl, loop_idx);
            int sid = streamId(loop_idx, i);
            int areg = ensureStream(sid);
            Addr addr = op.fixedAddr
                            ? prog_.arrayBase(op.array) + op.offsetBytes
                            : streams_[sid].cur;
            uint16_t use_vl = op.vlOverride ? op.vlOverride : vl;
            emit(makeVStore(vReg(static_cast<uint8_t>(r)),
                            aReg(static_cast<uint8_t>(areg)), addr,
                            op.strideElems * kElemBytes, use_vl));
            consumeV(op.srcs[0]);
            if (!op.fixedAddr)
                bumpStream(sid, static_cast<int64_t>(vl) *
                                    op.strideElems * kElemBytes);
            break;
        }
        case K::VGather: {
            int ri = ensureV(op.srcs[0], vl, loop_idx);
            int sid = streamId(loop_idx, i);
            int areg = ensureStream(sid);
            int rd = allocV(op.dst, vl, loop_idx);
            DynInst inst;
            inst.op = Opcode::VGather;
            inst.dst = vReg(static_cast<uint8_t>(rd));
            inst.addSrc(vReg(static_cast<uint8_t>(ri)));
            inst.addSrc(aReg(static_cast<uint8_t>(areg)));
            inst.vl = vl;
            inst.addr = prog_.arrayBase(op.array);
            inst.regionBytes =
                static_cast<uint32_t>(prog_.arrayBytes(op.array));
            inst.idxPattern = op.idxPattern;
            inst.idxParam = op.idxParam;
            // Seed from the trace position: deterministic, but each
            // dynamic instance gets its own index placement.
            inst.idxSeed = trace_.size() + 1;
            emit(inst);
            consumeV(op.srcs[0]);
            if (vAlloc_.usesLeft[op.dst] == 0) {
                vAlloc_.holder[rd] = -1;
                vAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::VScatter: {
            int rd = ensureV(op.srcs[0], vl, loop_idx);
            int ri = ensureV(op.srcs[1], vl, loop_idx);
            int sid = streamId(loop_idx, i);
            int areg = ensureStream(sid);
            DynInst inst;
            inst.op = Opcode::VScatter;
            inst.addSrc(vReg(static_cast<uint8_t>(rd)));
            inst.addSrc(vReg(static_cast<uint8_t>(ri)));
            inst.addSrc(aReg(static_cast<uint8_t>(areg)));
            inst.vl = vl;
            inst.addr = prog_.arrayBase(op.array);
            inst.regionBytes =
                static_cast<uint32_t>(prog_.arrayBytes(op.array));
            inst.idxPattern = op.idxPattern;
            inst.idxParam = op.idxParam;
            inst.idxSeed = trace_.size() + 1;
            emit(inst);
            consumeV(op.srcs[0]);
            consumeV(op.srcs[1]);
            break;
        }
        case K::VArith: {
            int ra = ensureV(op.srcs[0], vl, loop_idx);
            int rb = -1;
            if (op.nsrcs > 1)
                rb = ensureV(op.srcs[1], vl, loop_idx);
            int rd = allocV(op.dst, vl, loop_idx);
            emit(makeVArith(op.opc, vReg(static_cast<uint8_t>(rd)),
                            vReg(static_cast<uint8_t>(ra)),
                            rb >= 0 ? vReg(static_cast<uint8_t>(rb))
                                    : RegId(),
                            vl));
            for (int sidx = 0; sidx < op.nsrcs; ++sidx)
                consumeV(op.srcs[sidx]);
            if (vAlloc_.usesLeft[op.dst] == 0) {
                vAlloc_.holder[rd] = -1;
                vAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::VCmpMerge: {
            int ra = ensureV(op.srcs[0], vl, loop_idx);
            int rb = ensureV(op.srcs[1], vl, loop_idx);
            DynInst cmp = makeVArith(Opcode::VCmp, mReg(0),
                                     vReg(static_cast<uint8_t>(ra)),
                                     vReg(static_cast<uint8_t>(rb)),
                                     vl);
            emit(cmp);
            int rd = allocV(op.dst, vl, loop_idx);
            DynInst merge = makeVArith(
                Opcode::VMerge, vReg(static_cast<uint8_t>(rd)),
                vReg(static_cast<uint8_t>(ra)),
                vReg(static_cast<uint8_t>(rb)), vl);
            merge.addSrc(mReg(0));
            emit(merge);
            consumeV(op.srcs[0]);
            consumeV(op.srcs[1]);
            if (vAlloc_.usesLeft[op.dst] == 0) {
                vAlloc_.holder[rd] = -1;
                vAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::VReduce: {
            int rv = ensureV(op.srcs[0], vl, loop_idx);
            int rs = allocS(op.dst, loop_idx);
            DynInst inst = makeVArith(Opcode::VReduce,
                                      sReg(static_cast<uint8_t>(rs)),
                                      vReg(static_cast<uint8_t>(rv)),
                                      RegId(), vl);
            emit(inst);
            consumeV(op.srcs[0]);
            if (sAlloc_.usesLeft[op.dst] == 0) {
                sAlloc_.holder[rs] = -1;
                sAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::SArith: {
            int ra = -1, rb = -1;
            if (op.nsrcs > 0)
                ra = ensureS(op.srcs[0], loop_idx);
            if (op.nsrcs > 1)
                rb = ensureS(op.srcs[1], loop_idx);
            int rd = allocS(op.dst, loop_idx);
            emit(makeScalar(op.opc, sReg(static_cast<uint8_t>(rd)),
                            ra >= 0 ? sReg(static_cast<uint8_t>(ra))
                                    : RegId(),
                            rb >= 0 ? sReg(static_cast<uint8_t>(rb))
                                    : RegId()));
            for (int sidx = 0; sidx < op.nsrcs; ++sidx)
                consumeS(op.srcs[sidx]);
            if (sAlloc_.usesLeft[op.dst] == 0) {
                sAlloc_.holder[rd] = -1;
                sAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::SLoadSlot: {
            int rd = allocS(op.dst, loop_idx);
            emit(makeSLoad(sReg(static_cast<uint8_t>(rd)),
                           aReg(kSpillBaseAReg),
                           prog_.scalarSlotAddr(op.slot),
                           /*is_spill=*/true));
            if (sAlloc_.usesLeft[op.dst] == 0) {
                sAlloc_.holder[rd] = -1;
                sAlloc_.regOf[op.dst] = -1;
            }
            break;
        }
        case K::SStoreSlot: {
            int rs = ensureS(op.srcs[0], loop_idx);
            emit(makeSStore(sReg(static_cast<uint8_t>(rs)),
                            aReg(kSpillBaseAReg),
                            prog_.scalarSlotAddr(op.slot),
                            /*is_spill=*/true));
            consumeS(op.srcs[0]);
            break;
        }
        case K::ScalarChain: {
            // Two interleaved dependence chains, re-seeded every few
            // operations: models the mix of serial and mildly
            // parallel scalar bookkeeping around the vector loops.
            // The reseeding (a move with no source) lets renaming
            // overlap chain segments while the in-order reference
            // machine pays the full interlock.
            for (int c = 0; c < op.chainLen; ++c) {
                uint8_t r = (c % 2 == 0)
                                ? static_cast<uint8_t>(kChainSRegA)
                                : static_cast<uint8_t>(kChainSRegB);
                if (c % 8 < 2) {
                    emit(makeScalar(Opcode::SMove, sReg(r), RegId()));
                    continue;
                }
                Opcode opc =
                    (c % 8 == 7) ? Opcode::SMul : Opcode::SAdd;
                emit(makeScalar(opc, sReg(r), sReg(r)));
            }
            break;
        }
        }
    }

    // Loop control: bump the counter and branch back unless done.
    emit(makeScalar(Opcode::SAdd, aReg(kCounterAReg),
                    aReg(kCounterAReg)));
    DynInst br = makeBranch(aReg(kCounterAReg), !last_iter,
                            blockBase_);
    br.pc = blockBase_ + 0x3fff0;
    ++pcIndex_;
    trace_.push(br); // pc assigned manually: stable branch address
}

void
CodeGen::runLoop(const LoopSpec &loop, size_t loop_idx)
{
    uint64_t trips = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround(static_cast<double>(loop.trips) *
                            opts_.scale)));

    blockBase_ = 0x1000 + static_cast<Addr>(loop_idx) * 0x40000;
    pcIndex_ = 0;
    curVl_ = 0; // force a SetVL on loop entry

    // Enter the loop body through a call so the OOOVA return stack
    // sees realistic call/return traffic.
    DynInst call = makeCall(blockBase_);
    call.pc = blockBase_ - 8;
    trace_.push(call);

    // Stream pointers restart at the array bases on loop entry.
    resetStreamRegs();
    for (const auto &[key, sid] : streamIds_) {
        if (key.first == loop_idx) {
            const KOp &op = loop.kernel->ops()[key.second];
            if (op.array >= 0)
                streams_[sid].cur = prog_.arrayBase(op.array);
        }
    }

    for (uint64_t iter = 0; iter < trips; ++iter) {
        pcIndex_ = 0;
        uint16_t vl = loop.vlOf(iter);
        sim_assert(vl >= 1 && vl <= kMaxVectorLength,
                   "loop %zu iter %llu: bad vl %u", loop_idx,
                   (unsigned long long)iter, vl);
        emitIteration(loop, loop_idx, iter, vl,
                      iter == trips - 1);
    }

    DynInst ret = makeRet(blockBase_ - 4);
    ret.pc = blockBase_ + 0x3fff8;
    trace_.push(ret);
}

Trace
CodeGen::run()
{
    sim_assert(!ran_, "CodeGen::run() called twice");
    ran_ = true;
    trace_.setName(prog_.name());

    // Pre-create stream ids so loop entry can reset pointers.
    for (size_t li = 0; li < prog_.loops().size(); ++li) {
        const auto &ops = prog_.loops()[li].kernel->ops();
        for (int oi = 0; oi < static_cast<int>(ops.size()); ++oi) {
            const KOp &op = ops[oi];
            if (op.kind == KOp::Kind::VLoad ||
                op.kind == KOp::Kind::VStore ||
                op.kind == KOp::Kind::VGather ||
                op.kind == KOp::Kind::VScatter) {
                int sid = streamId(li, oi);
                streams_[sid].cur = prog_.arrayBase(op.array);
            }
        }
    }

    // Preamble: set up the spill-base and counter registers.
    blockBase_ = 0x100;
    pcIndex_ = 0;
    emit(makeScalar(Opcode::SMove, aReg(kSpillBaseAReg), RegId()));
    emit(makeScalar(Opcode::SMove, aReg(kCounterAReg), RegId()));
    emit(makeScalar(Opcode::SMove, sReg(kChainSRegA), RegId()));
    emit(makeScalar(Opcode::SMove, sReg(kChainSRegB), RegId()));

    for (unsigned rep = 0; rep < prog_.outerReps(); ++rep)
        for (size_t li = 0; li < prog_.loops().size(); ++li)
            runLoop(prog_.loops()[li], li);

    return std::move(trace_);
}

} // namespace oova
