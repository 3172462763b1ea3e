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
constexpr int kMaxValuesPerLoop = 512; // per class
constexpr int kInfinity = std::numeric_limits<int>::max();

} // namespace

CodeGen::CodeGen(const Program &prog, const GenOptions &opts)
    : prog_(prog), opts_(opts),
      vAlloc_(RegClass::V, static_cast<int>(kNumLogicalVRegs),
              prog.vectorSpillBase(), kMaxVectorLength * kElemBytes),
      sAlloc_(RegClass::S, kNumAllocSRegs, kScalarSpillRegion,
              kElemBytes)
{
    streamRegHolder_.fill(-1);
}

CodeGen::BlockAlloc::BlockAlloc(RegClass cls, int num_regs,
                                Addr spill_region, Addr slot_bytes)
    : cls(cls), numRegs(num_regs), spillRegion(spill_region),
      slotBytes(slot_bytes)
{
}

void
CodeGen::BlockAlloc::reset(const std::vector<std::vector<int>> &value_uses,
                           size_t loop_idx)
{
    uses = &value_uses;
    spillBase = spillRegion + static_cast<Addr>(loop_idx) *
                                  kMaxValuesPerLoop * slotBytes;
    holder.assign(numRegs, -1);
    pinned.assign(numRegs, false);
    regOf.assign(uses->size(), -1);
    spilled.assign(uses->size(), false);
    cursor.assign(uses->size(), 0);
    rrNext = 0;
}

int
CodeGen::BlockAlloc::usesLeft(int vid) const
{
    return static_cast<int>((*uses)[vid].size()) - cursor[vid];
}

int
CodeGen::BlockAlloc::nextUse(int vid) const
{
    return usesLeft(vid) > 0 ? (*uses)[vid][cursor[vid]] : kInfinity;
}

int
CodeGen::BlockAlloc::pickVictim() const
{
    int victim = -1;
    int victim_next = -1;
    for (int r = 0; r < numRegs; ++r) {
        if (pinned[r] || holder[r] < 0)
            continue;
        int nu = nextUse(holder[r]);
        if (nu > victim_next) {
            victim_next = nu;
            victim = r;
        }
    }
    sim_assert(victim >= 0, "no evictable register");
    return victim;
}

void
CodeGen::BlockAlloc::release(int vid)
{
    int r = regOf[vid];
    if (r >= 0) {
        holder[r] = -1;
        regOf[vid] = -1;
    }
}

void
CodeGen::emit(DynInst inst)
{
    inst.pc = blockBase_ + pcIndex_ * 4;
    ++pcIndex_;
    trace_.push(inst);
}

void
CodeGen::spillInst(const BlockAlloc &ba, int reg, int vid, bool store)
{
    sim_assert(vid < kMaxValuesPerLoop, "too many values in one loop");
    RegId r(ba.cls, static_cast<uint8_t>(reg));
    RegId base = aReg(kSpillBaseAReg);
    Addr addr = ba.spillBase + static_cast<Addr>(vid) * ba.slotBytes;
    if (ba.cls == RegClass::V)
        emit(store ? makeVStore(r, base, addr, kElemBytes, curVl_, true)
                   : makeVLoad(r, base, addr, kElemBytes, curVl_, true));
    else
        emit(store ? makeSStore(r, base, addr, /*is_spill=*/true)
                   : makeSLoad(r, base, addr, /*is_spill=*/true));
}

int
CodeGen::alloc(BlockAlloc &ba, int vid)
{
    // Free register first (round-robin scan to spread usage over the
    // banked file of the reference machine).
    int r = -1;
    for (int i = 0; i < ba.numRegs && r < 0; ++i) {
        int c = (ba.rrNext + i) % ba.numRegs;
        if (ba.holder[c] < 0 && !ba.pinned[c]) {
            r = c;
            ba.rrNext = (r + 1) % ba.numRegs;
        }
    }
    // Else evict the holder with the farthest next use; spill it if
    // it is still needed and has no valid spill copy.
    if (r < 0) {
        r = ba.pickVictim();
        int victim = ba.holder[r];
        if (ba.usesLeft(victim) > 0 && !ba.spilled[victim]) {
            spillInst(ba, r, victim, /*store=*/true);
            ba.spilled[victim] = true;
        }
        ba.regOf[victim] = -1;
    }
    ba.holder[r] = vid;
    ba.regOf[vid] = r;
    return r;
}

RegId
CodeGen::ensure(BlockAlloc &ba, int vid)
{
    int r = ba.regOf[vid];
    if (r < 0) {
        sim_assert(ba.spilled[vid], "%s value %d neither resident nor "
                   "spilled", ba.cls == RegClass::V ? "vector" : "scalar",
                   vid);
        r = alloc(ba, vid);
        spillInst(ba, r, vid, /*store=*/false);
    }
    ba.pinned[r] = true;
    return RegId(ba.cls, static_cast<uint8_t>(r));
}

RegId
CodeGen::define(BlockAlloc &ba, int vid)
{
    int r = alloc(ba, vid);
    if (ba.usesLeft(vid) == 0)
        ba.release(vid); // dead result
    return RegId(ba.cls, static_cast<uint8_t>(r));
}

void
CodeGen::consume(BlockAlloc &ba, const KOp &op)
{
    for (int i = 0; i < op.nsrcs; ++i) {
        int vid = op.srcs[i];
        ++ba.cursor[vid];
        sim_assert(ba.usesLeft(vid) >= 0, "over-consumed value");
        if (ba.usesLeft(vid) == 0)
            ba.release(vid);
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

RegId
CodeGen::streamReg(int sid)
{
    Stream &s = streams_[sid];
    s.lastUse = ++useClock_;
    if (s.areg >= 0)
        return aReg(static_cast<uint8_t>(s.areg));

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
    return aReg(static_cast<uint8_t>(reg));
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
                       uint16_t vl, bool last_iter)
{
    const Kernel &k = *loop.kernel;

    if (vl != curVl_) {
        DynInst setvl;
        setvl.op = Opcode::SetVL;
        setvl.vl = 1;
        emit(setvl);
    }
    curVl_ = vl;

    vAlloc_.reset(k.vUses(), loop_idx);
    sAlloc_.reset(k.sUses(), loop_idx);

    // Each case keeps its order of allocator calls and emits: that
    // order places the spill code in the trace.
    const auto &ops = k.ops();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        const KOp &op = ops[i];
        using K = KOp::Kind;

        // Reset per-op pinning.
        std::fill(vAlloc_.pinned.begin(), vAlloc_.pinned.end(), false);
        std::fill(sAlloc_.pinned.begin(), sAlloc_.pinned.end(), false);

        switch (op.kind) {
        case K::VLoad:
        case K::VStore: {
            // A store takes its source before its stream register, a
            // load its stream register before its result.
            bool load = op.kind == K::VLoad;
            RegId data = load ? RegId() : ensure(vAlloc_, op.srcs[0]);
            int sid = streamId(loop_idx, i);
            RegId base = streamReg(sid);
            if (load)
                data = define(vAlloc_, op.dst);
            Addr addr = op.fixedAddr
                            ? prog_.arrayBase(op.array) + op.offsetBytes
                            : streams_[sid].cur;
            int64_t stride = op.strideElems * kElemBytes;
            uint16_t use_vl = op.vlOverride ? op.vlOverride : vl;
            emit(load ? makeVLoad(data, base, addr, stride, use_vl)
                      : makeVStore(data, base, addr, stride, use_vl));
            consume(vAlloc_, op);
            if (!op.fixedAddr)
                bumpStream(sid, static_cast<int64_t>(vl) * stride);
            break;
        }
        case K::VGather:
        case K::VScatter: {
            // Vector sources (a scatter's data, then the index), the
            // stream register, then a gather's result.
            DynInst inst;
            inst.op = op.opc;
            for (int s = 0; s < op.nsrcs; ++s)
                inst.addSrc(ensure(vAlloc_, op.srcs[s]));
            inst.addSrc(streamReg(streamId(loop_idx, i)));
            if (op.kind == K::VGather)
                inst.dst = define(vAlloc_, op.dst);
            inst.vl = vl;
            inst.addr = prog_.arrayBase(op.array);
            inst.regionBytes =
                static_cast<uint32_t>(prog_.arrayBytes(op.array));
            inst.idxPattern = op.idxPattern;
            inst.idxParam = op.idxParam;
            // Seed from the trace position after this op's own spill
            // code: deterministic, but each dynamic instance gets its
            // own index placement.
            inst.idxSeed = trace_.size() + 1;
            emit(inst);
            consume(vAlloc_, op);
            break;
        }
        case K::VArith: {
            RegId ra = ensure(vAlloc_, op.srcs[0]);
            RegId rb = op.nsrcs > 1 ? ensure(vAlloc_, op.srcs[1]) : RegId();
            RegId rd = define(vAlloc_, op.dst);
            emit(makeVArith(op.opc, rd, ra, rb, vl));
            consume(vAlloc_, op);
            break;
        }
        case K::VCmpMerge: {
            RegId ra = ensure(vAlloc_, op.srcs[0]);
            RegId rb = ensure(vAlloc_, op.srcs[1]);
            emit(makeVArith(Opcode::VCmp, mReg(0), ra, rb, vl));
            RegId rd = define(vAlloc_, op.dst); // spills after the compare
            DynInst merge = makeVArith(Opcode::VMerge, rd, ra, rb, vl);
            merge.addSrc(mReg(0));
            emit(merge);
            consume(vAlloc_, op);
            break;
        }
        case K::VReduce: {
            RegId rv = ensure(vAlloc_, op.srcs[0]);
            emit(makeVArith(Opcode::VReduce, define(sAlloc_, op.dst), rv,
                            RegId(), vl));
            consume(vAlloc_, op);
            break;
        }
        case K::SArith: {
            RegId ra = op.nsrcs > 0 ? ensure(sAlloc_, op.srcs[0]) : RegId();
            RegId rb = op.nsrcs > 1 ? ensure(sAlloc_, op.srcs[1]) : RegId();
            emit(makeScalar(op.opc, define(sAlloc_, op.dst), ra, rb));
            consume(sAlloc_, op);
            break;
        }
        case K::SLoadSlot:
            emit(makeSLoad(define(sAlloc_, op.dst), aReg(kSpillBaseAReg),
                           prog_.scalarSlotAddr(op.slot),
                           /*is_spill=*/true));
            break;
        case K::SStoreSlot:
            emit(makeSStore(ensure(sAlloc_, op.srcs[0]),
                            aReg(kSpillBaseAReg),
                            prog_.scalarSlotAddr(op.slot),
                            /*is_spill=*/true));
            consume(sAlloc_, op);
            break;
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
        emitIteration(loop, loop_idx, vl, iter == trips - 1);
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
