#include "core/ooosim.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "check/check.hh"
#include "check/checkers.hh"
#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/slidingqueue.hh"
#include "core/btb.hh"
#include "core/renamer.hh"
#include "mem/memsystem.hh"
#include "mem/runledger.hh"

namespace oova
{

std::string
OooConfig::name() const
{
    std::string n = "OOOVA-" + std::to_string(queueSize) + "/" +
                    std::to_string(numPhysVRegs) + "r";
    n += commit == CommitMode::Early ? "/early" : "/late";
    if (loadElim == LoadElimMode::Sle)
        n += "/sle";
    else if (loadElim == LoadElimMode::SleVle)
        n += "/sle+vle";
    n += mem.label();
    return n;
}

namespace
{

/** One in-flight instruction; doubles as the ROB entry. */
struct RobEntry
{
    const DynInst *di = nullptr;
    SeqNum seq = 0;

    RegClass dstCls = RegClass::None;
    int physDst = -1;
    int oldPhys = -1;
    std::array<int, kMaxSrcRegs> physSrc{-1, -1, -1};

    bool started = false;          ///< began execution (early commit)
    Cycle completeAt = kNoCycle;
    Cycle depCycle = kNoCycle;     ///< cycle it left the Dep stage

    bool eliminated = false;       ///< satisfied by load elimination
    int copySrcPhys = -1;          ///< SLE: physical copy source
    bool holdsCopyClaim = false;   ///< reference held on copySrcPhys
    bool retired = false;          ///< left the ROB (committed)

    bool memIssued = false;
    Cycle memDoneAt = kNoCycle;    ///< end of its address-bus phase
    Addr rangeLo = 0, rangeHi = 0;

    bool faulted = false;          ///< TLB refill trap pending at head
    bool wasMispredicted = false;  ///< fetch stalled on this branch
    bool inRob = false;            ///< between dispatch and commit
    bool inWaitSet = false;        ///< on waitSet_
    bool inElimWait = false;       ///< on elimWait_

    /**
     * Wakeup bookkeeping (no timing semantics): issue scans skip
     * this entry until @p recheckAt — a proven lower bound on the
     * cycle its conditions could next change. kNoCycle means the
     * entry is parked on a producer register's waiter list and is
     * re-examined when that register's ready times are written.
     */
    Cycle recheckAt = 0;
    uint32_t slabIdx = 0;          ///< own index in the slab
    int32_t waitNext = -1;         ///< next entry in the waiter list
    int8_t queueId = -1;           ///< issue queue (0=A 1=S 2=V)

    /**
     * The pages whose translations the software refill handler will
     * install when this entry's trap (faulted) is taken at the ROB
     * head. Installing only at delivery keeps a squash-discarded
     * fault marking from leaking installs (which would let the
     * squashed stream refill for free on replay).
     */
    std::vector<Addr> tlbRefillPages;

    /** PipeTracer record handle (kNoTraceRec when not tracing). */
    uint32_t traceRec = kNoTraceRec;
};

/**
 * Stable storage for in-flight records. Pointer-stable like the
 * std::deque it replaces, but chunked at a size that costs a handful
 * of allocations per simulation instead of one malloc per two
 * entries. Slots are recycled through a free list once their entry
 * has left the ROB, the memory wait set and the eliminated-load list
 * (OooMachine::releaseIfDone), so a run touches about a ROB's worth
 * of slots rather than one per dispatched instruction. Chunks are
 * never freed, so every index ever handed out stays addressable:
 * waiter lists and calendar events name slots by index (see
 * eventLive for why a reused slot is safe for them).
 */
class EntrySlab
{
  public:
    static constexpr size_t kChunk = 256;

    RobEntry &
    operator[](size_t i)
    {
        return chunks_[i / kChunk][i % kChunk];
    }

    const RobEntry &
    operator[](size_t i) const
    {
        return chunks_[i / kChunk][i % kChunk];
    }

    /** Slots ever handed out (live plus free). */
    size_t size() const { return size_; }

    /** Released slots; the last one is reused first. */
    const std::vector<uint32_t> &freeSlots() const { return free_; }

    /** Hand out a default-constructed entry, reusing a freed slot. */
    RobEntry *
    alloc()
    {
        if (!free_.empty()) {
            uint32_t idx = free_.back();
            free_.pop_back();
            RobEntry &e = (*this)[idx];
            e = RobEntry{};
            e.slabIdx = idx;
            return &e;
        }
        if (size_ == chunks_.size() * kChunk)
            chunks_.push_back(std::make_unique<RobEntry[]>(kChunk));
        RobEntry &e = (*this)[size_];
        e.slabIdx = static_cast<uint32_t>(size_++);
        return &e;
    }

    /** Return @p e's slot; nothing may reach the entry any more. */
    void release(const RobEntry &e) { free_.push_back(e.slabIdx); }

  private:
    std::vector<std::unique_ptr<RobEntry[]>> chunks_;
    size_t size_ = 0;
    std::vector<uint32_t> free_;
};

class OooMachine
{
  public:
    OooMachine(const Trace &trace, const OooConfig &cfg)
        : trace_(trace), cfg_(cfg), lat_(cfg.lat),
          renamer_(RenamerConfig{kNumPhysARegs, kNumPhysSRegs,
                                 cfg.numPhysVRegs, kNumPhysMRegs}),
          btb_(kBtbEntries), ras_(kRasDepth),
          mem_(makeMemorySystem(cfg.mem, cfg.lat.memLatency))
    {
        pipeStage_.fill(nullptr);
        wheel_.fill(kNoNode);
        check::CheckLevel lvl = check::levelFor(cfg.checkLevel);
        checkRetire_ = lvl >= check::CheckLevel::Retire;
        checkFull_ = lvl >= check::CheckLevel::Full;
        if (checkRetire_) {
            for (unsigned c = 0; c < kNumRegClasses; ++c) {
                orphanedClaims_[c].assign(
                    renamer_.file(static_cast<RegClass>(c)).size(), 0);
            }
        }
        ledger_.setCapacity(OccStruct::Rob, kRobSize);
        ledger_.setCapacity(OccStruct::AQueue, cfg.queueSize);
        ledger_.setCapacity(OccStruct::SQueue, cfg.queueSize);
        ledger_.setCapacity(OccStruct::VQueue, cfg.queueSize);
        ledger_.setCapacity(OccStruct::FreeVRegs, cfg.numPhysVRegs);
        ledger_.setCapacity(OccStruct::Mshrs, cfg.mem.mshrs);
        ledger_.setCapacity(OccStruct::MemUnits, cfg.mem.memUnits);
        ledger_.setCapacity(OccStruct::TlbPages,
                            cfg.mem.tlb.enabled ? cfg.mem.tlb.entries
                                                : 1);
    }

    SimResult run();

  private:
    // ---- per-cycle steps, in execution order ----
    unsigned commitStep();
    void resolveEliminated();
    void cleanupWaitSet();
    // run() tests the gates of memIssueStep(), issueQueue() and
    // dispatchStep() before calling them (see run()).
    bool memIssueStep();
    bool issueQueue(std::vector<RobEntry *> &queue, bool vector_queue,
                    int qid);
    bool pipeAdvance();
    bool dispatchStep();
    bool fetchStep();

    // ---- helpers ----
    bool usesVectorRegs(const DynInst &di) const;
    bool goesToMemPipe(const DynInst &di) const;
    int routeQueue(const DynInst &di) const; // 0=A 1=S 2=V 3=pipe
    bool scalarSrcsReady(const RobEntry &e) const;
    bool vectorSrcReady(int phys) const;
    bool entryOperandsReady(const RobEntry &e) const;
    bool operandsReadyOrSchedule(RobEntry *e, bool with_vector);
    bool operandsScheduleImpl(RobEntry *e, bool with_vector);
    void occupyVectorReadPorts(const RobEntry &e, Cycle until);
    bool memConflicts(const RobEntry &e) const;
    bool depStage(RobEntry *e);
    void applyStoreTags(RobEntry *e);
    MemTag tagFor(const DynInst &di) const;
    void executeVector(RobEntry *e);
    void executeScalar(RobEntry *e);
    void takeTrap();
    void finish(Cycle c) { endCycle_ = std::max(endCycle_, c); }
    Cycle nextEventAfterScan() const;

    /** CPI stack: classify one non-committing cycle, top-down. */
    CpiBucket cpiWaitBucket() const;

    /** Occupancy telemetry: charge @p weight cycles at now_. */
    void sampleOccupancy(uint64_t weight);

    // ---- invariant audit (src/check/, observe-only) ----
    /** Every whole-state checker, in report order. */
    void auditState(Cycle now);
    /** rob-age: every in-flight queue is in program order. */
    void auditAges(Cycle now);
    check::RegFileAudit auditRegFile(RegClass cls) const;
    std::vector<int64_t> expectedRefCounts(RegClass cls) const;
    void expectedSubscriptions(RegClass cls,
                               std::vector<int64_t> &src,
                               std::vector<int64_t> &dst,
                               std::vector<int64_t> &elim) const;

    // ---- event calendar & wakeup network ----
    // The run loop skips idle stretches by jumping to the next cycle
    // anything can change. That time used to be recomputed with a
    // full rescan of the ROB and register files
    // (nextEventAfterScan(), kept as the ground truth the level-2
    // calendar-bound checker compares against); it is now
    // maintained incrementally: every site that writes a future time
    // pushes it into the calendar, and candidates are validated
    // against live state so a stale value can never surface a cycle
    // the scan would not have.
    //
    // The calendar is a timing wheel of kWheelSlots one-cycle slots,
    // each an intrusive list of pooled event nodes, with an occupancy
    // bitmap. An event at t lives in slot t mod kWheelSlots while
    // now_ < t < now_ + kWheelSlots, so a slot holds at most one
    // time: advanceTo() empties every slot now_ leaves behind. The
    // rare event further out waits in a small min-heap. The nodes
    // share one pool rather than a vector per slot: a machine lives
    // for one simulation, and allocating up to kWheelSlots vectors
    // per machine made the figure suite's ~1 ms jobs ~20% slower.
    enum EvKind : uint8_t
    {
        EvFu1,
        EvFu2,
        EvMemAny,
        EvMemLoad,
        EvMemStore,
        EvFetch,
        EvComplete, ///< id = slab index
        EvMemDone,  ///< id = slab index
        EvRegChain, ///< id = phys reg, cls = class
        EvRegFull,
        EvRegPort,
    };

    struct Event
    {
        Cycle t;
        uint32_t id;
        uint8_t kind;
        uint8_t cls;
    };

    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.t > b.t;
        }
    };

    /** One pooled wheel entry; next links the slot's list. */
    struct EventNode
    {
        Event ev;
        uint32_t next;
    };

    static constexpr uint32_t kWheelSlots = 1024;
    static constexpr uint32_t kNoNode = UINT32_MAX;

    /**
     * Announce a state change at @p t. Most announced times are
     * already past (or unknown), so the reject is inline and only a
     * real future time pays for the out-of-line insert.
     */
    void
    pushEvent(Cycle t, EvKind kind, uint32_t id = 0,
              RegClass cls = RegClass::None)
    {
        if (t == kNoCycle || t <= now_)
            return;
        insertEvent({t, id, static_cast<uint8_t>(kind),
                     static_cast<uint8_t>(cls)});
    }
    void insertEvent(const Event &ev);
    bool eventLive(const Event &ev) const;
    Cycle nextEventFromCalendar();
    bool pruneWheelSlot(uint32_t slot);
    void clearWheelSlot(uint32_t slot);

    /** Move now_ to @p next, emptying the wheel slot it leaves. */
    void
    advanceTo(Cycle next)
    {
        // Slots between the two were emptied by the calendar walk
        // that chose @p next (or hold nothing: progress steps by 1).
        clearWheelSlot(static_cast<uint32_t>(now_ % kWheelSlots));
        now_ = next;
    }

    /**
     * Recycle @p e's slot once nothing can reach it: it has left the
     * ROB, the memory wait set and the eliminated-load list. A parked
     * entry is always in the ROB or on elimWait_, so no waiter list
     * can hold a released slot.
     */
    void
    releaseIfDone(const RobEntry &e)
    {
        if (!e.inRob && !e.inWaitSet && !e.inElimWait)
            slab_.release(e);
    }

    /** Nothing left to fetch, dispatch or commit: the run is over. */
    bool
    drained() const
    {
        return fetchIndex_ >= trace_.size() && fetchBuffer_.empty() &&
               rob_.empty();
    }

    // Subscriptions mirror exactly the set of registers
    // nextEventAfterScan() would look at: a register's ready-time
    // events count only while some live ROB entry (or unresolved
    // eliminated load) references it. A future time announced while
    // the register was referenced is still in the calendar: events
    // are dropped only when dead (reference count zero, or the value
    // went stale — and every overwrite re-announces) or when their
    // cycle has passed (the wheel slot advanceTo() leaves, a far-heap
    // top at or below now_). So subscribing only re-announces when
    // the relevant count rises from zero.
    void
    subscribeSrc(RegClass cls, int phys)
    {
        PhysReg &p = renamer_.file(cls).reg(phys);
        bool chain_unref = p.robSrcRefs + p.robDstRefs == 0;
        bool full_unref = chain_unref && p.elimRefs == 0;
        bool port_unref = p.robSrcRefs == 0;
        ++p.robSrcRefs;
        if (chain_unref)
            pushEvent(p.chainReadyAt, EvRegChain,
                      static_cast<uint32_t>(phys), cls);
        if (full_unref)
            pushEvent(p.fullReadyAt, EvRegFull,
                      static_cast<uint32_t>(phys), cls);
        if (port_unref)
            pushEvent(p.readPortFreeAt, EvRegPort,
                      static_cast<uint32_t>(phys), cls);
    }

    void
    subscribeDst(RegClass cls, int phys)
    {
        PhysReg &p = renamer_.file(cls).reg(phys);
        bool chain_unref = p.robSrcRefs + p.robDstRefs == 0;
        bool full_unref = chain_unref && p.elimRefs == 0;
        ++p.robDstRefs;
        if (chain_unref)
            pushEvent(p.chainReadyAt, EvRegChain,
                      static_cast<uint32_t>(phys), cls);
        if (full_unref)
            pushEvent(p.fullReadyAt, EvRegFull,
                      static_cast<uint32_t>(phys), cls);
    }

    void unsubscribeEntry(RobEntry &e);

    /** Park @p e until @p phys's ready times are next written. */
    void
    parkOn(RobEntry *e, RegClass cls, int phys)
    {
        PhysReg &p = renamer_.file(cls).reg(phys);
        e->waitNext = p.waiterHead;
        p.waiterHead = static_cast<int32_t>(e->slabIdx);
        e->recheckAt = kNoCycle;
    }

    void
    wakeWaiters(PhysReg &p)
    {
        for (int32_t i = p.waiterHead; i >= 0;) {
            RobEntry &w = slab_[static_cast<size_t>(i)];
            i = w.waitNext;
            w.waitNext = -1;
            if (w.eliminated) {
                elimWaitDirty_ = true;
            } else {
                w.recheckAt = 0;
                if (w.queueId >= 0)
                    queueCheckAt_[static_cast<size_t>(w.queueId)] =
                        0;
            }
        }
        p.waiterHead = -1;
    }

    /**
     * Producer write of @p phys's ready times: announce and wake.
     * chainReadyAt and fullReadyAt are always written together, so
     * when they are equal (every scalar write) one EvRegFull event
     * covers both — its validation refcount is a superset of the
     * chain event's, and both values go stale only together.
     */
    void
    publishRegWrite(RegClass cls, int phys)
    {
        PhysReg &p = renamer_.file(cls).reg(phys);
        if (p.chainReadyAt != p.fullReadyAt)
            pushEvent(p.chainReadyAt, EvRegChain,
                      static_cast<uint32_t>(phys), cls);
        pushEvent(p.fullReadyAt, EvRegFull,
                  static_cast<uint32_t>(phys), cls);
        wakeWaiters(p);
    }

    /**
     * Refresh the cached memory-unit free times (they change only
     * inside reserve()) and announce them. freeAt() is the minimum
     * over all units, so when a per-direction time coincides with it
     * the EvMemAny event already covers that cycle.
     */
    void
    pushMemFreeEvents()
    {
        memFreeCache_ = mem_->freeAt();
        memFreeLoadCache_ = mem_->freeAt(MemOp::Load);
        memFreeStoreCache_ = mem_->freeAt(MemOp::Store);
        pushEvent(memFreeCache_, EvMemAny);
        if (memFreeLoadCache_ != memFreeCache_)
            pushEvent(memFreeLoadCache_, EvMemLoad);
        if (memFreeStoreCache_ != memFreeCache_)
            pushEvent(memFreeStoreCache_, EvMemStore);
    }

    PhysReg &
    vregOf(int phys)
    {
        return renamer_.file(RegClass::V).reg(phys);
    }

    const Trace &trace_;
    const OooConfig &cfg_;
    const LatencyTable &lat_;

    Renamer renamer_;
    Btb btb_;
    ReturnStack ras_;
    std::unique_ptr<MemorySystem> mem_;

    /** Stable storage for in-flight records. */
    EntrySlab slab_;

    SlidingQueue<RobEntry *> rob_;
    std::vector<RobEntry *> aQueue_, sQueue_, vQueue_;
    SlidingQueue<RobEntry *> pipeFifo_;
    std::array<RobEntry *, 3> pipeStage_; // 0=Issue/Rf 1=Range 2=Dep
    std::vector<RobEntry *> waitSet_;     // disambiguated mem ops
    std::vector<RobEntry *> elimWait_;    // eliminated, unresolved
    unsigned memSlotsUsed_ = 0;

    /** Wheel slot list heads (kNoNode = empty). */
    std::array<uint32_t, kWheelSlots> wheel_;
    /** Occupancy bitmap over wheel_: bit s set iff slot s is listed. */
    std::array<uint64_t, kWheelSlots / 64> wheelBusy_{};
    std::vector<EventNode> eventNodes_; ///< node pool for the wheel
    uint32_t freeEventNode_ = kNoNode;  ///< pool free list
    /** Min-heap of events kWheelSlots or more cycles ahead. */
    std::vector<Event> farEvents_;
    /**
     * Per-queue scan gate: the minimum next-possible-progress cycle
     * over the queue's entries as of its last fruitless scan. While
     * now_ is below it, the whole queue provably has nothing to
     * issue. Reset to 0 on insertion, wakeup and issue. Index 3 is
     * the memory wait set (entries blocked on non-time conditions —
     * ROB head, conflicts — hold it at 0).
     */
    std::array<Cycle, 4> queueCheckAt_{{0, 0, 0, 0}};
    /**
     * Mirrors of mem_->freeAt() / freeAt(Load) / freeAt(Store),
     * refreshed after every reserve (the only mutation point), so
     * the per-cycle issue gate and event validation skip the
     * virtual calls.
     */
    Cycle memFreeCache_ = 0;
    Cycle memFreeLoadCache_ = 0;
    Cycle memFreeStoreCache_ = 0;
    /** Earliest memDoneAt still awaiting waitSet_ cleanup. */
    Cycle waitCleanupAt_ = kNoCycle;
    /** An elimWait_ entry may have become resolvable. */
    bool elimWaitDirty_ = false;
    /** Reusable gather/scatter element-address buffer. */
    std::vector<Addr> elemAddrScratch_;
    /** Reusable TLB page-sequence buffer. */
    std::vector<Addr> pageScratch_;

    /** One fetched, not-yet-dispatched instruction. */
    struct Fetched
    {
        const DynInst *di;
        SeqNum seq;
        /** Fetch predicted this branch wrong (consumed at rename). */
        bool mispredicted;
        /** PipeTracer record handle (kNoTraceRec when not tracing). */
        uint32_t traceRec = kNoTraceRec;
    };
    SlidingQueue<Fetched> fetchBuffer_;
    size_t fetchIndex_ = 0;
    // Memoized routing decision for the current dispatch head.
    SeqNum routedSeq_ = kNoSeq;
    bool routedToPipe_ = false;
    bool routedRenameHere_ = false;
    int routedQ_ = 0;
    Cycle fetchStalledUntil_ = 0;  ///< kNoCycle = until resolve
    SeqNum redirectSeq_ = kNoSeq;  ///< branch fetch is stalled on
    SeqNum lastTlbTrapSeq_ = kNoSeq; ///< last TLB software-refill trap

    // ---- observability (observe-only) ----
    /** FU busy, CPI stack and occupancy, charged at each advance. */
    RunLedger ledger_{cfg_.cpiStack, cfg_.telemetry};
    /**
     * Shadow of the last trap's fetch stall window: while an empty
     * machine is refilling after a trap, the wait is trap handling,
     * not an ordinary fetch bubble. fetchStalledUntil_ itself cannot
     * distinguish the two (mispredict redirects also set it).
     */
    Cycle trapStallUntil_ = 0;
    /** Instruction-lifecycle tracer (null = off). */
    PipeTracer *tracer_ = cfg_.pipeTracer;

    Cycle fu1Free_ = 0, fu2Free_ = 0;

    Cycle now_ = 0;
    Cycle endCycle_ = 0;
    uint64_t committed_ = 0;

    // ---- invariant audit (observe-only; see src/check/) ----
    /** Level >= Retire: retire-site checks + end-of-run audit. */
    bool checkRetire_ = false;
    /** Level Full: adds per-event checks and periodic sweeps. */
    bool checkFull_ = false;
    check::Registry audit_;
    /** Next whole-state sweep cycle (level Full). */
    Cycle nextAuditAt_ = 0;
    /** Previous mem-stats snapshot for the monotonicity audit. */
    MemStats prevMemStats_;
    /**
     * Claims permanently orphaned by the Dep-stage re-rename retry
     * (see depStage): the retry overwrites the entry's oldPhys, so
     * the claim the first rename parked there is never released.
     * That leak is accepted seed behavior; the ledger lets the
     * conservation checker account for it. Audit bookkeeping only.
     */
    std::vector<int64_t> orphanedClaims_[kNumRegClasses];

    // stats
    uint64_t mispredicts_ = 0;
    uint64_t vElims_ = 0, sElims_ = 0;
    uint64_t renameStalls_ = 0, robStalls_ = 0, queueStalls_ = 0;
    uint64_t traps_ = 0;
};

bool
OooMachine::usesVectorRegs(const DynInst &di) const
{
    if (di.dst.cls == RegClass::V)
        return true;
    for (unsigned i = 0; i < di.numSrc; ++i)
        if (di.src[i].cls == RegClass::V)
            return true;
    return false;
}

bool
OooMachine::goesToMemPipe(const DynInst &di) const
{
    if (di.isMem())
        return true;
    // SLE+VLE: single vector-rename point in the memory pipeline
    // (paper figure 10), so every vector-register instruction
    // traverses it.
    return cfg_.loadElim == LoadElimMode::SleVle && usesVectorRegs(di);
}

int
OooMachine::routeQueue(const DynInst &di) const
{
    if (di.isMem())
        return 3;
    if (di.isVector())
        return 2;
    if (di.isBranch() || di.dst.cls == RegClass::A)
        return 0;
    for (unsigned i = 0; i < di.numSrc; ++i)
        if (di.src[i].cls == RegClass::A)
            return 0;
    return 1;
}

bool
OooMachine::scalarSrcsReady(const RobEntry &e) const
{
    for (unsigned i = 0; i < e.di->numSrc; ++i) {
        const RegId &r = e.di->src[i];
        if (!r.valid() || r.cls == RegClass::V)
            continue;
        const PhysReg &p = renamer_.file(r.cls).reg(e.physSrc[i]);
        if (p.fullReadyAt == kNoCycle || p.fullReadyAt > now_)
            return false;
    }
    return true;
}

bool
OooMachine::vectorSrcReady(int phys) const
{
    const PhysReg &p = renamer_.file(RegClass::V).reg(phys);
    // The register's single dedicated read port must be free.
    if (p.readPortFreeAt > now_)
        return false;
    if (p.writerIsLoad && !cfg_.chainLoadsToFus)
        return p.fullReadyAt != kNoCycle && p.fullReadyAt <= now_;
    return p.chainReadyAt != kNoCycle && p.chainReadyAt <= now_;
}

bool
OooMachine::entryOperandsReady(const RobEntry &e) const
{
    if (!scalarSrcsReady(e))
        return false;
    for (unsigned i = 0; i < e.di->numSrc; ++i) {
        const RegId &r = e.di->src[i];
        if (r.cls != RegClass::V)
            continue;
        const PhysReg &p =
            renamer_.file(RegClass::V).reg(e.physSrc[i]);
        // Index vectors of gather/scatter must be fully written (the
        // memory unit needs all of them to form addresses); store
        // data and arithmetic sources chain element by element.
        bool is_index = e.di->isIndexedMem() &&
                        !(e.di->op == Opcode::VScatter && i == 0);
        if (is_index) {
            if (p.fullReadyAt == kNoCycle || p.fullReadyAt > now_ ||
                p.readPortFreeAt > now_) {
                return false;
            }
        } else if (!vectorSrcReady(e.physSrc[i])) {
            return false;
        }
    }
    return true;
}

/**
 * entryOperandsReady() / scalarSrcsReady(), plus scheduling on
 * failure: computes when the entry could next possibly be ready and
 * either sets recheckAt to that lower bound (all blocking times
 * known — they can only move later) or parks the entry on the first
 * producer register whose ready time is still unwritten. Issue scans
 * skip the entry until then, which is behavior-preserving because a
 * skipped entry would have failed the full re-evaluation anyway.
 */
bool
OooMachine::operandsReadyOrSchedule(RobEntry *e, bool with_vector)
{
    bool ready = operandsScheduleImpl(e, with_vector);
#ifndef NDEBUG
    // The scheduling evaluator must agree with the original
    // predicates it replaces on every call (the reference check is
    // read-only, so running it after the impl is safe).
    bool ref = with_vector ? entryOperandsReady(*e)
                           : scalarSrcsReady(*e);
    sim_assert(ready == ref,
               "operand scheduler (%d) diverges from reference "
               "predicate (%d) for %s",
               (int)ready, (int)ref, e->di->toString().c_str());
#endif
    return ready;
}

bool
OooMachine::operandsScheduleImpl(RobEntry *e, bool with_vector)
{
    Cycle bound = 0;
    const DynInst &di = *e->di;
    for (unsigned i = 0; i < di.numSrc; ++i) {
        const RegId &r = di.src[i];
        if (!r.valid())
            continue;
        if (r.cls != RegClass::V) {
            const PhysReg &p =
                renamer_.file(r.cls).reg(e->physSrc[i]);
            if (p.fullReadyAt == kNoCycle) {
                parkOn(e, r.cls, e->physSrc[i]);
                return false;
            }
            bound = std::max(bound, p.fullReadyAt);
            continue;
        }
        if (!with_vector)
            continue;
        const PhysReg &p =
            renamer_.file(RegClass::V).reg(e->physSrc[i]);
        bool is_index = di.isIndexedMem() &&
                        !(di.op == Opcode::VScatter && i == 0);
        bound = std::max(bound, p.readPortFreeAt);
        if (is_index ||
            (p.writerIsLoad && !cfg_.chainLoadsToFus)) {
            if (p.fullReadyAt == kNoCycle) {
                parkOn(e, RegClass::V, e->physSrc[i]);
                return false;
            }
            bound = std::max(bound, p.fullReadyAt);
        } else {
            if (p.chainReadyAt == kNoCycle) {
                parkOn(e, RegClass::V, e->physSrc[i]);
                return false;
            }
            bound = std::max(bound, p.chainReadyAt);
        }
    }
    if (bound <= now_)
        return true;
    e->recheckAt = bound;
    return false;
}

void
OooMachine::unsubscribeEntry(RobEntry &e)
{
    for (unsigned i = 0; i < e.di->numSrc; ++i) {
        const RegId &r = e.di->src[i];
        if (!r.valid() || e.physSrc[i] < 0)
            continue;
        --renamer_.file(r.cls).reg(e.physSrc[i]).robSrcRefs;
    }
    if (e.physDst >= 0 && e.dstCls != RegClass::None)
        --renamer_.file(e.dstCls).reg(e.physDst).robDstRefs;
}

void
OooMachine::occupyVectorReadPorts(const RobEntry &e, Cycle until)
{
    for (unsigned i = 0; i < e.di->numSrc; ++i) {
        if (e.di->src[i].cls != RegClass::V)
            continue;
        PhysReg &p = renamer_.file(RegClass::V).reg(e.physSrc[i]);
        if (until > p.readPortFreeAt) {
            p.readPortFreeAt = until;
            pushEvent(until, EvRegPort,
                      static_cast<uint32_t>(e.physSrc[i]),
                      RegClass::V);
        }
    }
}

// ---------------------------------------------------------------
// Commit
// ---------------------------------------------------------------

unsigned
OooMachine::commitStep()
{
    unsigned done = 0;
    while (done < cfg_.commitWidth && !rob_.empty()) {
        RobEntry &e = *rob_.front();
        if (e.faulted) {
            takeTrap();
            return done + 1; // the trap consumed this cycle
        }
        bool ok;
        if (cfg_.commit == CommitMode::Early)
            ok = e.started;
        else
            ok = e.completeAt != kNoCycle && e.completeAt <= now_;
        if (!ok)
            break;
        if (e.oldPhys >= 0)
            renamer_.releaseOld(e.dstCls, e.oldPhys);
        // Note: an early-committed eliminated load may still await
        // its source value. It stays on elimWait_ (its slot is not
        // recycled until it leaves) so its destination register's
        // ready times are still established, and it keeps its
        // copy-source claim until then. An early-committed memory
        // op likewise stays on waitSet_ until its address phase ends.
        e.retired = true;
        e.inRob = false;
        unsubscribeEntry(e);
        if (tracer_)
            tracer_->retire(e.traceRec, now_);
        finish(now_ + 1);
        if (e.completeAt != kNoCycle)
            finish(e.completeAt);
        rob_.pop_front();
        releaseIfDone(e);
        ++committed_;
        ++done;
    }
    return done;
}

// ---------------------------------------------------------------
// Dynamic load elimination bookkeeping
// ---------------------------------------------------------------

MemTag
OooMachine::tagFor(const DynInst &di) const
{
    MemTag t;
    auto [lo, hi] = di.memRange();
    t.valid = true;
    t.start = lo;
    t.end = hi;
    t.vl = di.isVector() ? di.vl : 1;
    t.stride = di.isVector() ? di.strideBytes : 0;
    t.esz = di.elemSize;
    return t;
}

void
OooMachine::applyStoreTags(RobEntry *e)
{
    const DynInst &di = *e->di;
    MemTag tag = tagFor(di);
    int data_phys = e->physSrc[0]; // data register is src[0]
    RegClass data_cls = di.src[0].cls;

    // Tag the stored register: its contents now mirror this range.
    // Indexed stores (scatter) have no single stride; they only
    // invalidate.
    bool taggable = !di.isIndexedMem();
    if (taggable)
        renamer_.file(data_cls).reg(data_phys).tag = tag;

    // Conservatively invalidate every overlapping tag, in every
    // class: scalar stores must be checked against vector tags and
    // vice versa (section 6.1).
    for (unsigned c = 0; c < kNumRegClasses; ++c) {
        RegClass cls = static_cast<RegClass>(c);
        int except = (taggable && cls == data_cls) ? data_phys : -1;
        renamer_.file(cls).invalidateOverlapping(tag.start, tag.end,
                                                 except);
    }
}

// ---------------------------------------------------------------
// Memory pipeline: Dep stage
// ---------------------------------------------------------------

bool
OooMachine::depStage(RobEntry *e)
{
    const DynInst &di = *e->di;
    bool vle = cfg_.loadElim == LoadElimMode::SleVle;
    bool sle = cfg_.loadElim != LoadElimMode::None;

    // In SLE+VLE, vector sources are renamed here, in order. The
    // mapping is stable across retries of a stalled Dep stage (the
    // single in-order vector rename point is this stage itself), so
    // map and subscribe each source exactly once.
    if (vle) {
        for (unsigned i = 0; i < di.numSrc; ++i) {
            if (di.src[i].cls == RegClass::V && e->physSrc[i] < 0) {
                e->physSrc[i] = renamer_.mapOf(di.src[i]);
                subscribeSrc(RegClass::V, e->physSrc[i]);
            }
        }
    }

    if (di.isMem()) {
        auto [lo, hi] = di.memRange();
        e->rangeLo = lo;
        e->rangeHi = hi;
    }

    // ---- vector load elimination ----
    if (vle && di.op == Opcode::VLoad) {
        MemTag tag = tagFor(di);
        int match = renamer_.file(RegClass::V).findExactTag(tag);
        if (match >= 0) {
            auto ren = renamer_.redirectDst(di.dst, match);
            e->physDst = ren.physDst;
            e->oldPhys = ren.oldPhys;
            e->dstCls = RegClass::V;
            e->eliminated = true;
            e->started = true;
            e->depCycle = now_;
            ++vElims_;
            if (tracer_)
                tracer_->issue(e->traceRec, now_);
            subscribeDst(RegClass::V, e->physDst);
            // Completion resolves once the matched register's value
            // is fully written.
            elimWait_.push_back(e);
            e->inElimWait = true;
            if (vregOf(e->physDst).fullReadyAt != kNoCycle)
                elimWaitDirty_ = true;
            else
                parkOn(e, RegClass::V, e->physDst);
            sim_assert(memSlotsUsed_ > 0, "mem slot underflow");
            --memSlotsUsed_;
            return true;
        }
    }

    // ---- vector destination renaming (SLE+VLE) ----
    if (vle && di.dst.cls == RegClass::V) {
        if (!renamer_.canRename(RegClass::V)) {
            ++renameStalls_;
            return false; // stall the Dep stage this cycle
        }
        // A Dep stage that stalled on a full V queue below retries
        // here and renames again (seed behavior); the previous
        // attempt's destination is no longer this entry's.
        if (e->physDst >= 0 && e->dstCls != RegClass::None) {
            --renamer_.file(e->dstCls).reg(e->physDst).robDstRefs;
            // The retry overwrites e->oldPhys below, so the claim
            // the first rename parked there is never released. The
            // audit ledger keeps refCount conservation checkable
            // despite the leak.
            if (checkRetire_ && e->oldPhys >= 0) {
                ++orphanedClaims_[Renamer::clsIdx(e->dstCls)]
                                 [static_cast<size_t>(e->oldPhys)];
            }
        }
        auto ren = renamer_.renameDst(di.dst);
        e->physDst = ren.physDst;
        e->oldPhys = ren.oldPhys;
        e->dstCls = RegClass::V;
        subscribeDst(RegClass::V, e->physDst);
    }

    // ---- scalar load elimination ----
    if (sle && di.op == Opcode::SLoad) {
        MemTag tag = tagFor(di);
        int match = renamer_.file(di.dst.cls).findExactTag(tag);
        if (match >= 0 && match != e->physDst) {
            e->eliminated = true;
            e->started = true;
            e->copySrcPhys = match;
            e->depCycle = now_;
            ++sElims_;
            if (tracer_)
                tracer_->issue(e->traceRec, now_);
            // Hold the source register so it cannot be reallocated
            // before the copy's value is latched.
            PhysRegFile &f = renamer_.file(di.dst.cls);
            if (f.reg(match).inFreeList)
                f.reviveFromFreeList(match);
            else
                f.addRef(match);
            e->holdsCopyClaim = true;
            f.reg(e->physDst).tag = tag;
            elimWait_.push_back(e);
            e->inElimWait = true;
            // The copy source now backs an unresolved elimination:
            // its full-ready time is a live event until resolution.
            PhysReg &src = f.reg(match);
            bool full_unref =
                src.robSrcRefs + src.robDstRefs + src.elimRefs == 0;
            ++src.elimRefs;
            if (src.fullReadyAt != kNoCycle) {
                if (full_unref)
                    pushEvent(src.fullReadyAt, EvRegFull,
                              static_cast<uint32_t>(match),
                              di.dst.cls);
                elimWaitDirty_ = true;
            } else {
                parkOn(e, di.dst.cls, match);
            }
            sim_assert(memSlotsUsed_ > 0, "mem slot underflow");
            --memSlotsUsed_;
            return true;
        }
    }

    // ---- tag maintenance ----
    if (sle) {
        if (di.isLoad() && !di.isIndexedMem()) {
            if (di.isVector()) {
                // Vector tags only exist under VLE.
                if (vle)
                    vregOf(e->physDst).tag = tagFor(di);
            } else {
                renamer_.file(di.dst.cls).reg(e->physDst).tag =
                    tagFor(di);
            }
        } else if (di.isStore()) {
            applyStoreTags(e);
        }
    }

    if (di.isMem()) {
        e->depCycle = now_;
        e->queueId = 3;
        waitSet_.push_back(e);
        e->inWaitSet = true;
        queueCheckAt_[3] = 0;
        return true;
    }

    // SLE+VLE vector arithmetic: move on to the V queue.
    if (vQueue_.size() >= cfg_.queueSize) {
        ++queueStalls_;
        return false;
    }
    e->depCycle = now_;
    e->queueId = 2;
    vQueue_.push_back(e);
    queueCheckAt_[2] = 0;
    sim_assert(memSlotsUsed_ > 0, "mem slot underflow");
    --memSlotsUsed_;
    return true;
}

bool
OooMachine::pipeAdvance()
{
    bool moved = false;
    if (pipeStage_[2]) {
        if (depStage(pipeStage_[2])) {
            pipeStage_[2] = nullptr;
            moved = true;
        }
    }
    if (!pipeStage_[2] && pipeStage_[1]) {
        pipeStage_[2] = pipeStage_[1]; // Range -> Dep
        pipeStage_[1] = nullptr;
        moved = true;
    }
    if (!pipeStage_[1] && pipeStage_[0]) {
        pipeStage_[1] = pipeStage_[0]; // Issue/Rf -> Range
        pipeStage_[0] = nullptr;
        moved = true;
    }
    if (!pipeStage_[0] && !pipeFifo_.empty()) {
        pipeStage_[0] = pipeFifo_.front();
        pipeFifo_.pop_front();
        moved = true;
    }
    return moved;
}

// ---------------------------------------------------------------
// Memory issue
// ---------------------------------------------------------------

bool
OooMachine::memConflicts(const RobEntry &e) const
{
    for (const RobEntry *o : waitSet_) {
        if (o->seq >= e.seq)
            break; // waitSet_ is ordered by age
        if (!(o->di->isStore() || e.di->isStore()))
            continue; // load/load never conflicts
        if (!(o->rangeLo < e.rangeHi && e.rangeLo < o->rangeHi))
            continue;
        // Conflicting older access: wait until its bus phase ends.
        if (!o->memIssued || o->memDoneAt > now_)
            return true;
    }
    return false;
}

void
OooMachine::cleanupWaitSet()
{
    // Event-driven: erase only when the earliest pending address
    // phase has actually ended (waitCleanupAt_, maintained at issue).
    // Entries past their memDoneAt are no-ops for memConflicts(), so
    // deferring their removal to that exact point changes nothing.
    if (waitSet_.empty() || now_ < waitCleanupAt_)
        return;
    std::erase_if(waitSet_, [this](RobEntry *e) {
        if (!e->memIssued || e->memDoneAt > now_)
            return false;
        e->inWaitSet = false;
        releaseIfDone(*e);
        return true;
    });
    waitCleanupAt_ = kNoCycle;
    for (const RobEntry *e : waitSet_)
        if (e->memIssued)
            waitCleanupAt_ = std::min(waitCleanupAt_, e->memDoneAt);
}

bool
OooMachine::memIssueStep()
{
    Cycle min_next = kNoCycle;
    for (RobEntry *e : waitSet_) {
        if (e->memIssued || e->faulted)
            continue;
        const DynInst &di = *e->di;
        MemOp mop = di.isStore() ? MemOp::Store : MemOp::Load;
        // A unit eligible for this direction must be free (with a
        // single shared unit this repeats run()'s gate).
        Cycle dir_free = mop == MemOp::Store ? memFreeStoreCache_
                                             : memFreeLoadCache_;
        if (dir_free > now_) {
            min_next = std::min(min_next, dir_free);
            continue;
        }
        // Late commit: stores update memory only at the ROB head.
        if (cfg_.commit == CommitMode::Late && di.isStore() &&
            (rob_.empty() || rob_.front()->seq != e->seq)) {
            min_next = 0; // head advance is not a timed event
            continue;
        }
        if (e->recheckAt > now_) {
            min_next = std::min(min_next, e->recheckAt);
            continue;
        }
        if (!operandsReadyOrSchedule(e, true)) {
            min_next = std::min(min_next, e->recheckAt);
            continue;
        }
        if (memConflicts(*e)) {
            min_next = 0; // an older unissued access may clear anytime
            continue;
        }

        // Gather/scatter element addresses, shared by the TLB
        // detection below and the reservation itself (reusable
        // scratch: one stream issues at a time).
        const std::vector<Addr> *elem_addrs = nullptr;
        if (di.isIndexedMem()) {
            indexedElemAddrs(di, elemAddrScratch_);
            elem_addrs = &elemAddrScratch_;
        }

        // Software-refilled TLB (precise traps only, hence late
        // commit): a stream whose translations are not all resident
        // traps instead of walking in hardware. The pages are
        // recorded here but installed only when the trap is
        // delivered at the ROB head, so a marking discarded by an
        // older trap's squash leaves no installs behind — the
        // squashed stream re-detects its miss and traps properly on
        // replay. One trap per dynamic instruction (the
        // lastTlbTrapSeq_ latch, set at delivery): a stream touching
        // more pages than the TLB holds would self-evict during
        // refill and re-trap forever, so its replay hardware-walks
        // the residue instead (the forward-progress guarantee every
        // software-managed TLB needs).
        if (cfg_.commit == CommitMode::Late &&
            e->seq != lastTlbTrapSeq_) {
            if (const Tlb *tlb = mem_->tlb();
                tlb &&
                tlb->config().refill == TlbRefill::SoftwareTrap) {
                if (di.isIndexedMem())
                    tlb->indexedPages(*elem_addrs, pageScratch_);
                else
                    tlb->stridedPages(di.addr, di.strideBytes,
                                      di.memElems(), pageScratch_);
                if (tlb->wouldMiss(pageScratch_)) {
                    e->tlbRefillPages = pageScratch_;
                    e->faulted = true;
                    queueCheckAt_[3] = 0;
                    return true;
                }
            }
        }

        // Gather/scatter reserve their real per-element addresses
        // (the index vector is fully available at issue), so bank
        // conflicts follow the actual index pattern; strided ops
        // reserve base + stride as before.
        MemAccess acc =
            di.isIndexedMem()
                ? mem_->reserve(now_, *elem_addrs, mop)
                : mem_->reserve(now_, di.addr, di.strideBytes,
                                di.memElems(), mop);
        if (checkFull_) {
            check::Reporter r = audit_.reporter("mem-window", now_);
            check::checkMemWindow(acc, now_, r);
        }
        e->memIssued = true;
        e->started = true;
        e->memDoneAt = acc.end;
        pushMemFreeEvents();
        // With one memory unit the unit's free time IS this stream's
        // address-phase end, and no reserve can supersede it before
        // it arrives (the unit is busy until then), so the EvMemAny
        // event just pushed covers memDoneAt.
        if (cfg_.mem.memUnits > 1)
            pushEvent(e->memDoneAt, EvMemDone, e->slabIdx);
        waitCleanupAt_ = std::min(waitCleanupAt_, e->memDoneAt);
        occupyVectorReadPorts(*e, acc.end);
        sim_assert(memSlotsUsed_ > 0, "mem slot underflow");
        --memSlotsUsed_;

        if (di.isLoad()) {
            PhysReg &d = renamer_.file(di.dst.cls).reg(e->physDst);
            if (di.isVector()) {
                Cycle wstart = acc.firstData + kWriteXbarVector;
                d.chainReadyAt = wstart + 1;
                d.fullReadyAt = acc.lastData + kWriteXbarVector;
                d.writerIsLoad = true;
                e->completeAt = d.fullReadyAt;
            } else {
                Cycle ready = acc.firstData + kWriteXbarScalar;
                d.chainReadyAt = ready;
                d.fullReadyAt = ready;
                e->completeAt = ready;
            }
            // completeAt == the destination's fullReadyAt: the
            // EvRegFull event just published covers it (the entry
            // holds a dst reference while it is in the ROB).
            publishRegWrite(di.dst.cls, e->physDst);
        } else {
            // Stores have no observed latency (section 2.2): once
            // issued, the address/data stream drains in the
            // background, so the instruction is complete (and, under
            // late commit, may retire) the cycle after issue. The
            // address phase still orders conflicting accesses via
            // memDoneAt.
            e->completeAt = acc.start + 1;
            pushEvent(e->completeAt, EvComplete, e->slabIdx);
        }
        finish(e->completeAt);
        finish(e->memDoneAt);
        if (tracer_) {
            tracer_->issue(e->traceRec, now_);
            tracer_->complete(e->traceRec, e->completeAt);
        }
        // Rescan next cycle: entries after this one were skipped.
        queueCheckAt_[3] = 0;
        return true;
    }
    queueCheckAt_[3] = min_next;
    return false;
}

// ---------------------------------------------------------------
// Queue issue
// ---------------------------------------------------------------

void
OooMachine::executeVector(RobEntry *e)
{
    const DynInst &di = *e->di;
    int fu;
    if (di.traits().fu2Only)
        fu = 2;
    else
        fu = fu1Free_ <= fu2Free_ ? 1 : 2;

    Cycle busy_until = now_ + kOooVectorStartup + di.vl;
    if (fu == 1) {
        fu1Free_ = busy_until;
        pushEvent(busy_until, EvFu1);
    } else {
        fu2Free_ = busy_until;
        pushEvent(busy_until, EvFu2);
    }
    ledger_.fuBusy(fu, now_, busy_until);
    occupyVectorReadPorts(*e, busy_until);

    e->started = true;
    if (di.dst.cls == RegClass::V || di.dst.cls == RegClass::M) {
        PhysReg &d = renamer_.file(di.dst.cls).reg(e->physDst);
        Cycle wstart = now_ + kOooVectorStartup + kReadXbar +
                       lat_.opLatency(di.op) + kWriteXbarVector;
        d.chainReadyAt = wstart + 1;
        d.fullReadyAt = wstart + di.vl;
        d.writerIsLoad = false;
        e->completeAt = d.fullReadyAt;
        // completeAt == fullReadyAt: the published EvRegFull covers
        // the completion event while the entry is in the ROB.
        publishRegWrite(di.dst.cls, e->physDst);
    } else if (di.dst.valid()) {
        // VReduce: scalar result after consuming all elements.
        PhysReg &d = renamer_.file(di.dst.cls).reg(e->physDst);
        Cycle ready = now_ + kOooVectorStartup + kReadXbar +
                      lat_.opLatency(di.op) + di.vl + kWriteXbarScalar;
        d.chainReadyAt = ready;
        d.fullReadyAt = ready;
        e->completeAt = ready;
        publishRegWrite(di.dst.cls, e->physDst);
    } else {
        e->completeAt = busy_until;
        pushEvent(e->completeAt, EvComplete, e->slabIdx);
    }
    finish(e->completeAt);
}

void
OooMachine::executeScalar(RobEntry *e)
{
    const DynInst &di = *e->di;
    e->started = true;
    Cycle done = now_ + lat_.opLatency(di.op);
    if (di.isBranch()) {
        e->completeAt = done;
        if (di.op == Opcode::Branch)
            btb_.update(di.pc, di.taken, di.target);
        if (e->wasMispredicted && e->seq == redirectSeq_) {
            fetchStalledUntil_ = done + kBranchMispredict;
            redirectSeq_ = kNoSeq;
            pushEvent(fetchStalledUntil_, EvFetch);
        }
    } else if (di.dst.valid()) {
        PhysReg &d = renamer_.file(di.dst.cls).reg(e->physDst);
        Cycle ready = done + kWriteXbarScalar;
        d.chainReadyAt = ready;
        d.fullReadyAt = ready;
        e->completeAt = ready;
        // completeAt == fullReadyAt: covered by the EvRegFull event.
        publishRegWrite(di.dst.cls, e->physDst);
        finish(e->completeAt);
        return;
    } else {
        e->completeAt = done;
    }
    pushEvent(e->completeAt, EvComplete, e->slabIdx);
    finish(e->completeAt);
}

bool
OooMachine::issueQueue(std::vector<RobEntry *> &queue,
                       bool vector_queue, int qid)
{
    Cycle min_next = kNoCycle;
    for (size_t i = 0; i < queue.size(); ++i) {
        RobEntry *e = queue[i];
        // Skip entries that provably cannot be ready yet: parked
        // (kNoCycle, woken by their producer's write) or bounded by
        // a known future time.
        if (e->recheckAt > now_) {
            min_next = std::min(min_next, e->recheckAt);
            continue;
        }
        if (vector_queue) {
            bool fu_ok = e->di->traits().fu2Only
                             ? fu2Free_ <= now_
                             : (fu1Free_ <= now_ || fu2Free_ <= now_);
            if (!fu_ok) {
                // Both eligible units busy: nothing to re-examine
                // before the earlier one frees (it only gets later).
                e->recheckAt = e->di->traits().fu2Only
                                   ? fu2Free_
                                   : std::min(fu1Free_, fu2Free_);
                min_next = std::min(min_next, e->recheckAt);
                continue;
            }
            if (!operandsReadyOrSchedule(e, true)) {
                min_next = std::min(min_next, e->recheckAt);
                continue;
            }
            executeVector(e);
        } else {
            if (!operandsReadyOrSchedule(e, false)) {
                min_next = std::min(min_next, e->recheckAt);
                continue;
            }
            executeScalar(e);
        }
        if (tracer_) {
            tracer_->issue(e->traceRec, now_);
            tracer_->complete(e->traceRec, e->completeAt);
        }
        queue.erase(queue.begin() + static_cast<long>(i));
        // Rescan next cycle: the issue may have unblocked nothing,
        // but entries after this one were not examined.
        queueCheckAt_[static_cast<size_t>(qid)] = 0;
        return true;
    }
    queueCheckAt_[static_cast<size_t>(qid)] = min_next;
    return false;
}

// ---------------------------------------------------------------
// Eliminated-load completion
// ---------------------------------------------------------------

void
OooMachine::resolveEliminated()
{
    // Event-driven: entries resolve the moment their trigger
    // register's full-ready time becomes known, and the dirty flag
    // is raised exactly at those writes (or at insertion when the
    // value was already known), so scanning at any other time would
    // find nothing. The full in-order walk below is kept because
    // several entries can resolve in the same pass and their
    // release() order decides free-list order.
    if (!elimWaitDirty_)
        return;
    std::erase_if(elimWait_, [this](RobEntry *e) {
        if (e->copySrcPhys >= 0) {
            // SLE: a register-to-register copy of the source value.
            PhysReg &src =
                renamer_.file(e->di->dst.cls).reg(e->copySrcPhys);
            if (src.fullReadyAt == kNoCycle)
                return false;
            Cycle done = std::max(e->depCycle, src.fullReadyAt) + 1;
            PhysReg &d =
                renamer_.file(e->di->dst.cls).reg(e->physDst);
            d.chainReadyAt = done;
            d.fullReadyAt = done;
            e->completeAt = done;
            --src.elimRefs;
            if (e->holdsCopyClaim) {
                renamer_.file(e->di->dst.cls).release(e->copySrcPhys);
                e->holdsCopyClaim = false;
            }
            // completeAt == the destination's fullReadyAt: covered
            // by the EvRegFull event published here (a not-retired
            // entry holds its dst reference; a retired one's
            // completion no longer gates anything).
            publishRegWrite(e->di->dst.cls, e->physDst);
            if (tracer_)
                tracer_->complete(e->traceRec, done);
            finish(done);
            e->inElimWait = false;
            releaseIfDone(*e);
            return true;
        }
        // VLE: the load became a mapping onto its match; it is
        // architecturally complete once the value is fully written.
        const PhysReg &p = vregOf(e->physDst);
        if (p.fullReadyAt == kNoCycle)
            return false;
        e->completeAt = std::max(e->depCycle + 1, p.fullReadyAt);
        pushEvent(e->completeAt, EvComplete, e->slabIdx);
        if (tracer_)
            tracer_->complete(e->traceRec, e->completeAt);
        finish(e->completeAt);
        e->inElimWait = false;
        releaseIfDone(*e);
        return true;
    });
    elimWaitDirty_ = false;
}

// ---------------------------------------------------------------
// Dispatch (decode/rename), 1 per cycle
// ---------------------------------------------------------------

bool
OooMachine::dispatchStep()
{
    if (rob_.size() >= kRobSize) {
        ++robStalls_;
        return false;
    }
    const DynInst &di = *fetchBuffer_.front().di;
    SeqNum seq = fetchBuffer_.front().seq;

    bool vle = cfg_.loadElim == LoadElimMode::SleVle;
    // Routing is a pure function of the instruction; a head blocked
    // on structural space or renaming re-enters here every cycle, so
    // memoize it per fetch-buffer head.
    if (seq != routedSeq_) {
        routedSeq_ = seq;
        routedToPipe_ = goesToMemPipe(di);
        routedQ_ = routeQueue(di);
        routedRenameHere_ =
            di.dst.valid() && (di.dst.cls != RegClass::V || !vle);
    }
    bool to_pipe = routedToPipe_;
    int q = routedQ_;

    // Structural space in the target queue.
    if (to_pipe) {
        if (memSlotsUsed_ >= cfg_.queueSize) {
            ++queueStalls_;
            return false;
        }
    } else if (q == 0 && aQueue_.size() >= cfg_.queueSize) {
        ++queueStalls_;
        return false;
    } else if (q == 1 && sQueue_.size() >= cfg_.queueSize) {
        ++queueStalls_;
        return false;
    } else if (q == 2 && vQueue_.size() >= cfg_.queueSize) {
        ++queueStalls_;
        return false;
    }

    // Destination renaming. V destinations are renamed here except
    // in SLE+VLE mode, where the Dep stage does it (figure 10).
    bool rename_dst_here = routedRenameHere_;
    if (rename_dst_here && !renamer_.canRename(di.dst.cls)) {
        ++renameStalls_;
        return false;
    }

    RobEntry *e = slab_.alloc();
    e->di = &di;
    e->seq = seq;
    e->inRob = true;

    for (unsigned i = 0; i < di.numSrc; ++i) {
        const RegId &r = di.src[i];
        if (!r.valid())
            continue;
        if (r.cls == RegClass::V && vle)
            continue; // renamed at the Dep stage
        e->physSrc[i] = renamer_.mapOf(r);
        subscribeSrc(r.cls, e->physSrc[i]);
    }
    if (rename_dst_here) {
        auto ren = renamer_.renameDst(di.dst);
        e->physDst = ren.physDst;
        e->oldPhys = ren.oldPhys;
        e->dstCls = di.dst.cls;
        subscribeDst(e->dstCls, e->physDst);
    }
    if (fetchBuffer_.front().mispredicted)
        e->wasMispredicted = true;
    e->traceRec = fetchBuffer_.front().traceRec;
    if (tracer_) {
        // Decode/rename and dispatch are one stage here.
        tracer_->rename(e->traceRec, now_);
        tracer_->dispatch(e->traceRec, now_);
    }

    rob_.push_back(e);
    if (to_pipe) {
        ++memSlotsUsed_;
        pipeFifo_.push_back(e);
    } else if (q == 0) {
        e->queueId = 0;
        aQueue_.push_back(e);
        queueCheckAt_[0] = 0;
    } else if (q == 1) {
        e->queueId = 1;
        sQueue_.push_back(e);
        queueCheckAt_[1] = 0;
    } else {
        e->queueId = 2;
        vQueue_.push_back(e);
        queueCheckAt_[2] = 0;
    }

    fetchBuffer_.pop_front();
    return true;
}

// ---------------------------------------------------------------
// Fetch, 1 per cycle, with BTB + return-stack prediction
// ---------------------------------------------------------------

bool
OooMachine::fetchStep()
{
    if (fetchStalledUntil_ == kNoCycle || fetchStalledUntil_ > now_)
        return false;
    if (fetchIndex_ >= trace_.size())
        return false;
    if (fetchBuffer_.size() >= kFetchBufferSize)
        return false;

    const DynInst &di = trace_[fetchIndex_];
    SeqNum seq = fetchIndex_;
    fetchBuffer_.push_back({&di, seq, false});
    if (tracer_)
        fetchBuffer_.back().traceRec = tracer_->fetch(&di, seq, now_);
    ++fetchIndex_;

    if (!di.isBranch())
        return true;

    bool mispredict = false;
    if (isCallOp(di.op)) {
        ras_.push(di.pc + 4);
        // Direct call: target known at decode; no misprediction.
    } else if (isRetOp(di.op)) {
        Addr pred = ras_.pop();
        mispredict = pred != di.target;
    } else {
        bool pred_taken = btb_.predictTaken(di.pc);
        if (pred_taken != di.taken)
            mispredict = true;
        else if (di.taken && btb_.predictedTarget(di.pc) != di.target)
            mispredict = true;
    }
    if (mispredict) {
        ++mispredicts_;
        fetchBuffer_.back().mispredicted = true;
        redirectSeq_ = seq;
        fetchStalledUntil_ = kNoCycle; // until the branch resolves
    }
    return true;
}

// ---------------------------------------------------------------
// Precise trap (section 5): squash and restore
// ---------------------------------------------------------------

void
OooMachine::takeTrap()
{
    sim_assert(cfg_.commit == CommitMode::Late,
               "precise traps require the late-commit model");
    RobEntry *head = rob_.front();
    SeqNum fault_seq = head->seq;

    // A software TLB refill delivers here: the handler installs the
    // missing translations (refill() re-checks residence, so pages
    // that arrived since detection are skipped) and the replay of
    // this instruction skips re-detection via the latch.
    mem_->refill(head->tlbRefillPages, head->di->isIndexedMem());
    lastTlbTrapSeq_ = fault_seq;

    // Already-retired eliminated loads whose value timing has not
    // resolved yet keep architected state (they committed); settle
    // their destination registers at the trap point and drop their
    // claims before the squash.
    for (RobEntry *e : elimWait_) {
        if (!e->retired)
            continue;
        if (e->physDst >= 0 && e->copySrcPhys >= 0) {
            PhysReg &d = renamer_.file(e->di->dst.cls).reg(e->physDst);
            d.chainReadyAt = now_;
            d.fullReadyAt = now_;
        }
        if (e->holdsCopyClaim) {
            renamer_.file(e->di->dst.cls).release(e->copySrcPhys);
            e->holdsCopyClaim = false;
        }
    }

    // The squash drops every reference the wakeup network holds:
    // subscriptions die with their ROB entries, unresolved
    // eliminations with elimWait_, and parked waiter lists are swept
    // clean below (stale calendar events are harmless — they fail
    // validation once nothing references them).
    for (RobEntry *e : elimWait_) {
        if (e->copySrcPhys >= 0)
            --renamer_.file(e->di->dst.cls)
                  .reg(e->copySrcPhys)
                  .elimRefs;
    }

    // Walk the ROB youngest-first, undoing every rename and claim.
    for (auto it = rob_.rbegin(); it != rob_.rend(); ++it) {
        RobEntry *e = *it;
        e->inRob = false;
        unsubscribeEntry(*e);
        if (tracer_)
            tracer_->squash(e->traceRec, now_);
        if (e->holdsCopyClaim) {
            renamer_.file(e->di->dst.cls).release(e->copySrcPhys);
            e->holdsCopyClaim = false;
        }
        if (e->physDst >= 0)
            renamer_.rollback(e->di->dst, e->physDst, e->oldPhys);
    }

    for (unsigned c = 0; c < kNumRegClasses; ++c) {
        PhysRegFile &f = renamer_.file(static_cast<RegClass>(c));
        for (unsigned r = 0; r < f.size(); ++r)
            f.reg(static_cast<int>(r)).waiterHead = -1;
    }

    // Return the squashed entries' slots: every ROB entry, plus the
    // retired entries the wait set and the eliminated-load list still
    // held (an entry is never on both, and a non-retired entry on
    // either is also in the ROB).
    for (RobEntry *e : rob_)
        slab_.release(*e);
    for (const auto *list : {&waitSet_, &elimWait_})
        for (RobEntry *e : *list)
            if (e->retired)
                slab_.release(*e);

    rob_.clear();
    aQueue_.clear();
    sQueue_.clear();
    vQueue_.clear();
    queueCheckAt_.fill(0);
    pipeFifo_.clear();
    pipeStage_.fill(nullptr);
    waitSet_.clear();
    waitCleanupAt_ = kNoCycle;
    elimWait_.clear();
    elimWaitDirty_ = false;
    memSlotsUsed_ = 0;
    if (tracer_) {
        for (const Fetched &fe : fetchBuffer_)
            tracer_->squash(fe.traceRec, now_);
    }
    fetchBuffer_.clear();
    redirectSeq_ = kNoSeq;

    // Tags may describe squashed state; drop them conservatively.
    for (unsigned c = 0; c < kNumRegClasses; ++c)
        renamer_.file(static_cast<RegClass>(c)).invalidateAllTags();

    // Re-execute from the faulting instruction; the page is now
    // resident so the fault does not recur.
    fetchIndex_ = fault_seq;
    fetchStalledUntil_ = now_ + kTrapPenalty;
    trapStallUntil_ = fetchStalledUntil_;
    pushEvent(fetchStalledUntil_, EvFetch);
    ++traps_;
}

// ---------------------------------------------------------------
// Event calendar and main loop
// ---------------------------------------------------------------

void
OooMachine::insertEvent(const Event &ev)
{
    Cycle t = ev.t;
    if (t - now_ >= kWheelSlots) {
        farEvents_.push_back(ev);
        std::push_heap(farEvents_.begin(), farEvents_.end(),
                       EventAfter{});
        return;
    }
    uint32_t n = freeEventNode_;
    if (n != kNoNode) {
        freeEventNode_ = eventNodes_[n].next;
    } else {
        n = static_cast<uint32_t>(eventNodes_.size());
        eventNodes_.emplace_back();
    }
    auto slot = static_cast<uint32_t>(t % kWheelSlots);
    eventNodes_[n] = {ev, wheel_[slot]};
    wheel_[slot] = n;
    wheelBusy_[slot / 64] |= uint64_t{1} << (slot % 64);
}

/**
 * Free @p slot's dead events from the head on. True if a live one
 * remains: the slot's time is then a real next event. Dropping a dead
 * event is always safe: liveness only comes back through a fresh
 * push (every value overwrite and every refcount rise from zero
 * re-announces).
 */
bool
OooMachine::pruneWheelSlot(uint32_t slot)
{
    while (wheel_[slot] != kNoNode) {
        uint32_t n = wheel_[slot];
        if (eventLive(eventNodes_[n].ev))
            return true;
        wheel_[slot] = eventNodes_[n].next;
        eventNodes_[n].next = freeEventNode_;
        freeEventNode_ = n;
    }
    wheelBusy_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    return false;
}

/** Return every event in @p slot to the pool, live or not. */
void
OooMachine::clearWheelSlot(uint32_t slot)
{
    uint32_t head = wheel_[slot];
    if (head == kNoNode)
        return;
    uint32_t tail = head;
    while (eventNodes_[tail].next != kNoNode)
        tail = eventNodes_[tail].next;
    eventNodes_[tail].next = freeEventNode_;
    freeEventNode_ = head;
    wheel_[slot] = kNoNode;
    wheelBusy_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
}

/**
 * Is a calendar candidate still a time the full rescan would report?
 * Each case checks exactly what nextEventAfterScan() would look at:
 * the value must still be current, and register times must still be
 * referenced by a live ROB entry (or, for full-ready times, an
 * unresolved eliminated load). An address phase is live while its
 * access is on the wait set: an early-committed store leaves the ROB
 * before its phase ends, and younger conflicting accesses still wait
 * for that end. An EvComplete/EvMemDone whose slot has since been
 * recycled is judged against the new occupant's live inRob/inWaitSet
 * and times, so it can only pass with a time the rescan also sees.
 */
bool
OooMachine::eventLive(const Event &ev) const
{
    switch (static_cast<EvKind>(ev.kind)) {
    case EvFu1:
        return ev.t == fu1Free_;
    case EvFu2:
        return ev.t == fu2Free_;
    case EvMemAny:
        return ev.t == memFreeCache_;
    case EvMemLoad:
        return ev.t == memFreeLoadCache_;
    case EvMemStore:
        return ev.t == memFreeStoreCache_;
    case EvFetch:
        return ev.t == fetchStalledUntil_;
    case EvComplete: {
        const RobEntry &e = slab_[ev.id];
        return e.inRob && ev.t == e.completeAt;
    }
    case EvMemDone: {
        const RobEntry &e = slab_[ev.id];
        return e.inWaitSet && ev.t == e.memDoneAt;
    }
    case EvRegChain: {
        const PhysReg &p =
            renamer_.file(static_cast<RegClass>(ev.cls))
                .reg(static_cast<int>(ev.id));
        return p.robSrcRefs + p.robDstRefs > 0 &&
               ev.t == p.chainReadyAt;
    }
    case EvRegFull: {
        const PhysReg &p =
            renamer_.file(static_cast<RegClass>(ev.cls))
                .reg(static_cast<int>(ev.id));
        return p.robSrcRefs + p.robDstRefs + p.elimRefs > 0 &&
               ev.t == p.fullReadyAt;
    }
    case EvRegPort: {
        const PhysReg &p =
            renamer_.file(static_cast<RegClass>(ev.cls))
                .reg(static_cast<int>(ev.id));
        return p.robSrcRefs > 0 && ev.t == p.readPortFreeAt;
    }
    }
    return false;
}

Cycle
OooMachine::nextEventFromCalendar()
{
    // Walk the occupied wheel slots in time order from now_ + 1,
    // freeing dead events; the first live one is the wheel's minimum.
    Cycle best = kNoCycle;
    for (uint32_t off = 0; off < kWheelSlots - 1;) {
        auto slot = static_cast<uint32_t>((now_ + 1 + off) % kWheelSlots);
        uint64_t bits = wheelBusy_[slot / 64] >> (slot % 64);
        if (bits & 1) {
            if (pruneWheelSlot(slot)) {
                best = now_ + 1 + off;
                break;
            }
            ++off;
        } else {
            // On to the word's next occupied slot, or past the word.
            off += bits ? static_cast<uint32_t>(std::countr_zero(bits))
                        : 64 - slot % 64;
        }
    }
    // Events past the wheel: drop dead or passed tops.
    while (!farEvents_.empty()) {
        const Event &top = farEvents_.front();
        if (top.t > now_ && eventLive(top))
            return std::min(best, top.t);
        std::pop_heap(farEvents_.begin(), farEvents_.end(),
                      EventAfter{});
        farEvents_.pop_back();
    }
    return best;
}

Cycle
OooMachine::nextEventAfterScan() const
{
    Cycle best = kNoCycle;
    auto consider = [&](Cycle c) {
        if (c != kNoCycle && c > now_ && c < best)
            best = c;
    };
    consider(fu1Free_);
    consider(fu2Free_);
    consider(mem_->freeAt());
    // Under a split load/store policy the per-direction units can
    // free later than the global minimum.
    consider(mem_->freeAt(MemOp::Load));
    consider(mem_->freeAt(MemOp::Store));
    consider(fetchStalledUntil_);
    for (const RobEntry *e : waitSet_)
        if (e->memIssued)
            consider(e->memDoneAt);
    for (const RobEntry *e : rob_) {
        consider(e->completeAt);
        if (e->physDst >= 0 && e->dstCls != RegClass::None) {
            const PhysReg &p =
                renamer_.file(e->dstCls).reg(e->physDst);
            consider(p.chainReadyAt);
            consider(p.fullReadyAt);
        }
        // Sources may have been written by producers that already
        // committed (early commit), so their ready times are only
        // visible through the consumer.
        for (unsigned i = 0; i < e->di->numSrc; ++i) {
            const RegId &r = e->di->src[i];
            if (!r.valid() || e->physSrc[i] < 0)
                continue;
            const PhysReg &p = renamer_.file(r.cls).reg(e->physSrc[i]);
            consider(p.chainReadyAt);
            consider(p.fullReadyAt);
            consider(p.readPortFreeAt);
        }
    }
    for (const RobEntry *e : elimWait_) {
        if (e->copySrcPhys >= 0) {
            consider(renamer_.file(e->di->dst.cls)
                         .reg(e->copySrcPhys)
                         .fullReadyAt);
        }
    }
    return best;
}

/**
 * Top-down attribution of a cycle in which nothing committed: charge
 * whatever is holding up the ROB head (the oldest instruction is
 * what retirement is actually waiting for), or the front end when
 * nothing is in flight. Read-only over the same state the issue
 * logic consults, so accounting can never perturb timing.
 */
CpiBucket
OooMachine::cpiWaitBucket() const
{
    if (rob_.empty()) {
        // Nothing in flight: the front end is the limiter — either
        // the post-trap refill window or an ordinary fetch/redirect
        // bubble (mispredict penalty, empty fetch buffer).
        return now_ < trapStallUntil_ ? CpiBucket::TlbTrap
                                      : CpiBucket::Fetch;
    }
    const RobEntry &h = *rob_.front();
    if (h.faulted)
        return CpiBucket::TlbTrap;
    if (h.started) {
        // Executing but not yet committable (late commit): the
        // remaining latency belongs to the unit doing the work.
        if (h.di->isMem())
            return CpiBucket::Memory;
        if (h.eliminated)
            return CpiBucket::OperandWait;
        return CpiBucket::FuBusy;
    }
    switch (h.queueId) {
    case 3:
        // In the memory wait set: blocked on operands, or on the
        // memory system itself (unit busy, disambiguation, bank and
        // MSHR backpressure all surface as a non-issuing ready op).
        return entryOperandsReady(h) ? CpiBucket::Memory
                                     : CpiBucket::OperandWait;
    case 0:
    case 1:
        // Scalar queues issue one per queue per cycle: a ready head
        // that has not issued lost the issue-slot race.
        return scalarSrcsReady(h) ? CpiBucket::FuBusy
                                  : CpiBucket::OperandWait;
    case 2:
        return entryOperandsReady(h) ? CpiBucket::FuBusy
                                     : CpiBucket::OperandWait;
    default:
        // Still in the memory pipeline (Issue/Range/Dep): either the
        // Dep stage is stalled on renaming or a full V queue, or the
        // entry is simply traversing the pipe.
        if (cfg_.loadElim == LoadElimMode::SleVle &&
            h.di->dst.cls == RegClass::V &&
            !renamer_.canRename(RegClass::V)) {
            return CpiBucket::Rename;
        }
        if (!h.di->isMem() && vQueue_.size() >= cfg_.queueSize)
            return CpiBucket::QueueFull;
        return CpiBucket::Memory;
    }
}

// ---------------------------------------------------------------
// Invariant audit (src/check/): observe-only checkers over the
// machine's conservation laws. Each checker recomputes its ground
// truth from first principles (map tables, the live ROB, the
// unresolved-elimination set) and compares it against the
// incrementally-maintained counters the hot path relies on.
// ---------------------------------------------------------------

check::RegFileAudit
OooMachine::auditRegFile(RegClass cls) const
{
    static const char *const kClsNames[kNumRegClasses] = {"A", "S",
                                                          "V", "M"};
    check::RegFileAudit rf;
    rf.cls = kClsNames[Renamer::clsIdx(cls)];
    const PhysRegFile &f = renamer_.file(cls);
    rf.regs.reserve(f.size());
    for (unsigned i = 0; i < f.size(); ++i) {
        const PhysReg &p = f.reg(static_cast<int>(i));
        rf.regs.push_back({p.refCount, p.inFreeList, p.robSrcRefs,
                           p.robDstRefs, p.elimRefs});
    }
    for (int idx : f.freeList())
        rf.freeList.push_back(idx);
    return rf;
}

std::vector<int64_t>
OooMachine::expectedRefCounts(RegClass cls) const
{
    const PhysRegFile &f = renamer_.file(cls);
    std::vector<int64_t> exp(f.size(), 0);
    // Claim 1: the map table — one per logical register currently
    // mapped onto the physical register.
    for (unsigned l = 0; l < numLogicalRegs(cls); ++l) {
        int p = renamer_.mapOf(RegId(cls, static_cast<uint8_t>(l)));
        if (p >= 0)
            ++exp[static_cast<size_t>(p)];
    }
    // Claim 2: in-flight overwrites — every ROB entry holds its
    // destination's previous mapping until commit releases it (or a
    // squash rolls it back).
    for (const RobEntry *e : rob_)
        if (e->dstCls == cls && e->oldPhys >= 0)
            ++exp[static_cast<size_t>(e->oldPhys)];
    // Claim 3: unresolved scalar eliminations hold their copy source
    // so it cannot be reallocated before the value is latched.
    for (const RobEntry *e : elimWait_)
        if (e->holdsCopyClaim && e->copySrcPhys >= 0 &&
            e->di->dst.cls == cls)
            ++exp[static_cast<size_t>(e->copySrcPhys)];
    // Claim 4: claims permanently orphaned by Dep-stage re-rename
    // retries (accepted seed leak; see depStage).
    const auto &orphans = orphanedClaims_[Renamer::clsIdx(cls)];
    for (size_t i = 0; i < orphans.size(); ++i)
        exp[i] += orphans[i];
    return exp;
}

void
OooMachine::expectedSubscriptions(RegClass cls,
                                  std::vector<int64_t> &src,
                                  std::vector<int64_t> &dst,
                                  std::vector<int64_t> &elim) const
{
    const PhysRegFile &f = renamer_.file(cls);
    src.assign(f.size(), 0);
    dst.assign(f.size(), 0);
    elim.assign(f.size(), 0);
    for (const RobEntry *e : rob_) {
        for (unsigned i = 0; i < e->di->numSrc; ++i) {
            const RegId &r = e->di->src[i];
            if (r.valid() && r.cls == cls && e->physSrc[i] >= 0)
                ++src[static_cast<size_t>(e->physSrc[i])];
        }
        if (e->dstCls == cls && e->physDst >= 0)
            ++dst[static_cast<size_t>(e->physDst)];
    }
    for (const RobEntry *e : elimWait_)
        if (e->copySrcPhys >= 0 && e->di->dst.cls == cls)
            ++elim[static_cast<size_t>(e->copySrcPhys)];
}

void
OooMachine::auditState(Cycle now)
{
    using check::RegAudit;
    using check::RegFileAudit;

    // Every physical register is exactly one of free / mapped /
    // pending-free, and the free list structurally mirrors the
    // per-register flags.
    {
        check::Reporter r = audit_.reporter("preg-freelist", now);
        for (unsigned c = 0; c < kNumRegClasses; ++c)
            check::checkFreeListStructure(
                auditRegFile(static_cast<RegClass>(c)), r);
    }

    // Reference-count conservation: refCount equals the claims the
    // rest of the machine can account for.
    {
        check::Reporter r = audit_.reporter("preg-conservation", now);
        for (unsigned c = 0; c < kNumRegClasses; ++c) {
            RegClass cls = static_cast<RegClass>(c);
            RegFileAudit rf = auditRegFile(cls);
            std::vector<int64_t> actual;
            actual.reserve(rf.regs.size());
            for (const RegAudit &p : rf.regs)
                actual.push_back(p.refCount);
            check::checkCountsMatch("refCount", rf.cls, actual,
                                    expectedRefCounts(cls), r);
        }
    }

    // Wakeup-subscription conservation, one checker per counter so a
    // violation names its family. wakeup-dst-refs is the dedicated
    // re-rename checker: a Dep stage that stalls on a full V queue
    // renames the same destination again on retry and must drop the
    // prior robDstRefs subscription first — a missed drop surfaces
    // here as a count above the ground truth.
    struct SubChecker
    {
        const char *id;
        const char *what;
        int64_t RegAudit::*count;
    };
    static constexpr SubChecker kSubCheckers[] = {
        {"wakeup-src-refs", "robSrcRefs", &RegAudit::srcRefs},
        {"wakeup-dst-refs", "robDstRefs", &RegAudit::dstRefs},
        {"wakeup-elim-refs", "elimRefs", &RegAudit::elimRefs},
    };
    for (size_t k = 0; k < 3; ++k) {
        check::Reporter r = audit_.reporter(kSubCheckers[k].id, now);
        for (unsigned c = 0; c < kNumRegClasses; ++c) {
            RegClass cls = static_cast<RegClass>(c);
            RegFileAudit rf = auditRegFile(cls);
            std::vector<int64_t> exp[3];
            expectedSubscriptions(cls, exp[0], exp[1], exp[2]);
            std::vector<int64_t> actual;
            for (const RegAudit &p : rf.regs)
                actual.push_back(p.*kSubCheckers[k].count);
            check::checkCountsMatch(kSubCheckers[k].what, rf.cls,
                                    actual, exp[k], r);
        }
    }

    auditAges(now);

    // Memory-pipeline slot conservation: the structural counter the
    // dispatch gate trusts equals the occupants it can account for
    // (faulted entries keep their slot until the trap squash).
    {
        check::Reporter r = audit_.reporter("mem-slots", now);
        uint64_t expected = pipeFifo_.size();
        for (const RobEntry *e : pipeStage_)
            if (e)
                ++expected;
        for (const RobEntry *e : waitSet_)
            if (!e->memIssued)
                ++expected;
        check::checkScalarMatch("memSlotsUsed", memSlotsUsed_,
                                expected, r);
    }

    // Slot recycling: no slot freed twice or while something still
    // reaches it (the ROB, issue queues, memory pipe, wait set,
    // eliminated-load list or a waiter list), none leaked, and all
    // of them free once the run is over.
    {
        check::Reporter r = audit_.reporter("slab-slots", now);
        check::SlabAudit s;
        s.allocated = slab_.size();
        s.freeSlots = slab_.freeSlots();
        s.runOver = drained();
        auto reach = [&s](const auto &container) {
            for (const RobEntry *e : container)
                if (e)
                    s.reachable.push_back(e->slabIdx);
        };
        reach(rob_);
        reach(aQueue_);
        reach(sQueue_);
        reach(vQueue_);
        reach(pipeFifo_);
        reach(pipeStage_);
        reach(waitSet_);
        reach(elimWait_);
        for (unsigned c = 0; c < kNumRegClasses; ++c) {
            const PhysRegFile &f =
                renamer_.file(static_cast<RegClass>(c));
            for (unsigned p = 0; p < f.size(); ++p) {
                // Bounded, so a corrupt cyclic list cannot hang us.
                int32_t i = f.reg(static_cast<int>(p)).waiterHead;
                for (uint64_t n = 0; i >= 0 && n <= s.allocated; ++n) {
                    s.reachable.push_back(static_cast<uint32_t>(i));
                    if (static_cast<uint64_t>(i) >= s.allocated)
                        break;
                    i = slab_[static_cast<size_t>(i)].waitNext;
                }
            }
        }
        check::checkSlabSlots(s, r);
    }

    // Memory-system counter containment and monotonicity.
    {
        check::Reporter r = audit_.reporter("mem-stats", now);
        const MemStats &s = mem_->stats();
        check::checkMemStatsBounds(s, r);
        check::checkMemStatsMonotone(prevMemStats_, s, r);
        prevMemStats_ = s;
    }

    // TLB structural soundness (set indexing, LRU timestamps,
    // counter containment), when translation is enabled.
    if (const Tlb *tlb = mem_->tlb()) {
        check::Reporter r = audit_.reporter("tlb-lru", now);
        check::checkTlbSoundness(tlb->auditView(), r);
    }
}

void
OooMachine::auditAges(Cycle now)
{
    // Age monotonicity of every in-flight queue. Cheap enough to run
    // at retire too (memory disambiguation depends on the wait set
    // staying age-sorted).
    check::Reporter r = audit_.reporter("rob-age", now);
    std::vector<SeqNum> seqs;
    auto auditSeqs = [&](const char *what, const auto &container) {
        seqs.clear();
        for (const RobEntry *e : container)
            seqs.push_back(e->seq);
        check::checkAgeOrdered(what, seqs, r);
    };
    auditSeqs("rob", rob_);
    auditSeqs("pipe-fifo", pipeFifo_);
    auditSeqs("wait-set", waitSet_);
    auditSeqs("a-queue", aQueue_);
    auditSeqs("s-queue", sQueue_);
    auditSeqs("v-queue", vQueue_);
    auditSeqs("elim-wait", elimWait_);
    seqs.clear();
    for (const Fetched &fe : fetchBuffer_)
        seqs.push_back(fe.seq);
    check::checkAgeOrdered("fetch-buffer", seqs, r);
}

void
OooMachine::sampleOccupancy(uint64_t weight)
{
    ledger_.sample(OccStruct::Rob, rob_.size(), weight);
    ledger_.sample(OccStruct::AQueue, aQueue_.size(), weight);
    ledger_.sample(OccStruct::SQueue, sQueue_.size(), weight);
    ledger_.sample(OccStruct::VQueue, vQueue_.size(), weight);
    ledger_.sample(OccStruct::FreeVRegs,
                   renamer_.file(RegClass::V).numFree(), weight);
    ledger_.sample(OccStruct::Mshrs, mem_->inFlightMshrs(now_), weight);
    if (const Tlb *tlb = mem_->tlb())
        ledger_.sample(OccStruct::TlbPages, tlb->residentPages(),
                       weight);
}

SimResult
OooMachine::run()
{
    while (true) {
        if (checkFull_ && now_ >= nextAuditAt_) {
            auditState(now_);
            nextAuditAt_ = now_ + check::kAuditWindow;
        }
        bool progress = false;
        uint64_t traps_before = traps_;
        unsigned retired = commitStep();
        progress |= retired > 0;
        if (checkRetire_ && retired > 0)
            auditAges(now_);
        resolveEliminated();
        cleanupWaitSet();
        // Each stage below is called only when its gate is open; a
        // closed gate means it provably has nothing to do this
        // cycle. queueCheckAt_[q] is the minimum next-progress cycle
        // over queue q as of its last fruitless scan (only ever
        // outdated downward by a wakeup or an insertion, which both
        // reset it to 0).
        if (!waitSet_.empty() && memFreeCache_ <= now_ &&
            queueCheckAt_[3] <= now_)
            progress |= memIssueStep();
        if (queueCheckAt_[0] <= now_)
            progress |= issueQueue(aQueue_, false, 0);
        if (queueCheckAt_[1] <= now_)
            progress |= issueQueue(sQueue_, false, 1);
        if (queueCheckAt_[2] <= now_)
            progress |= issueQueue(vQueue_, true, 2);
        progress |= pipeAdvance();
        if (!fetchBuffer_.empty())
            progress |= dispatchStep();
        progress |= fetchStep();

        if (drained())
            break;

        // Without progress nothing changes until the calendar's next
        // event, so the cycles up to it are charged in bulk below:
        // they share one blocker and see today's occupancies.
        Cycle next = now_ + 1;
        if (!progress) {
            next = nextEventFromCalendar();
            if (checkFull_) {
                // The incremental calendar must agree with the full
                // rescan on every idle jump (a divergence would
                // silently change simulated timing): no live state
                // transition may precede the calendar minimum, and
                // the minimum must be real.
                check::Reporter r =
                    audit_.reporter("calendar-bound", now_);
                check::checkCalendarAgreement(next,
                                              nextEventAfterScan(),
                                              r);
            }
            if (next == kNoCycle) {
                std::string head = "-";
                if (!rob_.empty()) {
                    const RobEntry &h = *rob_.front();
                    head = h.di->toString();
                    for (unsigned i = 0; i < h.di->numSrc; ++i) {
                        const RegId &r = h.di->src[i];
                        if (!r.valid() || h.physSrc[i] < 0) {
                            head += csprintf(" [src%u unmapped]", i);
                            continue;
                        }
                        const PhysReg &p =
                            renamer_.file(r.cls).reg(h.physSrc[i]);
                        head += csprintf(
                            " [src%u=p%d chain=%lld full=%lld]", i,
                            h.physSrc[i],
                            p.chainReadyAt == kNoCycle
                                ? -1LL
                                : (long long)p.chainReadyAt,
                            p.fullReadyAt == kNoCycle
                                ? -1LL
                                : (long long)p.fullReadyAt);
                    }
                    head += csprintf(" started=%d conflicts=%d",
                                     (int)h.started,
                                     (int)memConflicts(h));
                }
                panic("OOOVA deadlock at cycle %llu: rob=%zu "
                      "fetch=%zu/%zu waitSet=%zu vQ=%zu aQ=%zu "
                      "sQ=%zu memSlots=%u head=%s",
                      (unsigned long long)now_, rob_.size(),
                      fetchIndex_, trace_.size(), waitSet_.size(),
                      vQueue_.size(), aQueue_.size(), sQueue_.size(),
                      memSlotsUsed_, head.c_str());
            }
        }
        if (ledger_.cpiStack()) {
            // Charge exactly at the now_ advance: a trap squash
            // dominates the cycle, a retirement makes it a
            // committing cycle, anything else is charged to
            // whatever blocks the ROB head.
            CpiBucket b = traps_ > traps_before ? CpiBucket::TlbTrap
                          : retired > 0         ? CpiBucket::Commit
                                                : cpiWaitBucket();
            ledger_.charge(b, next - now_);
        }
        if (ledger_.telemetry())
            sampleOccupancy(next - now_);
        advanceTo(next);
    }
    finish(now_);
    // Every address phase ends by endCycle_, so the wait set's
    // retired stragglers are done with the run: return their slots.
    for (RobEntry *e : waitSet_) {
        e->inWaitSet = false;
        releaseIfDone(*e);
    }
    waitSet_.clear();
    // Drain cycles: the ROB is empty, the units are finishing.
    if (ledger_.telemetry())
        sampleOccupancy(endCycle_ - now_);

    // Final whole-state audit: with the ROB drained, every
    // conservation law collapses to its quiescent form (all
    // subscription counts zero, refCounts purely map-held).
    if (checkRetire_)
        auditState(endCycle_);

    SimResult res;
    res.program = trace_.name();
    res.machine = cfg_.name();
    res.instructions = committed_;
    res.vectorLoadsEliminated = vElims_;
    res.scalarLoadsEliminated = sElims_;
    res.branchMispredicts = mispredicts_;
    res.renameStallCycles = renameStalls_;
    res.robStallCycles = robStalls_;
    res.queueStallCycles = queueStalls_;
    res.traps = traps_;
    // The loop exits when the ROB empties; functional units and the
    // memory system keep draining until endCycle_. The final
    // committing cycle itself lands in the drain too, which keeps
    // the CPI stack an exact partition of res.cycles.
    ledger_.finish(endCycle_, now_, *mem_,
                   checkRetire_ ? &audit_ : nullptr, res);
    return res;
}

} // namespace

SimResult
simulateOoo(const Trace &trace, const OooConfig &cfg)
{
    OooMachine machine(trace, cfg);
    return machine.run();
}

} // namespace oova
