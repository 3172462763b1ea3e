#include "ref/refsim.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "check/check.hh"
#include "check/checkers.hh"
#include "common/logging.hh"
#include "mem/memsystem.hh"
#include "mem/runledger.hh"
#include "mem/tlb.hh"

namespace oova
{

namespace
{

/**
 * CPI-stack bucket for a REF issue stall. The in-order machine has
 * no rename or queues, so the stall causes map onto the shared
 * buckets: dependence waits are operand waits, WAR/WAW is the
 * machine's want of renaming, structural FU/port losses are FU
 * conflicts, the memory unit is the memory bucket, and the
 * post-branch redirect bubble is fetch-limited.
 */
CpiBucket
cpiBucketFor(StallCause cause)
{
    switch (cause) {
    case StallCause::ScalarDep:
    case StallCause::VectorDep:
        return CpiBucket::OperandWait;
    case StallCause::WarWaw:
        return CpiBucket::Rename;
    case StallCause::FuBusy:
    case StallCause::Ports:
        return CpiBucket::FuBusy;
    case StallCause::MemUnit:
        return CpiBucket::Memory;
    case StallCause::Branch:
        return CpiBucket::Fetch;
    default:
        return CpiBucket::OperandWait;
    }
}

/** Per-logical-V-register occupancy state. */
struct VRegState
{
    Cycle writeStart = 0;   ///< cycle the first element is written
    Cycle writeEnd = 0;     ///< cycle past the last element write
    bool writerIsLoad = false;
    Cycle lastReadEnd = 0;  ///< cycle past the last in-flight read
};

class RefMachine
{
  public:
    RefMachine(const Trace &trace, const RefConfig &cfg)
        : trace_(trace), cfg_(cfg), lat_(cfg.lat),
          mem_(makeMemorySystem(cfg.mem, cfg.lat.memLatency)),
          ledger_(cfg.cpiStack, cfg.telemetry)
    {
        aReady_.fill(0);
        sReady_.fill(0);
        mReady_.fill(0);
        for (auto &bank : readPortFree_)
            bank.fill(0);
        writePortFree_.fill(0);
        check::CheckLevel lvl = check::levelFor(cfg.checkLevel);
        checkRetire_ = lvl >= check::CheckLevel::Retire;
        checkFull_ = lvl >= check::CheckLevel::Full;
    }

    SimResult run();

  private:
    Cycle &scalarReady(const RegId &r);
    Cycle vSrcAvail(const RegId &r) const;
    void finish(Cycle c) { endCycle_ = std::max(endCycle_, c); }

    /** Level Full: audit every granted memory window (observe-only). */
    void
    auditAccess(const MemAccess &a, Cycle earliest)
    {
        if (!checkFull_)
            return;
        check::Reporter r = audit_.reporter("mem-window", earliest);
        check::checkMemWindow(a, earliest, r);
    }

    // Port constraint helpers (banked file: regs 2b and 2b+1 share
    // two read ports and one write port).
    Cycle readPortConstraint(const RegId &r) const;
    void occupyReadPort(const RegId &r, Cycle until);
    Cycle writePortConstraint(const RegId &r) const;
    void occupyWritePort(const RegId &r, Cycle until);

    const Trace &trace_;
    const RefConfig &cfg_;
    const LatencyTable &lat_;

    std::array<Cycle, kNumLogicalARegs> aReady_;
    std::array<Cycle, kNumLogicalSRegs> sReady_;
    std::array<Cycle, kNumLogicalMRegs> mReady_;
    std::array<VRegState, kNumLogicalVRegs> vreg_;

    std::array<std::array<Cycle, 2>, kNumLogicalVRegs / 2>
        readPortFree_;
    std::array<Cycle, kNumLogicalVRegs / 2> writePortFree_;

    Cycle fu1Free_ = 0;
    Cycle fu2Free_ = 0;
    std::unique_ptr<MemorySystem> mem_;
    /**
     * End of the last vector stream's address phase: the in-order
     * front end stalls a vector memory instruction until the one
     * memory unit is free. Scalar accesses slip past this (as on
     * the seed machine) and contend only inside the memory model.
     */
    Cycle memUnitFree_ = 0;
    /** Reusable gather/scatter element-address buffer. */
    std::vector<Addr> idxScratch_;
    /** FU busy, CPI stack and occupancy (observe-only). */
    RunLedger ledger_;

    Cycle nextIssue_ = 0;
    Cycle endCycle_ = 0;
    std::array<uint64_t, kNumStallCauses> stallCycles_{};

    /** Cycle accounting: one past the previous issue cycle. */
    Cycle issueEndPrev_ = 0;

    // ---- invariant audit (observe-only; see src/check/) ----
    bool checkRetire_ = false;
    bool checkFull_ = false;
    check::Registry audit_;
};

Cycle &
RefMachine::scalarReady(const RegId &r)
{
    switch (r.cls) {
    case RegClass::A:
        return aReady_[r.idx];
    case RegClass::S:
        return sReady_[r.idx];
    case RegClass::M:
        return mReady_[r.idx];
    default:
        panic("scalarReady on register class %d",
              static_cast<int>(r.cls));
    }
}

Cycle
RefMachine::vSrcAvail(const RegId &r) const
{
    // FU -> FU and FU -> store chaining are both supported, but the
    // C3400 does not chain memory loads into functional units (or
    // the store unit): their consumers wait for completion.
    const VRegState &st = vreg_[r.idx];
    return st.writerIsLoad ? st.writeEnd : st.writeStart + 1;
}

Cycle
RefMachine::readPortConstraint(const RegId &r) const
{
    if (!cfg_.modelPortConflicts)
        return 0;
    const auto &bank = readPortFree_[r.idx / 2];
    return std::min(bank[0], bank[1]);
}

void
RefMachine::occupyReadPort(const RegId &r, Cycle until)
{
    if (!cfg_.modelPortConflicts)
        return;
    auto &bank = readPortFree_[r.idx / 2];
    // Take the port that frees first.
    if (bank[0] <= bank[1])
        bank[0] = until;
    else
        bank[1] = until;
}

Cycle
RefMachine::writePortConstraint(const RegId &r) const
{
    if (!cfg_.modelPortConflicts)
        return 0;
    return writePortFree_[r.idx / 2];
}

void
RefMachine::occupyWritePort(const RegId &r, Cycle until)
{
    if (!cfg_.modelPortConflicts)
        return;
    writePortFree_[r.idx / 2] = until;
}

SimResult
RefMachine::run()
{
    // Issue-time computation with stall attribution: every
    // constraint that can delay issue raises t and records why.
    struct IssuePoint
    {
        Cycle t;
        StallCause cause = StallCause::None;

        void
        raise(Cycle c, StallCause why)
        {
            if (c > t) {
                t = c;
                cause = why;
            }
        }
    };

    for (const DynInst &inst : trace_) {
        Cycle ip_base_ = nextIssue_;
        IssuePoint ip{nextIssue_};
        const OpTraits &tr = inst.traits();

        // ---- Data constraints -------------------------------------
        for (unsigned i = 0; i < inst.numSrc; ++i) {
            const RegId &r = inst.src[i];
            if (r.cls == RegClass::V) {
                ip.raise(vSrcAvail(r), StallCause::VectorDep);
            } else if (r.valid()) {
                ip.raise(scalarReady(r), StallCause::ScalarDep);
            }
        }
        // Gather/scatter index vectors must be complete: the memory
        // unit needs the whole index register to form addresses.
        if (inst.isIndexedMem()) {
            for (unsigned i = 0; i < inst.numSrc; ++i)
                if (inst.src[i].cls == RegClass::V)
                    ip.raise(vreg_[inst.src[i].idx].writeEnd,
                             StallCause::VectorDep);
        }

        // WAR/WAW on a vector destination: the new value's first
        // element may not be written before the previous user is
        // done with the old value. The first write happens a fixed
        // delay after issue (crossbars + latency, or the memory
        // round trip for loads), so issue may begin that much
        // earlier than the conflict clears.
        if (inst.dst.cls == RegClass::V) {
            const VRegState &d = vreg_[inst.dst.idx];
            Cycle write_delay;
            if (inst.isLoad()) {
                write_delay = kRefVectorStartup + lat_.memLatency +
                              kWriteXbarVector;
            } else {
                write_delay = kRefVectorStartup + kReadXbar +
                              lat_.opLatency(inst.op) + kWriteXbarVector;
            }
            Cycle clear = std::max(d.lastReadEnd + 1, d.writeEnd);
            if (clear > write_delay)
                ip.raise(clear - write_delay, StallCause::WarWaw);
        }

        // ---- Structural constraints and execution -----------------
        if (inst.isVectorArith()) {
            int fu;
            if (tr.fu2Only)
                fu = 2;
            else
                fu = (fu1Free_ <= fu2Free_) ? 1 : 2;
            ip.raise(fu == 1 ? fu1Free_ : fu2Free_,
                     StallCause::FuBusy);

            for (unsigned i = 0; i < inst.numSrc; ++i)
                if (inst.src[i].cls == RegClass::V)
                    ip.raise(readPortConstraint(inst.src[i]),
                             StallCause::Ports);
            if (inst.dst.cls == RegClass::V)
                ip.raise(writePortConstraint(inst.dst),
                         StallCause::Ports);

            Cycle t = ip.t;
            Cycle exec = t + kRefVectorStartup;
            Cycle read_done = exec + inst.vl;
            Cycle write_start = exec + kReadXbar +
                                lat_.opLatency(inst.op) + kWriteXbarVector;
            Cycle write_end = write_start + inst.vl;

            if (fu == 1)
                fu1Free_ = read_done;
            else
                fu2Free_ = read_done;
            ledger_.fuBusy(fu, t, read_done);
            for (unsigned i = 0; i < inst.numSrc; ++i) {
                const RegId &r = inst.src[i];
                if (r.cls == RegClass::V) {
                    vreg_[r.idx].lastReadEnd =
                        std::max(vreg_[r.idx].lastReadEnd, read_done);
                    occupyReadPort(r, read_done);
                }
            }
            if (inst.dst.cls == RegClass::V) {
                VRegState &d = vreg_[inst.dst.idx];
                d.writeStart = write_start;
                d.writeEnd = write_end;
                d.writerIsLoad = false;
                occupyWritePort(inst.dst, write_end);
                finish(write_end);
            } else if (inst.dst.cls == RegClass::M) {
                mReady_[inst.dst.idx] = write_end;
                finish(write_end);
            } else if (inst.dst.valid()) {
                // VReduce: the scalar result needs every element.
                Cycle ready = exec + kReadXbar +
                              lat_.opLatency(inst.op) + inst.vl +
                              kWriteXbarScalar;
                scalarReady(inst.dst) = ready;
                finish(ready);
            }
        } else if (inst.isVectorMem()) {
            MemOp mop = tr.isStore ? MemOp::Store : MemOp::Load;
            ip.raise(memUnitFree_, StallCause::MemUnit);
            // Gather/scatter reserve their real per-element
            // addresses (the whole index vector is available at
            // issue), so bank conflicts follow the actual pattern.
            auto reserveStream = [&](Cycle at) {
                MemAccess a;
                if (inst.isIndexedMem()) {
                    indexedElemAddrs(inst, idxScratch_);
                    a = mem_->reserve(at, idxScratch_, mop);
                } else {
                    a = mem_->reserve(at, inst.addr,
                                      inst.strideBytes, inst.vl,
                                      mop);
                }
                auditAccess(a, at);
                return a;
            };
            if (inst.isLoad()) {
                if (inst.dst.cls == RegClass::V)
                    ip.raise(writePortConstraint(inst.dst),
                             StallCause::Ports);
                Cycle t = ip.t;
                MemAccess a = reserveStream(t + kRefVectorStartup);
                memUnitFree_ = a.end;
                VRegState &d = vreg_[inst.dst.idx];
                d.writeStart = a.firstData + kWriteXbarVector;
                d.writeEnd = a.lastData + kWriteXbarVector;
                d.writerIsLoad = true;
                occupyWritePort(inst.dst, d.writeEnd);
                finish(d.writeEnd);
            } else {
                // Store: data register is src[0].
                const RegId &data = inst.src[0];
                ip.raise(readPortConstraint(data),
                         StallCause::Ports);
                Cycle t = ip.t;
                MemAccess a = reserveStream(t + kRefVectorStartup);
                memUnitFree_ = a.end;
                Cycle read_done = a.end;
                vreg_[data.idx].lastReadEnd =
                    std::max(vreg_[data.idx].lastReadEnd, read_done);
                occupyReadPort(data, read_done);
                finish(read_done);
            }
        } else if (inst.isMem()) {
            // Scalar memory.
            Cycle t = ip.t;
            if (inst.isLoad()) {
                MemAccess a = mem_->reserve(t, inst.addr,
                                            inst.elemSize, 1,
                                            MemOp::Load);
                auditAccess(a, t);
                Cycle ready = a.firstData + kWriteXbarScalar;
                scalarReady(inst.dst) = ready;
                finish(ready);
            } else {
                MemAccess a = mem_->reserve(t, inst.addr,
                                            inst.elemSize, 1,
                                            MemOp::Store);
                auditAccess(a, t);
                finish(a.start + 1);
            }
        } else if (inst.isBranch()) {
            Cycle t = ip.t;
            Cycle resolve = t + lat_.opLatency(inst.op);
            finish(resolve);
            if (inst.taken) {
                nextIssue_ = std::max(nextIssue_,
                                      t + 1 + kBranchMispredict);
            }
        } else {
            // Scalar ALU / move / SetVL / SetVS.
            Cycle t = ip.t;
            if (inst.dst.valid()) {
                Cycle ready =
                    t + lat_.opLatency(inst.op) + kWriteXbarScalar;
                scalarReady(inst.dst) = ready;
                finish(ready);
            } else {
                finish(t + 1);
            }
        }

        if (ip.t > ip_base_ && ip.cause != StallCause::None) {
            stallCycles_[static_cast<unsigned>(ip.cause)] +=
                ip.t - ip_base_;
        }
        if (ledger_.cpiStack()) {
            // Charge the issue timeline gap-free: the redirect
            // bubble folded into nextIssue_ by the previous taken
            // branch is fetch-limited, the raise()-tracked stall
            // goes to its bucket, and the issue cycle itself
            // commits one instruction. Chaining the intervals off
            // issueEndPrev_ is what makes the stack sum to cycles
            // exactly.
            ledger_.charge(CpiBucket::Fetch, ip_base_ - issueEndPrev_);
            ledger_.charge(cpiBucketFor(ip.cause), ip.t - ip_base_);
            ledger_.charge(CpiBucket::Commit, 1);
            issueEndPrev_ = ip.t + 1;
        }
        nextIssue_ = std::max(nextIssue_, ip.t + 1);
        finish(ip.t + 1);
    }

    // End-of-run audit: memory-counter containment and TLB
    // structural soundness; the ledger adds its conservation checks.
    // Observe-only; violations go to stderr and the process-wide
    // tally (check::processExitCode()).
    if (checkRetire_) {
        check::Reporter r = audit_.reporter("mem-stats", endCycle_);
        check::checkMemStatsBounds(mem_->stats(), r);
        if (const Tlb *tlb = mem_->tlb()) {
            check::Reporter tr2 = audit_.reporter("tlb-lru",
                                                  endCycle_);
            check::checkTlbSoundness(tlb->auditView(), tr2);
        }
    }

    SimResult res;
    res.program = trace_.name();
    res.machine = "REF" + cfg_.mem.label();
    res.instructions = trace_.size();
    res.stallCycles = stallCycles_;
    // After the last issue the vector units and memory drain.
    ledger_.finish(endCycle_, issueEndPrev_, *mem_,
                   checkRetire_ ? &audit_ : nullptr, res);
    return res;
}

} // namespace

void
validate(const RefConfig &cfg)
{
    // The C3400 drives one memory unit; only the OOOVA's banked
    // studies add more.
    if (cfg.mem.memUnits > 1)
        fatal("REF drives one memory unit, not %u", cfg.mem.memUnits);
    validate(cfg.mem);
}

SimResult
simulateRef(const Trace &trace, const RefConfig &cfg)
{
    validate(cfg);
    RefMachine machine(trace, cfg);
    return machine.run();
}

} // namespace oova
