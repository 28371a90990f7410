#include "sim/pipeline.hh"

#include <algorithm>

#include "isa/isa.hh"
#include "sim/exec.hh"
#include "util/logging.hh"

namespace tea::sim {

using isa::Instruction;
using isa::Op;

CorePort::~CorePort() = default;

CorePipeline::CorePipeline(const isa::Program &prog, const OooConfig &cfg,
                           InjectionPlan plan, CorePort &port,
                           unsigned coreId)
    : prog_(prog), cfg_(cfg), plan_(std::move(plan)), port_(port),
      coreId_(coreId), coreMask_(1u << (coreId & 31)),
      rob_(cfg.robSize), busy_((cfg.robSize + 63) / 64),
      ready_(busy_.size()), parked_(busy_.size()),
      waiters_(cfg.robSize),
      fetchIdx_(prog.entryIndex)
{
    // In-flight stores never exceed min(maxStores, robSize).
    size_t sqCap = 1;
    while (sqCap < std::min(cfg.maxStores, cfg.robSize))
        sqCap <<= 1;
    sq_.resize(sqCap);
    sqMask_ = sqCap - 1;
    fetchBuf_.ring.resize(std::max(2 * cfg.fetchWidth, 1u));
    for (unsigned i = 0; i < isa::kNumOps; ++i) {
        auto op = static_cast<Op>(i);
        OpInfo &d = ops_[i];
        d.isLoad = isa::isLoad(op);
        d.isStore = isa::isStore(op);
        d.isBranch = isa::isBranch(op);
        d.isCtrl = d.isBranch || isa::isJump(op);
        d.isFpArith = isa::isFpArith(op);
        d.readsFpRs1 = isa::readsFpRs1(op);
        d.readsIntRs1 = isa::readsIntRs1(op);
        d.readsFpRs2 = isa::readsFpRs2(op);
        d.readsIntRs2 = isa::readsIntRs2(op);
        d.writesFp = isa::writesFpReg(op);
        d.hasDest = isa::hasDest(op);
        d.latency = latencyOf(op);
    }
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    xreg_[2] = isa::kStackTop - 64;
}

template <typename Fn>
bool
CorePipeline::walkRange(const std::vector<uint64_t> &mask, size_t lo,
                        size_t hi, Fn &fn)
{
    for (size_t w = lo >> 6; (w << 6) < hi; ++w) {
        uint64_t range = ~0ULL;
        if (w == (lo >> 6))
            range &= ~0ULL << (lo & 63);
        if (((w + 1) << 6) > hi)
            range &= (1ULL << (hi & 63)) - 1;
        // Re-read the word after every visit: the callback may clear
        // bits (completion, squash) or set bits of younger entries
        // (a completing store wakes the loads parked on it), which
        // this walk then still reaches.
        uint64_t bits = mask[w] & range;
        while (bits) {
            unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
            if (!fn((w << 6) + b))
                return false;
            bits = mask[w] & range & ~((2ULL << b) - 1);
        }
    }
    return true;
}

/**
 * Visit the set bits of `mask` in program order: [head, size) then
 * [0, head). Both bounds are fixed before the walk, so a squash inside
 * it (which moves `tail_`) can never make it revisit an entry.
 */
template <typename Fn>
void
CorePipeline::walkFromHead(const std::vector<uint64_t> &mask,
                           Fn &&fn) const
{
    const size_t head = head_;
    if (walkRange(mask, head, rob_.size(), fn))
        walkRange(mask, 0, head, fn);
}

void
CorePipeline::restart(uint64_t entryIdx, uint64_t sp)
{
    head_ = tail_ = count_ = 0;
    std::fill(busy_.begin(), busy_.end(), 0);
    std::fill(ready_.begin(), ready_.end(), 0);
    std::fill(parked_.begin(), parked_.end(), 0);
    iqCount_ = 0;
    sqHead_ = sqTail_;
    fetchBuf_.clear();
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    loadsInFlight_ = storesInFlight_ = 0;
    fetchIdx_ = entryIdx;
    fetchStopped_ = false;
    xreg_[2] = sp;
    xregTaint_[2] = 0;
}

// ---- fetch -------------------------------------------------------------
void
CorePipeline::fetch()
{
    for (unsigned i = 0; i < cfg_.fetchWidth; ++i) {
        if (fetchStopped_ || fetchBuf_.size() >= 2 * cfg_.fetchWidth)
            return;
        if (fetchIdx_ >= prog_.code.size()) {
            // Wrong-path runaway; wait for a redirect.
            return;
        }
        const Instruction &insn = prog_.code[fetchIdx_];
        uint64_t next = fetchIdx_ + 1;
        if (info(insn.op).isBranch) {
            if (pred_.predictTaken(fetchIdx_))
                next = fetchIdx_ + static_cast<int64_t>(insn.imm);
        } else if (insn.op == Op::JAL) {
            next = fetchIdx_ + static_cast<int64_t>(insn.imm);
        } else if (insn.op == Op::JALR) {
            uint64_t t = pred_.predictTarget(fetchIdx_);
            next = (t == ~0ULL) ? fetchIdx_ + 1 : t;
        } else if (insn.op == Op::HALT) {
            fetchBuf_.push_back({fetchIdx_, fetchIdx_});
            fetchStopped_ = true;
            return;
        }
        fetchBuf_.push_back({fetchIdx_, next});
        fetchIdx_ = next;
    }
}

// ---- rename / dispatch -------------------------------------------------
void
CorePipeline::captureSource(RobEntry &e, int slot, unsigned reg,
                            bool isFp)
{
    e.srcIsFp[slot] = isFp;
    int producer = isFp ? mapFp_[reg] : (reg ? mapInt_[reg] : -1);
    if (producer >= 0) {
        e.src[slot] = producer;
        e.srcVal[slot] = 0;
        e.srcTaint[slot] = 0;
    } else {
        e.src[slot] = -1;
        e.srcVal[slot] = isFp ? freg_[reg] : readIntNow(reg);
        e.srcTaint[slot] =
            isFp ? fregTaint_[reg] : (reg ? xregTaint_[reg] : 0);
    }
}

void
CorePipeline::rename()
{
    for (unsigned i = 0; i < cfg_.renameWidth; ++i) {
        if (fetchBuf_.empty() || count_ == rob_.size() ||
            iqCount_ >= cfg_.iqSize)
            return;
        auto [pcIdx, predNext] = fetchBuf_.front();
        const Instruction &insn = prog_.code[pcIdx];
        const OpInfo &d = info(insn.op);
        if (d.isLoad && loadsInFlight_ >= cfg_.maxLoads)
            return;
        if (d.isStore && storesInFlight_ >= cfg_.maxStores)
            return;
        fetchBuf_.pop_front();

        size_t slot = tail_;
        tail_ = robNext(tail_);
        ++count_;
        RobEntry &e = rob_[slot];
        e = RobEntry{};
        e.insn = insn;
        e.pcIdx = pcIdx;
        e.seq = nextSeq_++;
        e.predNextIdx = predNext;
        e.stage = Stage::InIQ;
        e.src[0] = e.src[1] = -1;
        e.isLoad = d.isLoad;
        e.isStore = d.isStore;
        e.isCtrl = d.isCtrl;
        e.trap = TrapKind::None;

        // Sources (sourcesOf() states the same rule for the recorder).
        bool ecallFp =
            insn.op == Op::ECALL &&
            insn.imm == static_cast<int>(isa::Syscall::PrintFp);
        if (d.readsFpRs1 || ecallFp)
            captureSource(e, 0, insn.rs1, true);
        else if (d.readsIntRs1 && !ecallFp)
            captureSource(e, 0, insn.rs1, false);
        if (d.readsFpRs2)
            captureSource(e, 1, insn.rs2, true);
        else if (d.readsIntRs2)
            captureSource(e, 1, insn.rs2, false);
        if (e.isStore)
            captureSource(e, 1, insn.rd, isa::storeDataIsFp(insn.op));

        // Destination.
        e.destIsFp = d.writesFp;
        e.destReg = insn.rd;
        e.hasDest =
            d.hasDest && !(!e.destIsFp && insn.rd == 0);
        if (e.hasDest) {
            if (e.destIsFp)
                mapFp_[e.destReg] = static_cast<int>(slot);
            else
                mapInt_[e.destReg] = static_cast<int>(slot);
        }

        // Register with the producers still in the ROB: a Done one
        // only needs the commit-time patch, an unfinished one also
        // holds the entry back until it completes.
        waiters_[slot].clear();
        e.pending = 0;
        for (uint32_t k = 0; k < 2; ++k) {
            if (e.src[k] < 0)
                continue;
            auto producer = static_cast<size_t>(e.src[k]);
            waiters_[producer].push_back(
                {e.seq, static_cast<uint32_t>(slot), k});
            if (rob_[producer].stage != Stage::Done)
                ++e.pending;
        }
        if (e.pending == 0)
            setBit(ready_, slot);
        ++iqCount_;

        if (e.isLoad) {
            ++loadsInFlight_;
            e.storeSeq = sqTail_;
        }
        if (e.isStore) {
            ++storesInFlight_;
            e.storeSeq = sqTail_;
            sq_[sqTail_++ & sqMask_] = static_cast<uint32_t>(slot);
        }
    }
}

// ---- issue -------------------------------------------------------------
uint64_t
CorePipeline::sourceValue(const RobEntry &e, int s) const
{
    if (e.src[s] >= 0)
        return rob_[static_cast<size_t>(e.src[s])].result;
    return e.srcVal[s];
}

uint32_t
CorePipeline::sourceTaint(const RobEntry &e, int s) const
{
    if (e.src[s] >= 0)
        return rob_[static_cast<size_t>(e.src[s])].taint;
    return e.srcTaint[s];
}

unsigned
CorePipeline::latencyOf(Op op) const
{
    if (op == Op::MUL)
        return cfg_.latMul;
    if (op == Op::DIV || op == Op::DIVU || op == Op::REM ||
        op == Op::REMU)
        return cfg_.latDiv;
    if (isa::isFpArith(op)) {
        switch (op) {
          case Op::FADD_D: case Op::FSUB_D:
          case Op::FADD_S: case Op::FSUB_S:
            return cfg_.latFpAdd;
          case Op::FMUL_D: case Op::FMUL_S:
            return cfg_.latFpMul;
          case Op::FDIV_D: case Op::FDIV_S:
            return cfg_.latFpDiv;
          default:
            return cfg_.latFpCvt;
        }
    }
    return cfg_.latAlu;
}

void
CorePipeline::checkMemFault(RobEntry &e)
{
    if (e.addr & (e.size - 1))
        e.trap = TrapKind::Misaligned;
    else if (e.addr < isa::kProtectedTop)
        e.trap = TrapKind::ProtectedAccess;
    else if (!port_.mapped(e.addr, e.size, e.isStore))
        e.trap = TrapKind::MemFault;
}

void
CorePipeline::issue()
{
    // Oldest ready entries first: issue order is program order.
    unsigned issued = 0;
    walkFromHead(ready_, [&](size_t slot) {
        if (issued >= cfg_.issueWidth)
            return false;
        RobEntry &e = rob_[slot];
        Op op = e.insn.op;
        const OpInfo &d = info(op);
        bool intDiv = op == Op::DIV || op == Op::DIVU ||
                      op == Op::REM || op == Op::REMU;
        bool fpDiv = op == Op::FDIV_D || op == Op::FDIV_S;
        if (intDiv && cycles_ < intDivBusyUntil_)
            return true;
        if (fpDiv && cycles_ < fpDivBusyUntil_)
            return true;

        uint64_t a = sourceValue(e, 0);
        uint64_t b = sourceValue(e, 1);
        e.taint = sourceTaint(e, 0) | sourceTaint(e, 1);
        e.countdown = d.latency;
        e.stage = Stage::Exec;

        if (e.isLoad || e.isStore) {
            e.addr = a + static_cast<int64_t>(e.insn.imm);
            e.size = memAccessSize(op);
            checkMemFault(e);
            if (e.isStore)
                e.result = b; // store data
            e.countdown = cfg_.latAgen;
        } else if (d.isBranch) {
            bool taken = branchTaken(op, a, b);
            e.actualNextIdx =
                taken ? e.pcIdx + static_cast<int64_t>(e.insn.imm)
                      : e.pcIdx + 1;
            e.countdown = cfg_.latAlu;
        } else if (op == Op::JAL) {
            e.actualNextIdx = e.pcIdx + static_cast<int64_t>(e.insn.imm);
            e.result = (e.pcIdx + 1) * 4 + isa::kCodeBase;
            e.countdown = cfg_.latAlu;
        } else if (op == Op::JALR) {
            uint64_t target = a + static_cast<int64_t>(e.insn.imm);
            e.result = (e.pcIdx + 1) * 4 + isa::kCodeBase;
            if (target < isa::kCodeBase || (target & 3) ||
                (target - isa::kCodeBase) / 4 >= prog_.code.size()) {
                e.trap = TrapKind::BadJump;
                e.actualNextIdx = e.pcIdx + 1; // never used
            } else {
                e.actualNextIdx = (target - isa::kCodeBase) / 4;
            }
            e.countdown = cfg_.latAlu;
        } else if (op == Op::ECALL) {
            e.result = a; // value captured for commit
            e.countdown = cfg_.latAlu;
        } else if (op == Op::HALT || op == Op::NOP) {
            e.countdown = 1;
        } else {
            ExecOut out = execArith(e.insn, a, b);
            e.result = out.value;
            if (out.fpSevere && cfg_.trapOnSevereFp &&
                d.isFpArith)
                e.trap = TrapKind::FpException;
            if (intDiv)
                intDivBusyUntil_ = cycles_ + cfg_.latDiv;
            if (fpDiv)
                fpDivBusyUntil_ = cycles_ + cfg_.latFpDiv;
        }
        clearBit(ready_, slot);
        setBit(busy_, slot);
        --iqCount_;
        ++issued;
        return true;
    });
}

// ---- injection at writeback --------------------------------------------
void
CorePipeline::applyInjection(RobEntry &e)
{
    if (e.hasDest) {
        const auto &events = plan_.anyDest();
        while (anyDestPtr_ < events.size() &&
               events[anyDestPtr_].first == anyDestCount_) {
            e.result ^= events[anyDestPtr_].second;
            e.injected = true;
            e.taint |= coreMask_;
            ++injApplied_;
            ++anyDestPtr_;
        }
        ++anyDestCount_;
    }
    if (info(e.insn.op).isFpArith) {
        auto op = isa::fpuOpFor(e.insn.op);
        auto idx = static_cast<size_t>(op);
        const auto &events = plan_.fpOp(op);
        while (fpOpPtr_[idx] < events.size() &&
               events[fpOpPtr_[idx]].first == fpOpCount_[idx]) {
            e.result ^= events[fpOpPtr_[idx]].second;
            e.injected = true;
            e.taint |= coreMask_;
            ++injApplied_;
            ++fpOpPtr_[idx];
        }
        ++fpOpCount_[idx];
    }
}

// ---- squash ------------------------------------------------------------
void
CorePipeline::squashAfter(size_t slot, uint64_t redirectIdx,
                          bool stopFetch)
{
    if (timeline_)
        noteSquash(slot);
    // Kill everything younger than `slot`. A killed entry leaves every
    // event structure, and its seq can no longer match a waiter record.
    while (tail_ != robNext(slot)) {
        size_t last = robPrev(tail_);
        RobEntry &e = rob_[last];
        if (e.isLoad)
            --loadsInFlight_;
        if (e.isStore) {
            --storesInFlight_;
            --sqTail_;
        }
        if (e.injected)
            ++injWrongPath_;
        if (e.stage == Stage::InIQ)
            --iqCount_;
        clearBit(busy_, last);
        clearBit(ready_, last);
        clearBit(parked_, last);
        e.seq = kKilledSeq;
        ++squashed_;
        tail_ = last;
        --count_;
    }
    // Rebuild the rename tables from the surviving entries.
    mapInt_.fill(-1);
    mapFp_.fill(-1);
    for (size_t i = head_, n = 0; n < count_; i = robNext(i), ++n) {
        RobEntry &e = rob_[i];
        if (e.hasDest) {
            if (e.destIsFp)
                mapFp_[e.destReg] = static_cast<int>(i);
            else
                mapInt_[e.destReg] = static_cast<int>(i);
        }
    }
    fetchBuf_.clear();
    fetchIdx_ = redirectIdx;
    fetchStopped_ = stopFetch;
}

// ---- writeback / memory progression ------------------------------------
void
CorePipeline::finishExec(size_t slot)
{
    RobEntry &e = rob_[slot];
    e.stage = Stage::Done;
    clearBit(busy_, slot);
    for (const Waiter &w : waiters_[slot]) {
        RobEntry &c = rob_[w.slot];
        if (c.seq == w.seq && --c.pending == 0)
            setBit(ready_, w.slot);
    }
    if (e.isStore)
        wakeLoadsBlockedOn(slot);
    ++executed_;
    applyInjection(e);
    if (timeline_)
        noteCompletion(slot);
    if (e.isCtrl && !e.resolved) {
        e.resolved = true;
        if (info(e.insn.op).isBranch)
            pred_.update(e.pcIdx, e.actualNextIdx != e.pcIdx + 1);
        if (e.insn.op == Op::JALR && e.trap == TrapKind::None)
            pred_.updateTarget(e.pcIdx, e.actualNextIdx);
        if (e.trap != TrapKind::None) {
            // Bad jump: stop fetching down this path entirely.
            ++mispredicts_;
            squashAfter(slot, 0, true);
        } else if (e.actualNextIdx != e.predNextIdx) {
            ++mispredicts_;
            squashAfter(slot, e.actualNextIdx, false);
        }
    }
}

/**
 * Disambiguate a load against older in-flight stores. On Wait,
 * `blocker` is the ROB slot of the store that decided it: the answer
 * cannot change until that store completes or commits, because every
 * younger store the walk passed is Done, trap-free and disjoint.
 */
CorePipeline::MemCheck
CorePipeline::checkLoad(size_t slot, uint64_t &forwardValue,
                        uint32_t &forwardTaint, uint32_t &blocker)
{
    const RobEntry &ld = rob_[slot];
    // Walk the older in-flight stores from youngest to oldest.
    for (uint64_t s = ld.storeSeq; s-- > sqHead_;) {
        blocker = sq_[s & sqMask_];
        const RobEntry &st = rob_[blocker];
        if (st.stage != Stage::Done)
            return MemCheck::Wait; // address unknown
        if (st.trap != TrapKind::None)
            return MemCheck::Wait; // will crash at commit
        bool overlap = st.addr < ld.addr + ld.size &&
                       ld.addr < st.addr + st.size;
        if (!overlap)
            continue;
        if (st.addr == ld.addr && st.size == ld.size) {
            forwardValue = st.result;
            forwardTaint = st.taint;
            return MemCheck::Forward;
        }
        return MemCheck::Wait; // partial overlap: wait for commit
    }
    return MemCheck::Ready;
}

/**
 * Return the loads parked on store `slot` to the busy set. Called when
 * the store completes (in writeback, before the walk reaches the
 * younger loads) and when it commits (before writeback), so a woken
 * load re-checks in exactly the cycle polling would first have seen
 * a different answer.
 */
void
CorePipeline::wakeLoadsBlockedOn(size_t slot)
{
    for (size_t w = 0; w < parked_.size(); ++w) {
        for (uint64_t bits = parked_[w]; bits; bits &= bits - 1) {
            size_t ld = (w << 6) +
                        static_cast<size_t>(__builtin_ctzll(bits));
            if (rob_[ld].blocker == slot) {
                clearBit(parked_, ld);
                setBit(busy_, ld);
            }
        }
    }
}

void
CorePipeline::writeback()
{
    // Only entries in flight can change; a mispredict squash inside
    // the walk clears the bits of everything younger, ending it.
    walkFromHead(busy_, [&](size_t i) {
        RobEntry &e = rob_[i];
        switch (e.stage) {
          case Stage::Exec:
            if (--e.countdown == 0) {
                if (e.isLoad && e.trap == TrapKind::None)
                    e.stage = Stage::MemPending;
                else
                    finishExec(i);
            }
            break;
          case Stage::MemPending: {
            uint64_t fwd = 0;
            uint32_t fwdTaint = 0;
            uint32_t blocker = 0;
            MemCheck c = checkLoad(i, fwd, fwdTaint, blocker);
            if (c == MemCheck::Wait) {
                e.blocker = blocker;
                clearBit(busy_, i);
                setBit(parked_, i);
            } else if (c == MemCheck::Forward) {
                e.result = fwd;
                e.memTaint = fwdTaint;
                e.taint |= fwdTaint;
                e.stage = Stage::MemAccess;
                e.countdown = 1;
            } else if (c == MemCheck::Ready) {
                CorePort::LoadResult lr = port_.load(e.addr, e.size);
                e.result = lr.value;
                e.memTaint = lr.taint;
                e.taint |= lr.taint;
                e.stage = Stage::MemAccess;
                e.countdown = lr.latency;
            }
            break;
          }
          case Stage::MemAccess:
            if (--e.countdown == 0) {
                if (e.insn.op == Op::LW) {
                    e.result = static_cast<uint64_t>(
                        static_cast<int64_t>(
                            static_cast<int32_t>(e.result)));
                }
                finishExec(i);
            }
            break;
          default:
            break;
        }
        return true;
    });
}

// ---- commit ------------------------------------------------------------
/** Patch unissued consumers whose producer leaves the ROB. */
void
CorePipeline::patchWaiters(size_t slot, uint64_t value, uint32_t taint)
{
    for (const Waiter &w : waiters_[slot]) {
        RobEntry &c = rob_[w.slot];
        if (c.seq != w.seq || c.stage != Stage::InIQ)
            continue;
        c.src[w.src] = -1;
        c.srcVal[w.src] = value;
        c.srcTaint[w.src] = taint;
    }
}

CorePipeline::CommitOutcome
CorePipeline::commit(TrapKind &trapOut)
{
    for (unsigned i = 0; i < cfg_.commitWidth; ++i) {
        if (count_ == 0)
            return CommitOutcome::Continue;
        RobEntry &e = rob_[head_];
        if (e.stage != Stage::Done)
            return CommitOutcome::Continue;
        if (e.trap != TrapKind::None) {
            trapOut = e.trap;
            return CommitOutcome::Crash;
        }
        if (e.insn.op == Op::HALT) {
            ++committed_;
            return CommitOutcome::Halt;
        }
        if (e.insn.op == Op::ECALL) {
            TrapKind sysTrap = TrapKind::None;
            CorePort::Sys act =
                port_.syscall(e.insn.imm, e.result, sysTrap);
            if (act == CorePort::Sys::Stall)
                return CommitOutcome::Continue;
            if (act == CorePort::Sys::Fault) {
                trapOut = sysTrap;
                return CommitOutcome::Crash;
            }
            if (e.insn.imm >=
                    static_cast<int32_t>(isa::Syscall::Spawn) &&
                e.insn.imm <=
                    static_cast<int32_t>(isa::Syscall::Barrier)) {
                // Synchronization syscalls are fences: younger
                // instructions may have speculatively loaded memory
                // that another core rewrites while this core is
                // parked at the barrier/join, so their results are
                // stale the moment the syscall proceeds. Squash and
                // refetch from the next instruction.
                squashAfter(head_, e.pcIdx + 1, false);
                head_ = robNext(head_);
                --count_;
                ++committed_;
                return CommitOutcome::Continue;
            }
        }
        if (e.isStore) {
            port_.store(e.addr, e.size, e.result, e.taint);
            --storesInFlight_;
            ++sqHead_;
            wakeLoadsBlockedOn(head_);
        }
        if (e.isLoad) {
            --loadsInFlight_;
            if (e.memTaint & ~coreMask_)
                ++crossLoads_;
        }
        if (e.hasDest) {
            patchWaiters(head_, e.result, e.taint);
            if (e.destIsFp) {
                freg_[e.destReg] = e.result;
                fregTaint_[e.destReg] = e.taint;
                if (mapFp_[e.destReg] == static_cast<int>(head_))
                    mapFp_[e.destReg] = -1;
            } else {
                xreg_[e.destReg] = e.result;
                xregTaint_[e.destReg] = e.taint;
                if (mapInt_[e.destReg] == static_cast<int>(head_))
                    mapInt_[e.destReg] = -1;
            }
        }
        head_ = robNext(head_);
        --count_;
        ++committed_;
    }
    return CommitOutcome::Continue;
}

// ---- timeline recording (sim/timeline.hh) ------------------------------
void
CorePipeline::recordTimeline(GoldenTimeline *tl)
{
    timeline_ = tl;
    slotAnyDest_.assign(rob_.size(), 0);
    slotFpOp_.assign(rob_.size(), 0);
    slotTimed_.assign(rob_.size(), 0);
}

CorePipeline::Sources
CorePipeline::sourcesOf(const Instruction &insn) const
{
    const OpInfo &d = info(insn.op);
    Sources s{{-1, -1}, {false, false}};
    bool ecallFp = insn.op == Op::ECALL &&
                   insn.imm == static_cast<int>(isa::Syscall::PrintFp);
    if (d.readsFpRs1 || ecallFp || d.readsIntRs1) {
        s.reg[0] = insn.rs1;
        s.isFp[0] = d.readsFpRs1 || ecallFp;
    }
    if (d.readsFpRs2 || d.readsIntRs2) {
        s.reg[1] = insn.rs2;
        s.isFp[1] = d.readsFpRs2;
    }
    if (d.isStore) {
        s.reg[1] = insn.rd;
        s.isFp[1] = isa::storeDataIsFp(insn.op);
    }
    return s;
}

/**
 * A completion takes the next index of its categories. The entry holds
 * the instance's seq until a squash makes it a wrong-path entry or
 * finishTimeline() turns the seq into its commit index.
 */
void
CorePipeline::noteCompletion(size_t slot)
{
    const RobEntry &e = rob_[slot];
    if (e.hasDest) {
        slotAnyDest_[slot] = timeline_->anyDest.size();
        timeline_->anyDest.push_back(e.seq);
    }
    if (info(e.insn.op).isFpArith) {
        auto &map = timeline_->fpOp[static_cast<size_t>(
            isa::fpuOpFor(e.insn.op))];
        slotFpOp_[slot] = map.size();
        map.push_back(e.seq);
    }
}

/**
 * Record what the instances younger than `slot` did before dying.
 *
 * Their map entries: whether an issued instance used the value of a
 * completed one for timing — as a branch, JALR, load or store operand,
 * or through its own such value — walking youngest first, so every
 * consumer is settled before its producers. Marks on producers older
 * than `slot` carry to their own squash.
 *
 * Their footprint: the registers and memory words whose values they
 * used for timing, as above. A register counts unless an older killed
 * instance wrote it; an instance still waiting to issue has read
 * nothing. A nested squash's reads are relative to its own
 * (wrong-path) anchor, so they over-approximate its outer wrong
 * path's: never fewer reads.
 */
void
CorePipeline::noteSquash(size_t slot)
{
    if (robNext(slot) != tail_)
        killed_.push_back({rob_[robNext(slot)].seq, nextSeq_});
    // Whether an instance's use of operand k can move timing: any
    // control or load operand, a store's address, its data only when
    // a timed load forwarded it (slotTimed_ marks such a store), and
    // any operand of an instance whose own value is timed.
    auto timedOperand = [&](size_t i, int k) {
        const OpInfo &d = info(rob_[i].insn.op);
        return d.isCtrl || d.isLoad || (d.isStore && k == 0) ||
               slotTimed_[i];
    };
    auto loaded = [](const RobEntry &e) {
        return e.isLoad && (e.stage == Stage::MemAccess ||
                            (e.stage == Stage::Done &&
                             e.trap == TrapKind::None));
    };
    std::vector<std::pair<uint64_t, unsigned>> timedLoads;
    for (size_t i = robPrev(tail_); i != slot; i = robPrev(i)) {
        const RobEntry &e = rob_[i];
        if (loaded(e) && slotTimed_[i])
            timedLoads.push_back({e.addr, e.size});
        // A load forwards only from an exact match.
        if (e.isStore && e.stage != Stage::InIQ &&
            std::find(timedLoads.begin(), timedLoads.end(),
                      std::make_pair(e.addr, e.size)) != timedLoads.end())
            slotTimed_[i] = 1;
        if (e.stage != Stage::InIQ)
            for (int k = 0; k < 2; ++k)
                if (e.src[k] >= 0 && timedOperand(i, k))
                    slotTimed_[static_cast<size_t>(e.src[k])] = 1;
        if (e.stage == Stage::Done) {
            uint64_t entry = GoldenTimeline::kWrongPath;
            if (!slotTimed_[i])
                entry |= GoldenTimeline::kInert |
                         (wrongSerial_ & GoldenTimeline::kSerialMask);
            ++wrongSerial_;
            if (e.hasDest)
                timeline_->anyDest[slotAnyDest_[i]] = entry;
            if (info(e.insn.op).isFpArith)
                timeline_->fpOp[static_cast<size_t>(
                    isa::fpuOpFor(e.insn.op))][slotFpOp_[i]] = entry;
        }
    }

    // An older store that survives this squash may have forwarded to
    // one of those loads too; its own squash then sees the mark.
    for (uint64_t q = sqHead_; q < sqTail_ && !timedLoads.empty(); ++q) {
        size_t st = sq_[q & sqMask_];
        const RobEntry &e = rob_[st];
        if (e.seq < rob_[slot].seq && e.stage != Stage::InIQ &&
            std::find(timedLoads.begin(), timedLoads.end(),
                      std::make_pair(e.addr, e.size)) != timedLoads.end())
            slotTimed_[st] = 1;
    }

    PendingFootprint p{rob_[slot].seq, 0, 0, {}};
    uint32_t wroteX = 0, wroteF = 0;
    for (size_t i = robNext(slot); i != tail_; i = robNext(i)) {
        const RobEntry &e = rob_[i];
        if (e.stage != Stage::InIQ) {
            Sources s = sourcesOf(e.insn);
            for (int k = 0; k < 2; ++k) {
                if (s.reg[k] < 0 || (!s.isFp[k] && s.reg[k] == 0) ||
                    !timedOperand(i, k))
                    continue;
                uint32_t bit = 1u << s.reg[k];
                if (s.isFp[k])
                    p.fregs |= bit & ~wroteF;
                else
                    p.xregs |= bit & ~wroteX;
            }
            if (loaded(e) && slotTimed_[i])
                p.words.push_back(e.addr & ~7ULL);
        }
        if (e.hasDest)
            (e.destIsFp ? wroteF : wroteX) |= 1u << e.destReg;
        slotTimed_[i] = 0;
    }
    if (p.xregs || p.fregs || !p.words.empty())
        pending_.push_back(std::move(p));
}

/**
 * Turn seqs into commit positions. Every renamed instance either
 * committed or was killed, and killed seqs form the union of the
 * squashed ranges, so an instance's commit index is its seq minus the
 * killed seqs below it. A wrong path is filed under the number of
 * instances committed up to its squashing instance's seq: right after
 * that instance, or, for a squash nested in a wrong path, right after
 * the outer path's anchor.
 */
void
CorePipeline::finishTimeline()
{
    if (!timeline_)
        return;
    std::sort(killed_.begin(), killed_.end());
    std::vector<std::pair<uint64_t, uint64_t>> runs; // disjoint [lo, hi)
    for (const auto &r : killed_) {
        if (!runs.empty() && r.first <= runs.back().second)
            runs.back().second = std::max(runs.back().second, r.second);
        else
            runs.push_back(r);
    }
    std::vector<uint64_t> killedBelow(runs.size() + 1, 0);
    for (size_t i = 0; i < runs.size(); ++i)
        killedBelow[i + 1] =
            killedBelow[i] + runs[i].second - runs[i].first;
    // Committed instances with seq <= s.
    auto committedUpTo = [&](uint64_t s) {
        auto it = std::upper_bound(
            runs.begin(), runs.end(), s,
            [](uint64_t v, const auto &r) { return v < r.first; });
        size_t i = static_cast<size_t>(it - runs.begin());
        uint64_t dead = killedBelow[i];
        if (i > 0 && s < runs[i - 1].second)
            dead -= runs[i - 1].second - 1 - s;
        return s + 1 - dead;
    };
    auto toIndex = [&](std::vector<uint64_t> &map) {
        for (uint64_t &v : map)
            if (!(v & GoldenTimeline::kWrongPath))
                v = committedUpTo(v) - 1;
    };
    toIndex(timeline_->anyDest);
    for (auto &map : timeline_->fpOp)
        toIndex(map);

    std::vector<std::pair<uint64_t, size_t>> order;
    for (size_t i = 0; i < pending_.size(); ++i)
        order.push_back({committedUpTo(pending_[i].seq), i});
    std::sort(order.begin(), order.end());
    auto &fps = timeline_->footprints;
    for (const auto &[retired, i] : order) {
        const PendingFootprint &p = pending_[i];
        if (fps.empty() || fps.back().retired != retired) {
            auto at = static_cast<uint32_t>(timeline_->words.size());
            fps.push_back({retired, 0, 0, at, at});
        }
        GoldenTimeline::Footprint &fp = fps.back();
        fp.xregs |= p.xregs;
        fp.fregs |= p.fregs;
        timeline_->words.insert(timeline_->words.end(), p.words.begin(),
                                p.words.end());
        fp.wordEnd = static_cast<uint32_t>(timeline_->words.size());
    }
    pending_.clear();
    killed_.clear();
    timeline_->committed = committed_;
}

CorePipeline::Step
CorePipeline::step(TrapKind &trap)
{
    ++cycles_;
    auto outcome = commit(trap);
    if (outcome == CommitOutcome::Halt)
        return Step::Halted;
    if (outcome == CommitOutcome::Crash)
        return Step::Crashed;
    writeback();
    issue();
    rename();
    fetch();
    return Step::Running;
}

} // namespace tea::sim
