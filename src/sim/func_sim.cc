#include "sim/func_sim.hh"

#include <algorithm>

#include "sim/exec.hh"
#include "util/logging.hh"

namespace tea::sim {

const char *
trapName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::None: return "none";
      case TrapKind::MemFault: return "mem-fault";
      case TrapKind::Misaligned: return "misaligned";
      case TrapKind::ProtectedAccess: return "protected-access";
      case TrapKind::BadJump: return "bad-jump";
      case TrapKind::IllegalInsn: return "illegal-insn";
      case TrapKind::FpException: return "fp-exception";
      case TrapKind::SyncFault: return "sync-fault";
    }
    return "?";
}

FuncSim::FuncSim(isa::Program prog, Config cfg)
    : prog_(std::move(prog)), cfg_(cfg)
{
    cfg_.cores = std::clamp(cfg_.cores, 1u, isa::kMcMaxCores);
    mem_.loadProgram(prog_);
    cores_.resize(cfg_.cores);
    cores_[0].running = true;
    cores_[0].idx = prog_.entryIndex;
    cores_[0].xreg[2] = isa::kStackTop - 64; // sp
    barPhase_.assign(cfg_.cores, 0);
    inBarrier_.assign(cfg_.cores, 0);
}

uint64_t
FuncSim::fpArithCount() const
{
    uint64_t n = 0;
    for (const Core &c : cores_)
        for (unsigned i = 0; i < isa::kNumOps; ++i)
            if (isa::isFpArith(static_cast<isa::Op>(i)))
                n += c.opCounts[i];
    return n;
}

template <bool kShadow>
FuncSim::Stop
FuncSim::runCore(unsigned k, uint64_t budget, uint64_t &retired,
                 TrapKind &trap)
{
    using isa::Op;
    Core &c = cores_[k];
    const auto &code = prog_.code;
    uint64_t idx = c.idx;
    uint64_t n = 0;

    // The rare instructions that end the call return from inside the
    // switch, so the common path retires without checking for them.
    auto retire = [&](isa::Op op, uint64_t next) {
        ++n;
        ++c.opCounts[static_cast<size_t>(op)];
        idx = next;
    };
    auto leave = [&](Stop stop) {
        c.idx = idx;
        c.instructions += n;
        retired = n;
        return stop;
    };
    // A trapping instruction is neither counted nor retired.
    auto fault = [&](TrapKind kind) {
        trap = kind;
        return leave(Stop::Trapped);
    };

    while (n < budget) {
        if constexpr (kShadow) {
            if (c.instructions + n == shadow_->nextStop &&
                !checkpoint(c.instructions + n))
                return leave(Stop::Diverged);
        }
        if (idx >= code.size())
            return fault(TrapKind::BadJump);
        const isa::Instruction &insn = code[idx];
        uint64_t next = idx + 1;

        switch (insn.op) {
          case Op::HALT:
            c.running = false;
            --running_;
            retire(insn.op, next);
            return leave(Stop::Halted);
          case Op::NOP:
            break;
          case Op::ECALL: {
            using isa::Syscall;
            switch (static_cast<Syscall>(insn.imm)) {
              case Syscall::PrintInt:
                console_.push_back(c.xreg[insn.rs1]);
                break;
              case Syscall::PrintFp:
                console_.push_back(c.freg[insn.rs1]);
                break;
              case Syscall::Spawn: {
                uint64_t arg = c.xreg[insn.rs1];
                unsigned target = 1;
                while (target < cfg_.cores && cores_[target].running)
                    ++target;
                if (arg < isa::kCodeBase || (arg & 3) ||
                    (arg - isa::kCodeBase) / 4 >= code.size() ||
                    target == cfg_.cores)
                    return fault(TrapKind::SyncFault);
                Core &w = cores_[target];
                w.running = true;
                ++running_;
                w.idx = (arg - isa::kCodeBase) / 4;
                w.xreg[2] = isa::kStackTop - 64 -
                            static_cast<uint64_t>(target) *
                                isa::kMcStackBytes;
                retire(insn.op, next);
                return leave(Stop::Spawned);
              }
              case Syscall::Join:
                if (running_ > 1)
                    return leave(Stop::Stalled);
                break;
              case Syscall::Barrier:
                if (barPhase_[k] < barGlobalPhase_) {
                    ++barPhase_[k];
                    break;
                }
                if (!inBarrier_[k]) {
                    inBarrier_[k] = 1;
                    ++barArrived_;
                }
                if (barArrived_ < running_)
                    return leave(Stop::Stalled);
                ++barGlobalPhase_;
                barArrived_ = 0;
                std::fill(inBarrier_.begin(), inBarrier_.end(), 0);
                ++barPhase_[k];
                break;
              default:
                break;
            }
            break;
          }
          case Op::JAL:
            c.xreg[insn.rd] = (idx + 1) * 4 + isa::kCodeBase;
            if (insn.rd == 0)
                c.xreg[0] = 0;
            if constexpr (kShadow)
                shadowResult(c, false, insn.rd, c.xreg[insn.rd]);
            next = idx + static_cast<int64_t>(insn.imm);
            break;
          case Op::JALR: {
            uint64_t target = c.xreg[insn.rs1] +
                              static_cast<int64_t>(insn.imm);
            if constexpr (kShadow) {
                if (!shadowAddress(insn, target))
                    return leave(Stop::Diverged);
            }
            c.xreg[insn.rd] = (idx + 1) * 4 + isa::kCodeBase;
            c.xreg[0] = 0;
            if constexpr (kShadow)
                shadowResult(c, false, insn.rd, c.xreg[insn.rd]);
            if (target < isa::kCodeBase || (target & 3) ||
                (target - isa::kCodeBase) / 4 >= code.size()) {
                return fault(TrapKind::BadJump);
            }
            next = (target - isa::kCodeBase) / 4;
            break;
          }
          case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
          case Op::BLTU: case Op::BGEU:
            if constexpr (kShadow) {
                if (!shadowBranch(c, insn))
                    return leave(Stop::Diverged);
            }
            if (branchTaken(insn.op, c.xreg[insn.rs1], c.xreg[insn.rs2]))
                next = idx + static_cast<int64_t>(insn.imm);
            break;
          case Op::LD: case Op::LW: case Op::FLD: {
            uint64_t addr = c.xreg[insn.rs1] +
                            static_cast<int64_t>(insn.imm);
            if constexpr (kShadow) {
                if (!shadowAddress(insn, addr))
                    return leave(Stop::Diverged);
            }
            unsigned size = memAccessSize(insn.op);
            if (addr & (size - 1))
                return fault(TrapKind::Misaligned);
            if (addr < isa::kProtectedTop)
                return fault(TrapKind::ProtectedAccess);
            uint64_t v = 0;
            // Aligned, so inside the control page if it starts there.
            if (addr - isa::kMcCtrlBase < isa::kMcCtrlSize) {
                v = addr == isa::kMcCtrlCoreId     ? k
                    : addr == isa::kMcCtrlNumCores ? cfg_.cores
                                                   : 0;
            } else if (mem_.isMapped(addr, size)) {
                v = mem_.read(addr, size);
            } else {
                return fault(TrapKind::MemFault);
            }
            uint64_t gold = v;
            if constexpr (kShadow)
                gold = shadowLoad(addr, size, v);
            if (insn.op == Op::LW) {
                v = static_cast<uint64_t>(
                    static_cast<int64_t>(static_cast<int32_t>(v)));
                gold = static_cast<uint64_t>(
                    static_cast<int64_t>(static_cast<int32_t>(gold)));
            }
            if (insn.op == Op::FLD) {
                c.freg[insn.rd] = v;
            } else {
                c.xreg[insn.rd] = v;
                c.xreg[0] = 0; // as on the OoO core, which drops it
            }
            if constexpr (kShadow)
                shadowResult(c, insn.op == Op::FLD, insn.rd, gold);
            break;
          }
          case Op::SD: case Op::SW: case Op::FSD: {
            uint64_t addr = c.xreg[insn.rs1] +
                            static_cast<int64_t>(insn.imm);
            if constexpr (kShadow) {
                if (!shadowAddress(insn, addr))
                    return leave(Stop::Diverged);
            }
            unsigned size = memAccessSize(insn.op);
            if (addr & (size - 1))
                return fault(TrapKind::Misaligned);
            if (addr < isa::kProtectedTop)
                return fault(TrapKind::ProtectedAccess);
            // The control page is read-only and unmapped for stores,
            // so a write there is a MemFault, as on McSim's port.
            if (!mem_.isMapped(addr, size))
                return fault(TrapKind::MemFault);
            uint64_t data = (insn.op == Op::FSD) ? c.freg[insn.rd]
                                                 : c.xreg[insn.rd];
            if constexpr (kShadow)
                shadowStore(c, insn, addr, size, data);
            mem_.write(addr, size, data);
            break;
          }
          default: {
            uint64_t a, b = 0;
            if (isa::readsFpRs1(insn.op))
                a = c.freg[insn.rs1];
            else
                a = c.xreg[insn.rs1];
            if (isa::readsFpRs2(insn.op))
                b = c.freg[insn.rs2];
            else if (isa::readsIntRs2(insn.op))
                b = c.xreg[insn.rs2];
            if (fpTrace_ && isa::isFpArith(insn.op))
                fpTrace_->push_back(
                    FpTraceEntry{isa::fpuOpFor(insn.op), a, b});
            ExecOut out = execArith(insn, a, b);
            if (out.fpSevere && cfg_.trapOnSevereFp &&
                isa::isFpArith(insn.op)) {
                return fault(TrapKind::FpException);
            }
            uint64_t gold = out.value;
            if constexpr (kShadow)
                gold = shadowArith(c, insn, a, b, out.value);
            if (isa::writesFpReg(insn.op)) {
                c.freg[insn.rd] = out.value;
                if constexpr (kShadow)
                    shadowResult(c, true, insn.rd, gold);
            } else if (isa::writesIntReg(insn.op)) {
                c.xreg[insn.rd] = out.value;
                c.xreg[0] = 0;
                if constexpr (kShadow)
                    shadowResult(c, false, insn.rd, gold);
            }
            break;
          }
        }
        retire(insn.op, next);
    }
    return leave(Stop::Budget);
}

// ---- runShadow()'s bookkeeping ------------------------------------------
// A register's golden value is its own unless it differs.

uint64_t
FuncSim::goldX(const Core &c, unsigned r) const
{
    return (shadow_->xDiff >> r) & 1 ? shadow_->xGold[r] : c.xreg[r];
}

uint64_t
FuncSim::goldF(const Core &c, unsigned r) const
{
    return (shadow_->fDiff >> r) & 1 ? shadow_->fGold[r] : c.freg[r];
}

void
FuncSim::shadowResult(Core &c, bool fp, unsigned rd, uint64_t gold)
{
    // XOR in the instance's mask, then note whether the register now
    // differs from the golden run's. x0 stays 0 and never differs.
    Shadow &sh = *shadow_;
    uint64_t &reg = fp ? c.freg[rd] : c.xreg[rd];
    reg ^= sh.inject;
    sh.inject = 0;
    if (!fp && rd == 0) {
        reg = 0;
        return;
    }
    uint32_t &diff = fp ? sh.fDiff : sh.xDiff;
    if (reg != gold) {
        diff |= 1u << rd;
        (fp ? sh.fGold : sh.xGold)[rd] = gold;
    } else {
        diff &= ~(1u << rd);
    }
}

bool
FuncSim::shadowAddress(const isa::Instruction &insn, uint64_t addr)
{
    // An address or JALR target from a differing base must still be
    // the golden run's, or the OoO core's timing could change.
    Shadow &sh = *shadow_;
    if (!((sh.xDiff >> insn.rs1) & 1) ||
        sh.xGold[insn.rs1] + static_cast<int64_t>(insn.imm) == addr)
        return true;
    sh.end = ShadowEnd::Control;
    return false;
}

bool
FuncSim::shadowBranch(const Core &c, const isa::Instruction &insn)
{
    Shadow &sh = *shadow_;
    if (!(((sh.xDiff >> insn.rs1) | (sh.xDiff >> insn.rs2)) & 1) ||
        branchTaken(insn.op, c.xreg[insn.rs1], c.xreg[insn.rs2]) ==
            branchTaken(insn.op, goldX(c, insn.rs1), goldX(c, insn.rs2)))
        return true;
    sh.end = ShadowEnd::Control;
    return false;
}

uint64_t
FuncSim::shadowLoad(uint64_t addr, unsigned size, uint64_t value) const
{
    const auto &words = shadow_->words;
    if (words.empty())
        return value;
    auto it = words.find(addr & ~7ULL);
    if (it == words.end())
        return value;
    return size == 8 ? it->second
                     : (it->second >> ((addr & 4) * 8)) & 0xFFFFFFFFULL;
}

uint64_t
FuncSim::shadowArith(const Core &c, const isa::Instruction &insn,
                     uint64_t a, uint64_t b, uint64_t value) const
{
    // The golden result, from the golden operands when one differs.
    uint64_t ga = isa::readsFpRs1(insn.op) ? goldF(c, insn.rs1)
                                           : goldX(c, insn.rs1);
    uint64_t gb = isa::readsFpRs2(insn.op)    ? goldF(c, insn.rs2)
                  : isa::readsIntRs2(insn.op) ? goldX(c, insn.rs2)
                                              : 0;
    return ga == a && gb == b ? value : execArith(insn, ga, gb).value;
}

void
FuncSim::shadowStore(const Core &c, const isa::Instruction &insn,
                     uint64_t addr, unsigned size, uint64_t data)
{
    bool fp = insn.op == isa::Op::FSD;
    bool differs = ((fp ? shadow_->fDiff : shadow_->xDiff) >> insn.rd) & 1;
    if (!differs && shadow_->words.empty())
        return;
    uint64_t gold = fp ? goldF(c, insn.rd) : goldX(c, insn.rd);
    // Both runs' 8-byte words after the store: the word differs from
    // the golden run's unless they agree.
    uint64_t base = addr & ~7ULL;
    auto it = shadow_->words.find(base);
    uint64_t mine = mem_.read(base, 8);
    uint64_t theirs = it != shadow_->words.end() ? it->second : mine;
    if (size == 8) {
        mine = data;
        theirs = gold;
    } else {
        unsigned shift = (addr & 4) * 8;
        uint64_t keep = ~(0xFFFFFFFFULL << shift);
        mine = (mine & keep) | ((data & 0xFFFFFFFFULL) << shift);
        theirs = (theirs & keep) | ((gold & 0xFFFFFFFFULL) << shift);
    }
    if (mine != theirs)
        shadow_->words[base] = theirs;
    else if (it != shadow_->words.end())
        shadow_->words.erase(it);
}

bool
FuncSim::checkpoint(uint64_t pos)
{
    Shadow &sh = *shadow_;
    const ShadowPlan &plan = *sh.plan;
    const GoldenTimeline &tl = *plan.timeline;
    if (pos == sh.nextPoll) {
        sh.nextPoll += 4096;
        if (sh.watchdog) {
            sh.stop = sh.watchdog->poll();
            if (sh.stop != Watchdog::Stop::None) {
                sh.end = ShadowEnd::Interrupted;
                return false;
            }
        }
    }
    for (; sh.nextFootprint < tl.footprints.size() &&
           tl.footprints[sh.nextFootprint].retired == pos;
         ++sh.nextFootprint) {
        const GoldenTimeline::Footprint &fp =
            tl.footprints[sh.nextFootprint];
        bool differs = (sh.xDiff & fp.xregs) || (sh.fDiff & fp.fregs);
        for (uint32_t w = fp.wordBegin;
             !differs && !sh.words.empty() && w < fp.wordEnd; ++w)
            differs = sh.words.count(tl.words[w]) > 0;
        if (differs) {
            sh.end = ShadowEnd::Footprint;
            return false;
        }
    }
    sh.inject = 0;
    if (sh.nextInjection < plan.injections.size() &&
        plan.injections[sh.nextInjection].first == pos)
        sh.inject = plan.injections[sh.nextInjection++].second;
    sh.nextStop = sh.nextPoll;
    if (sh.nextFootprint < tl.footprints.size())
        sh.nextStop =
            std::min(sh.nextStop, tl.footprints[sh.nextFootprint].retired);
    if (sh.nextInjection < plan.injections.size())
        sh.nextStop =
            std::min(sh.nextStop, plan.injections[sh.nextInjection].first);
    return true;
}

FuncSim::ShadowEnd
FuncSim::runShadow(const ShadowPlan &plan, const Watchdog *watchdog,
                   Watchdog::Stop &stop)
{
    Shadow sh;
    sh.plan = &plan;
    sh.watchdog = watchdog;
    shadow_ = &sh;
    // Past the golden run's length the timing has changed already.
    uint64_t retired = 0;
    TrapKind trap = TrapKind::None;
    Stop end = runCore<true>(0, plan.timeline->committed, retired, trap);
    shadow_ = nullptr;
    stop = sh.stop;
    switch (end) {
      case Stop::Halted: return ShadowEnd::Halted;
      case Stop::Diverged: return sh.end;
      case Stop::Trapped: return ShadowEnd::Trap;
      default: return ShadowEnd::Control;
    }
}

FuncSim::Result
FuncSim::run()
{
    uint64_t total = 0;
    while (total < cfg_.maxInstructions) {
        // One round: each running core retires one instruction, in
        // core order. A lone running core has nobody to interleave
        // with until it spawns, so it runs on in one call; the rounds
        // that call stands for would have stepped only that core.
        bool progressed = false;
        for (unsigned k = 0; k < cfg_.cores; ++k) {
            if (!cores_[k].running)
                continue;
            uint64_t budget =
                running_ == 1 ? cfg_.maxInstructions - total : 1;
            uint64_t retired = 0;
            TrapKind trap = TrapKind::None;
            Stop stop = runCore<false>(k, budget, retired, trap);
            total += retired;
            progressed = progressed || retired > 0;
            if (stop == Stop::Trapped)
                return {Status::Trapped, trap, static_cast<int>(k),
                        total};
            if (stop == Stop::Halted && k == 0)
                return {Status::Halted, TrapKind::None, -1, total};
        }
        if (!progressed)
            return {Status::Deadlock, TrapKind::None, -1, total};
    }
    return {Status::LimitReached, TrapKind::None, -1, total};
}

} // namespace tea::sim
