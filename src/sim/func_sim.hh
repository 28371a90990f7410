/**
 * @file
 * Fast functional simulator.
 *
 * Executes a program architecturally (no timing) for golden runs,
 * dynamic instruction counting (Table II), per-core op counts (model
 * planning addresses "the n-th op of a type on core k") and FP operand
 * trace collection for the workload-aware error model. Semantics are
 * shared with the OoO model through sim/exec.hh.
 *
 * The machine has `Config::cores` cores over one Memory. Cores run a
 * fixed one-instruction round-robin interleave and implement the
 * spawn/join/barrier syscalls and the read-only control page (core
 * id, core count) of isa/program.hh. A single-core program runs as the
 * one-core case: with nothing to wake, a spawn is a SyncFault, and a
 * join or barrier passes straight through.
 *
 * Counting rule: `instructions` and `opCount` count what each core
 * architecturally retired. A trapping instruction is not counted, and
 * neither is a syscall retried while it waits at a join or barrier.
 *
 * runShadow() is the injection campaign's exact fast path (DESIGN.md
 * §18): a one-core run that XORs injection masks into chosen
 * instances and stops wherever the OoO core could leave its golden
 * run's timing.
 */

#ifndef TEA_SIM_FUNC_SIM_HH
#define TEA_SIM_FUNC_SIM_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpu/fpu_types.hh"
#include "isa/program.hh"
#include "sim/memory.hh"
#include "sim/sim_types.hh"
#include "sim/timeline.hh"
#include "util/watchdog.hh"

namespace tea::sim {

/** One FP-arithmetic dynamic instance (for DTA operand replay). */
struct FpTraceEntry
{
    fpu::FpuOp op;
    uint64_t a;
    uint64_t b;
};

class FuncSim
{
  public:
    struct Config
    {
        unsigned cores = 1; ///< clamped to [1, isa::kMcMaxCores]
        bool trapOnSevereFp = true;
        uint64_t maxInstructions = 2'000'000'000ULL; ///< all cores
    };

    FuncSim(isa::Program prog, Config cfg);
    explicit FuncSim(isa::Program prog)
        : FuncSim(std::move(prog), Config{})
    {
    }

    enum class Status
    {
        Halted,
        Trapped,
        LimitReached,
        Deadlock, ///< every running core waits at a join or barrier
    };

    struct Result
    {
        Status status;
        TrapKind trap;
        int trapCore;          ///< -1 unless Trapped
        uint64_t instructions; ///< total across cores
    };

    /** Run until core 0 halts (or a trap / deadlock / the limit). */
    Result run();

    /** An injection plan resolved onto a golden run's instances. */
    struct ShadowPlan
    {
        const GoldenTimeline *timeline = nullptr;
        /**
         * (committed instruction index, XOR mask), ascending, one
         * entry per instance; the mask goes into its result.
         */
        std::vector<std::pair<uint64_t, uint64_t>> injections;
    };

    /** How runShadow() ended. */
    enum class ShadowEnd : uint8_t
    {
        Halted,      ///< reached HALT on the golden run's timing
        Control,     ///< a branch outcome, JALR target or address differs
        Trap,        ///< a trap fired
        Footprint,   ///< a golden wrong path would read a changed value
        Interrupted, ///< the watchdog stopped it
    };

    /**
     * Run `plan` on core 0 of a fresh one-core machine. Besides each
     * register and 8-byte memory word, the run keeps its golden value
     * wherever the injections made them differ, and compares every
     * branch outcome, JALR target and load/store address computed from
     * a differing value with the golden one. It stops at the first
     * difference, at any trap, and at any footprint of
     * `plan.timeline` that reads a differing value. Polls `watchdog`
     * at the start and every 4096 instructions; `stop` says why an
     * Interrupted run stopped.
     */
    ShadowEnd runShadow(const ShadowPlan &plan, const Watchdog *watchdog,
                        Watchdog::Stop &stop);

    /** Optional FP operand trace sink, in interleave order. */
    void setFpTrace(std::vector<FpTraceEntry> *sink) { fpTrace_ = sink; }

    unsigned cores() const { return cfg_.cores; }
    const Memory &memory() const { return mem_; }
    Memory &memory() { return mem_; }
    const Console &console() const { return console_; }
    uint64_t instructions(unsigned core) const
    {
        return cores_[core].instructions;
    }
    uint64_t opCount(unsigned core, isa::Op op) const
    {
        return cores_[core].opCounts[static_cast<size_t>(op)];
    }
    /** FP arithmetic instructions retired, across cores. */
    uint64_t fpArithCount() const;

  private:
    struct Core
    {
        std::array<uint64_t, 32> xreg{};
        std::array<uint64_t, 32> freg{};
        uint64_t idx = 0;
        bool running = false;
        uint64_t instructions = 0;
        std::array<uint64_t, isa::kNumOps> opCounts{};
    };

    /** Why runCore() returned. */
    enum class Stop
    {
        Budget,  ///< retired its whole budget
        Spawned, ///< retired a spawn, which woke another core
        Halted,  ///< retired a HALT
        Stalled, ///< waits at a join or barrier
        Trapped,
        Diverged, ///< runShadow() only: see Shadow::end
    };

    /**
     * Run core `k` for up to `budget` instructions, stopping early at
     * any event that changes which cores run. `retired` receives the
     * instructions retired, `trap` the fault when Trapped. The kShadow
     * instance is runShadow()'s: it also keeps `shadow_`.
     */
    template <bool kShadow>
    Stop runCore(unsigned k, uint64_t budget, uint64_t &retired,
                 TrapKind &trap);

    /** runShadow()'s state beside the machine's own. */
    struct Shadow
    {
        /** Registers whose value differs from the golden run's. */
        uint32_t xDiff = 0, fDiff = 0;
        /** Golden values of the differing registers. */
        std::array<uint64_t, 32> xGold{}, fGold{};
        /** Differing 8-byte-aligned memory words -> golden word. */
        std::unordered_map<uint64_t, uint64_t> words;
        /** Mask for the instance being executed (0 = none). */
        uint64_t inject = 0;
        const ShadowPlan *plan = nullptr;
        size_t nextInjection = 0, nextFootprint = 0;
        uint64_t nextPoll = 0;
        /** Instructions at which runCore() next calls checkpoint(). */
        uint64_t nextStop = 0;
        const Watchdog *watchdog = nullptr;
        Watchdog::Stop stop = Watchdog::Stop::None;
        ShadowEnd end = ShadowEnd::Halted;
    };

    /**
     * Run the footprint checks, the injection and the watchdog poll
     * due before instruction `pos`; false when the run must stop.
     */
    bool checkpoint(uint64_t pos);

    // runShadow()'s bookkeeping, called from runCore<true> only.
    uint64_t goldX(const Core &c, unsigned r) const;
    uint64_t goldF(const Core &c, unsigned r) const;
    /** XOR the instance's mask into rd; note whether it now differs. */
    void shadowResult(Core &c, bool fp, unsigned rd, uint64_t gold);
    /** False (and Control) when `addr` from insn's base is not golden. */
    bool shadowAddress(const isa::Instruction &insn, uint64_t addr);
    /** False (and Control) when the branch goes another way than golden. */
    bool shadowBranch(const Core &c, const isa::Instruction &insn);
    /** The golden run's value of a load that read `value`. */
    uint64_t shadowLoad(uint64_t addr, unsigned size, uint64_t value) const;
    /** The golden run's result of an arithmetic op. */
    uint64_t shadowArith(const Core &c, const isa::Instruction &insn,
                         uint64_t a, uint64_t b, uint64_t value) const;
    /** Note a store's effect on which memory words differ. */
    void shadowStore(const Core &c, const isa::Instruction &insn,
                     uint64_t addr, unsigned size, uint64_t data);

    isa::Program prog_; ///< owned copy; callers may pass temporaries
    Config cfg_;
    Memory mem_;
    Console console_;
    std::vector<Core> cores_;
    unsigned running_ = 1;
    std::vector<FpTraceEntry> *fpTrace_ = nullptr;
    Shadow *shadow_ = nullptr; ///< set during runShadow()

    // Barrier state (same scheme as McSim's hub).
    std::vector<uint64_t> barPhase_;
    std::vector<uint8_t> inBarrier_;
    uint64_t barGlobalPhase_ = 0;
    unsigned barArrived_ = 0;
};

} // namespace tea::sim

#endif // TEA_SIM_FUNC_SIM_HH
