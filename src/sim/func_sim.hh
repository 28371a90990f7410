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
 */

#ifndef TEA_SIM_FUNC_SIM_HH
#define TEA_SIM_FUNC_SIM_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fpu/fpu_types.hh"
#include "isa/program.hh"
#include "sim/memory.hh"
#include "sim/sim_types.hh"

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
    };

    /**
     * Run core `k` for up to `budget` instructions, stopping early at
     * any event that changes which cores run. `retired` receives the
     * instructions retired, `trap` the fault when Trapped.
     */
    Stop runCore(unsigned k, uint64_t budget, uint64_t &retired,
                 TrapKind &trap);

    isa::Program prog_; ///< owned copy; callers may pass temporaries
    Config cfg_;
    Memory mem_;
    Console console_;
    std::vector<Core> cores_;
    unsigned running_ = 1;
    std::vector<FpTraceEntry> *fpTrace_ = nullptr;

    // Barrier state (same scheme as McSim's hub).
    std::vector<uint64_t> barPhase_;
    std::vector<uint8_t> inBarrier_;
    uint64_t barGlobalPhase_ = 0;
    unsigned barArrived_ = 0;
};

} // namespace tea::sim

#endif // TEA_SIM_FUNC_SIM_HH
