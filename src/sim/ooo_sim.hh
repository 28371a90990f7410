/**
 * @file
 * Cycle-level out-of-order CPU model (the gem5 stand-in).
 *
 * Front end with bimodal branch prediction, register renaming onto a
 * reorder buffer, an issue queue, latency-modelled functional units, a
 * load/store queue with store-to-load forwarding and conservative
 * disambiguation, an L1 data cache, and in-order commit. Timing-error
 * bitmasks are injected into destination values at execute/writeback —
 * so wrong-path victims get squashed (microarchitectural masking) and
 * dead values can be overwritten before use, the effects the paper says
 * instruction-level injection misses.
 */

#ifndef TEA_SIM_OOO_SIM_HH
#define TEA_SIM_OOO_SIM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fpu/fpu_types.hh"
#include "isa/program.hh"
#include "sim/memory.hh"
#include "sim/sim_types.hh"
#include "sim/timeline.hh"
#include "util/watchdog.hh"

namespace tea::sim {

struct OooConfig
{
    unsigned fetchWidth = 2;
    unsigned renameWidth = 2;
    unsigned issueWidth = 2;
    unsigned commitWidth = 2;
    unsigned robSize = 64;
    unsigned iqSize = 32;
    unsigned maxLoads = 16;
    unsigned maxStores = 16;

    // Execution latencies (cycles). FP latencies mirror the gate FPU's
    // pipeline depths.
    unsigned latAlu = 1;
    unsigned latMul = 3;
    unsigned latDiv = 12;
    unsigned latFpAdd = 5;
    unsigned latFpMul = 5;
    unsigned latFpDiv = 12;
    unsigned latFpCvt = 3;
    unsigned latAgen = 1;

    // L1 data cache (ECC protected; never a fault source).
    unsigned l1Sets = 64;
    unsigned l1Ways = 4;
    unsigned l1LineBytes = 64;
    unsigned latCacheHit = 2;
    unsigned latCacheMiss = 60;

    bool trapOnSevereFp = true;
};

/**
 * A timing-error injection to perform during a run. Targets are counted
 * over *executed* dynamic instances (wrong-path instances included, as
 * they also occupy the real pipeline).
 */
struct InjectionEvent
{
    enum class Kind : uint8_t
    {
        AnyDest, ///< DA-model: any instruction with a destination
        FpOp,    ///< IA/WA-models: the n-th executed FP op of a type
    };
    Kind kind;
    fpu::FpuOp op;  ///< valid for Kind::FpOp
    uint64_t index; ///< occurrence index within the category
    uint64_t mask;  ///< XORed into the destination value
    /**
     * Target core for multi-core campaigns: the occurrence index
     * counts events on this core only ("the n-th FP op on core k").
     * Single-core simulation ignores it (always core 0).
     */
    uint32_t core = 0;
};

/** Events grouped per counter category and sorted by index. */
class InjectionPlan
{
  public:
    InjectionPlan() = default;
    explicit InjectionPlan(const std::vector<InjectionEvent> &events);

    bool empty() const;

    const std::vector<std::pair<uint64_t, uint64_t>> &anyDest() const
    {
        return anyDest_;
    }
    const std::vector<std::pair<uint64_t, uint64_t>> &
    fpOp(fpu::FpuOp op) const
    {
        return fpOp_[static_cast<size_t>(op)];
    }
    size_t totalEvents() const;

  private:
    std::vector<std::pair<uint64_t, uint64_t>> anyDest_;
    std::array<std::vector<std::pair<uint64_t, uint64_t>>,
               fpu::kNumFpuOps>
        fpOp_;
};

class OooSim
{
  public:
    OooSim(isa::Program prog, OooConfig cfg = OooConfig{},
           InjectionPlan plan = InjectionPlan{});
    ~OooSim();

    enum class Status
    {
        Halted,
        Crashed,
        CycleLimit,
        /** Cut off by the watchdog (cancellation or wall-clock). */
        Interrupted,
    };

    struct Result
    {
        Status status;
        TrapKind trap;
        /** Why the run was Interrupted (None otherwise). */
        Watchdog::Stop stop = Watchdog::Stop::None;
        uint64_t cycles;
        uint64_t committed;
        uint64_t executed;
        uint64_t injectionsApplied;
        uint64_t injectionsOnWrongPath;
        uint64_t branchMispredicts;
        uint64_t cacheMisses;
        uint64_t cacheAccesses;
        uint64_t squashedInstructions;
    };

    /**
     * Simulate until halt, crash, the cycle limit, or — when a
     * watchdog is given — a cooperative stop (polled every few
     * thousand cycles, so a hung run never freezes a worker thread).
     */
    Result run(uint64_t maxCycles, const Watchdog *watchdog = nullptr);

    /**
     * Record the run's timeline into `tl` (sim/timeline.hh); call
     * before run(). The golden run of a campaign does this once.
     */
    void recordTimeline(GoldenTimeline *tl);

    const Memory &memory() const { return mem_; }
    const Console &console() const { return console_; }

  private:
    struct Impl;
    isa::Program prog_; ///< owned copy; callers may pass temporaries
    std::unique_ptr<Impl> impl_;
    Memory mem_;
    Console console_;
};

} // namespace tea::sim

#endif // TEA_SIM_OOO_SIM_HH
