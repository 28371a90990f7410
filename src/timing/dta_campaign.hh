/**
 * @file
 * Model-development-phase DTA campaigns (Section III.A of the paper).
 *
 * A campaign streams operand pairs through the gate-level FPU at a
 * reduced-voltage operating point and accumulates, per instruction
 * type: the error ratio (Eq. 2), per-output-bit error ratios (BER), the
 * pool of observed error bitmasks, and the flip-count distribution
 * (Fig. 5). Streams come from uniform random operands (IA-model) or
 * from an FP operand trace of the actual workload (WA-model).
 */

#ifndef TEA_TIMING_DTA_CAMPAIGN_HH
#define TEA_TIMING_DTA_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "fpu/fpu_core.hh"
#include "sim/func_sim.hh"
#include "stats/planner.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"
#include "util/watchdog.hh"

namespace tea::timing {

/** Per-instruction-type error statistics from one DTA campaign. */
struct OpErrorStats
{
    /**
     * Reservoir cap on maskPool: keeps campaign memory bounded on
     * billion-op campaigns. Matches the serialization cap, so pooled
     * masks always round-trip through the stats cache losslessly.
     */
    static constexpr size_t kMaskPoolCap = 4096;

    uint64_t total = 0;
    uint64_t faulty = 0;
    std::array<uint64_t, 64> bitErrors{};
    /**
     * Observed non-zero error bitmasks (the model's sampling pool).
     * Bounded at kMaskPoolCap entries by a deterministic reservoir:
     * each mask carries a priority key (maskPriority of the shard seed
     * and sequence number) and the pool keeps the masks with the
     * smallest keys. Smallest-k selection is associative and
     * commutative, so the retained *set* is independent of how the
     * stream was split into shards — merging per-shard pools in shard
     * order yields the same pool at any thread or lane count.
     */
    std::vector<uint64_t> maskPool;
    /** Reservoir priority key of each pooled mask (parallel array). */
    std::vector<uint64_t> maskKeys;

    /** Reservoir insert; below the cap this is a plain append. */
    void addMask(uint64_t mask, uint64_t key);
    /**
     * Rebuild keys after maskPool was filled directly (cache load):
     * loaded masks get sequential keys; their order is preserved.
     */
    void sealLoadedPool();

    /** Error ratio per Eq. 2: faulty / total. */
    double errorRatio() const
    {
        return total ? static_cast<double>(faulty) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** Bit error ratio of one output bit position. */
    double ber(unsigned bit) const
    {
        return total ? static_cast<double>(bitErrors[bit]) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** Confidence interval on the error ratio (Wilson score). */
    stats::Interval errorInterval(double conf = 0.95) const;
    /** Confidence interval on one bit's BER (Wilson score). */
    stats::Interval berInterval(unsigned bit, double conf = 0.95) const;
    void merge(const OpErrorStats &o);
};

/** Statistics for all 12 instruction types. */
struct CampaignStats
{
    std::array<OpErrorStats, fpu::kNumFpuOps> perOp;

    /**
     * Shards dropped after repeated internal faults. A non-zero count
     * marks the statistics as degraded; the toolflow refuses to cache
     * them so the next invocation re-characterizes.
     */
    uint64_t engineFaults = 0;
    /**
     * True when a cooperative cancellation cut the campaign short.
     * Interrupted statistics are partial and must never be cached.
     */
    bool interrupted = false;

    const OpErrorStats &of(fpu::FpuOp op) const
    {
        return perOp[static_cast<size_t>(op)];
    }
    OpErrorStats &of(fpu::FpuOp op)
    {
        return perOp[static_cast<size_t>(op)];
    }
    /**
     * Fold another campaign's statistics in, per-op, including the
     * degradation/interruption flags — merging a partial (interrupted)
     * slice marks the aggregate partial too.
     */
    void merge(const CampaignStats &o);

    uint64_t totalOps() const;
    uint64_t totalFaulty() const;
    /** Aggregate error ratio across all types. */
    double errorRatio() const;
    /** Confidence interval on the aggregate error ratio (Wilson). */
    stats::Interval errorInterval(double conf = 0.95) const;
    /** Distribution of flipped-bit counts among faulty ops (Fig. 5). */
    std::vector<uint64_t> flipCountHistogram(unsigned maxBits = 16) const;
};

/**
 * Streams operations through one FpuCore operating point, accumulating
 * stats. The FPU pipeline history persists across execute() calls, so
 * the order of the stream matters — exactly the dynamic, data-dependent
 * behaviour the paper models.
 */
class DtaCampaign
{
  public:
    /**
     * maskSeed salts the reservoir priority keys of recorded masks;
     * sharded campaigns pass the shard index so every shard draws an
     * independent deterministic key stream.
     */
    DtaCampaign(fpu::FpuCore &core, size_t point, uint64_t maskSeed = 0);

    /** Run one op and record its (possibly empty) error mask. */
    void execute(fpu::FpuOp op, uint64_t a, uint64_t b);

    /**
     * Run `lanes` (1..kMaxDtaLanes) ops of one FPU unit as one batch —
     * lane l is (ops[l], a[l], b[l]) — and record each lane in order;
     * statistics are bit-identical to `lanes` execute() calls. A
     * one-lane block runs scalar and counts as a batch fallback
     * (tea_dta_lane_fallback_ops_total).
     */
    void executeBlock(const fpu::FpuOp *ops, const uint64_t *a,
                      const uint64_t *b, unsigned lanes);

    const CampaignStats &stats() const { return stats_; }
    /** Move the accumulated stats out (shard merge path). */
    CampaignStats takeStats() { return std::move(stats_); }

  private:
    void record(fpu::FpuOp op, uint64_t errorMask);

    fpu::FpuCore &core_;
    size_t point_;
    uint64_t maskSeed_;
    CampaignStats stats_;
};

/**
 * Deterministic reservoir priority of the `seq`-th recorded op of type
 * `op` in the stream salted by `seed` (a splitmix64-style mix). A pure
 * function of its arguments, so the lane-batched and scalar paths — and
 * every thread count — assign identical keys.
 */
uint64_t maskPriority(uint64_t seed, unsigned op, uint64_t seq);

/**
 * Widest batch a campaign issues: the compiled engine's ceiling, and
 * the default `lanes` argument of every campaign below. A campaign
 * clamps its `lanes` into [1, kMaxDtaLanes]; 1 runs every op scalar.
 * Results are bit-identical at every width — the argument is purely a
 * performance and testing switch.
 */
constexpr unsigned kMaxDtaLanes = circuit::CompiledDta::kMaxLanes;

/**
 * Uniform random operand of paper-style characterization for an op:
 * full-range significands with bounded exponents (so characterization
 * exercises the arithmetic paths rather than the overflow specials).
 */
void randomOperands(fpu::FpuOp op, Rng &rng, uint64_t &a, uint64_t &b);

/**
 * Ops per DTA shard. Characterization work is cut into fixed shards of
 * this size *before* any of it runs, so the shard geometry — and with
 * it every shard's forked Rng stream and clean-history starting state —
 * is a function of the campaign parameters only, never of the thread
 * count. That is what makes campaign results bit-identical from 1 to N
 * threads.
 */
constexpr uint64_t kDtaShardOps = 512;

/**
 * Containment attempts per DTA shard: a shard whose execution throws
 * is retried once (transient faults) and then dropped, bumping
 * CampaignStats::engineFaults, instead of aborting the campaign.
 */
constexpr unsigned kDtaShardAttempts = 2;

/**
 * IA-model characterization: `count` random-operand ops per type.
 * Sharded across `pool` (the global pool when null); each shard runs
 * on its worker's private operating-point replica with pipeline
 * history reset at the shard boundary, operands drawn from
 * rng.fork(shardIndex), and shards merged in index order. A watchdog,
 * when given, is polled between operations so SIGINT/SIGTERM stop the
 * characterization promptly (the result is then flagged interrupted).
 */
CampaignStats runRandomCampaign(fpu::FpuCore &core, size_t point,
                                uint64_t countPerOp, Rng &rng,
                                ThreadPool *pool = nullptr,
                                const Watchdog *watchdog = nullptr,
                                unsigned lanes = kMaxDtaLanes);

/**
 * WA-model characterization: replay (a sample of) a workload's FP
 * operand trace in program order. Samples up to maxOps entries as
 * contiguous windows evenly spaced across the trace (contiguity
 * preserves the operand-transition history the timing model needs).
 * Windows are independent shards: each starts from clean pipeline
 * history, so results are thread-count-invariant. Within a window the
 * ops are batched per FPU unit (each unit's ops in trace order), which
 * is exact because pipeline history is per unit.
 */
CampaignStats runTraceCampaign(fpu::FpuCore &core, size_t point,
                               const std::vector<sim::FpTraceEntry> &trace,
                               uint64_t maxOps,
                               ThreadPool *pool = nullptr,
                               const Watchdog *watchdog = nullptr,
                               unsigned lanes = kMaxDtaLanes);

/**
 * Confidence-driven IA characterization: instead of a fixed count per
 * op type, sample in deterministic rounds until every type's error-
 * ratio interval is tighter than cfg.ciTarget (or the cfg.maxPerStratum
 * cap is hit). Rounds are allocated across the 12 op-type strata by
 * Neyman allocation (see stats::AdaptivePlanner); each 512-op shard
 * draws operands from the substream keyed by its absolute (op, chunk)
 * position, and counts are folded in only at round barriers, so
 * results are bit-identical at any thread or lane count. cfg.unit and
 * cfg.initialRound are overridden to the shard geometry.
 */
CampaignStats
runAdaptiveRandomCampaign(fpu::FpuCore &core, size_t point,
                          const stats::PlannerConfig &cfg, Rng &rng,
                          ThreadPool *pool = nullptr,
                          const Watchdog *watchdog = nullptr,
                          unsigned lanes = kMaxDtaLanes);

/**
 * Confidence-driven WA characterization: the window geometry of
 * runTraceCampaign(maxOps) is computed up front, then windows are
 * consumed in order, round by round, until the aggregate error-ratio
 * interval meets cfg.ciTarget or the window list is exhausted. The
 * consumed windows are a prefix of the fixed-N window list with their
 * fixed-N reservoir keys, so a converged adaptive run is a bit-exact
 * subset of the fixed-N characterization.
 */
CampaignStats
runAdaptiveTraceCampaign(fpu::FpuCore &core, size_t point,
                         const std::vector<sim::FpTraceEntry> &trace,
                         uint64_t maxOps,
                         const stats::PlannerConfig &cfg,
                         ThreadPool *pool = nullptr,
                         const Watchdog *watchdog = nullptr,
                         unsigned lanes = kMaxDtaLanes);

} // namespace tea::timing

#endif // TEA_TIMING_DTA_CAMPAIGN_HH
