/**
 * @file
 * Adaptive campaign planning: deterministic rounds of work allocated
 * across strata by Neyman allocation, stopped by sequential interval
 * estimation.
 *
 * A planner owns one Estimator per stratum (FPU op types for DTA BER,
 * a single stratum for one injection cell's AVM) and alternates with
 * the campaign engine:
 *
 *     while (!planner.done()) {
 *         auto alloc = planner.planRound();     // trials per stratum
 *         ... execute alloc[s] trials of each stratum in parallel ...
 *         planner.record(s, events, trials);    // fold in, per stratum
 *     }
 *
 * Determinism argument: planRound() is a pure function of the counts
 * recorded so far and the fixed round geometry (initialRound *
 * growth^r). Campaign engines execute a round's allocation with the
 * same absolute-indexed Rng::fork substreams they use in fixed-N mode
 * and fold counts back in stratum order at the round barrier. Nothing
 * about scheduling, thread count, or lane width can leak into the
 * allocation, so adaptive campaigns are bit-identical at any
 * thread count and batch width.
 *
 * Neyman allocation: round budget is split across unconverged strata
 * proportionally to the binomial standard deviation sqrt(p(1-p))
 * estimated with a Laplace-smoothed p — strata whose proportion is
 * still uncertain and variable get the samples; strata pinned near 0
 * or 1 (or already converged) stop costing anything.
 */

#ifndef TEA_STATS_PLANNER_HH
#define TEA_STATS_PLANNER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/estimator.hh"

namespace tea::stats {

struct PlannerConfig
{
    /** Target interval half-width per stratum (e.g. 0.01). */
    double ciTarget = 0.01;
    /** Two-sided interval confidence (e.g. 0.95). */
    double ciConf = 0.95;
    IntervalMethod method = IntervalMethod::Wilson;
    /** Hard cap on trials per stratum (safety net; >= 1). */
    uint64_t maxPerStratum = 1ULL << 20;
    /**
     * Total trials of round 0, split across strata. Later rounds grow
     * geometrically — the "fixed round geometry" of the determinism
     * argument.
     */
    uint64_t initialRound = 256;
    /** Geometric growth of the round budget (>= 1). */
    double roundGrowth = 2.0;
    /**
     * Allocation granularity: every per-stratum allocation is a
     * multiple of this (campaigns whose unit of work is a 512-op shard
     * pass 512), except where the per-stratum cap clips it.
     */
    uint64_t unit = 1;
};

class AdaptivePlanner
{
  public:
    AdaptivePlanner(PlannerConfig cfg, size_t numStrata);

    size_t numStrata() const { return strata_.size(); }
    const PlannerConfig &config() const { return cfg_; }
    const Estimator &stratum(size_t s) const { return strata_[s]; }

    /** Fold one round's counts of one stratum in. */
    void record(size_t s, uint64_t events, uint64_t trials);

    /**
     * Fold one round's likelihood-ratio-weighted counts in (see
     * Estimator::addWeighted). Raw counts still drive the per-stratum
     * cap and Neyman allocation; the weighted sums drive the interval
     * and the stop rule.
     */
    void recordWeighted(size_t s, double wEvents, double wSum,
                        double wSq, double wEventsSq, uint64_t events,
                        uint64_t trials);

    /**
     * Allocate the next round: trials per stratum (0 for strata that
     * are converged or capped). An all-zero vector means the campaign
     * is done; planRound() never returns all-zero while any stratum
     * still has work. Advances the round counter.
     */
    std::vector<uint64_t> planRound();

    /** All strata converged or at their cap. */
    bool done() const;

    /** Rounds planned so far. */
    unsigned rounds() const { return rounds_; }
    /** Trials allocated across all rounds and strata. */
    uint64_t totalAllocated() const { return totalAllocated_; }
    /** Trials recorded across all strata. */
    uint64_t totalRecorded() const;
    /** Strata that converged before hitting the per-stratum cap. */
    uint64_t earlyStops() const;

  private:
    bool stratumActive(size_t s) const;

    PlannerConfig cfg_;
    std::vector<Estimator> strata_;
    unsigned rounds_ = 0;
    uint64_t totalAllocated_ = 0;
};

} // namespace tea::stats

#endif // TEA_STATS_PLANNER_HH
