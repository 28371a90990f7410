/**
 * @file
 * Application-evaluation-phase injection campaigns (Section III.B).
 *
 * For a workload: run a golden OoO simulation once (reference cycles
 * and outputs), then repeatedly plan injections with an error model,
 * run the detailed OoO simulation with them, and classify each run as
 * Masked / SDC / Crash / Timeout per the paper's definitions (timeout =
 * 2x the error-free execution time). A run whose plan is empty is the
 * golden run and takes its record without being simulated; a
 * single-core run whose injections provably keep the golden run's
 * timing takes the exact fast path on the functional interpreter
 * (DESIGN.md §18). Aggregates
 * outcome distributions (Fig. 9), injected-error ratios (Fig. 10), and
 * the Application Vulnerability Metric (Eq. 4).
 *
 * Fault containment: the campaign also classifies its *own* failures.
 * An exception escaping one run (a bug in an error model, a transient
 * engine fault) is caught and the run retried with a deterministically
 * re-forked RNG substream; if containment is exhausted the run is
 * recorded as EngineFault — a fifth, infrastructure-level outcome that
 * is never counted into AVM or the paper's outcome fractions. Runs cut
 * off by a wall-clock watchdog deadline are EngineFaults too; runs
 * abandoned by a cooperative cancellation (SIGINT/SIGTERM) are simply
 * not recorded, so statistics never depend on wall-clock behaviour.
 */

#ifndef TEA_INJECT_CAMPAIGN_HH
#define TEA_INJECT_CAMPAIGN_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mc/mc_sim.hh"
#include "models/error_models.hh"
#include "sim/ooo_sim.hh"
#include "sim/timeline.hh"
#include "stats/intervals.hh"
#include "util/errors.hh"
#include "util/expected.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/threadpool.hh"
#include "util/watchdog.hh"
#include "workloads/workloads.hh"

namespace tea::inject {

/**
 * Outcome of one injection run: the paper's Section IV.A taxonomy plus
 * EngineFault for failures of the injection infrastructure itself.
 */
enum class Outcome
{
    Masked,
    SDC,
    Crash,
    Timeout,
    EngineFault,
};

const char *outcomeName(Outcome outcome);

/**
 * Multi-core refinement of the outcome taxonomy. Threaded ("-mt")
 * workloads run on McSim, where an injected error can cross core
 * boundaries through shared memory; each of the paper's program-level
 * outcomes then splits by the propagation evidence the simulator
 * collects (word-granularity taint with per-core origin masks,
 * overwrite tracking, and the sync-fault/deadlock machinery).
 * Single-core runs always record None.
 */
enum class McClass
{
    None = 0,        ///< single-core run (no multi-core refinement)
    Masked,          ///< output matched; no masking evidence needed
    CoherenceMasked, ///< matched, but a clean store overwrote a
                     ///< tainted word (the error died in memory)
    SdcSameCore,     ///< output mismatch, taint never crossed cores
    SdcCrossCore,    ///< mismatch and a core committed a load of
                     ///< another core's tainted data
    Crash,           ///< ordinary trap reached commit
    SyncCrash,       ///< spawn/join/barrier misuse trap (SyncFault)
    Deadlock,        ///< bounded-progress watchdog fired (e.g. a
                     ///< corrupted barrier never released)
    Timeout,         ///< cycle limit with commits still happening
};

const char *mcClassName(McClass c);

/**
 * Turn a journaled log likelihood ratio into the finite weight used by
 * aggregation: exp(logWeight) with the exponent clamped to +-700, so a
 * pathological proposal (an extreme likelihood ratio) degrades to a
 * huge-but-finite or tiny-but-positive weight instead of inf/0/NaN
 * poisoning every weighted sum it touches. exp(0) is exactly 1.
 */
double likelihoodWeight(double logWeight);

/**
 * Runs per campaign cell for a 3% error margin at 95% confidence
 * (Leveugle et al., the paper's choice).
 */
constexpr int kStatisticalRuns = 1068;

/** Containment attempts per run before it is recorded EngineFault. */
constexpr int kDefaultRunAttempts = 3;

/** Aggregate results of a campaign cell (workload x model x VR). */
struct CampaignResult
{
    std::string workload;
    std::string model;
    /** Recorded runs, including EngineFaults. */
    uint64_t runs = 0;
    uint64_t masked = 0, sdc = 0, crash = 0, timeout = 0;
    /** Runs lost to infrastructure faults (excluded from AVM). */
    uint64_t engineFault = 0;
    /** Containment retries that were needed across all runs. */
    uint64_t retries = 0;
    /** True if a cancellation stopped the campaign before all runs. */
    bool interrupted = false;
    /** Injected errors across all classified runs (Fig. 10 ratio). */
    uint64_t injectedErrors = 0;
    /** Committed instructions across all classified runs. */
    uint64_t committedInstructions = 0;
    /** Injections landing on squashed (wrong-path) instructions. */
    uint64_t wrongPathInjections = 0;
    /**
     * Likelihood-ratio weight sums over classified runs (importance
     * sampling): sum of weights, sum over unsafe (SDC/Crash/Timeout)
     * runs, sum of squared weights, and sum of squared weights over
     * unsafe runs (the term the self-normalized variance needs).
     * Plain campaigns have weight exactly 1 per run, so
     * weightSum == classified() and the weighted estimate coincides
     * bit-for-bit with the plain one. EngineFault runs contribute to
     * none of them.
     */
    double weightSum = 0.0;
    double weightUnsafe = 0.0;
    double weightSqSum = 0.0;
    double weightUnsafeSqSum = 0.0;
    /** True when the campaign sampled from a reweighted proposal. */
    bool weightedModel = false;
    /**
     * Multi-core outcome refinements (threaded workloads only; all
     * zero for single-core cells). Each counts a subset of the
     * corresponding base outcome: mcCoherenceMasked <= masked,
     * mcSdcSameCore + mcSdcCrossCore == sdc, mcSyncCrash <= crash,
     * mcDeadlock <= timeout.
     */
    uint64_t mcCoherenceMasked = 0;
    uint64_t mcSdcSameCore = 0;
    uint64_t mcSdcCrossCore = 0;
    uint64_t mcSyncCrash = 0;
    uint64_t mcDeadlock = 0;

    /** Runs that produced one of the paper's four outcomes. */
    uint64_t classified() const { return runs - engineFault; }
    /** Error injection ratio (Eq. 2 over the campaign). */
    double errorRatio() const;
    /**
     * AVM (Eq. 4) over classified runs; EngineFaults never count.
     * NaN when no run was classified (e.g. every run EngineFaulted) —
     * an unknown AVM must never masquerade as a perfect 0.
     */
    double avm() const;
    /**
     * Fraction of an outcome: the paper outcomes over classified runs
     * (NaN when nothing was classified), EngineFault over all recorded
     * runs (NaN when nothing was recorded).
     */
    double fraction(Outcome o) const;
    /** Wilson interval on the AVM over classified runs. */
    stats::Interval avmInterval(double conf = 0.95) const;
    /**
     * Self-normalized importance-sampling AVM: weightUnsafe/weightSum
     * over classified runs (identical to avm() when every weight is
     * 1). NaN when no weight was accumulated.
     */
    double avmWeighted() const;
    /** Kish effective sample size (sum w)^2 / sum w^2 (0 when empty). */
    double ess() const;
    /**
     * Variance-matched Wilson interval on avmWeighted()
     * (stats::selfNormalizedWilson); bit-identical to avmInterval()
     * when every weight is exactly 1.
     */
    stats::Interval avmWeightedInterval(double conf = 0.95) const;
    /** Wilson interval on fraction(o) (same denominators). */
    stats::Interval fractionInterval(Outcome o,
                                     double conf = 0.95) const;
};

/**
 * Injection campaign driver for one workload. Prepares the golden
 * reference lazily and owns the comparison of run outputs.
 */
class InjectionCampaign
{
  public:
    /**
     * Build and prepare a campaign; a workload whose golden run does
     * not halt is a recoverable GoldenRunFailed error instead of a
     * process abort, so one broken workload degrades one cell.
     */
    static Expected<std::unique_ptr<InjectionCampaign>>
    create(workloads::Workload workload, sim::OooConfig cfg = {},
           mc::McConfig mcCfg = {});

    /**
     * Convenience constructor for known-good workloads: same
     * preparation, but a golden-run failure is fatal(). `mcCfg` only
     * matters for threaded workloads, which run on McSim with that
     * core count / quantum (both part of the cell's identity).
     */
    InjectionCampaign(workloads::Workload workload,
                      sim::OooConfig cfg = sim::OooConfig{},
                      mc::McConfig mcCfg = mc::McConfig{});

    /** Golden profile used by the models' planners. */
    const models::ProgramProfile &profile() const { return profile_; }
    /** Error-free cycle count (timeout threshold = 2x this). */
    uint64_t goldenCycles() const { return goldenCycles_; }
    uint64_t goldenInstructions() const
    {
        return profile_.totalInstructions;
    }

    /** Everything one injection run produces. */
    struct RunRecord
    {
        Outcome outcome = Outcome::Masked;
        uint64_t injected = 0;
        uint64_t committed = 0;
        uint64_t wrongPath = 0;
        /** Execution attempts this record took (1 = no retry). */
        uint32_t attempts = 1;
        /** Why outcome == EngineFault (None otherwise). */
        ErrorCode fault = ErrorCode::None;
        /**
         * Log likelihood-ratio weight of this run's injection plan
         * (0.0 — weight exactly 1 — for plain models). Journaled as an
         * exact bit pattern so replayed runs aggregate identically.
         */
        double logWeight = 0.0;
        /** Multi-core refinement (None for single-core runs). */
        McClass mcClass = McClass::None;
    };

    /** Durability and containment knobs for run(). */
    struct RunOptions
    {
        /**
         * Defaulted out of line: run() can then take `{}` as a default
         * argument inside this class, before the member initializers
         * below are complete.
         */
        RunOptions();

        /** Worker pool (the global pool when null). */
        ThreadPool *pool = nullptr;
        /** Cooperative shutdown flag polled per run and in-sim. */
        const CancelToken *cancel = nullptr;
        /** Per-run wall-clock deadline in ms (<= 0 disables). */
        int64_t runDeadlineMs = 0;
        /** Containment attempts per run (>= 1). */
        int maxAttempts = kDefaultRunAttempts;
        /**
         * Journal replay hook: return true and fill the record if run
         * i already completed in a previous (interrupted) campaign.
         * Replayed runs execute nothing, which is what makes resume
         * bit-identical to an uninterrupted run.
         */
        std::function<bool(uint64_t, RunRecord &)> replay;
        /**
         * Called from worker threads as each freshly-executed run
         * completes (journal append point). Not called for replays.
         */
        std::function<void(uint64_t, const RunRecord &)> onComplete;
        /**
         * Adaptive stopping: when > 0, run() samples in deterministic
         * rounds and stops once the AVM's Wilson interval at ciConf is
         * tighter than this half-width — `runs` then acts as the cap.
         * Executed runs are always the prefix 0..N-1 of the fixed-size
         * campaign's run indices (run i draws from rng.fork(i) either
         * way), so adaptive results are a bit-exact subset of fixed
         * results and identical at every thread count. 0 = off.
         */
        double ciTarget = 0.0;
        /** Confidence level of the adaptive stopping interval. */
        double ciConf = 0.95;
        /** First adaptive round size in runs (0 = default of 64). */
        uint64_t initialRound = 0;
    };

    /**
     * Plan, inject, run, classify — one experiment. The single place
     * outcomes are classified; const and therefore safe to call
     * concurrently as long as each caller owns its Rng. May throw if
     * the model or engine faults — executeOneContained() wraps it.
     */
    RunRecord executeOne(const models::ErrorModel &model, Rng &rng,
                         const Watchdog *watchdog = nullptr) const;

    /**
     * executeOne without the exact fast path: every run with an event
     * is simulated on the OoO core (McSim for threaded workloads). The
     * oracle the fast path is tested and benchmarked against; records
     * are identical to executeOne's.
     */
    RunRecord simulateOne(const models::ErrorModel &model, Rng &rng,
                          const Watchdog *watchdog = nullptr) const;

    /**
     * executeOne with run-level containment: attempt `run`'s execution
     * up to opts.maxAttempts times (attempt 0 on the canonical
     * base.fork(run) substream, retries on deterministic re-forks),
     * returning an EngineFault record when containment is exhausted —
     * never throwing, never aborting.
     */
    RunRecord executeOneContained(const models::ErrorModel &model,
                                  const Rng &base, uint64_t run,
                                  const RunOptions &opts) const;

    /** Convenience wrapper around executeOne returning the outcome. */
    Outcome runOne(const models::ErrorModel &model, Rng &rng,
                   uint64_t *injectedOut = nullptr) const;

    /**
     * Run a full campaign cell. Runs are dispatched as independent
     * tasks on the pool; run i draws its injection plan from
     * rng.fork(i), so the aggregate is bit-identical for any thread
     * count — and, with the replay/onComplete hooks wired to a
     * journal, across interrupt/resume cycles too.
     */
    CampaignResult run(const models::ErrorModel &model, int runs,
                       Rng &rng, const RunOptions &opts = {}) const;

    /**
     * Execute only runs [lo, hi) of a fixed-size campaign, reporting
     * each completed record through opts.onComplete (typically a shard
     * journal) and returning how many were freshly executed. Run i
     * draws from the same fork(i) substream run() would give it, so a
     * cell split into ranges across fleet workers and re-assembled by
     * journal merge is bit-identical to the unsplit cell. No
     * aggregation happens here — that is the merger's job. Adaptive
     * stopping is a whole-cell property and does not apply to ranges.
     */
    uint64_t runRange(const models::ErrorModel &model, uint64_t lo,
                      uint64_t hi, Rng &rng,
                      const RunOptions &opts) const;

    const workloads::Workload &workload() const { return workload_; }

  private:
    struct Unprepared
    {
    };
    InjectionCampaign(Unprepared, workloads::Workload workload,
                      sim::OooConfig cfg, mc::McConfig mcCfg);

    /** Golden functional + detailed runs; the recoverable ctor body. */
    Error prepare();

    /** executeOne and simulateOne; `fastPath` picks which. */
    RunRecord execute(const models::ErrorModel &model, Rng &rng,
                      const Watchdog *watchdog, bool fastPath) const;

    /**
     * The one per-run loop of run() and runRange(): runs [lo, hi) on
     * the pool, each replayed through opts.replay or executed
     * contained, handed to `sink(i, record, replayed)`. Runs a
     * cancellation cut off are dropped. Counts replays, cancellations
     * and the deadline cut-offs of executed runs.
     */
    void forEachRun(
        const models::ErrorModel &model, const Rng &base, uint64_t lo,
        uint64_t hi, const RunOptions &opts,
        const std::function<void(uint64_t, const RunRecord &, bool)>
            &sink) const;

    /**
     * The golden OoO run's timeline (sim/timeline.hh), recorded by a
     * second golden run the first time a run needs it; null when that
     * run disagrees with prepare()'s.
     */
    const sim::GoldenTimeline *timeline() const;

    /**
     * The exact fast path (DESIGN.md §18): the record of a single-core
     * run from the functional interpreter, or nullopt when the run may
     * leave the golden timing and must be simulated.
     */
    std::optional<RunRecord>
    replayOnFuncSim(const sim::InjectionPlan &plan, double logWeight,
                    const Watchdog *watchdog) const;

    /** Whether runs of this kind still pay for a fast-path attempt. */
    bool worthTrying(models::ModelKind kind) const;

    /** executeOne's OoO run of a single-core plan. */
    RunRecord simulateOoo(sim::InjectionPlan plan, double logWeight,
                          const Watchdog *watchdog) const;

    /** executeOne's McSim run of planned per-core events. */
    RunRecord simulateMc(std::vector<sim::InjectionPlan> plans,
                         double logWeight,
                         const Watchdog *watchdog) const;

    /** The record of a run whose plan has no event (DESIGN.md §17). */
    RunRecord goldenRecord(double logWeight) const;

    /** Capture the checked output state of a finished simulation. */
    std::vector<uint8_t> outputSignature(const sim::Memory &mem,
                                         const sim::Console &console) const;

    workloads::Workload workload_;
    sim::OooConfig cfg_;
    mc::McConfig mcCfg_;
    models::ProgramProfile profile_; ///< sum of coreProfiles_
    /** One profile per simulated core: plan "core k's n-th op". */
    std::vector<models::ProgramProfile> coreProfiles_;
    uint64_t goldenCycles_ = 0;
    /** Instructions the golden run committed (all cores). */
    uint64_t goldenCommitted_ = 0;
    std::vector<uint8_t> goldenSignature_;
    mutable std::once_flag timelineOnce_;
    mutable std::unique_ptr<sim::GoldenTimeline> timeline_;
    /**
     * Fast-path attempts and records per model kind: the cost gate of
     * worthTrying(). They decide only which exact path computes a
     * record, never the record.
     */
    mutable std::array<std::atomic<uint64_t>, 3> fastTries_{};
    mutable std::array<std::atomic<uint64_t>, 3> fastWins_{};
};

} // namespace tea::inject

#endif // TEA_INJECT_CAMPAIGN_HH
