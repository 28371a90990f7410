/**
 * @file
 * The cross-layer toolflow facade (Fig. 2 of the paper).
 *
 * Ties the layers together: builds the gate-level FPU once, registers
 * voltage operating points, runs the model-development phase (DTA
 * characterizations for the DA/IA/WA models, with an on-disk cache so
 * repeated bench invocations do not re-run gate-level simulation), and
 * hands out injection campaigns for the application-evaluation phase.
 */

#ifndef TEA_CORE_TOOLFLOW_HH
#define TEA_CORE_TOOLFLOW_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpu/fpu_core.hh"
#include "inject/campaign.hh"
#include "models/error_models.hh"
#include "surrogate/importance.hh"
#include "timing/dta_campaign.hh"
#include "util/fields.hh"
#include "util/threadpool.hh"
#include "util/watchdog.hh"
#include "workloads/workloads.hh"

namespace tea::core {

struct ToolflowOptions
{
    /** Voltage-reduction levels studied (paper: VR15 and VR20). */
    std::vector<double> vrLevels = {circuit::kVR15, circuit::kVR20};
    /** Random ops per instruction type for IA characterization. */
    uint64_t iaCountPerOp = 4000;
    /** Trace ops sampled per workload for WA characterization. */
    uint64_t waMaxOps = 20000;
    /** Benchmark-extracted ops for the DA Monte-Carlo ER estimate. */
    uint64_t daSampleOps = 20000;
    /** Injection runs per (workload, model, VR) cell. */
    int runsPerCell = 60;
    uint64_t seed = 1;
    int workloadScale = 1;
    /** Directory for characterization caches ("" disables caching). */
    std::string cacheDir = "tea_cache";
    /**
     * Worker threads for sharded campaigns (0 = REPRO_THREADS env or
     * hardware concurrency). Results are bit-identical for any value.
     */
    unsigned threads = 0;
    /**
     * Resume interrupted campaigns from their shard journals instead
     * of starting over (REPRO_RESUME=1). Replayed runs are
     * bit-identical to fresh execution, so a resumed grid matches an
     * uninterrupted one exactly.
     */
    bool resume = false;
    /** Per-injection-run wall-clock deadline in ms (<= 0 disables). */
    int64_t runDeadlineMs = 0;
    /** Containment attempts per injection run before EngineFault. */
    int maxRunAttempts = inject::kDefaultRunAttempts;
    /**
     * Adaptive (confidence-driven) campaign sizing: when > 0,
     * characterizations and injection campaigns sample in
     * deterministic rounds until their intervals reach this half-width
     * (REPRO_CI_TARGET). 0 keeps the classic fixed-size campaigns —
     * and with them byte-identical caches, journals, and figure CSVs.
     */
    double ciTarget = 0.0;
    /** Confidence level of adaptive intervals (REPRO_CI_CONF). */
    double ciConf = 0.95;
    /**
     * Cap on adaptive trials per stratum / runs per cell
     * (REPRO_MAX_RUNS; 0 = a per-campaign default).
     */
    uint64_t maxAdaptiveRuns = 0;
    /**
     * Importance-sampled injection (REPRO_IS=1): IA/WA campaign cells
     * plan injections under a surrogate-tilted proposal and estimate
     * AVM with the self-normalized weighted estimator. Off by default:
     * the plain path keeps byte-identical legacy artifacts.
     */
    bool isEnable = false;
    /** Risk tilt strength of the IS proposal (REPRO_IS_BOOST). */
    double isBoost = surrogate::kDefaultBoost;
    /** Proposal floor as a fraction of p (REPRO_IS_FLOOR). */
    double isFloor = surrogate::kDefaultFloor;
    /**
     * Rare-regime guard: cap on an op's tilted expected injection
     * count before the boost is scaled back (REPRO_IS_MAXTILT).
     * Saturated ops stay exactly on the target measure, so IS never
     * degrades a cell that plain Monte Carlo already resolves fast.
     */
    double isMaxTilted = surrogate::kDefaultMaxTilted;
    /** Surrogate corpus: DTA ops per (type, VR) (REPRO_IS_CORPUS). */
    uint64_t isCorpusPerOp = 1500;
    /**
     * Cores simulated for threaded ("-mt") workloads (REPRO_MC_CORES).
     * Part of a threaded cell's identity: journals and caches from
     * different core counts never mix. Single-core workloads ignore it.
     */
    unsigned mcCores = 2;
    /** Round-robin quantum in cycles (REPRO_MC_QUANTUM). */
    unsigned mcQuantum = 64;

    /** True when confidence-driven campaign sizing is enabled. */
    bool adaptive() const { return ciTarget > 0.0; }
};

/**
 * Read every table row's REPRO_* knob, then the REPRO_FULL preset
 * (paper-scale runs and characterizations) and REPRO_THREADS. A
 * malformed value warns and keeps the default; an out-of-range one
 * warns and is clamped or ignored as its row says — a typo in the
 * environment can slow a reproduction down but never crash or
 * silently skew it.
 */
ToolflowOptions optionsFromEnv();

/**
 * One scalar campaign option (vrLevels is a list: hand-written). Its
 * text form and parse are formatField/parseField (util/fields.hh); a
 * plan rejects what the environment would clamp or ignore.
 */
struct OptionField
{
    const char *planKey;
    /** REPRO_* knob, or nullptr when the environment cannot set it. */
    const char *envName;
    FieldMember<ToolflowOptions> member;
    /** Valid range, inclusive (integer bounds are exact doubles). */
    double lo = 0, hi = kNoLimit;
    /** An out-of-range REPRO_* value keeps the default, not clamps. */
    bool envKeepsDefault = false;
};

/** Every scalar campaign option, in fleet-plan key order. */
const std::vector<OptionField> &optionFields();

/** Valid VR levels: the supply stays well above threshold. */
constexpr double kMinVrFrac = 0.0, kMaxVrFrac = 0.5;

class Toolflow
{
  public:
    /**
     * `cancel` stops every DTA campaign and injection run this toolflow
     * starts. The default is the token SIGINT/SIGTERM cancel; the
     * daemon hands each campaign its own.
     */
    explicit Toolflow(ToolflowOptions opt,
                      const CancelToken &cancel = CancelToken::processWide());
    Toolflow() : Toolflow(optionsFromEnv()) {}

    const ToolflowOptions &options() const { return opt_; }
    fpu::FpuCore &fpuCore() { return *core_; }
    const circuit::VoltageModel &voltageModel() const { return vm_; }
    /** Worker pool shared by every campaign this toolflow runs. */
    ThreadPool &pool() { return *pool_; }
    const CancelToken &cancelToken() const { return *watchdog_.token(); }
    /** Injection-run options: pool, token, deadline, attempts, CI. */
    inject::InjectionCampaign::RunOptions runOptions() const;

    /**
     * Build a filesystem-safe cache/journal tag "<prefix>_<name>_n<n>".
     * Hostile characters in `name` are replaced, and long names are
     * shortened to a prefix plus an 8-hex CRC-32 of the original, so
     * tags never exceed a bounded length and two distinct long names
     * cannot silently collide the way a truncating snprintf would.
     */
    static std::string cacheTag(const char *prefix,
                                const std::string &name, uint64_t n);

    /** Operating-point index for a VR fraction (created on demand). */
    size_t pointFor(double vrFrac);

    /**
     * Move a damaged cache file aside to `<path>.bad` (`.bad2`..
     * `.bad9` when earlier evidence already sits there, so the first
     * corrupt capture is never overwritten). Returns false when no
     * quarantine name could be claimed — the caller then regenerates
     * straight over the damaged file, which the atomic cache writers
     * make safe. Public for the robustness tests.
     */
    static bool quarantineCache(const std::string &path);

    // ---- model development phase -----------------------------------
    // A characterization cut short by this toolflow's cancel token
    // throws TeaException(Cancelled) and leaves no statistics behind.
    const timing::CampaignStats &iaStats(double vrFrac);
    const timing::CampaignStats &waStats(const std::string &workload,
                                         double vrFrac);
    /** DA fixed ER: DTA over instructions extracted from all benches. */
    double daErrorRatio(double vrFrac);

    models::DaModel daModel(double vrFrac);
    models::IaModel iaModel(double vrFrac);
    models::WaModel waModel(const std::string &workload, double vrFrac);

    /**
     * The timing-error surrogate for importance-sampled campaigns:
     * trained once per toolflow over all configured VR levels (VR is
     * a feature), cached on disk next to the characterization stats.
     * Deterministic — a pure function of (seed, corpus size, VR
     * levels), independent of thread count and call order.
     */
    const surrogate::ErrorSurrogate &surrogate();

    // ---- workload plumbing ------------------------------------------
    const workloads::Workload &workload(const std::string &name);
    const std::vector<sim::FpTraceEntry> &
    trace(const std::string &workload);
    inject::InjectionCampaign &campaign(const std::string &workload);

  private:
    std::string cachePath(const std::string &tag, double vrFrac) const;
    const timing::CampaignStats &
    characterize(const std::string &tag, double vrFrac,
                 const std::function<timing::CampaignStats(size_t)> &run);

    ToolflowOptions opt_;
    circuit::VoltageModel vm_;
    /** Cancellation-only watchdog on the campaign's token. */
    Watchdog watchdog_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<fpu::FpuCore> core_;
    std::map<int, size_t> points_; ///< key: VR percent x 100
    std::map<std::string, timing::CampaignStats> statsCache_;
    std::map<std::string, workloads::Workload> workloads_;
    std::map<std::string, std::vector<sim::FpTraceEntry>> traces_;
    std::map<std::string, std::unique_ptr<inject::InjectionCampaign>>
        campaigns_;
    std::map<int, double> daEr_;
    std::unique_ptr<surrogate::ErrorSurrogate> surrogate_;
};

} // namespace tea::core

#endif // TEA_CORE_TOOLFLOW_HH
