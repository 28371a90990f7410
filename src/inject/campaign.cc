#include "inject/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "isa/isa.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/func_sim.hh"
#include "stats/planner.hh"
#include "util/logging.hh"

namespace tea::inject {

using models::ErrorModel;
using models::ProgramProfile;
using sim::OooSim;

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked: return "Masked";
      case Outcome::SDC: return "SDC";
      case Outcome::Crash: return "Crash";
      case Outcome::Timeout: return "Timeout";
      case Outcome::EngineFault: return "EngineFault";
    }
    return "?";
}

const char *
mcClassName(McClass c)
{
    switch (c) {
      case McClass::None: return "None";
      case McClass::Masked: return "Masked";
      case McClass::CoherenceMasked: return "CoherenceMasked";
      case McClass::SdcSameCore: return "SdcSameCore";
      case McClass::SdcCrossCore: return "SdcCrossCore";
      case McClass::Crash: return "Crash";
      case McClass::SyncCrash: return "SyncCrash";
      case McClass::Deadlock: return "Deadlock";
      case McClass::Timeout: return "Timeout";
    }
    return "?";
}

double
likelihoodWeight(double logWeight)
{
    // +-700 keeps exp() comfortably inside double range (|log
    // DBL_MAX| ~ 709.8). NaN input degrades to weight 1 — a damaged
    // weight must not poison the whole campaign's sums.
    if (std::isnan(logWeight))
        return 1.0;
    if (logWeight > 700.0)
        logWeight = 700.0;
    else if (logWeight < -700.0)
        logWeight = -700.0;
    return std::exp(logWeight);
}

double
CampaignResult::errorRatio() const
{
    if (committedInstructions == 0)
        return 0.0;
    return static_cast<double>(injectedErrors) /
           static_cast<double>(committedInstructions);
}

double
CampaignResult::avm() const
{
    // No classified run means the AVM is unknown, not zero: a cell
    // whose every run EngineFaulted must not read as perfectly safe.
    if (classified() == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(sdc + crash + timeout) /
           static_cast<double>(classified());
}

double
CampaignResult::fraction(Outcome o) const
{
    if (o == Outcome::EngineFault)
        return runs ? static_cast<double>(engineFault) /
                          static_cast<double>(runs)
                    : std::numeric_limits<double>::quiet_NaN();
    if (classified() == 0)
        return std::numeric_limits<double>::quiet_NaN();
    uint64_t n = 0;
    switch (o) {
      case Outcome::Masked: n = masked; break;
      case Outcome::SDC: n = sdc; break;
      case Outcome::Crash: n = crash; break;
      case Outcome::Timeout: n = timeout; break;
      case Outcome::EngineFault: break; // handled above
    }
    return static_cast<double>(n) / static_cast<double>(classified());
}

stats::Interval
CampaignResult::avmInterval(double conf) const
{
    return stats::wilson(sdc + crash + timeout, classified(), conf);
}

double
CampaignResult::avmWeighted() const
{
    if (!(weightSum > 0.0))
        return std::numeric_limits<double>::quiet_NaN();
    return weightUnsafe / weightSum;
}

double
CampaignResult::ess() const
{
    if (!(weightSqSum > 0.0))
        return 0.0;
    return weightSum * weightSum / weightSqSum;
}

stats::Interval
CampaignResult::avmWeightedInterval(double conf) const
{
    if (!(weightSqSum > 0.0))
        return {0.0, 1.0};
    // Unit weights (proposal degraded to the target measure): take
    // the integer path so the interval is bit-identical to the plain
    // campaign's.
    double cls = static_cast<double>(classified());
    double unsafe = static_cast<double>(sdc + crash + timeout);
    if (weightSum == cls && weightSqSum == cls &&
        weightUnsafe == unsafe && weightUnsafeSqSum == unsafe)
        return avmInterval(conf);
    return stats::selfNormalizedWilson(weightUnsafe, weightSum,
                                       weightSqSum,
                                       weightUnsafeSqSum, conf);
}

stats::Interval
CampaignResult::fractionInterval(Outcome o, double conf) const
{
    if (o == Outcome::EngineFault)
        return stats::wilson(engineFault, runs, conf);
    uint64_t n = 0;
    switch (o) {
      case Outcome::Masked: n = masked; break;
      case Outcome::SDC: n = sdc; break;
      case Outcome::Crash: n = crash; break;
      case Outcome::Timeout: n = timeout; break;
      case Outcome::EngineFault: break; // handled above
    }
    return stats::wilson(n, classified(), conf);
}

InjectionCampaign::RunOptions::RunOptions() = default;

InjectionCampaign::InjectionCampaign(Unprepared,
                                     workloads::Workload workload,
                                     sim::OooConfig cfg,
                                     mc::McConfig mcCfg)
    : workload_(std::move(workload)), cfg_(cfg), mcCfg_(mcCfg)
{
    mcCfg_.core = cfg_;
}

InjectionCampaign::InjectionCampaign(workloads::Workload workload,
                                     sim::OooConfig cfg,
                                     mc::McConfig mcCfg)
    : InjectionCampaign(Unprepared{}, std::move(workload), cfg, mcCfg)
{
    Error err = prepare();
    fatal_if(!err.ok(), "%s", err.describe().c_str());
}

Expected<std::unique_ptr<InjectionCampaign>>
InjectionCampaign::create(workloads::Workload workload,
                          sim::OooConfig cfg, mc::McConfig mcCfg)
{
    std::unique_ptr<InjectionCampaign> c(new InjectionCampaign(
        Unprepared{}, std::move(workload), cfg, mcCfg));
    Error err = c->prepare();
    if (!err.ok())
        return err;
    return c;
}

Error
InjectionCampaign::prepare()
{
    try {
        // Per-core profiles from a fast functional run: model planning
        // addresses "the n-th eligible op on core k", so each core
        // needs its own dynamic op counts. A single-core workload has
        // one core.
        sim::FuncSim::Config fcfg;
        fcfg.cores = workload_.threaded ? mcCfg_.cores : 1;
        sim::FuncSim fsim(workload_.program, fcfg);
        auto fres = fsim.run();
        if (fres.status != sim::FuncSim::Status::Halted)
            return makeError(ErrorCode::GoldenRunFailed,
                             "workload '%s' golden run did not halt (%s)",
                             workload_.name.c_str(),
                             sim::trapName(fres.trap));
        coreProfiles_.clear();
        profile_ = {};
        for (unsigned k = 0; k < fsim.cores(); ++k) {
            const ProgramProfile &p = coreProfiles_.emplace_back(
                ProgramProfile::fromFuncSim(fsim, k));
            profile_.totalInstructions += p.totalInstructions;
            profile_.instructionsWithDest += p.instructionsWithDest;
            for (size_t j = 0; j < p.fpOpCounts.size(); ++j)
                profile_.fpOpCounts[j] += p.fpOpCounts[j];
        }

        // ...and the timing/output reference from a golden detailed run.
        if (workload_.threaded) {
            mc::McSim msim(workload_.program, mcCfg_);
            auto mres = msim.run(~0ULL);
            if (mres.status != mc::McSim::Status::Halted)
                return makeError(
                    ErrorCode::GoldenRunFailed,
                    "workload '%s' golden McSim run did not halt",
                    workload_.name.c_str());
            goldenCycles_ = mres.cycles;
            goldenCommitted_ = mres.committed;
            goldenSignature_ =
                outputSignature(msim.memory(), msim.console());
        } else {
            OooSim osim(workload_.program, cfg_);
            auto ores = osim.run(~0ULL);
            if (ores.status != OooSim::Status::Halted)
                return makeError(
                    ErrorCode::GoldenRunFailed,
                    "workload '%s' golden OoO run did not halt",
                    workload_.name.c_str());
            goldenCycles_ = ores.cycles;
            goldenCommitted_ = ores.committed;
            goldenSignature_ =
                outputSignature(osim.memory(), osim.console());
        }
    } catch (const std::exception &e) {
        return makeError(ErrorCode::EngineFault,
                         "workload '%s' golden preparation faulted: %s",
                         workload_.name.c_str(), e.what());
    }
    return {};
}

std::vector<uint8_t>
InjectionCampaign::outputSignature(const sim::Memory &mem,
                                   const sim::Console &console) const
{
    std::vector<uint8_t> sig;
    for (const auto &sym : workload_.outputSymbols) {
        auto block = mem.readBlock(workload_.program.symbol(sym),
                                   workload_.program.symbolSize(sym));
        sig.insert(sig.end(), block.begin(), block.end());
    }
    size_t off = sig.size();
    sig.resize(off + console.size() * 8);
    std::memcpy(sig.data() + off, console.data(), console.size() * 8);
    return sig;
}

InjectionCampaign::RunRecord
InjectionCampaign::goldenRecord(double logWeight) const
{
    obs::Registry::global()
        .counter(obs::metric::kInjectShortcuts, "",
                 "injection runs given the golden record because "
                 "their plan was empty")
        .inc(1);
    // The simulators are deterministic, so a run that injects nothing
    // is the run prepare() already simulated. The weight is still the
    // plan's own: a reweighted proposal can plan nothing with a
    // likelihood ratio other than 1.
    RunRecord rec;
    rec.outcome = Outcome::Masked;
    rec.committed = goldenCommitted_;
    rec.logWeight = logWeight;
    rec.mcClass = workload_.threaded ? McClass::Masked : McClass::None;
    return rec;
}

InjectionCampaign::RunRecord
InjectionCampaign::simulateMc(std::vector<sim::InjectionPlan> plans,
                              double logWeight,
                              const Watchdog *watchdog) const
{
    mc::McSim sim(workload_.program, mcCfg_, std::move(plans));
    auto res = sim.run(2 * goldenCycles_, watchdog);

    RunRecord rec;
    rec.logWeight = logWeight;
    rec.injected = res.injectionsApplied;
    rec.committed = res.committed;
    rec.wrongPath = res.injectionsOnWrongPath;
    switch (res.status) {
      case mc::McSim::Status::Crashed:
        rec.outcome = Outcome::Crash;
        rec.mcClass = res.trap == sim::TrapKind::SyncFault
                          ? McClass::SyncCrash
                          : McClass::Crash;
        break;
      case mc::McSim::Status::Deadlock:
        // No commit on any core for the bounded-progress window: the
        // run would never finish. The base taxonomy calls that a
        // Timeout; the refinement keeps it countable on its own.
        rec.outcome = Outcome::Timeout;
        rec.mcClass = McClass::Deadlock;
        break;
      case mc::McSim::Status::CycleLimit:
        rec.outcome = Outcome::Timeout;
        rec.mcClass = McClass::Timeout;
        break;
      case mc::McSim::Status::Interrupted:
        rec.outcome = Outcome::EngineFault;
        rec.fault = res.stop == Watchdog::Stop::Deadline
                        ? ErrorCode::RunDeadline
                        : ErrorCode::Cancelled;
        break;
      case mc::McSim::Status::Halted: {
        auto sig = outputSignature(sim.memory(), sim.console());
        if (sig == goldenSignature_) {
            rec.outcome = Outcome::Masked;
            // Coherence-masked: an injection landed AND some clean
            // committed store overwrote a tainted word — the error
            // demonstrably died in memory rather than never mattering.
            rec.mcClass = (res.injectionsApplied > 0 &&
                           res.coh.overwriteMasks > 0)
                              ? McClass::CoherenceMasked
                              : McClass::Masked;
        } else {
            rec.outcome = Outcome::SDC;
            rec.mcClass = res.crossTaintedLoads > 0
                              ? McClass::SdcCrossCore
                              : McClass::SdcSameCore;
        }
        break;
      }
    }

    // Coherence/synchronization observability (never aggregated into
    // campaign statistics — the journal stays the source of truth).
    obs::Registry &reg = obs::Registry::global();
    reg.counter(obs::metric::kMcInvalidations, "",
                "sharer lines invalidated by committed stores")
        .inc(res.coh.invalidations);
    reg.counter(obs::metric::kMcC2cTransfers, "",
                "dirty lines forwarded cache-to-cache")
        .inc(res.coh.c2cTransfers);
    reg.counter(obs::metric::kMcL2Misses, "",
                "shared-L2 misses across all cores")
        .inc(res.coh.l2Misses);
    reg.counter(obs::metric::kMcCrossReads, "",
                "committed loads of another core's tainted data")
        .inc(res.crossTaintedLoads);
    reg.counter(obs::metric::kMcOverwriteMasked, "",
                "clean committed stores overwriting tainted words")
        .inc(res.coh.overwriteMasks);
    reg.counter(obs::metric::kMcSpawns, "",
                "cores started via the spawn syscall")
        .inc(res.coh.spawns);
    reg.counter(obs::metric::kMcBarriers, "",
                "completed barrier episodes")
        .inc(res.coh.barriers);
    return rec;
}

InjectionCampaign::RunRecord
InjectionCampaign::executeOne(const ErrorModel &model, Rng &rng,
                              const Watchdog *watchdog) const
{
    return execute(model, rng, watchdog, true);
}

InjectionCampaign::RunRecord
InjectionCampaign::simulateOne(const ErrorModel &model, Rng &rng,
                               const Watchdog *watchdog) const
{
    return execute(model, rng, watchdog, false);
}

InjectionCampaign::RunRecord
InjectionCampaign::execute(const ErrorModel &model, Rng &rng,
                           const Watchdog *watchdog, bool fastPath) const
{
    // Plan per core, in core-major order on the one run substream, so
    // the whole multi-core plan is a deterministic function of the run
    // index. Each event is stamped with its core: "the n-th eligible
    // op on core k". The run's weight is the product (log-sum) of the
    // per-core plan weights; no model returns a weight of -0.0, so a
    // single core's sum from 0.0 is its plan's weight bit for bit.
    double logWeight = 0.0;
    bool anyEvent = false;
    std::vector<sim::InjectionPlan> plans;
    plans.reserve(coreProfiles_.size());
    for (unsigned k = 0; k < coreProfiles_.size(); ++k) {
        double lw = 0.0;
        auto events = model.planWeighted(coreProfiles_[k], rng, lw);
        for (auto &e : events)
            e.core = k;
        logWeight += lw;
        anyEvent = anyEvent || !events.empty();
        plans.emplace_back(events);
    }
    if (!anyEvent)
        return goldenRecord(logWeight);
    if (workload_.threaded)
        return simulateMc(std::move(plans), logWeight, watchdog);
    if (fastPath && worthTrying(model.kind())) {
        auto k = static_cast<size_t>(model.kind());
        ++fastTries_[k];
        if (auto rec = replayOnFuncSim(plans[0], logWeight, watchdog)) {
            ++fastWins_[k];
            return *rec;
        }
    }
    return simulateOoo(std::move(plans[0]), logWeight, watchdog);
}

bool
InjectionCampaign::worthTrying(models::ModelKind kind) const
{
    // A fallback costs the interpreter's time up to the divergence on
    // top of the OoO run, and some cells (is; DA, whose events corrupt
    // addresses and loop counters) almost always fall back. After 8
    // attempts, stop trying a kind the fast path records less than
    // once in eight. Both paths give the same record, so this moves
    // only time, whatever order the pool's threads see the counts in.
    auto k = static_cast<size_t>(kind);
    uint64_t tries = fastTries_[k];
    uint64_t wins = fastWins_[k];
    return tries < 8 || wins * 8 >= tries;
}

InjectionCampaign::RunRecord
InjectionCampaign::simulateOoo(sim::InjectionPlan plan, double logWeight,
                               const Watchdog *watchdog) const
{
    OooSim sim(workload_.program, cfg_, std::move(plan));
    auto res = sim.run(2 * goldenCycles_, watchdog);
    RunRecord rec;
    rec.logWeight = logWeight;
    rec.injected = res.injectionsApplied;
    rec.committed = res.committed;
    rec.wrongPath = res.injectionsOnWrongPath;
    switch (res.status) {
      case OooSim::Status::Crashed:
        rec.outcome = Outcome::Crash;
        break;
      case OooSim::Status::CycleLimit:
        rec.outcome = Outcome::Timeout;
        break;
      case OooSim::Status::Interrupted:
        // Infrastructure cut the run off: a deadline overrun is an
        // EngineFault record; a cancellation means the run never
        // finished and must not be recorded at all.
        rec.outcome = Outcome::EngineFault;
        rec.fault = res.stop == Watchdog::Stop::Deadline
                        ? ErrorCode::RunDeadline
                        : ErrorCode::Cancelled;
        break;
      case OooSim::Status::Halted: {
        auto sig = outputSignature(sim.memory(), sim.console());
        rec.outcome = (sig == goldenSignature_) ? Outcome::Masked
                                                : Outcome::SDC;
        break;
      }
    }
    return rec;
}

const sim::GoldenTimeline *
InjectionCampaign::timeline() const
{
    // Recorded on first use rather than in prepare(), so bringing a
    // campaign up costs no more than its golden runs, and a campaign
    // whose runs all plan nothing never records it. A timeline takes
    // about 16 bytes per golden instruction, so a golden run past 16 M
    // instructions (a scaled-up workload) keeps every run on the OoO
    // core rather than hold hundreds of MB per campaign.
    constexpr uint64_t kMaxTimelineInstructions = 1ULL << 24;
    if (goldenCommitted_ > kMaxTimelineInstructions)
        return nullptr;
    std::call_once(timelineOnce_, [this] {
        auto tl = std::make_unique<sim::GoldenTimeline>();
        OooSim sim(workload_.program, cfg_);
        sim.recordTimeline(tl.get());
        auto res = sim.run(2 * goldenCycles_);
        if (res.status == OooSim::Status::Halted &&
            res.cycles == goldenCycles_ &&
            tl->committed == goldenCommitted_) {
            timeline_ = std::move(tl);
        } else {
            warn("workload '%s': the recorded golden run differs from "
                 "the first; every run is simulated",
                 workload_.name.c_str());
        }
    });
    return timeline_.get();
}

std::optional<InjectionCampaign::RunRecord>
InjectionCampaign::replayOnFuncSim(const sim::InjectionPlan &plan,
                                   double logWeight,
                                   const Watchdog *watchdog) const
{
    const sim::GoldenTimeline *tl = timeline();
    if (!tl)
        return std::nullopt;
    obs::Registry &reg = obs::Registry::global();
    auto fallback = [&](const char *reason) {
        reg.counter(obs::metric::kInjectFastPathFallbacks,
                    std::string("reason=\"") + reason + "\"",
                    "fast-path attempts abandoned for the OoO core")
            .inc(1);
        return std::nullopt;
    };

    // Resolve each event to the instance it hits. An index past the
    // golden run's last completion never fires. One that hits a
    // wrong-path instance is applied and squashed with it; unless the
    // instance is inert, it could change what the wrong path does.
    using sim::GoldenTimeline;
    sim::FuncSim::ShadowPlan shadow;
    shadow.timeline = tl;
    uint64_t injected = 0;
    std::vector<uint64_t> squashed; // serials of wrong-path victims
    auto resolve = [&](const auto &events,
                       const std::vector<uint64_t> &map) {
        for (const auto &[index, mask] : events) {
            if (index >= map.size())
                continue;
            uint64_t at = map[index];
            if (at & GoldenTimeline::kWrongPath) {
                if (!(at & GoldenTimeline::kInert))
                    return false;
                squashed.push_back(at & GoldenTimeline::kSerialMask);
            } else {
                shadow.injections.push_back({at, mask});
            }
            ++injected;
        }
        return true;
    };
    bool safe = resolve(plan.anyDest(), tl->anyDest);
    for (size_t op = 0; safe && op < fpu::kNumFpuOps; ++op)
        safe = resolve(plan.fpOp(static_cast<fpu::FpuOp>(op)),
                       tl->fpOp[op]);
    if (!safe)
        return fallback("wrong_path_event");
    std::sort(squashed.begin(), squashed.end());
    uint64_t wrongPath = static_cast<uint64_t>(
        std::unique(squashed.begin(), squashed.end()) - squashed.begin());
    // One mask per instance: the XOR of every event that hits it.
    auto &inj = shadow.injections;
    std::sort(inj.begin(), inj.end());
    size_t out = 0;
    for (size_t i = 0; i < inj.size(); ++i) {
        if (out > 0 && inj[out - 1].first == inj[i].first)
            inj[out - 1].second ^= inj[i].second;
        else
            inj[out++] = inj[i];
    }
    inj.resize(out);

    sim::FuncSim::Config fcfg;
    fcfg.trapOnSevereFp = cfg_.trapOnSevereFp;
    sim::FuncSim fsim(workload_.program, fcfg);
    Watchdog::Stop stop = Watchdog::Stop::None;
    RunRecord rec;
    rec.logWeight = logWeight;
    switch (fsim.runShadow(shadow, watchdog, stop)) {
      case sim::FuncSim::ShadowEnd::Halted:
        // The OoO core would have replayed the golden run's cycles,
        // so it halts with the golden commit count, every event
        // applied, and the wrong-path victims squashed.
        rec.committed = goldenCommitted_;
        rec.injected = injected;
        rec.wrongPath = wrongPath;
        rec.outcome = outputSignature(fsim.memory(), fsim.console()) ==
                              goldenSignature_
                          ? Outcome::Masked
                          : Outcome::SDC;
        reg.counter(obs::metric::kInjectFastPathRuns, "",
                    "single-core runs recorded by the exact fast path")
            .inc(1);
        return rec;
      case sim::FuncSim::ShadowEnd::Interrupted:
        rec.outcome = Outcome::EngineFault;
        rec.fault = stop == Watchdog::Stop::Deadline
                        ? ErrorCode::RunDeadline
                        : ErrorCode::Cancelled;
        return rec;
      case sim::FuncSim::ShadowEnd::Control:
        return fallback("control");
      case sim::FuncSim::ShadowEnd::Trap:
        return fallback("trap");
      case sim::FuncSim::ShadowEnd::Footprint:
        return fallback("footprint");
    }
    return std::nullopt;
}

InjectionCampaign::RunRecord
InjectionCampaign::executeOneContained(const ErrorModel &model,
                                       const Rng &base, uint64_t run,
                                       const RunOptions &opts) const
{
    int maxAttempts = std::max(1, opts.maxAttempts);
    std::string lastFault;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        // Attempt 0 draws from the canonical fork(run) substream so
        // contained and plain executions are bit-identical; retries
        // re-fork deterministically so a poisoned draw is not simply
        // replayed.
        Rng rng = attempt == 0 ? base.fork(run)
                               : base.fork(run).fork(attempt);
        Watchdog watchdog(opts.cancel, opts.runDeadlineMs);
        try {
            RunRecord rec = executeOne(model, rng, &watchdog);
            rec.attempts = attempt + 1;
            // Deadline cutoffs are deterministic-in-kind (the run is
            // pathologically slow); retrying would spend another full
            // deadline for the same verdict.
            return rec;
        } catch (const std::exception &e) {
            lastFault = e.what();
        } catch (...) {
            lastFault = "non-standard exception";
        }
        if (opts.cancel && opts.cancel->cancelled())
            break;
    }
    RunRecord rec;
    rec.outcome = Outcome::EngineFault;
    rec.attempts = maxAttempts;
    if (opts.cancel && opts.cancel->cancelled()) {
        rec.fault = ErrorCode::Cancelled;
    } else {
        rec.fault = ErrorCode::EngineFault;
        warn("run %llu of '%s' faulted %d time(s); recording "
             "EngineFault (last: %s)",
             static_cast<unsigned long long>(run),
             workload_.name.c_str(), maxAttempts, lastFault.c_str());
    }
    return rec;
}

Outcome
InjectionCampaign::runOne(const ErrorModel &model, Rng &rng,
                          uint64_t *injectedOut) const
{
    RunRecord rec = executeOne(model, rng);
    if (injectedOut)
        *injectedOut = rec.injected;
    return rec.outcome;
}

void
InjectionCampaign::forEachRun(
    const ErrorModel &model, const Rng &base, uint64_t lo, uint64_t hi,
    const RunOptions &opts,
    const std::function<void(uint64_t, const RunRecord &, bool)> &sink)
    const
{
    ThreadPool &tp = opts.pool ? *opts.pool : ThreadPool::global();
    // Observation only: counters/histograms never feed back into run
    // scheduling, RNG streams, or the ordered aggregation.
    obs::Registry &reg = obs::Registry::global();
    obs::Counter mReplays = reg.counter(
        obs::metric::kInjectReplays, "",
        "injection runs satisfied from a journal instead of simulated");
    obs::Counter mCancelled = reg.counter(
        obs::metric::kWatchdogCancelled, "",
        "runs abandoned because a cancellation was requested");
    obs::Counter mDeadline =
        reg.counter(obs::metric::kWatchdogDeadline, "",
                    "runs cut off by the per-run deadline");
    obs::Histogram mRunMs = reg.histogram(
        obs::metric::kInjectRunMs, obs::latencyBucketsMs(), "",
        "wall time of one contained injection run");
    tp.parallelFor(lo, hi, [&](uint64_t i, unsigned) {
        if (opts.cancel && opts.cancel->cancelled())
            return;
        RunRecord rec;
        if (opts.replay && opts.replay(i, rec)) {
            mReplays.inc(1);
            sink(i, rec, true);
            return;
        }
        obs::Span runSpan("inject.run", "inject",
                          static_cast<int64_t>(i));
        auto t0 = std::chrono::steady_clock::now();
        rec = executeOneContained(model, base, i, opts);
        mRunMs.observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
        if (rec.fault == ErrorCode::Cancelled) {
            mCancelled.inc(1);
            return; // shutdown mid-run: leave it for the resume
        }
        if (rec.fault == ErrorCode::RunDeadline)
            mDeadline.inc(1);
        sink(i, rec, false);
    });
}

uint64_t
InjectionCampaign::runRange(const ErrorModel &model, uint64_t lo,
                            uint64_t hi, Rng &rng,
                            const RunOptions &opts) const
{
    // The same split run() performs, so a range worker's base stream
    // matches the unsplit cell's and fork(i) lands on identical draws.
    Rng base = rng.split();
    if (hi <= lo)
        return 0;
    std::atomic<uint64_t> executed{0};
    obs::Span span("inject.range", "inject",
                   static_cast<int64_t>(hi - lo));
    forEachRun(model, base, lo, hi, opts,
               [&](uint64_t i, const RunRecord &rec, bool replayed) {
                   if (replayed)
                       return;
                   executed.fetch_add(1, std::memory_order_relaxed);
                   if (opts.onComplete)
                       opts.onComplete(i, rec);
               });
    return executed.load();
}

CampaignResult
InjectionCampaign::run(const ErrorModel &model, int runs, Rng &rng,
                       const RunOptions &opts) const
{
    Rng base = rng.split();
    size_t n = runs > 0 ? static_cast<size_t>(runs) : 0;
    std::vector<RunRecord> records(n);
    std::vector<uint8_t> done(n, 0);

    obs::Registry &reg = obs::Registry::global();
    obs::Counter mDeadline =
        reg.counter(obs::metric::kWatchdogDeadline, "",
                    "runs cut off by the per-run deadline");
    obs::Span campaignSpan("inject.campaign", "inject",
                           static_cast<int64_t>(n));
    auto executeRange = [&](uint64_t begin, uint64_t end) {
        forEachRun(model, base, begin, end, opts,
                   [&](uint64_t i, const RunRecord &rec, bool replayed) {
                       records[i] = rec;
                       done[i] = 1;
                       // A replayed cut-off counts as one too, as it
                       // would have had it run here.
                       if (replayed &&
                           rec.fault == ErrorCode::RunDeadline)
                           mDeadline.inc(1);
                       if (!replayed && opts.onComplete)
                           opts.onComplete(i, rec);
                   });
    };

    // Runs considered by the aggregation: all of them on the fixed
    // path, the executed prefix on the adaptive path.
    size_t executed = n;
    if (opts.ciTarget > 0.0 && n > 0) {
        // Adaptive stopping. The round loop only ever *truncates* the
        // fixed campaign: run i is executed exactly as the fixed path
        // would execute it, rounds are cut at barriers, and the
        // stop/continue decision is a pure function of the classified
        // counts — so results are bit-identical at every thread count
        // and a bit-exact prefix of the fixed-N campaign.
        stats::PlannerConfig pcfg;
        pcfg.ciTarget = opts.ciTarget;
        pcfg.ciConf = opts.ciConf;
        pcfg.maxPerStratum = n;
        pcfg.unit = 1;
        pcfg.initialRound = opts.initialRound ? opts.initialRound : 64;
        stats::AdaptivePlanner planner(pcfg, 1);
        uint64_t next = 0;
        bool cancelled = false;
        while (!planner.done() && next < n && !cancelled) {
            uint64_t end =
                std::min<uint64_t>(n, next + planner.planRound()[0]);
            executeRange(next, end);
            // Fold the round: EngineFaults carry no AVM evidence and
            // unfinished (cancelled) runs must not count at all.
            uint64_t events = 0, trials = 0;
            double wEvents = 0.0, wSum = 0.0, wSq = 0.0;
            double wEventsSq = 0.0;
            for (uint64_t i = next; i < end; ++i) {
                if (!done[i]) {
                    cancelled = true;
                    continue;
                }
                const RunRecord &rec = records[i];
                if (rec.outcome == Outcome::EngineFault)
                    continue;
                ++trials;
                double w = likelihoodWeight(rec.logWeight);
                wSum += w;
                wSq += w * w;
                if (rec.outcome != Outcome::Masked) {
                    ++events;
                    wEvents += w;
                    wEventsSq += w * w;
                }
            }
            // A reweighted proposal stops on the *weighted* interval
            // (the variance-matched self-normalized one); plain
            // campaigns keep the integer path bit-for-bit.
            if (model.weightedProposal())
                planner.recordWeighted(0, wEvents, wSum, wSq,
                                       wEventsSq, events, trials);
            else
                planner.record(0, events, trials);
            next = end;
        }
        executed = next;
        reg.counter(obs::metric::kStatsRounds, "",
                    "adaptive sampling rounds planned")
            .inc(planner.rounds());
        reg.counter(obs::metric::kStatsEarlyStops, "",
                    "strata stopped early by interval convergence")
            .inc(planner.earlyStops());
        reg.counter(obs::metric::kStatsAllocatedTrials, "",
                    "trials allocated by adaptive planners")
            .inc(planner.totalAllocated());
        reg.counter(obs::metric::kStatsTrialsSaved, "",
                    "trials avoided versus the fixed-size campaign")
            .inc(n > executed ? n - executed : 0);
    } else {
        executeRange(0, n);
    }

    CampaignResult out;
    out.workload = workload_.name;
    out.model = model.describe();
    out.weightedModel = model.weightedProposal();
    for (size_t i = 0; i < executed; ++i) {
        if (!done[i]) {
            out.interrupted = true;
            continue;
        }
        const RunRecord &rec = records[i];
        ++out.runs;
        out.retries += rec.attempts - 1;
        if (rec.outcome == Outcome::EngineFault) {
            // Infrastructure failure: excluded from AVM (weighted and
            // unweighted) and from the injection/commit accounting
            // (its counters are partial).
            ++out.engineFault;
            continue;
        }
        out.injectedErrors += rec.injected;
        out.committedInstructions += rec.committed;
        out.wrongPathInjections += rec.wrongPath;
        double w = likelihoodWeight(rec.logWeight);
        out.weightSum += w;
        out.weightSqSum += w * w;
        if (rec.outcome != Outcome::Masked) {
            out.weightUnsafe += w;
            out.weightUnsafeSqSum += w * w;
        }
        switch (rec.outcome) {
          case Outcome::Masked: ++out.masked; break;
          case Outcome::SDC: ++out.sdc; break;
          case Outcome::Crash: ++out.crash; break;
          case Outcome::Timeout: ++out.timeout; break;
          case Outcome::EngineFault: break; // handled above
        }
        switch (rec.mcClass) {
          case McClass::CoherenceMasked: ++out.mcCoherenceMasked; break;
          case McClass::SdcSameCore: ++out.mcSdcSameCore; break;
          case McClass::SdcCrossCore: ++out.mcSdcCrossCore; break;
          case McClass::SyncCrash: ++out.mcSyncCrash; break;
          case McClass::Deadlock: ++out.mcDeadlock; break;
          default: break; // refinements that add nothing to the base
        }
    }
    reg.counter(obs::metric::kInjectRuns, "",
                "classified injection runs (replayed or simulated)")
        .inc(out.runs);
    if (out.weightedModel) {
        reg.counter(obs::metric::kIsRuns, "",
                    "injection runs classified under a reweighted "
                    "(importance-sampling) proposal")
            .inc(out.classified());
        if (out.classified() > 0)
            reg.gauge(obs::metric::kIsEssRatio, "",
                      "effective-sample-size fraction ESS/n of the "
                      "last weighted campaign, in parts per million")
                .set(static_cast<int64_t>(
                    1e6 * out.ess() /
                    static_cast<double>(out.classified())));
    }
    reg.counter(obs::metric::kInjectRetries, "",
                "extra attempts spent containing faulted runs")
        .inc(out.retries);
    const char *help = "injection outcomes by classification";
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Masked\"", help)
        .inc(out.masked);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"SDC\"", help)
        .inc(out.sdc);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Crash\"", help)
        .inc(out.crash);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"Timeout\"", help)
        .inc(out.timeout);
    reg.counter(obs::metric::kInjectOutcomes, "outcome=\"EngineFault\"",
                help)
        .inc(out.engineFault);
    if (workload_.threaded) {
        const char *mcHelp =
            "multi-core outcome refinements by classification";
        reg.counter(obs::metric::kMcOutcomes,
                    "class=\"CoherenceMasked\"", mcHelp)
            .inc(out.mcCoherenceMasked);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SdcSameCore\"",
                    mcHelp)
            .inc(out.mcSdcSameCore);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SdcCrossCore\"",
                    mcHelp)
            .inc(out.mcSdcCrossCore);
        reg.counter(obs::metric::kMcOutcomes, "class=\"SyncCrash\"",
                    mcHelp)
            .inc(out.mcSyncCrash);
        reg.counter(obs::metric::kMcOutcomes, "class=\"Deadlock\"",
                    mcHelp)
            .inc(out.mcDeadlock);
    }
    return out;
}

} // namespace tea::inject
