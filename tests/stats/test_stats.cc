/**
 * @file
 * The sequential-estimation contract: known-answer tests for the
 * binomial interval estimators, Estimator stop rules, AdaptivePlanner
 * determinism and Neyman allocation, and — the part the REPRO_CI_*
 * knobs depend on — bit-identical adaptive DTA / injection campaigns
 * at every thread and lane count, with adaptive results a bit-exact
 * prefix of their fixed-N counterparts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "circuit/celllib.hh"
#include "inject/campaign.hh"
#include "stats/estimator.hh"
#include "stats/intervals.hh"
#include "stats/planner.hh"
#include "timing/dta_campaign.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::stats;
using fpu::FpuOp;

// ---------------------------------------------------------------------
// Interval known-answer tests
// ---------------------------------------------------------------------

TEST(Intervals, NormalQuantileKat)
{
    // Acklam's approximation is good to ~1e-9 relative error.
    EXPECT_NEAR(normalQuantile(0.975), 1.959964, 1e-6);
    EXPECT_NEAR(normalQuantile(0.995), 2.575829, 1e-6);
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.025), -normalQuantile(0.975), 1e-9);
    // Tail branch.
    EXPECT_NEAR(normalQuantile(0.001), -3.090232, 1e-5);
}

TEST(Intervals, WilsonKat)
{
    // Textbook value: 5 events in 50 trials at 95%.
    auto iv = wilson(5, 50, 0.95);
    EXPECT_NEAR(iv.lo, 0.0434, 1e-3);
    EXPECT_NEAR(iv.hi, 0.2136, 1e-3);
    EXPECT_TRUE(iv.contains(5.0 / 50.0));

    // Vacuous before any trials; degenerate edges clamp into [0, 1].
    auto v = wilson(0, 0, 0.95);
    EXPECT_DOUBLE_EQ(v.lo, 0.0);
    EXPECT_DOUBLE_EQ(v.hi, 1.0);
    EXPECT_DOUBLE_EQ(wilson(0, 100, 0.95).lo, 0.0);
    EXPECT_DOUBLE_EQ(wilson(100, 100, 0.95).hi, 1.0);

    // Width shrinks like 1/sqrt(n).
    EXPECT_LT(wilson(50, 500, 0.95).halfWidth(),
              wilson(5, 50, 0.95).halfWidth());
}

TEST(Intervals, ClopperPearsonKat)
{
    // Textbook value: 1 event in 10 trials at 95%.
    auto iv = clopperPearson(1, 10, 0.95);
    EXPECT_NEAR(iv.lo, 0.00253, 1e-4);
    EXPECT_NEAR(iv.hi, 0.44502, 1e-4);

    // Zero-event upper limit has a closed form: 1 - (alpha/2)^(1/n).
    auto z = clopperPearson(0, 100, 0.95);
    EXPECT_DOUBLE_EQ(z.lo, 0.0);
    EXPECT_NEAR(z.hi, 1.0 - std::pow(0.025, 0.01), 1e-12);
    // ... and the all-event lower limit mirrors it.
    auto f = clopperPearson(100, 100, 0.95);
    EXPECT_NEAR(f.lo, std::pow(0.025, 0.01), 1e-12);
    EXPECT_DOUBLE_EQ(f.hi, 1.0);

    // Exact coverage costs width: CP is never tighter than Wilson.
    EXPECT_GE(clopperPearson(5, 50, 0.95).halfWidth(),
              wilson(5, 50, 0.95).halfWidth());
}

TEST(Intervals, IncompleteBetaIdentities)
{
    // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
    EXPECT_NEAR(incompleteBeta(2.0, 2.0, 0.5), 0.5, 1e-12);
    EXPECT_NEAR(incompleteBeta(3.0, 7.0, 0.3) +
                    incompleteBeta(7.0, 3.0, 0.7),
                1.0, 1e-12);
    // I_x(1, b) = 1 - (1-x)^b in closed form.
    EXPECT_NEAR(incompleteBeta(1.0, 5.0, 0.2),
                1.0 - std::pow(0.8, 5.0), 1e-12);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(Intervals, RuleOfThree)
{
    // Exact zero-event bound, and the 3/n folklore it rounds to.
    EXPECT_NEAR(ruleOfThreeUpper(100, 0.95), 0.029513, 1e-6);
    EXPECT_NEAR(ruleOfThreeUpper(1000, 0.95), 3.0 / 1000.0, 2e-4);
    EXPECT_DOUBLE_EQ(ruleOfThreeUpper(0, 0.95), 1.0);
    // Matches Clopper-Pearson's one-sided zero-event bound at
    // confidence 1 - alpha when CP runs two-sided at 1 - 2*alpha.
    EXPECT_NEAR(ruleOfThreeUpper(50, 0.975),
                clopperPearson(0, 50, 0.95).hi, 1e-12);
}

TEST(Intervals, UpperBoundRouting)
{
    // k == 0 takes the exact rule-of-three path...
    EXPECT_DOUBLE_EQ(upperBound(0, 200, 0.95),
                     ruleOfThreeUpper(200, 0.95));
    // ... anything else the Clopper-Pearson upper limit.
    EXPECT_DOUBLE_EQ(upperBound(3, 200, 0.95),
                     clopperPearson(3, 200, 0.95).hi);
    EXPECT_DOUBLE_EQ(upperBound(0, 0, 0.95), 1.0);
}

TEST(Intervals, WorstCaseTrials)
{
    // The paper's choice: 1068 runs for 3% margin at 95% confidence
    // (Leveugle et al.).
    EXPECT_EQ(worstCaseTrials(0.03, 0.95), 1068u);
    EXPECT_EQ(worstCaseTrials(0.01, 0.95), 9604u);
    EXPECT_LT(worstCaseTrials(0.05, 0.95), worstCaseTrials(0.01, 0.95));
}

// ---------------------------------------------------------------------
// Sequential estimator
// ---------------------------------------------------------------------

TEST(Estimator, StartsVacuousAndAccumulates)
{
    Estimator e(0.01, 0.95);
    EXPECT_DOUBLE_EQ(e.interval().lo, 0.0);
    EXPECT_DOUBLE_EQ(e.interval().hi, 1.0);
    EXPECT_FALSE(e.converged());
    // Zero trials is "no data", not "rate zero": mean() is NaN so a
    // caller averaging or thresholding it cannot mistake an
    // unmeasured stratum for a perfectly safe one.
    EXPECT_FALSE(e.hasData());
    EXPECT_TRUE(std::isnan(e.mean()));

    e.add(3, 10);
    e.add(2, 10);
    EXPECT_TRUE(e.hasData());
    EXPECT_EQ(e.events(), 5u);
    EXPECT_EQ(e.trials(), 20u);
    EXPECT_DOUBLE_EQ(e.mean(), 0.25);
}

TEST(Estimator, ZeroEventStopRequiresRuleOfThreeBound)
{
    // Property: a zero-event estimator may only report convergence
    // when the exact zero-event upper bound itself is below target —
    // the Wilson half-width alone can look "tight" around 0 while the
    // plausible upper limit still exceeds the safety threshold.
    for (double target : {0.02, 0.01, 0.005, 0.001}) {
        for (uint64_t n : {10ull, 50ull, 100ull, 300ull, 1000ull,
                           5000ull, 20000ull}) {
            Estimator e(target, 0.95);
            e.add(0, n);
            if (e.converged()) {
                EXPECT_LE(ruleOfThreeUpperReal(
                              static_cast<double>(n), 0.95),
                          target)
                    << "n=" << n << " target=" << target;
            }
        }
    }
    // Concrete regression: 100 zero-event trials have Wilson
    // half-width ~0.018 < 0.02, but the 95% upper bound is ~0.0295 —
    // stopping there would certify an unsafe voltage level.
    Estimator e(0.02, 0.95);
    e.add(0, 100);
    EXPECT_LE(e.interval().halfWidth(), 0.02);
    EXPECT_FALSE(e.converged());
    // With one event the rule no longer applies (Wilson covers it).
    Estimator e1(0.2, 0.95);
    e1.add(1, 100);
    EXPECT_TRUE(e1.converged());
}

// ---------------------------------------------------------------------
// Weighted (importance-sampled) estimation
// ---------------------------------------------------------------------

TEST(WeightedEstimator, UnitWeightsMatchUnweightedBitExactly)
{
    // addWeighted with every weight 1.0 must reproduce the unweighted
    // estimator bit for bit: effective counts k*n/n and n*n/n are
    // exact in IEEE-754 for campaign-scale n, so the intervals and
    // stop decisions cannot drift between the two paths.
    for (auto [k, n] : std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 50}, {3, 97}, {50, 100}, {999, 1000}, {0, 4000}}) {
        Estimator plain(0.01, 0.95), weighted(0.01, 0.95);
        plain.add(k, n);
        weighted.addWeighted(static_cast<double>(k),
                             static_cast<double>(n),
                             static_cast<double>(n),
                             static_cast<double>(k), k, n);
        EXPECT_EQ(plain.hasData(), weighted.hasData());
        EXPECT_DOUBLE_EQ(plain.effEvents(), weighted.effEvents());
        EXPECT_DOUBLE_EQ(plain.effTrials(), weighted.effTrials());
        EXPECT_DOUBLE_EQ(plain.mean(), weighted.mean());
        EXPECT_DOUBLE_EQ(plain.interval().lo, weighted.interval().lo);
        EXPECT_DOUBLE_EQ(plain.interval().hi, weighted.interval().hi);
        EXPECT_EQ(plain.converged(), weighted.converged());
    }
}

TEST(WeightedEstimator, EffectiveCountsShrinkWithWeightVariance)
{
    // Equal weights: ESS = n. Wildly unequal weights: ESS collapses
    // toward 1 — and the interval must widen accordingly.
    Estimator even(0.01, 0.95), skewed(0.01, 0.95);
    even.addWeighted(10.0, 100.0, 100.0, 10.0, 10, 100);
    EXPECT_DOUBLE_EQ(even.effTrials(), 100.0);
    // 99 runs of weight ~0 plus one of weight 100.
    skewed.addWeighted(100.0, 100.0 + 99 * 1e-6,
                       10000.0 + 99 * 1e-12, 10000.0, 1, 100);
    EXPECT_LT(skewed.effTrials(), 2.0);
    EXPECT_GT(skewed.interval().halfWidth(),
              even.interval().halfWidth());
}

TEST(WeightedEstimator, ConcentratedEventsTightenTheInterval)
{
    // The payoff case for importance sampling: a proposal that makes
    // events common but down-weighted. 200 of 1000 runs are events at
    // weight 0.1 each; the rest carry weight 1.225 so E[w] = 1. The
    // variance-matched interval must beat the plain-MC interval at the
    // same mean (20 events in 1000 unit-weight runs) — the Kish-ESS
    // interval never could, since ESS <= n.
    Estimator weighted(0.001, 0.95), plain(0.001, 0.95);
    double wEvents = 200 * 0.1;           // 20
    double wNon = (1000.0 - wEvents) / 800.0;
    double wSq = 200 * 0.01 + 800 * wNon * wNon;
    weighted.addWeighted(wEvents, 1000.0, wSq, 200 * 0.01, 200, 1000);
    plain.add(20, 1000);
    EXPECT_DOUBLE_EQ(weighted.mean(), plain.mean());
    EXPECT_LT(weighted.interval().halfWidth(),
              plain.interval().halfWidth());
}

TEST(WeightedEstimator, ExtremeLikelihoodRatiosStayFinite)
{
    // Log-weights beyond exp()'s range are clamped, never inf/NaN,
    // and a NaN log-weight degrades to weight 1 (the safe identity).
    EXPECT_TRUE(std::isfinite(inject::likelihoodWeight(1e6)));
    EXPECT_TRUE(std::isfinite(inject::likelihoodWeight(-1e6)));
    EXPECT_GT(inject::likelihoodWeight(1e6), 0.0);
    EXPECT_GT(inject::likelihoodWeight(-1e6), 0.0);
    EXPECT_DOUBLE_EQ(inject::likelihoodWeight(0.0), 1.0);
    EXPECT_DOUBLE_EQ(
        inject::likelihoodWeight(
            std::numeric_limits<double>::quiet_NaN()),
        1.0);

    // Accumulating such weights keeps every estimator output finite.
    Estimator e(0.01, 0.95);
    double w = inject::likelihoodWeight(750.0);
    e.addWeighted(w, w + 99.0, w * w + 99.0, w * w, 1, 100);
    EXPECT_TRUE(std::isfinite(e.mean()));
    EXPECT_TRUE(std::isfinite(e.interval().lo));
    EXPECT_TRUE(std::isfinite(e.interval().hi));
    EXPECT_GE(e.interval().lo, 0.0);
    EXPECT_LE(e.interval().hi, 1.0);
}

TEST(WeightedEstimator, WeightedCampaignResultAccessors)
{
    // avmWeighted is the self-normalized estimate; ESS is Kish's
    // formula; EngineFault runs contribute to none of the sums (the
    // campaign aggregation skips them before the weighted fold).
    inject::CampaignResult r;
    r.weightedModel = true;
    r.runs = 4;
    r.sdc = 1;
    r.masked = 2;
    r.engineFault = 1;
    r.weightSum = 0.5 + 2.0 + 1.0;
    r.weightUnsafe = 0.5;
    r.weightSqSum = 0.25 + 4.0 + 1.0;
    r.weightUnsafeSqSum = 0.25;
    EXPECT_DOUBLE_EQ(r.avmWeighted(), 0.5 / 3.5);
    EXPECT_DOUBLE_EQ(r.ess(), 3.5 * 3.5 / 5.25);
    auto iv = r.avmWeightedInterval(0.95);
    EXPECT_TRUE(iv.contains(r.avmWeighted()));

    inject::CampaignResult empty;
    empty.weightedModel = true;
    EXPECT_TRUE(std::isnan(empty.avmWeighted()));
    EXPECT_DOUBLE_EQ(empty.ess(), 0.0);
}

TEST(Estimator, ConvergesOnTightInterval)
{
    // Zero events over 2000 trials: Wilson half-width ~ 1e-3 << 0.01.
    Estimator e(0.01, 0.95);
    e.add(0, 2000);
    EXPECT_TRUE(e.converged());
    EXPECT_LE(e.interval().halfWidth(), 0.01);

    // p near 0.5 needs the worst-case count; 100 trials are not it.
    Estimator worst(0.01, 0.95);
    worst.add(50, 100);
    EXPECT_FALSE(worst.converged());
    EXPECT_TRUE(worst.shouldStop(100)); // ... but the cap stops it
    EXPECT_FALSE(worst.shouldStop(101));
}

// ---------------------------------------------------------------------
// Adaptive planner
// ---------------------------------------------------------------------

namespace {

PlannerConfig
testConfig()
{
    PlannerConfig cfg;
    cfg.ciTarget = 0.01;
    cfg.ciConf = 0.95;
    cfg.maxPerStratum = 4096;
    cfg.initialRound = 128;
    cfg.unit = 1;
    return cfg;
}

} // namespace

TEST(AdaptivePlanner, AllocationsAreDeterministic)
{
    // Two planners fed the same counts plan identical rounds — the
    // property every campaign determinism claim rests on.
    AdaptivePlanner p1(testConfig(), 4), p2(testConfig(), 4);
    for (int round = 0; round < 12 && !p1.done(); ++round) {
        auto a1 = p1.planRound();
        auto a2 = p2.planRound();
        ASSERT_EQ(a1, a2);
        for (size_t s = 0; s < a1.size(); ++s) {
            // A deterministic pseudo-outcome: stratum s sees rate s/8.
            uint64_t events = a1[s] * s / 8;
            p1.record(s, events, a1[s]);
            p2.record(s, events, a1[s]);
        }
    }
    EXPECT_EQ(p1.totalAllocated(), p2.totalAllocated());
    EXPECT_EQ(p1.rounds(), p2.rounds());
}

TEST(AdaptivePlanner, RespectsUnitGranularityAndFloor)
{
    auto cfg = testConfig();
    cfg.unit = 512;
    cfg.initialRound = 512 * 6;
    cfg.maxPerStratum = 512 * 7 + 100; // deliberately not a multiple
    AdaptivePlanner p(cfg, 3);
    auto alloc = p.planRound();
    for (size_t s = 0; s < 3; ++s) {
        EXPECT_GE(alloc[s], 512u); // every active stratum samples
        // Unit multiples, except where the cap clips the last shard.
        EXPECT_TRUE(alloc[s] % 512 == 0 ||
                    alloc[s] == cfg.maxPerStratum)
            << alloc[s];
    }
}

TEST(AdaptivePlanner, NeymanFavoursHighVarianceStrata)
{
    auto cfg = testConfig();
    cfg.ciTarget = 0.001; // keep both strata unconverged
    AdaptivePlanner p(cfg, 2);
    p.record(0, 500, 1000); // p ~ 0.5: maximum binomial variance
    p.record(1, 1, 1000);   // p ~ 0.001: nearly pinned
    auto alloc = p.planRound();
    EXPECT_GT(alloc[0], alloc[1]);
    EXPECT_GE(alloc[1], 1u); // never starved outright
}

TEST(AdaptivePlanner, ConvergedStrataStopCosting)
{
    AdaptivePlanner p(testConfig(), 2);
    p.record(0, 0, 4000); // converged (tight zero-event interval)
    p.record(1, 10, 20);
    EXPECT_FALSE(p.done());
    auto alloc = p.planRound();
    EXPECT_EQ(alloc[0], 0u);
    EXPECT_GT(alloc[1], 0u);
    EXPECT_EQ(p.earlyStops(), 1u);
}

TEST(AdaptivePlanner, TerminatesAtCapAndCountsTotals)
{
    auto cfg = testConfig();
    cfg.ciTarget = 0.0001; // unreachably tight: cap must terminate
    cfg.maxPerStratum = 1000;
    AdaptivePlanner p(cfg, 3);
    int guard = 0;
    while (!p.done()) {
        ASSERT_LT(guard++, 50);
        auto alloc = p.planRound();
        uint64_t any = 0;
        for (size_t s = 0; s < alloc.size(); ++s) {
            p.record(s, alloc[s] / 2, alloc[s]);
            any += alloc[s];
        }
        ASSERT_GT(any, 0u); // never plans an all-zero "round"
    }
    EXPECT_EQ(p.totalRecorded(), 3u * 1000u);
    EXPECT_EQ(p.totalAllocated(), p.totalRecorded());
    EXPECT_EQ(p.earlyStops(), 0u);
    // Once done, further rounds are empty.
    auto alloc = p.planRound();
    for (uint64_t a : alloc)
        EXPECT_EQ(a, 0u);
}

// ---------------------------------------------------------------------
// Adaptive DTA campaigns
// ---------------------------------------------------------------------

namespace {

fpu::FpuCore &
core()
{
    static fpu::FpuCore c;
    return c;
}

size_t
vr20Point()
{
    static size_t p = core().addOperatingPoint(
        circuit::VoltageModel{}.delayFactorAtReduction(circuit::kVR20));
    return p;
}

size_t
nominalPoint()
{
    static size_t p = core().addOperatingPoint(1.0);
    return p;
}

void
expectSameStats(const timing::CampaignStats &a,
                const timing::CampaignStats &b)
{
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &sa = a.perOp[o];
        const auto &sb = b.perOp[o];
        EXPECT_EQ(sa.total, sb.total)
            << fpu::fpuOpName(static_cast<FpuOp>(o));
        EXPECT_EQ(sa.faulty, sb.faulty)
            << fpu::fpuOpName(static_cast<FpuOp>(o));
        for (unsigned bit = 0; bit < 64; ++bit)
            EXPECT_EQ(sa.bitErrors[bit], sb.bitErrors[bit]);
        EXPECT_EQ(sa.maskPool, sb.maskPool);
    }
}

} // namespace

TEST(AdaptiveDta, RandomCampaignBitIdenticalAcrossThreadsAndLanes)
{
    PlannerConfig cfg;
    cfg.ciTarget = 0.02;
    cfg.ciConf = 0.95;
    cfg.maxPerStratum = 2048;

    timing::CampaignStats ref;
    bool first = true;
    for (unsigned threads : {1u, 3u}) {
        for (unsigned lanes : {1u, 64u, 512u}) {
            ThreadPool pool(threads);
            Rng rng(42);
            auto s = timing::runAdaptiveRandomCampaign(
                core(), vr20Point(), cfg, rng, &pool, nullptr, lanes);
            if (first) {
                ref = std::move(s);
                first = false;
            } else {
                expectSameStats(ref, s);
            }
        }
    }
    EXPECT_GT(ref.totalOps(), 0u);
    EXPECT_EQ(ref.engineFaults, 0u);
}

TEST(AdaptiveDta, RandomCampaignStopsFarBelowWorstCase)
{
    // At VR20 most op types are error-free or nearly so; their
    // intervals converge after a shard or two, far below the fixed-N
    // worst-case budget worstCaseTrials(0.03) = 1068 per type.
    PlannerConfig cfg;
    cfg.ciTarget = 0.03;
    cfg.ciConf = 0.95;
    cfg.maxPerStratum = worstCaseTrials(0.03, 0.95);
    ThreadPool pool(2);
    Rng rng(7);
    auto s = timing::runAdaptiveRandomCampaign(core(), vr20Point(),
                                               cfg, rng, &pool);
    uint64_t fixedBudget = fpu::kNumFpuOps * cfg.maxPerStratum;
    EXPECT_GT(s.totalOps(), 0u);
    EXPECT_LT(s.totalOps(), fixedBudget / 2);
    // Every stratum either converged or hit its cap.
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &os = s.perOp[o];
        EXPECT_TRUE(os.errorInterval(0.95).halfWidth() <= 0.03 ||
                    os.total >= cfg.maxPerStratum)
            << fpu::fpuOpName(static_cast<FpuOp>(o));
    }
}

TEST(AdaptiveDta, TraceCampaignMatchesFixedWhenTargetUnreachable)
{
    // An unreachably tight target makes the adaptive trace campaign
    // consume the whole fixed-N window list — and because windows keep
    // their fixed-N keys, the result is bit-identical to fixed-N.
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(6);
    for (int i = 0; i < 4000; ++i) {
        uint64_t a, b;
        timing::randomOperands(FpuOp::AddD, rng, a, b);
        trace.push_back({FpuOp::AddD, a, b});
    }
    auto fixed =
        timing::runTraceCampaign(core(), nominalPoint(), trace, 2000);

    PlannerConfig cfg;
    cfg.ciTarget = 1e-4; // nominal is error-free; 2000 ops can't reach
    cfg.ciConf = 0.95;
    ThreadPool pool(2);
    auto adaptive = timing::runAdaptiveTraceCampaign(
        core(), nominalPoint(), trace, 2000, cfg, &pool);
    expectSameStats(fixed, adaptive);
}

TEST(AdaptiveDta, TraceCampaignConsumesPrefixOnLooseTarget)
{
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(8);
    for (int i = 0; i < 4000; ++i) {
        uint64_t a, b;
        timing::randomOperands(FpuOp::AddD, rng, a, b);
        trace.push_back({FpuOp::AddD, a, b});
    }
    PlannerConfig cfg;
    cfg.ciTarget = 0.05; // zero-event interval tightens fast
    cfg.ciConf = 0.95;
    auto adaptive = timing::runAdaptiveTraceCampaign(
        core(), nominalPoint(), trace, 2000, cfg);
    auto fixed =
        timing::runTraceCampaign(core(), nominalPoint(), trace, 2000);
    EXPECT_GT(adaptive.totalOps(), 0u);
    EXPECT_LT(adaptive.totalOps(), fixed.totalOps());
    EXPECT_LE(adaptive.errorInterval(0.95).halfWidth(), 0.05);
}

// ---------------------------------------------------------------------
// Adaptive injection campaigns
// ---------------------------------------------------------------------

namespace {

inject::InjectionCampaign &
sobel()
{
    static inject::InjectionCampaign c(
        workloads::buildWorkload("sobel", 1));
    return c;
}

timing::CampaignStats
aggressiveStats()
{
    timing::CampaignStats stats;
    auto &mul = stats.of(FpuOp::MulD);
    mul.total = 1000;
    mul.faulty = 100;
    mul.maskPool = {0x7ff0000000000000ULL, 0x000fffff00000000ULL,
                    0x4010000000000000ULL};
    auto &div = stats.of(FpuOp::DivD);
    div.total = 1000;
    div.faulty = 50;
    div.maskPool = {0x7ff8000000000000ULL, 0x3ff0000000000000ULL};
    return stats;
}

void
expectSameResult(const inject::CampaignResult &a,
                 const inject::CampaignResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.crash, b.crash);
    EXPECT_EQ(a.timeout, b.timeout);
    EXPECT_EQ(a.engineFault, b.engineFault);
    EXPECT_EQ(a.injectedErrors, b.injectedErrors);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
}

} // namespace

TEST(AdaptiveInjection, StopsEarlyAndIsThreadCountInvariant)
{
    models::WaModel model("hot", aggressiveStats());
    inject::InjectionCampaign::RunOptions opts;
    opts.ciTarget = 0.2; // loose: converges well before the cap
    opts.ciConf = 0.95;
    opts.initialRound = 16;

    inject::CampaignResult res[2];
    unsigned threads[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        ThreadPool pool(threads[i]);
        opts.pool = &pool;
        Rng rng(9);
        res[i] = sobel().run(model, 64, rng, opts);
    }
    expectSameResult(res[0], res[1]);
    EXPECT_GE(res[0].runs, 16u);
    EXPECT_LT(res[0].runs, 64u);
    EXPECT_LE(res[0].avmInterval(0.95).halfWidth(), 0.2);
}

TEST(AdaptiveInjection, AdaptiveResultIsPrefixOfFixedCampaign)
{
    // Run i draws from rng.fork(i) in both modes, so an adaptive
    // campaign that stopped after N runs is bit-identical to a fixed
    // campaign of exactly N runs.
    models::WaModel model("hot", aggressiveStats());
    inject::InjectionCampaign::RunOptions opts;
    opts.ciTarget = 0.2;
    opts.initialRound = 16;
    Rng rng(9);
    auto adaptive = sobel().run(model, 64, rng, opts);

    Rng rng2(9);
    auto fixed = sobel().run(
        model, static_cast<int>(adaptive.runs), rng2,
        inject::InjectionCampaign::RunOptions{});
    expectSameResult(adaptive, fixed);
}

TEST(AdaptiveInjection, IntervalAccessorsMatchWilson)
{
    inject::CampaignResult r;
    r.runs = 100;
    r.masked = 90;
    r.sdc = 10;
    auto iv = r.avmInterval(0.95);
    auto ref = wilson(10, 100, 0.95);
    EXPECT_DOUBLE_EQ(iv.lo, ref.lo);
    EXPECT_DOUBLE_EQ(iv.hi, ref.hi);
    auto fm = r.fractionInterval(inject::Outcome::Masked, 0.95);
    auto refm = wilson(90, 100, 0.95);
    EXPECT_DOUBLE_EQ(fm.lo, refm.lo);
    EXPECT_DOUBLE_EQ(fm.hi, refm.hi);
}

TEST(AdaptiveInjection, UnclassifiedResultsAreNaNNotZero)
{
    inject::CampaignResult r;
    r.runs = 3;
    r.engineFault = 3;
    EXPECT_TRUE(std::isnan(r.avm()));
    EXPECT_TRUE(std::isnan(r.fraction(inject::Outcome::Masked)));
    EXPECT_DOUBLE_EQ(r.fraction(inject::Outcome::EngineFault), 1.0);
    // Vacuous interval when nothing was classified.
    auto iv = r.avmInterval(0.95);
    EXPECT_DOUBLE_EQ(iv.lo, 0.0);
    EXPECT_DOUBLE_EQ(iv.hi, 1.0);

    inject::CampaignResult empty;
    EXPECT_TRUE(
        std::isnan(empty.fraction(inject::Outcome::EngineFault)));
}
