#include <gtest/gtest.h>

#include <cstring>

#include "inject/campaign.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::inject;
using namespace tea::models;
using fpu::FpuOp;

namespace {

/** A tiny campaign fixture on the cheapest workload (sobel). */
InjectionCampaign &
campaign()
{
    static InjectionCampaign c(workloads::buildWorkload("sobel", 1));
    return c;
}

timing::CampaignStats
aggressiveStats()
{
    // A synthetic WA-style model with a high mul error rate and
    // destructive masks — drives non-masked outcomes even in few runs.
    timing::CampaignStats stats;
    auto &mul = stats.of(FpuOp::MulD);
    mul.total = 1000;
    mul.faulty = 100; // 10% of muls fail
    mul.maskPool = {0x7ff0000000000000ULL, 0x000fffff00000000ULL,
                    0x4010000000000000ULL};
    auto &div = stats.of(FpuOp::DivD);
    div.total = 1000;
    div.faulty = 50;
    div.maskPool = {0x7ff8000000000000ULL, 0x3ff0000000000000ULL};
    return stats;
}

/**
 * A reweighted proposal that never plans an event: every run it drives
 * is the golden run, yet carries a weight other than 1.
 */
class NoEventModel final : public ErrorModel
{
  public:
    static constexpr double kLogWeight = -0.8125;

    ModelKind kind() const override { return ModelKind::WA; }
    std::string describe() const override { return "no-event"; }
    std::vector<sim::InjectionEvent> plan(const ProgramProfile &,
                                          Rng &) const override
    {
        return {};
    }
    std::vector<sim::InjectionEvent>
    planWeighted(const ProgramProfile &profile, Rng &rng,
                 double &logWeight) const override
    {
        logWeight = kLogWeight;
        return plan(profile, rng);
    }
    bool weightedProposal() const override { return true; }
    double expectedErrors(const ProgramProfile &) const override
    {
        return 0.0;
    }
};

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Output symbols of a finished run, as the campaign compares them. */
std::vector<uint8_t>
outputsOf(const workloads::Workload &w, const sim::Memory &mem)
{
    std::vector<uint8_t> out;
    for (const auto &sym : w.outputSymbols) {
        auto block = mem.readBlock(w.program.symbol(sym),
                                   w.program.symbolSize(sym));
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

void
expectSameRecord(const InjectionCampaign::RunRecord &got,
                 const InjectionCampaign::RunRecord &want,
                 const std::string &what)
{
    EXPECT_EQ(got.outcome, want.outcome) << what;
    EXPECT_EQ(got.committed, want.committed) << what;
    EXPECT_EQ(got.injected, want.injected) << what;
    EXPECT_EQ(got.wrongPath, want.wrongPath) << what;
    EXPECT_EQ(bitsOf(got.logWeight), bitsOf(want.logWeight)) << what;
    EXPECT_EQ(got.mcClass, want.mcClass) << what;
}

} // namespace

TEST(InjectionCampaign, EmptyPlanRecordIsTheSimulatedRecord)
{
    // A run with no event gets the golden run's record without being
    // simulated. Simulating it with an empty plan (N empty plans on
    // McSim, where the golden run had none) must give the same record.
    obs::Counter shortcuts =
        obs::Registry::global().counter(obs::metric::kInjectShortcuts);
    NoEventModel model;
    uint64_t runs = 0;
    uint64_t before = shortcuts.value();

    for (const char *name : {"sobel", "cg", "k-means", "srad_v1",
                             "hotspot", "is", "mg"}) {
        workloads::Workload w = workloads::buildWorkload(name, 1);
        InjectionCampaign camp(w);
        sim::OooSim golden(w.program);
        golden.run(~0ULL);
        sim::OooSim sim(w.program, sim::OooConfig{},
                        sim::InjectionPlan{});
        auto res = sim.run(2 * camp.goldenCycles());
        ASSERT_EQ(res.status, sim::OooSim::Status::Halted) << name;
        ASSERT_EQ(outputsOf(w, sim.memory()),
                  outputsOf(w, golden.memory()))
            << name;
        InjectionCampaign::RunRecord want;
        want.outcome = Outcome::Masked;
        want.committed = res.committed;
        want.injected = res.injectionsApplied;
        want.wrongPath = res.injectionsOnWrongPath;
        want.logWeight = NoEventModel::kLogWeight;
        want.mcClass = McClass::None;

        Rng rng(5);
        expectSameRecord(camp.executeOne(model, rng), want, name);
        ++runs;
    }

    for (const char *name : {"k-means-mt", "hotspot-mt"}) {
        for (unsigned cores : {2u, 4u}) {
            std::string what =
                std::string(name) + " x" + std::to_string(cores);
            workloads::Workload w = workloads::buildWorkload(name, 1);
            mc::McConfig cfg;
            cfg.cores = cores;
            InjectionCampaign camp(w, sim::OooConfig{}, cfg);
            mc::McSim golden(w.program, cfg);
            golden.run(~0ULL);
            mc::McSim sim(w.program, cfg,
                          std::vector<sim::InjectionPlan>(cores));
            auto res = sim.run(2 * camp.goldenCycles());
            ASSERT_EQ(res.status, mc::McSim::Status::Halted) << what;
            ASSERT_EQ(outputsOf(w, sim.memory()),
                      outputsOf(w, golden.memory()))
                << what;
            InjectionCampaign::RunRecord want;
            want.outcome = Outcome::Masked;
            want.committed = res.committed;
            want.injected = res.injectionsApplied;
            want.wrongPath = res.injectionsOnWrongPath;
            // Per-core weights add: N cores, each planning nothing.
            want.logWeight = NoEventModel::kLogWeight * cores;
            want.mcClass = McClass::Masked;

            Rng rng(5);
            expectSameRecord(camp.executeOne(model, rng), want, what);
            ++runs;
        }
    }
    EXPECT_EQ(shortcuts.value() - before, runs);
}

TEST(InjectionCampaign, GoldenPreparation)
{
    auto &c = campaign();
    EXPECT_GT(c.goldenCycles(), 10000u);
    EXPECT_GT(c.goldenInstructions(), 10000u);
    EXPECT_GT(c.profile().instructionsWithDest, 0u);
    EXPECT_GT(c.profile().fpOpCounts[static_cast<size_t>(FpuOp::MulD)],
              100u);
}

TEST(InjectionCampaign, ZeroErrorModelIsAllMasked)
{
    // A WA model characterized with no observed errors injects nothing.
    timing::CampaignStats empty;
    WaModel model("none", empty);
    Rng rng(1);
    auto result = campaign().run(model, 5, rng);
    EXPECT_EQ(result.masked, 5u);
    EXPECT_EQ(result.injectedErrors, 0u);
    EXPECT_EQ(result.avm(), 0.0);
}

TEST(InjectionCampaign, AggressiveModelProducesCorruption)
{
    WaModel model("hot", aggressiveStats());
    Rng rng(2);
    auto result = campaign().run(model, 10, rng);
    EXPECT_EQ(result.runs, 10u);
    EXPECT_GT(result.injectedErrors, 100u);
    // With thousands of corrupted muls something must go visibly wrong.
    EXPECT_GT(result.sdc + result.crash + result.timeout, 0u);
    EXPECT_GT(result.avm(), 0.0);
    EXPECT_GT(result.errorRatio(), 1e-4);
}

TEST(InjectionCampaign, DaModelInjectsAtItsRate)
{
    DaModel model(1e-3);
    Rng rng(3);
    auto result = campaign().run(model, 5, rng);
    // Runs that crash early stop applying events, so the applied count
    // per run is bounded by the plan but may fall below it.
    double perRun = static_cast<double>(result.injectedErrors) /
                    static_cast<double>(result.runs);
    double expected = model.expectedErrors(campaign().profile());
    EXPECT_GT(perRun, 0.0);
    EXPECT_LE(perRun, 1.2 * expected);
    // 25 random bit flips per run all over the machine: DA-model paints
    // a grim picture (the paper's point — it is wildly pessimistic).
    EXPECT_GT(result.avm(), 0.5);
}

TEST(InjectionCampaign, OutcomesAreDeterministicGivenSeed)
{
    WaModel model("hot", aggressiveStats());
    Rng rng1(7), rng2(7);
    auto o1 = campaign().runOne(model, rng1);
    auto o2 = campaign().runOne(model, rng2);
    EXPECT_EQ(o1, o2);
}

TEST(InjectionCampaign, ResultAccounting)
{
    CampaignResult r;
    r.runs = 10;
    r.masked = 4;
    r.sdc = 3;
    r.crash = 2;
    r.timeout = 1;
    r.injectedErrors = 50;
    r.committedInstructions = 100000;
    EXPECT_DOUBLE_EQ(r.avm(), 0.6);
    EXPECT_DOUBLE_EQ(r.fraction(Outcome::Masked), 0.4);
    EXPECT_DOUBLE_EQ(r.fraction(Outcome::SDC), 0.3);
    EXPECT_DOUBLE_EQ(r.errorRatio(), 5e-4);
}

TEST(InjectionCampaign, OutcomeNames)
{
    EXPECT_STREQ(outcomeName(Outcome::Masked), "Masked");
    EXPECT_STREQ(outcomeName(Outcome::SDC), "SDC");
    EXPECT_STREQ(outcomeName(Outcome::Crash), "Crash");
    EXPECT_STREQ(outcomeName(Outcome::Timeout), "Timeout");
}
