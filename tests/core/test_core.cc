#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "core/energy.hh"
#include "core/results.hh"
#include "core/toolflow.hh"

using namespace tea;
using namespace tea::core;
using models::ModelKind;

namespace {

ToolflowOptions
tinyOptions()
{
    ToolflowOptions opt;
    opt.iaCountPerOp = 200;
    opt.waMaxOps = 500;
    opt.daSampleOps = 700;
    opt.runsPerCell = 2;
    opt.cacheDir = "/tmp/tea_test_cache";
    opt.vrLevels = {0.20};
    return opt;
}

} // namespace

TEST(Toolflow, OperatingPointsDeduplicated)
{
    Toolflow tf(tinyOptions());
    size_t p1 = tf.pointFor(0.20);
    size_t p2 = tf.pointFor(0.20);
    size_t p3 = tf.pointFor(0.15);
    EXPECT_EQ(p1, p2);
    EXPECT_NE(p1, p3);
}

TEST(Toolflow, CharacterizationsAreCached)
{
    std::filesystem::remove_all("/tmp/tea_test_cache");
    auto opt = tinyOptions();
    {
        Toolflow tf(opt);
        const auto &s = tf.iaStats(0.20);
        EXPECT_GT(s.totalOps(), 0u);
    }
    // Second toolflow loads from disk and matches.
    Toolflow tf2(opt);
    const auto &s2 = tf2.iaStats(0.20);
    EXPECT_EQ(s2.totalOps(), 200u * fpu::kNumFpuOps);
    EXPECT_TRUE(std::filesystem::exists("/tmp/tea_test_cache"));
}

TEST(Toolflow, DaRatioGrowsWithVoltageReduction)
{
    auto opt = tinyOptions();
    opt.vrLevels = {0.15, 0.20};
    Toolflow tf(opt);
    double er15 = tf.daErrorRatio(0.15);
    double er20 = tf.daErrorRatio(0.20);
    EXPECT_GE(er20, er15);
    EXPECT_GT(er20, 0.0); // some benchmark ops fail at VR20
    EXPECT_LT(er20, 0.5);
}

TEST(Toolflow, TraceAndCampaignPlumbing)
{
    Toolflow tf(tinyOptions());
    const auto &trace = tf.trace("sobel");
    EXPECT_GT(trace.size(), 1000u);
    auto &campaign = tf.campaign("sobel");
    EXPECT_GT(campaign.goldenCycles(), 0u);
    // Same objects on repeat lookups.
    EXPECT_EQ(&tf.campaign("sobel"), &campaign);
    EXPECT_EQ(&tf.trace("sobel"), &trace);
}

TEST(Energy, PowerSavingMonotone)
{
    EXPECT_GT(powerSavingAt(0.20), powerSavingAt(0.10));
    EXPECT_GT(powerSavingAt(0.10), 0.0);
    EXPECT_LT(powerSavingAt(0.20), 1.0);
}

TEST(Energy, GuidancePicksDeepestSafeVr)
{
    std::map<double, double> avm{{0.10, 0.0}, {0.15, 0.0}, {0.20, 0.3}};
    auto g = guideVoltage(avm);
    EXPECT_TRUE(g.found);
    EXPECT_DOUBLE_EQ(g.maxSafeVr, 0.15);
    EXPECT_GT(g.powerSaving, 0.0);

    std::map<double, double> none{{0.15, 0.5}, {0.20, 0.9}};
    auto g2 = guideVoltage(none);
    EXPECT_FALSE(g2.found);
    EXPECT_DOUBLE_EQ(g2.maxSafeVr, 0.0);
    EXPECT_DOUBLE_EQ(g2.powerSaving, 0.0);
}

TEST(Energy, GuidanceFoundFlagDisambiguatesVrZero)
{
    // VR = 0 (nominal voltage) is a legitimate safe answer — the old
    // `maxSafeVr > 0` convention conflated it with "nothing safe".
    std::map<double, double> onlyNominal{{0.0, 0.0}, {0.15, 0.4}};
    auto g = guideVoltage(onlyNominal);
    EXPECT_TRUE(g.found);
    EXPECT_DOUBLE_EQ(g.maxSafeVr, 0.0);
    EXPECT_DOUBLE_EQ(g.powerSaving, 0.0);

    auto g2 = guideVoltage(std::map<double, double>{});
    EXPECT_FALSE(g2.found);
}

TEST(Energy, GuidanceSkipsNaNLevels)
{
    // A cell with no classified runs has an unknown AVM (NaN); it must
    // never be mistaken for a proven-safe zero.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::map<double, double> avm{{0.10, 0.0}, {0.15, nan}};
    auto g = guideVoltage(avm);
    EXPECT_TRUE(g.found);
    EXPECT_DOUBLE_EQ(g.maxSafeVr, 0.10);

    std::map<double, double> allNan{{0.10, nan}, {0.15, nan}};
    EXPECT_FALSE(guideVoltage(allNan).found);
}

TEST(Energy, CiAwareGuidanceDemandsEvidence)
{
    // 0 corruptions out of 1000 runs clears a 5% bound (rule of three:
    // ~0.3%); 0 out of 10 does not (~26%). Deeper-but-weakly-tested
    // levels must not win on a hopeful point estimate of zero.
    std::map<double, AvmObservation> obs{
        {0.10, {0, 1000}}, {0.15, {0, 10}}, {0.20, {300, 1000}}};
    auto g = guideVoltage(obs, 0.05);
    EXPECT_TRUE(g.found);
    EXPECT_DOUBLE_EQ(g.maxSafeVr, 0.10);
    EXPECT_NEAR(g.avmUpperBound, 0.003, 0.001);
    EXPECT_GT(g.powerSaving, 0.0);

    // Levels with no classified runs never qualify.
    std::map<double, AvmObservation> empty{{0.10, {0, 0}}};
    EXPECT_FALSE(guideVoltage(empty, 0.05).found);

    // With events, the Clopper-Pearson upper limit drives the call:
    // 2/1000 unsafe -> upper bound ~0.7%, still safe at 5%.
    std::map<double, AvmObservation> few{{0.15, {2, 1000}}};
    auto g2 = guideVoltage(few, 0.05);
    EXPECT_TRUE(g2.found);
    EXPECT_DOUBLE_EQ(g2.maxSafeVr, 0.15);
    EXPECT_LT(g2.avmUpperBound, 0.05);
}

TEST(Energy, PreventionAnalysisShape)
{
    models::ProgramProfile profile;
    profile.totalInstructions = 100000;
    profile.fpOpCounts[static_cast<size_t>(fpu::FpuOp::MulD)] = 10000;

    timing::CampaignStats stats;
    stats.of(fpu::FpuOp::MulD).total = 100;
    stats.of(fpu::FpuOp::MulD).faulty = 10;
    stats.of(fpu::FpuOp::MulD).maskPool = {0xff};
    models::WaModel wa("x", stats);

    auto pa = analyzePrevention(profile, wa, 0.20, 0.10);
    EXPECT_DOUBLE_EQ(pa.stretchOverhead, 0.1); // 10% of instrs stretched
    EXPECT_GT(pa.energyFactor, 0.0);
    EXPECT_LT(pa.energyFactor, 1.0); // still saves energy overall
    EXPECT_GT(1.0 - pa.energyFactor, 0.10); // beats the guided saving
}

TEST(Results, GridSaveLoadRoundTrip)
{
    EvaluationGrid grid;
    CampaignCell cell;
    cell.workload = "sobel";
    cell.model = ModelKind::WA;
    cell.vrFrac = 0.2;
    cell.result.runs = 10;
    cell.result.masked = 7;
    cell.result.sdc = 2;
    cell.result.crash = 1;
    cell.result.injectedErrors = 42;
    cell.result.committedInstructions = 12345;
    grid.cells.push_back(cell);

    std::string path = "/tmp/tea_test_grid.csv";
    saveGrid(path, grid);
    auto loaded = loadGrid(path);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->cells.size(), 1u);
    const auto *r = loaded->find("sobel", ModelKind::WA, 0.2);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->runs, 10u);
    EXPECT_EQ(r->masked, 7u);
    EXPECT_EQ(r->injectedErrors, 42u);
    EXPECT_EQ(loaded->find("sobel", ModelKind::DA, 0.2), nullptr);
    std::remove(path.c_str());
}

TEST(Results, TinyGridRuns)
{
    std::filesystem::remove_all("/tmp/tea_test_cache2");
    auto opt = tinyOptions();
    opt.cacheDir = "/tmp/tea_test_cache2";
    Toolflow tf(opt);
    auto grid = runEvaluationGrid(tf);
    // 7 workloads x 3 models x 1 VR level.
    EXPECT_EQ(grid.cells.size(), 21u);
    for (const auto &cell : grid.cells)
        EXPECT_EQ(cell.result.runs, 2u);
    // Cached reload matches.
    auto grid2 = runEvaluationGrid(tf);
    EXPECT_EQ(grid2.cells.size(), grid.cells.size());
    std::filesystem::remove_all("/tmp/tea_test_cache2");
}

TEST(Results, GridCacheKeyCoversTheWorkloadList)
{
    // Two grids that differ only in their workloads must not share a
    // grid CSV: with the same seed, runs and scale, a {cg} grid run
    // after a {sobel} grid in the same cache dir returns cg cells.
    const std::string dir = "/tmp/tea_test_cache_gridkey";
    std::filesystem::remove_all(dir);
    auto opt = tinyOptions();
    opt.cacheDir = dir;
    Toolflow tf(opt);
    GridSpec sobel, cg;
    sobel.workloads = {"sobel"};
    cg.workloads = {"cg"};
    auto first = runEvaluationGrid(tf, sobel);
    ASSERT_EQ(first.cells.size(), 3u);
    EXPECT_EQ(first.cells[0].workload, "sobel");
    auto second = runEvaluationGrid(tf, cg);
    ASSERT_EQ(second.cells.size(), 3u);
    for (const auto &cell : second.cells)
        EXPECT_EQ(cell.workload, "cg");

    // VR levels and model sizes are part of the key too; the same
    // spec and options name the same file.
    EXPECT_EQ(gridCachePath(opt, sobel), gridCachePath(opt, sobel));
    EXPECT_NE(gridCachePath(opt, sobel), gridCachePath(opt, cg));
    for (int change = 0; change < 4; ++change) {
        auto other = opt;
        if (change == 0)
            other.vrLevels = {0.15};
        else if (change == 1)
            other.iaCountPerOp += 1;
        else if (change == 2)
            other.waMaxOps += 1;
        else
            other.daSampleOps += 1;
        EXPECT_NE(gridCachePath(other, sobel), gridCachePath(opt, sobel))
            << change;
    }
    // An empty workload list is the full grid, however it is spelled.
    GridSpec all, listed;
    listed.workloads = workloads::workloadNames();
    EXPECT_EQ(gridCachePath(opt, all), gridCachePath(opt, listed));
    std::filesystem::remove_all(dir);
}

TEST(Results, GridCsvKeepsEveryBitOfTheVrLevel)
{
    // The grid CSV writes VR levels as plans and CELL frames do
    // (%.17g), so a grid reloaded from it reports the vrFrac of a
    // fresh one, not a 6-digit rounding of it.
    const std::string dir = "/tmp/tea_test_cache_gridvr";
    std::filesystem::remove_all(dir);
    auto opt = tinyOptions();
    opt.cacheDir = dir;
    opt.vrLevels = {0.2000000000000001};
    Toolflow tf(opt);
    GridSpec sobel;
    sobel.workloads = {"sobel"};
    auto fresh = runEvaluationGrid(tf, sobel);
    auto cached = loadGrid(gridCachePath(opt, sobel));
    ASSERT_TRUE(cached.has_value());
    ASSERT_EQ(fresh.cells.size(), 3u);
    ASSERT_EQ(cached->cells.size(), fresh.cells.size());
    auto bits = [](double v) {
        uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        return b;
    };
    for (size_t i = 0; i < fresh.cells.size(); ++i) {
        EXPECT_EQ(bits(fresh.cells[i].vrFrac), bits(0.2000000000000001));
        EXPECT_EQ(bits(cached->cells[i].vrFrac),
                  bits(fresh.cells[i].vrFrac))
            << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(OptionsFromEnv, Defaults)
{
    unsetenv("REPRO_RUNS");
    unsetenv("REPRO_FULL");
    auto opt = optionsFromEnv();
    EXPECT_GT(opt.runsPerCell, 0);
    EXPECT_EQ(opt.vrLevels.size(), 2u);
}

TEST(OptionsFromEnv, Overrides)
{
    setenv("REPRO_RUNS", "123", 1);
    auto opt = optionsFromEnv();
    EXPECT_EQ(opt.runsPerCell, 123);
    unsetenv("REPRO_RUNS");
    setenv("REPRO_FULL", "1", 1);
    auto opt2 = optionsFromEnv();
    EXPECT_EQ(opt2.runsPerCell, inject::kStatisticalRuns);
    unsetenv("REPRO_FULL");
}
