#include <gtest/gtest.h>

#include <cstdio>

#include "isa/asmbuilder.hh"
#include "models/error_models.hh"

using namespace tea;
using namespace tea::models;
using fpu::FpuOp;
using sim::InjectionEvent;

namespace {

ProgramProfile
sampleProfile()
{
    ProgramProfile p;
    p.totalInstructions = 100000;
    p.instructionsWithDest = 70000;
    p.fpOpCounts[static_cast<size_t>(FpuOp::MulD)] = 10000;
    p.fpOpCounts[static_cast<size_t>(FpuOp::AddD)] = 8000;
    p.fpOpCounts[static_cast<size_t>(FpuOp::DivD)] = 500;
    return p;
}

timing::CampaignStats
sampleStats()
{
    timing::CampaignStats stats;
    auto &mul = stats.of(FpuOp::MulD);
    mul.total = 10000;
    mul.faulty = 100;
    for (int i = 0; i < 100; ++i)
        mul.maskPool.push_back(0xff00ULL << (i % 4));
    for (unsigned b = 8; b < 20; ++b)
        mul.bitErrors[b] = 50;
    auto &div = stats.of(FpuOp::DivD);
    div.total = 10000;
    div.faulty = 10;
    for (int i = 0; i < 10; ++i)
        div.maskPool.push_back(0x7ULL << i);
    return stats;
}

} // namespace

TEST(DaModel, PlansExpectedCount)
{
    DaModel model(1e-3);
    auto profile = sampleProfile();
    Rng rng(1);
    auto events = model.plan(profile, rng);
    EXPECT_EQ(events.size(), 100u); // ceil(1e5 * 1e-3)
    for (const auto &ev : events) {
        EXPECT_EQ(ev.kind, InjectionEvent::Kind::AnyDest);
        EXPECT_LT(ev.index, profile.instructionsWithDest);
        EXPECT_EQ(__builtin_popcountll(ev.mask), 1); // single bit
    }
}

TEST(DaModel, UniformBitPositions)
{
    DaModel model(1e-2);
    auto profile = sampleProfile();
    Rng rng(2);
    int hi = 0, lo = 0;
    for (int t = 0; t < 30; ++t) {
        for (const auto &ev : model.plan(profile, rng)) {
            if (ev.mask >= (1ULL << 32))
                ++hi;
            else
                ++lo;
        }
    }
    // Roughly half in each 32-bit half.
    EXPECT_GT(hi, lo / 2);
    EXPECT_GT(lo, hi / 2);
}

TEST(StatisticalModel, PlansPerTypeEvents)
{
    IaModel model(sampleStats());
    auto profile = sampleProfile();
    Rng rng(3);
    size_t totalMul = 0, totalDiv = 0, totalOther = 0;
    for (int t = 0; t < 50; ++t) {
        for (const auto &ev : model.plan(profile, rng)) {
            EXPECT_EQ(ev.kind, InjectionEvent::Kind::FpOp);
            if (ev.op == FpuOp::MulD) {
                ++totalMul;
                EXPECT_LT(ev.index, 10000u);
            } else if (ev.op == FpuOp::DivD) {
                ++totalDiv;
                EXPECT_LT(ev.index, 500u);
            } else {
                ++totalOther;
            }
        }
    }
    // E[mul] = 10000 * 0.01 = 100/run; E[div] = 500 * 0.001 = 0.5/run.
    EXPECT_NEAR(static_cast<double>(totalMul) / 50.0, 100.0, 15.0);
    EXPECT_NEAR(static_cast<double>(totalDiv) / 50.0, 0.5, 0.5);
    EXPECT_EQ(totalOther, 0u);
}

TEST(StatisticalModel, MasksComeFromPool)
{
    IaModel model(sampleStats());
    auto profile = sampleProfile();
    Rng rng(4);
    auto events = model.plan(profile, rng);
    ASSERT_FALSE(events.empty());
    const auto &pool = model.opStats(FpuOp::MulD).maskPool;
    for (const auto &ev : events) {
        if (ev.op != FpuOp::MulD)
            continue;
        EXPECT_NE(std::find(pool.begin(), pool.end(), ev.mask),
                  pool.end());
    }
}

TEST(StatisticalModel, ExpectedErrors)
{
    IaModel model(sampleStats());
    auto profile = sampleProfile();
    // 10000*0.01 + 500*0.001 = 100.5
    EXPECT_NEAR(model.expectedErrors(profile), 100.5, 1e-9);
    DaModel da(1e-3);
    EXPECT_DOUBLE_EQ(da.expectedErrors(profile), 100.0);
}

TEST(Models, KindsAndNames)
{
    IaModel ia(sampleStats());
    WaModel wa("cg", sampleStats());
    DaModel da(0.01);
    EXPECT_EQ(ia.kind(), ModelKind::IA);
    EXPECT_EQ(wa.kind(), ModelKind::WA);
    EXPECT_EQ(da.kind(), ModelKind::DA);
    EXPECT_NE(wa.describe().find("cg"), std::string::npos);
    EXPECT_NE(da.describe().find("1.00e-02"), std::string::npos);
}

TEST(Models, ProfileFromFuncSim)
{
    ProgramProfile empty;
    EXPECT_EQ(empty.totalInstructions, 0u);

    // Core 0 spawns a worker that retires three fmul.d, retires one
    // fadd.d itself, then joins: each core's profile holds its own
    // counts only.
    isa::AsmBuilder b("profile");
    auto worker = b.newLabel();
    b.laCode(5, worker);
    b.spawn(5);
    b.fadd_d(1, 2, 3);
    b.join();
    b.halt();
    b.bind(worker);
    for (int i = 0; i < 3; ++i)
        b.fmul_d(1, 2, 3);
    b.halt();
    sim::FuncSim::Config cfg;
    cfg.cores = 2;
    sim::FuncSim fsim(b.build(), cfg);
    ASSERT_EQ(fsim.run().status, sim::FuncSim::Status::Halted);

    auto p0 = ProgramProfile::fromFuncSim(fsim, 0);
    auto p1 = ProgramProfile::fromFuncSim(fsim, 1);
    EXPECT_EQ(p0.totalInstructions, fsim.instructions(0));
    EXPECT_EQ(p0.fpOpCounts[static_cast<size_t>(FpuOp::AddD)], 1u);
    EXPECT_EQ(p0.fpOpCounts[static_cast<size_t>(FpuOp::MulD)], 0u);
    EXPECT_EQ(p1.totalInstructions, 4u);
    EXPECT_EQ(p1.instructionsWithDest, 3u);
    EXPECT_EQ(p1.fpOpCounts[static_cast<size_t>(FpuOp::MulD)], 3u);
    EXPECT_EQ(p1.fpOpCounts[static_cast<size_t>(FpuOp::AddD)], 0u);
}

TEST(Models, SaveLoadRoundTrip)
{
    auto stats = sampleStats();
    std::string path = "/tmp/tea_test_stats.txt";
    saveCampaignStats(path, stats);
    timing::CampaignStats loaded;
    ASSERT_EQ(loadCampaignStats(path, loaded), CacheLoad::Loaded);
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        EXPECT_EQ(loaded.perOp[o].total, stats.perOp[o].total);
        EXPECT_EQ(loaded.perOp[o].faulty, stats.perOp[o].faulty);
        EXPECT_EQ(loaded.perOp[o].maskPool, stats.perOp[o].maskPool);
        for (unsigned b = 0; b < 64; ++b)
            EXPECT_EQ(loaded.perOp[o].bitErrors[b],
                      stats.perOp[o].bitErrors[b]);
    }
    std::remove(path.c_str());
}

TEST(Models, LoadRejectsCorrupt)
{
    std::string path = "/tmp/tea_test_corrupt.txt";
    {
        FILE *f = fopen(path.c_str(), "w");
        fputs("not a stats file\n", f);
        fclose(f);
    }
    timing::CampaignStats stats;
    EXPECT_EQ(loadCampaignStats(path, stats), CacheLoad::Corrupt);
    EXPECT_EQ(loadCampaignStats("/nonexistent/nope", stats),
              CacheLoad::Missing);
    std::remove(path.c_str());
}

TEST(RngBinomial, MeanTracksNP)
{
    Rng rng(5);
    // Small n exact path.
    uint64_t sum = 0;
    for (int i = 0; i < 2000; ++i)
        sum += rng.nextBinomial(20, 0.3);
    EXPECT_NEAR(static_cast<double>(sum) / 2000.0, 6.0, 0.3);
    // Poisson path.
    sum = 0;
    for (int i = 0; i < 2000; ++i)
        sum += rng.nextBinomial(10000, 1e-3);
    EXPECT_NEAR(static_cast<double>(sum) / 2000.0, 10.0, 0.5);
    // Normal path.
    sum = 0;
    for (int i = 0; i < 2000; ++i)
        sum += rng.nextBinomial(100000, 0.01);
    EXPECT_NEAR(static_cast<double>(sum) / 2000.0, 1000.0, 5.0);
}
