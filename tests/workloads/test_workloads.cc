/**
 * End-to-end checks for the seven evaluated workloads: golden runs halt
 * cleanly, produce FP activity of the expected mix, are deterministic,
 * and behave identically on the functional and OoO models.
 */

#include <gtest/gtest.h>

#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::workloads;
using namespace tea::sim;

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, GoldenRunHalts)
{
    Workload w = buildWorkload(GetParam(), 1);
    FuncSim sim(w.program);
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Halted)
        << "trap: " << trapName(r.trap);
    EXPECT_GT(r.instructions, 10000u) << "workload suspiciously small";
    EXPECT_LT(r.instructions, 5'000'000u);
    EXPECT_GT(sim.fpArithCount(), 1000u);
}

TEST_P(WorkloadTest, Deterministic)
{
    Workload w1 = buildWorkload(GetParam(), 7);
    Workload w2 = buildWorkload(GetParam(), 7);
    FuncSim s1(w1.program), s2(w2.program);
    auto r1 = s1.run();
    auto r2 = s2.run();
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(s1.console(), s2.console());
    for (const auto &sym : w1.outputSymbols) {
        EXPECT_EQ(s1.memory().readBlock(w1.program.symbol(sym),
                                        w1.program.symbolSize(sym)),
                  s2.memory().readBlock(w2.program.symbol(sym),
                                        w2.program.symbolSize(sym)));
    }
}

TEST_P(WorkloadTest, SeedChangesOutput)
{
    Workload w1 = buildWorkload(GetParam(), 1);
    Workload w2 = buildWorkload(GetParam(), 2);
    FuncSim s1(w1.program), s2(w2.program);
    s1.run();
    s2.run();
    EXPECT_NE(s1.console(), s2.console());
}

TEST_P(WorkloadTest, OooMatchesFunctional)
{
    Workload w = buildWorkload(GetParam(), 3);
    FuncSim fsim(w.program);
    auto fr = fsim.run();
    ASSERT_EQ(fr.status, FuncSim::Status::Halted);

    OooSim osim(w.program);
    auto orr = osim.run(50'000'000);
    ASSERT_EQ(orr.status, OooSim::Status::Halted);
    EXPECT_EQ(orr.committed, fr.instructions);
    EXPECT_EQ(osim.console(), fsim.console());
    for (const auto &sym : w.outputSymbols) {
        EXPECT_EQ(osim.memory().readBlock(w.program.symbol(sym),
                                          w.program.symbolSize(sym)),
                  fsim.memory().readBlock(w.program.symbol(sym),
                                          w.program.symbolSize(sym)))
            << sym;
    }
    // IPC sanity for an OoO core.
    double ipc = static_cast<double>(orr.committed) /
                 static_cast<double>(orr.cycles);
    EXPECT_GT(ipc, 0.1);
    EXPECT_LT(ipc, 2.01);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-' || c == '_')
                                     c = 'X';
                             return n;
                         });

TEST(Workloads, EveryWorkloadBuildsAtTheLargestScale)
{
    // kMaxScale is the plan's `scale` bound: a builder whose immediates
    // overflow below it would panic inside the daemon at SUBMIT time.
    std::vector<std::string> names = workloadNames();
    names.insert(names.end(), {"k-means-mt", "hotspot-mt"});
    for (const auto &name : names) {
        ASSERT_TRUE(isKnownWorkload(name)) << name;
        Workload w = buildWorkload(name, 1, kMaxScale);
        EXPECT_FALSE(w.program.code.empty()) << name;
    }
}

TEST(Workloads, VerificationBenchmarksPass)
{
    // cg, is and mg self-verify; the golden run must report PASS.
    for (const char *name : {"cg", "is", "mg"}) {
        Workload w = buildWorkload(name, 1);
        FuncSim sim(w.program);
        auto r = sim.run();
        ASSERT_EQ(r.status, FuncSim::Status::Halted) << name;
        ASSERT_FALSE(sim.console().empty()) << name;
        EXPECT_EQ(sim.console()[0], 1u) << name << " verification failed";
    }
}

TEST(Workloads, ExpectedInstructionMix)
{
    // srad is the div-heavy workload; is uses conversions heavily;
    // k-means uses i2f for centroid counts.
    {
        Workload w = buildWorkload("srad_v1", 1);
        FuncSim sim(w.program);
        sim.run();
        EXPECT_GT(sim.opCount(0, isa::Op::FDIV_D), 1000u);
    }
    {
        Workload w = buildWorkload("is", 1);
        FuncSim sim(w.program);
        sim.run();
        EXPECT_GT(sim.opCount(0, isa::Op::FCVT_L_D), 5000u);
        EXPECT_GT(sim.opCount(0, isa::Op::FMUL_D), 10000u);
    }
    {
        Workload w = buildWorkload("k-means", 1);
        FuncSim sim(w.program);
        sim.run();
        EXPECT_GT(sim.opCount(0, isa::Op::FCVT_D_L), 10u);
        EXPECT_GT(sim.opCount(0, isa::Op::FDIV_D), 10u);
    }
}

TEST(Workloads, TableIIMetadata)
{
    for (const auto &name : workloadNames()) {
        Workload w = buildWorkload(name, 1);
        EXPECT_EQ(w.name, name);
        EXPECT_FALSE(w.inputDesc.empty());
        EXPECT_FALSE(w.classification.empty());
        EXPECT_FALSE(w.outputSymbols.empty());
        for (const auto &sym : w.outputSymbols)
            EXPECT_GT(w.program.symbolSize(sym), 0u) << name << ":" << sym;
    }
}

TEST(Workloads, ScaleGrowsWork)
{
    Workload w1 = buildWorkload("hotspot", 1, 1);
    Workload w2 = buildWorkload("hotspot", 1, 2);
    FuncSim s1(w1.program), s2(w2.program);
    auto r1 = s1.run();
    auto r2 = s2.run();
    ASSERT_EQ(r2.status, FuncSim::Status::Halted);
    EXPECT_GT(r2.instructions, 3 * r1.instructions);
}
