/**
 * @file
 * The multi-core injection contract: the spawn/join/barrier ABI works
 * on both N-core simulators, FuncSim and McSim (and faults
 * deterministically when misused), the cycle-level McSim agrees with
 * the functional FuncSim on the threaded workloads, per-core injection plans land on their
 * target core only, the outcome-taxonomy refinement is consistent,
 * and an N-core campaign's journal is byte-identical across host
 * thread counts and through the fleet worker path (ctest -L tier1mc).
 *
 * The worker binary is injected at compile time (TEA_WORKER_BIN).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/journal.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/coordinator.hh"
#include "isa/asmbuilder.hh"
#include "isa/isa.hh"
#include "mc/mc_sim.hh"
#include "models/error_models.hh"
#include "sim/func_sim.hh"
#include "util/fsatomic.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::mc;
using inject::InjectionCampaign;
using inject::McClass;
using sim::FuncSim;

namespace {

namespace fs = std::filesystem;

/**
 * SPMD probe program: every core (main included) stores id+100 into
 * its slot, a barrier separates the writes from core 0's read-back,
 * workers halt, and core 0 joins then prints the slot sum.
 */
isa::Program
buildProbe()
{
    isa::AsmBuilder b("mc-probe");
    uint64_t slots = b.dataI64("slots", std::vector<int64_t>(
                                            isa::kMcMaxCores, 0));
    auto body = b.newLabel();
    auto workerHalt = b.newLabel();
    auto sumLoop = b.newLabel();
    auto sumDone = b.newLabel();
    auto spawnLoop = b.newLabel();
    auto spawnDone = b.newLabel();

    b.mcNumCores(21);
    b.laCode(22, body);
    b.li(11, 1);
    b.bind(spawnLoop);
    b.bge(11, 21, spawnDone);
    b.spawn(22);
    b.addi(11, 11, 1);
    b.j(spawnLoop);
    b.bind(spawnDone);

    b.bind(body);
    b.mcCoreId(22);
    b.mcNumCores(21);
    b.li(5, static_cast<int64_t>(slots));
    b.slli(6, 22, 3);
    b.add(6, 5, 6);
    b.addi(7, 22, 100);
    b.sd(7, 6, 0);
    b.barrier();
    b.bne(22, 0, workerHalt);

    b.join();
    b.li(10, 0); // sum
    b.li(11, 0); // index
    b.bind(sumLoop);
    b.bge(11, 21, sumDone);
    b.slli(6, 11, 3);
    b.add(6, 5, 6);
    b.ld(7, 6, 0);
    b.add(10, 10, 7);
    b.addi(11, 11, 1);
    b.j(sumLoop);
    b.bind(sumDone);
    b.printInt(10);
    b.halt();

    b.bind(workerHalt);
    b.halt();
    return b.build();
}

uint64_t
probeSum(unsigned cores)
{
    uint64_t sum = 0;
    for (unsigned k = 0; k < cores; ++k)
        sum += 100 + k;
    return sum;
}

std::vector<uint8_t>
outputBytes(const sim::Memory &mem, const workloads::Workload &w)
{
    std::vector<uint8_t> out;
    for (const auto &sym : w.outputSymbols) {
        auto blk = mem.readBlock(w.program.symbol(sym),
                                 w.program.symbolSize(sym));
        out.insert(out.end(), blk.begin(), blk.end());
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Spawn / join / barrier ABI
// ---------------------------------------------------------------------

TEST(McAbi, SpawnJoinBarrierOnBothSimulators)
{
    isa::Program prog = buildProbe();
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        FuncSim::Config fcfg;
        fcfg.cores = cores;
        FuncSim fsim(prog, fcfg);
        auto fr = fsim.run();
        ASSERT_EQ(fr.status, FuncSim::Status::Halted)
            << cores << " cores, trap " << sim::trapName(fr.trap);
        ASSERT_EQ(fsim.console().size(), 1u);
        EXPECT_EQ(fsim.console()[0], probeSum(cores)) << cores;

        McConfig mcfg;
        mcfg.cores = cores;
        McSim msim(prog, mcfg);
        auto mr = msim.run(10'000'000);
        ASSERT_EQ(mr.status, McSim::Status::Halted)
            << cores << " cores, trap " << sim::trapName(mr.trap);
        ASSERT_EQ(msim.console().size(), 1u);
        EXPECT_EQ(msim.console()[0], probeSum(cores)) << cores;
        EXPECT_EQ(mr.committed, fr.instructions) << cores;
        EXPECT_EQ(mr.coh.spawns, cores - 1);
        if (cores > 1) {
            EXPECT_GE(mr.coh.barriers, 1u);
            EXPECT_GE(mr.coh.joins, 1u);
        }
        ASSERT_EQ(mr.perCoreCommitted.size(), cores);
        uint64_t total = 0;
        for (unsigned k = 0; k < cores; ++k) {
            EXPECT_GT(mr.perCoreCommitted[k], 0u)
                << "core " << k << " of " << cores;
            total += mr.perCoreCommitted[k];
        }
        EXPECT_EQ(total, mr.committed);
    }
}

TEST(McAbi, InvalidSpawnTargetIsSyncFault)
{
    isa::AsmBuilder b("mc-bad-spawn");
    b.li(5, static_cast<int64_t>(isa::kCodeBase) + 2); // misaligned
    b.spawn(5);
    b.halt();
    isa::Program prog = b.build();

    FuncSim::Config fcfg;
    fcfg.cores = 2;
    FuncSim fsim(prog, fcfg);
    auto fr = fsim.run();
    EXPECT_EQ(fr.status, FuncSim::Status::Trapped);
    EXPECT_EQ(fr.trap, sim::TrapKind::SyncFault);
    EXPECT_EQ(fr.trapCore, 0);

    McConfig mcfg;
    mcfg.cores = 2;
    McSim msim(prog, mcfg);
    auto mr = msim.run(1'000'000);
    EXPECT_EQ(mr.status, McSim::Status::Crashed);
    EXPECT_EQ(mr.trap, sim::TrapKind::SyncFault);
    EXPECT_EQ(mr.trapCore, 0);
}

TEST(McAbi, SpawnWithNoParkedCoreIsSyncFault)
{
    // A 1-core machine has nothing to wake: the same program that
    // works at 2 cores faults deterministically at 1.
    isa::AsmBuilder b("mc-overspawn");
    auto worker = b.newLabel();
    b.laCode(5, worker);
    b.spawn(5);
    b.join();
    b.halt();
    b.bind(worker);
    b.halt();
    isa::Program prog = b.build();

    FuncSim::Config ok;
    ok.cores = 2;
    FuncSim fok(prog, ok);
    EXPECT_EQ(fok.run().status, FuncSim::Status::Halted);

    FuncSim::Config bad;
    bad.cores = 1;
    FuncSim fbad(prog, bad);
    auto fr = fbad.run();
    EXPECT_EQ(fr.status, FuncSim::Status::Trapped);
    EXPECT_EQ(fr.trap, sim::TrapKind::SyncFault);
}

TEST(McAbi, JoinBarrierMismatchDeadlocks)
{
    // Core 0 joins while its worker waits at a barrier core 0 never
    // reaches: no core can make progress. The functional simulator
    // detects the stall directly; the cycle-level one through its
    // bounded-progress watchdog.
    isa::AsmBuilder b("mc-deadlock");
    auto worker = b.newLabel();
    b.laCode(5, worker);
    b.spawn(5);
    b.join();
    b.halt();
    b.bind(worker);
    b.barrier();
    b.halt();
    isa::Program prog = b.build();

    FuncSim::Config fcfg;
    fcfg.cores = 2;
    FuncSim fsim(prog, fcfg);
    EXPECT_EQ(fsim.run().status, FuncSim::Status::Deadlock);

    McConfig mcfg;
    mcfg.cores = 2;
    mcfg.deadlockWindow = 20'000;
    McSim msim(prog, mcfg);
    EXPECT_EQ(msim.run(10'000'000).status, McSim::Status::Deadlock);
}

// ---------------------------------------------------------------------
// Threaded workloads
// ---------------------------------------------------------------------

class McWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(McWorkloadTest, ThreadedFlagAndGoldenRun)
{
    EXPECT_TRUE(workloads::isThreadedWorkload(GetParam()));
    workloads::Workload w = workloads::buildWorkload(GetParam(), 1);
    EXPECT_TRUE(w.threaded);

    FuncSim::Config fcfg;
    fcfg.cores = 2;
    FuncSim fsim(w.program, fcfg);
    auto fr = fsim.run();
    ASSERT_EQ(fr.status, FuncSim::Status::Halted)
        << "trap: " << sim::trapName(fr.trap);
    EXPECT_GT(fr.instructions, 10'000u);
    EXPECT_FALSE(fsim.console().empty());
    // Both cores executed real work, and FP work reached both.
    EXPECT_GT(fsim.instructions(0), 1000u);
    EXPECT_GT(fsim.instructions(1), 1000u);
    uint64_t fp1 = 0;
    for (size_t op = 0; op < isa::kNumOps; ++op)
        if (isa::isFpArith(static_cast<isa::Op>(op)))
            fp1 += fsim.opCount(1, static_cast<isa::Op>(op));
    EXPECT_GT(fp1, 100u) << "worker core saw no FP arithmetic";
}

TEST_P(McWorkloadTest, CycleSimMatchesFunctional)
{
    workloads::Workload w = workloads::buildWorkload(GetParam(), 1);
    for (unsigned cores : {1u, 2u, 3u}) {
        FuncSim::Config fcfg;
        fcfg.cores = cores;
        FuncSim fsim(w.program, fcfg);
        auto fr = fsim.run();
        ASSERT_EQ(fr.status, FuncSim::Status::Halted) << cores;

        McConfig mcfg;
        mcfg.cores = cores;
        McSim msim(w.program, mcfg);
        auto mr = msim.run(200'000'000);
        ASSERT_EQ(mr.status, McSim::Status::Halted)
            << cores << " cores, trap " << sim::trapName(mr.trap);
        EXPECT_EQ(mr.committed, fr.instructions) << cores;
        EXPECT_EQ(msim.console(), fsim.console()) << cores;
        EXPECT_EQ(outputBytes(msim.memory(), w),
                  outputBytes(fsim.memory(), w))
            << cores;
    }
}

TEST_P(McWorkloadTest, DeterministicAcrossRebuilds)
{
    workloads::Workload w1 = workloads::buildWorkload(GetParam(), 1);
    workloads::Workload w2 = workloads::buildWorkload(GetParam(), 1);
    McConfig cfg;
    cfg.cores = 2;
    McSim s1(w1.program, cfg), s2(w2.program, cfg);
    auto r1 = s1.run(200'000'000);
    auto r2 = s2.run(200'000'000);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.committed, r2.committed);
    EXPECT_EQ(s1.console(), s2.console());
    EXPECT_EQ(outputBytes(s1.memory(), w1),
              outputBytes(s2.memory(), w2));
}

INSTANTIATE_TEST_SUITE_P(All, McWorkloadTest,
                         ::testing::Values("k-means-mt", "hotspot-mt"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-' || c == '_')
                                     c = 'X';
                             return n;
                         });

TEST(McWorkloads, SingleCoreWorkloadsAreNotThreaded)
{
    for (const auto &name : workloads::workloadNames())
        EXPECT_FALSE(workloads::isThreadedWorkload(name)) << name;
}

TEST(McWorkloads, CoherenceTrafficObserved)
{
    workloads::Workload w = workloads::buildWorkload("k-means-mt", 1);
    McConfig cfg;
    cfg.cores = 2;
    McSim sim(w.program, cfg);
    auto r = sim.run(200'000'000);
    ASSERT_EQ(r.status, McSim::Status::Halted);
    EXPECT_EQ(r.coh.spawns, 1u);
    EXPECT_EQ(r.coh.joins, 1u);
    EXPECT_GT(r.coh.barriers, 0u);
    EXPECT_GT(r.coh.l2Accesses, 0u);
    EXPECT_GT(r.coh.l2Misses, 0u);
    EXPECT_GT(r.coh.invalidations, 0u)
        << "shared centroids / partial sums never caused an invalidate";
}

// ---------------------------------------------------------------------
// Per-core injection targeting
// ---------------------------------------------------------------------

TEST(McInject, PlansTargetTheirCoreOnly)
{
    workloads::Workload w = workloads::buildWorkload("k-means-mt", 1);
    FuncSim::Config fcfg;
    fcfg.cores = 2;
    FuncSim fsim(w.program, fcfg);
    ASSERT_EQ(fsim.run().status, FuncSim::Status::Halted);
    ASSERT_GT(fsim.opCount(1, isa::Op::FADD_D), 10u);

    // One low-order-bit flip on core 1's 5th committed FADD.
    sim::InjectionEvent e;
    e.kind = sim::InjectionEvent::Kind::FpOp;
    e.op = isa::fpuOpFor(isa::Op::FADD_D);
    e.index = 5;
    e.mask = 1;
    e.core = 1;
    std::vector<sim::InjectionPlan> plans(2);
    plans[1] = sim::InjectionPlan({e});

    McConfig cfg;
    cfg.cores = 2;
    McSim sim(w.program, cfg, plans);
    auto r = sim.run(200'000'000);
    EXPECT_EQ(r.injectionsApplied, 1u);
    ASSERT_EQ(r.perCoreInjected.size(), 2u);
    EXPECT_EQ(r.perCoreInjected[0], 0u);
    EXPECT_EQ(r.perCoreInjected[1], 1u);

    // The same event addressed to core 0 lands on core 0 instead.
    e.core = 0;
    std::vector<sim::InjectionPlan> plans0(2);
    plans0[0] = sim::InjectionPlan({e});
    McSim sim0(w.program, cfg, plans0);
    auto r0 = sim0.run(200'000'000);
    EXPECT_EQ(r0.injectionsApplied, 1u);
    EXPECT_EQ(r0.perCoreInjected[0], 1u);
    EXPECT_EQ(r0.perCoreInjected[1], 0u);
}

// ---------------------------------------------------------------------
// Campaign taxonomy and journal format
// ---------------------------------------------------------------------

TEST(McCampaign, TaxonomyRefinesBaseOutcomes)
{
    workloads::Workload w = workloads::buildWorkload("k-means-mt", 1);
    InjectionCampaign campaign(std::move(w));
    // ~1.5 injections per run: enough masked runs to see coherence
    // masking and enough corrupt ones to see both SDC flavours.
    models::DaModel model(0.00002);
    Rng rng(11);
    inject::CampaignResult res = campaign.run(model, 80, rng);

    EXPECT_EQ(res.runs, 80u);
    EXPECT_EQ(res.engineFault, 0u);
    EXPECT_GT(res.injectedErrors, 0u);
    // Refinements never exceed — and SDC exactly partitions into —
    // their base classes.
    EXPECT_EQ(res.mcSdcSameCore + res.mcSdcCrossCore, res.sdc);
    EXPECT_LE(res.mcCoherenceMasked, res.masked);
    EXPECT_LE(res.mcSyncCrash, res.crash);
    EXPECT_LE(res.mcDeadlock, res.timeout);
    EXPECT_GT(res.sdc, 0u) << "elevated ER produced no SDC at all";
    EXPECT_GT(res.mcSdcCrossCore, 0u)
        << "no cross-core propagation in " << res.sdc << " SDCs";
    EXPECT_GT(res.mcCoherenceMasked, 0u)
        << "no overwrite-masked run in " << res.masked << " masked";
}

TEST(McCampaign, SingleCoreRunsRecordNone)
{
    workloads::Workload w = workloads::buildWorkload("k-means", 1);
    InjectionCampaign campaign(std::move(w));
    models::DaModel model(0.001);
    Rng rng(3);
    auto rec = campaign.executeOne(model, rng);
    EXPECT_EQ(rec.mcClass, McClass::None);
}

TEST(McCampaign, JournalRoundTripsMcClass)
{
    std::string dir = "/tmp/tea_mc_test_journal";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = dir + "/cell.jnl";
    InjectionCampaign::RunRecord rec;
    rec.outcome = inject::Outcome::SDC;
    rec.injected = 3;
    rec.committed = 12345;
    rec.mcClass = McClass::SdcCrossCore;
    {
        core::ShardJournal j(path);
        ASSERT_EQ(j.open("mc identity", false), 0u);
        j.append(7, rec);
    }
    core::ShardJournal j(path);
    ASSERT_EQ(j.open("mc identity", true), 1u);
    InjectionCampaign::RunRecord back;
    ASSERT_TRUE(j.tryReplay(7, back));
    EXPECT_EQ(back.outcome, inject::Outcome::SDC);
    EXPECT_EQ(back.mcClass, McClass::SdcCrossCore);
    EXPECT_EQ(back.committed, 12345u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Chaos determinism: journals byte-identical across REPRO_THREADS and
// through the fleet worker path
// ---------------------------------------------------------------------

namespace {

core::ToolflowOptions
mcTinyOptions(const std::string &cacheDir, unsigned threads)
{
    core::ToolflowOptions opt;
    opt.iaCountPerOp = 200;
    opt.waMaxOps = 500;
    opt.daSampleOps = 700;
    opt.runsPerCell = 6;
    opt.vrLevels = {0.20};
    opt.threads = threads;
    opt.mcCores = 2;
    opt.cacheDir = cacheDir;
    return opt;
}

/** Run the 3-model grid for k-means-mt; return each cell's journal
 * bytes (journals persist until the grid CSV caches them). */
std::vector<std::string>
runAndCaptureJournals(const core::ToolflowOptions &opt)
{
    core::GridSpec spec;
    spec.workloads = {"k-means-mt"};
    core::Toolflow tf(opt);
    std::vector<std::string> journals;
    for (const core::CellPlan &cp :
         core::planEvaluationGrid(opt, spec)) {
        core::CampaignCell cell = core::runGridCell(tf, cp, "");
        EXPECT_EQ(cell.result.runs,
                  static_cast<uint64_t>(opt.runsPerCell));
        std::string jp = core::cellJournalPath(opt, cp.workload,
                                               cp.model, cp.vrFrac);
        auto bytes = readFileToString(jp);
        EXPECT_TRUE(bytes.has_value()) << jp;
        journals.push_back(bytes.value_or(""));
        core::ShardJournal(jp).remove();
    }
    return journals;
}

} // namespace

TEST(McChaos, JournalsByteIdenticalAcrossThreadCounts)
{
    std::string dir = "/tmp/tea_mc_test_threads";
    fs::remove_all(dir);
    std::vector<std::string> ref =
        runAndCaptureJournals(mcTinyOptions(dir, 1));
    ASSERT_EQ(ref.size(), 3u);
    for (const auto &j : ref) {
        ASSERT_FALSE(j.empty());
        EXPECT_NE(j.find("cores=2"), std::string::npos)
            << "mc geometry missing from journal identity";
    }
    std::vector<std::string> par =
        runAndCaptureJournals(mcTinyOptions(dir, 4));
    ASSERT_EQ(par.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(ref[i].size(), par[i].size()) << "cell " << i;
        EXPECT_EQ(0, std::memcmp(ref[i].data(), par[i].data(),
                                 ref[i].size()))
            << "cell " << i
            << ": 4-thread journal differs from 1-thread";
    }
    fs::remove_all(dir);
}

TEST(McChaos, FleetWorkerPathMatchesInProcess)
{
    std::string dir = "/tmp/tea_mc_test_fleet";
    fs::remove_all(dir);
    core::ToolflowOptions opt = mcTinyOptions(dir, 1);
    core::GridSpec spec;
    spec.workloads = {"k-means-mt"};

    // In-process reference, then clear the grid CSV so the fleet run
    // regenerates it at the identical path.
    core::Toolflow tf(opt);
    core::EvaluationGrid ref = core::runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    std::string csvPath = core::gridCachePath(opt, spec);
    auto refCsv = readFileToString(csvPath);
    ASSERT_TRUE(refCsv.has_value());
    fs::remove(csvPath);
    for (const core::CellPlan &cp : core::planEvaluationGrid(opt, spec))
        fs::remove(core::cellManifestPath(opt, cp.workload, cp.model,
                                          cp.vrFrac));

    fleet::FleetOptions fopt;
    fopt.workers = 2;
    fopt.workerBin = TEA_WORKER_BIN;
    fopt.spoolDir = dir + "/spool";
    fopt.leaseMs = 3000;
    fopt.maxAttempts = 3;
    fopt.backoffMs = 50;
    fopt.pollMs = 10;
    core::EvaluationGrid grid = fleet::runFleetGrid(opt, fopt, spec);
    ASSERT_EQ(grid.cells.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        const auto &r = ref.cells[i].result;
        const auto &g = grid.cells[i].result;
        EXPECT_EQ(r.runs, g.runs) << i;
        EXPECT_EQ(r.masked, g.masked) << i;
        EXPECT_EQ(r.sdc, g.sdc) << i;
        EXPECT_EQ(r.crash, g.crash) << i;
        EXPECT_EQ(r.timeout, g.timeout) << i;
        // The mc refinement survives the done-file wire.
        EXPECT_EQ(r.mcCoherenceMasked, g.mcCoherenceMasked) << i;
        EXPECT_EQ(r.mcSdcSameCore, g.mcSdcSameCore) << i;
        EXPECT_EQ(r.mcSdcCrossCore, g.mcSdcCrossCore) << i;
        EXPECT_EQ(r.mcSyncCrash, g.mcSyncCrash) << i;
        EXPECT_EQ(r.mcDeadlock, g.mcDeadlock) << i;
    }
    auto fleetCsv = readFileToString(csvPath);
    ASSERT_TRUE(fleetCsv.has_value());
    EXPECT_EQ(*refCsv, *fleetCsv)
        << "fleet grid CSV must be byte-identical (mc columns "
           "included)";
    fs::remove_all(dir);
}

TEST(McChaos, CoreCountIsPartOfCellIdentity)
{
    core::ToolflowOptions a = mcTinyOptions("cache", 1);
    core::ToolflowOptions b = a;
    b.mcCores = 4;
    // Threaded cells must never share artifacts across mc geometries;
    // single-core cells must keep identical paths.
    EXPECT_NE(core::cellJournalPath(a, "k-means-mt",
                                    models::ModelKind::DA, 0.2),
              core::cellJournalPath(b, "k-means-mt",
                                    models::ModelKind::DA, 0.2));
    EXPECT_EQ(core::cellJournalPath(a, "k-means",
                                    models::ModelKind::DA, 0.2),
              core::cellJournalPath(b, "k-means",
                                    models::ModelKind::DA, 0.2));
}
