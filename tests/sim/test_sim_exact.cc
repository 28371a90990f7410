/**
 * The cycle-exactness gate (ctest -L tier1sim): the OoO core and the
 * N-core simulator built on it must reproduce, field for field, the
 * timing and statistics pinned below. The constants were computed once
 * on the straightforward pipeline (full-ROB writeback walk, IQ vector,
 * ROB-walking load disambiguation); any restructuring of the pipeline's
 * internals must leave every one of them unchanged.
 *
 * Pinned: the functional simulator's golden run of each workload (and
 * of the threaded workloads at 1, 2 and 4 cores) as status, counts and
 * CRCs of the per-core op counts, the FP operand trace and the checked
 * outputs; every OooSim::Result field of each workload's golden run,
 * every McSim::Result field of the threaded workloads at 2 and 4
 * cores, and a CRC over the RunRecords of 64 seeded injection runs per
 * workload under each of the DA, IA and WA models (reduced-size
 * models, as in tests/dta/test_backend_caches.cc) at VR20 and VR15.
 * Several VR15 cells plan no error at all, so those rows also pin the
 * records of empty-plan runs, which the campaign takes from the golden
 * run instead of simulating.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/toolflow.hh"
#include "mc/mc_sim.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "util/crc32.hh"
#include "workloads/workloads.hh"

using namespace tea;
using inject::InjectionCampaign;

namespace {

std::string
describe(const sim::OooSim::Result &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "status=%d trap=%d stop=%d cycles=%" PRIu64
                  " committed=%" PRIu64 " executed=%" PRIu64
                  " injected=%" PRIu64 " wrongPath=%" PRIu64
                  " mispredicts=%" PRIu64 " l1Misses=%" PRIu64
                  " l1Accesses=%" PRIu64 " squashed=%" PRIu64,
                  static_cast<int>(r.status), static_cast<int>(r.trap),
                  static_cast<int>(r.stop), r.cycles, r.committed,
                  r.executed, r.injectionsApplied,
                  r.injectionsOnWrongPath, r.branchMispredicts,
                  r.cacheMisses, r.cacheAccesses,
                  r.squashedInstructions);
    return buf;
}

std::string
describe(const mc::McSim::Result &r)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "status=%d trap=%d trapCore=%d stop=%d cycles=%" PRIu64
        " committed=%" PRIu64 " executed=%" PRIu64 " injected=%" PRIu64
        " wrongPath=%" PRIu64 " mispredicts=%" PRIu64
        " squashed=%" PRIu64 " l1Misses=%" PRIu64 " l1Accesses=%" PRIu64
        " crossLoads=%" PRIu64 " inval=%" PRIu64 " c2c=%" PRIu64
        " upgrades=%" PRIu64 " l2Accesses=%" PRIu64 " l2Misses=%" PRIu64
        " overwriteMasks=%" PRIu64 " spawns=%" PRIu64 " joins=%" PRIu64
        " barriers=%" PRIu64,
        static_cast<int>(r.status), static_cast<int>(r.trap), r.trapCore,
        static_cast<int>(r.stop), r.cycles, r.committed, r.executed,
        r.injectionsApplied, r.injectionsOnWrongPath,
        r.branchMispredicts, r.squashedInstructions, r.l1Misses,
        r.l1Accesses, r.crossTaintedLoads, r.coh.invalidations,
        r.coh.c2cTransfers, r.coh.upgrades, r.coh.l2Accesses,
        r.coh.l2Misses, r.coh.overwriteMasks, r.coh.spawns,
        r.coh.joins, r.coh.barriers);
    std::string s = buf;
    s += " perCoreCommitted=";
    for (uint64_t v : r.perCoreCommitted)
        s += std::to_string(v) + ",";
    s += " perCoreInjected=";
    for (uint64_t v : r.perCoreInjected)
        s += std::to_string(v) + ",";
    return s;
}

/** CRC over every field of a run's records, in run-index order. */
uint32_t
recordsCrc(const std::vector<InjectionCampaign::RunRecord> &recs)
{
    uint32_t crc = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
        const auto &r = recs[i];
        uint64_t w;
        std::memcpy(&w, &r.logWeight, sizeof w);
        char buf[256];
        int n = std::snprintf(
            buf, sizeof buf,
            "%zu %d %" PRIu64 " %" PRIu64 " %" PRIu64 " %u %d %" PRIx64
            " %d\n",
            i, static_cast<int>(r.outcome), r.injected, r.committed,
            r.wrongPath, r.attempts, static_cast<int>(r.fault), w,
            static_cast<int>(r.mcClass));
        crc = crc32(buf, static_cast<size_t>(n), crc);
    }
    return crc;
}

/** The functional run of `w` as one line: counts and output CRCs. */
std::string
describeFunc(int status, uint64_t instructions,
             const std::vector<uint64_t> &perCore,
             const std::vector<uint64_t> &opCounts,
             const std::vector<sim::FpTraceEntry> &trace,
             const sim::Memory &mem, const sim::Console &console,
             const workloads::Workload &w)
{
    uint32_t opCrc =
        crc32(opCounts.data(), opCounts.size() * sizeof(uint64_t));
    // FpTraceEntry has padding: hash its fields, not its bytes.
    uint32_t traceCrc = 0;
    for (const auto &e : trace) {
        uint8_t buf[17];
        buf[0] = static_cast<uint8_t>(e.op);
        std::memcpy(buf + 1, &e.a, 8);
        std::memcpy(buf + 9, &e.b, 8);
        traceCrc = crc32(buf, sizeof buf, traceCrc);
    }
    uint32_t outCrc = 0;
    for (const auto &sym : w.outputSymbols) {
        auto blk = mem.readBlock(w.program.symbol(sym),
                                 w.program.symbolSize(sym));
        outCrc = crc32(blk.data(), blk.size(), outCrc);
    }
    outCrc = crc32(console.data(), console.size() * sizeof(uint64_t),
                   outCrc);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "status=%d instructions=%" PRIu64
                  " ops=%08x trace=%08x/%zu out=%08x perCore=",
                  status, instructions, opCrc, traceCrc, trace.size(),
                  outCrc);
    std::string s = buf;
    for (uint64_t v : perCore)
        s += std::to_string(v) + ",";
    return s;
}

struct FuncCase
{
    const char *workload;
    unsigned cores;
    const char *expected;
};

const FuncCase kFuncGolden[] = {
    {"sobel", 1,
     "status=0 instructions=24090 "
     "ops=51f9f5cf trace=49bceee2/15510 "
     "out=a5560eec perCore=24090,"},
    {"cg", 1,
     "status=0 instructions=117122 "
     "ops=49f8efd2 trace=855b2c1e/28896 "
     "out=312ec9fb perCore=117122,"},
    {"k-means", 1,
     "status=0 instructions=100173 "
     "ops=7e5fc613 trace=d3ea7864/28220 "
     "out=907eb618 perCore=100173,"},
    {"srad_v1", 1,
     "status=0 instructions=37565 "
     "ops=4c42d65c trace=7849d462/17514 "
     "out=1bb10a0d perCore=37565,"},
    {"hotspot", 1,
     "status=0 instructions=53375 "
     "ops=b398f93f trace=6596d954/27115 "
     "out=2776dad6 perCore=53375,"},
    {"is", 1,
     "status=0 instructions=80931 "
     "ops=e5efcbf4 trace=2c976430/58368 "
     "out=7ad8e494 perCore=80931,"},
    {"mg", 1,
     "status=0 instructions=281706 "
     "ops=d1ca212a trace=1d299cbf/101081 "
     "out=dc6b681f perCore=281706,"},
    {"k-means-mt", 1,
     "status=0 instructions=103006 "
     "ops=e865ba1c trace=bc923b60/28260 "
     "out=907eb618 perCore=103006,"},
    {"k-means-mt", 2,
     "status=0 instructions=103551 "
     "ops=d9555a17 trace=86ea5c7d/28300 "
     "out=269ad1cf perCore=52214,51337,"},
    {"k-means-mt", 4,
     "status=0 instructions=104641 "
     "ops=89039263 trace=65bffdbd/28380 "
     "out=685431b7 perCore=27258,25801,25785,25797,"},
    {"hotspot-mt", 1,
     "status=0 instructions=53493 "
     "ops=683c6bb6 trace=6596d954/27115 "
     "out=2776dad6 perCore=53493,"},
    {"hotspot-mt", 2,
     "status=0 instructions=53566 "
     "ops=d2c1a1a2 trace=98924431/27115 "
     "out=2776dad6 perCore=27845,25721,"},
    {"hotspot-mt", 4,
     "status=0 instructions=53712 "
     "ops=68c67529 trace=3af88e26/27115 "
     "out=2776dad6 perCore=16193,14061,11729,11729,"},
};

struct GoldenCase
{
    const char *workload;
    const char *expected;
};

const GoldenCase kOooGolden[] = {
    {"sobel",
     "status=0 trap=0 stop=0 cycles=73552 committed=24090 "
     "executed=24090 injected=0 wrongPath=0 mispredicts=27 "
     "l1Misses=139 l1Accesses=4382 squashed=147"},
    {"cg",
     "status=0 trap=0 stop=0 cycles=84485 committed=117122 "
     "executed=117122 injected=0 wrongPath=0 "
     "mispredicts=352 l1Misses=226 l1Accesses=29283 "
     "squashed=904"},
    {"k-means",
     "status=0 trap=0 stop=0 cycles=136838 "
     "committed=100173 executed=171979 injected=0 "
     "wrongPath=0 mispredicts=8846 l1Misses=99 "
     "l1Accesses=34521 squashed=148613"},
    {"srad_v1",
     "status=0 trap=0 stop=0 cycles=50985 committed=37565 "
     "executed=41130 injected=0 wrongPath=0 "
     "mispredicts=214 l1Misses=175 l1Accesses=8446 "
     "squashed=6390"},
    {"hotspot",
     "status=0 trap=0 stop=0 cycles=90295 committed=53375 "
     "executed=53381 injected=0 wrongPath=0 "
     "mispredicts=108 l1Misses=211 l1Accesses=14336 "
     "squashed=285"},
    {"is",
     "status=0 trap=0 stop=0 cycles=188999 committed=80931 "
     "executed=81901 injected=0 wrongPath=0 "
     "mispredicts=2608 l1Misses=259 l1Accesses=4713 "
     "squashed=5779"},
    {"mg",
     "status=0 trap=0 stop=0 cycles=583858 "
     "committed=281706 executed=281706 injected=0 "
     "wrongPath=0 mispredicts=880 l1Misses=3114 "
     "l1Accesses=88537 squashed=1370"},
};

struct McCase
{
    const char *workload;
    unsigned cores;
    const char *expected;
};

const McCase kMcGolden[] = {
    {"k-means-mt", 2,
     "status=0 trap=0 trapCore=-1 stop=0 cycles=167021 "
     "committed=103551 executed=190750 injected=0 "
     "wrongPath=0 mispredicts=8922 squashed=162007 "
     "l1Misses=2275 l1Accesses=35581 crossLoads=0 "
     "inval=2107 c2c=969 upgrades=2142 l2Accesses=132 "
     "l2Misses=66 overwriteMasks=0 spawns=1 joins=1 "
     "barriers=10 perCoreCommitted=52214,51337, "
     "perCoreInjected=0,0,"},
    {"k-means-mt", 4,
     "status=0 trap=0 trapCore=-1 stop=0 cycles=171640 "
     "committed=104641 executed=193588 injected=0 "
     "wrongPath=0 mispredicts=8915 squashed=162330 "
     "l1Misses=2693 l1Accesses=35999 crossLoads=0 "
     "inval=2390 c2c=971 upgrades=2410 l2Accesses=277 "
     "l2Misses=66 overwriteMasks=0 spawns=3 joins=1 "
     "barriers=10 "
     "perCoreCommitted=27258,25801,25785,25797, "
     "perCoreInjected=0,0,0,0,"},
    {"hotspot-mt", 2,
     "status=0 trap=0 trapCore=-1 stop=0 cycles=99878 "
     "committed=53566 executed=54216 injected=0 "
     "wrongPath=0 mispredicts=120 squashed=1288 "
     "l1Misses=588 l1Accesses=14461 crossLoads=0 inval=301 "
     "c2c=219 upgrades=376 l2Accesses=209 l2Misses=139 "
     "overwriteMasks=0 spawns=1 joins=1 barriers=8 "
     "perCoreCommitted=27845,25721, perCoreInjected=0,0,"},
    {"hotspot-mt", 4,
     "status=0 trap=0 trapCore=-1 stop=0 cycles=111542 "
     "committed=53712 executed=55154 injected=0 "
     "wrongPath=0 mispredicts=139 squashed=2184 "
     "l1Misses=924 l1Accesses=14615 crossLoads=0 inval=563 "
     "c2c=230 upgrades=416 l2Accesses=494 l2Misses=139 "
     "overwriteMasks=0 spawns=3 joins=1 barriers=8 "
     "perCoreCommitted=16193,14061,11729,11729, "
     "perCoreInjected=0,0,0,0,"},
};

struct InjectionCase
{
    const char *workload;
    uint32_t da, ia, wa;
};

const InjectionCase kInjectionVr20[] = {
    {"sobel", 994582826u, 1564126042u, 1324725416u},
    {"cg", 1774708760u, 3362936657u, 1337185901u},
    {"k-means", 813493094u, 724030650u, 2556049359u},
    {"srad_v1", 2788814083u, 4150319851u, 3884536394u},
    {"hotspot", 2813241043u, 528674369u, 2412097891u},
    {"is", 2136015737u, 2439967123u, 1747553399u},
    {"mg", 388878169u, 3828216909u, 122985912u},
    {"k-means-mt", 3004980385u, 4115131931u, 2813289071u},
    {"hotspot-mt", 3307290042u, 2136301590u, 3571902285u},
};

const InjectionCase kInjectionVr15[] = {
    {"sobel", 2407733408u, 2094731405u, 2191958037u},
    {"cg", 2461935217u, 1088974428u, 1088974428u},
    {"k-means", 4065048901u, 644097149u, 1782698582u},
    {"srad_v1", 689509234u, 2412159367u, 2412159367u},
    {"hotspot", 1151573251u, 528674369u, 528674369u},
    {"is", 2092057913u, 2439967123u, 4253947225u},
    {"mg", 4088441475u, 122985912u, 122985912u},
    {"k-means-mt", 193153986u, 328569065u, 3319376402u},
    {"hotspot-mt", 2322396674u, 2136301590u, 2136301590u},
};

constexpr uint64_t kInjectionRuns = 64;

/**
 * Whether every one of the cell's runs plans no event, replaying the
 * planning draws runRange() makes (single-core workloads).
 */
bool
plansNothing(const InjectionCampaign &camp,
             const models::ErrorModel &model, uint64_t seed)
{
    Rng rng(seed);
    Rng base = rng.split();
    for (uint64_t i = 0; i < kInjectionRuns; ++i) {
        Rng r = base.fork(i);
        double lw = 0.0;
        if (!model.planWeighted(camp.profile(), r, lw).empty())
            return false;
    }
    return true;
}

} // namespace

TEST(SimExact, FuncGoldenRunsArePinned)
{
    for (const auto &c : kFuncGolden) {
        auto w = workloads::buildWorkload(c.workload, 1);
        sim::FuncSim::Config cfg;
        cfg.cores = c.cores;
        sim::FuncSim sim(w.program, cfg);
        std::vector<sim::FpTraceEntry> trace;
        sim.setFpTrace(&trace);
        auto r = sim.run();
        std::vector<uint64_t> perCore, ops;
        for (unsigned k = 0; k < c.cores; ++k) {
            perCore.push_back(sim.instructions(k));
            for (unsigned i = 0; i < isa::kNumOps; ++i)
                ops.push_back(sim.opCount(k, static_cast<isa::Op>(i)));
        }
        EXPECT_EQ(describeFunc(static_cast<int>(r.status), r.instructions,
                               perCore, ops, trace, sim.memory(),
                               sim.console(), w),
                  c.expected)
            << c.workload << " x" << c.cores;
    }
}

TEST(SimExact, OooGoldenRunsArePinned)
{
    for (const auto &c : kOooGolden) {
        auto w = workloads::buildWorkload(c.workload, 1);
        sim::OooSim sim(w.program);
        EXPECT_EQ(describe(sim.run(~0ULL)), c.expected) << c.workload;
    }
}

TEST(SimExact, McGoldenRunsArePinned)
{
    for (const auto &c : kMcGolden) {
        auto w = workloads::buildWorkload(c.workload, 1);
        mc::McConfig cfg;
        cfg.cores = c.cores;
        mc::McSim sim(w.program, cfg);
        EXPECT_EQ(describe(sim.run(~0ULL)), c.expected)
            << c.workload << " x" << c.cores;
    }
}

TEST(SimExact, InjectionRecordsArePinned)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "tea_sim_exact_models";
    fs::remove_all(root);

    core::ToolflowOptions opt;
    opt.cacheDir = root.string();
    opt.threads = 2;
    opt.iaCountPerOp = 40;
    opt.waMaxOps = 700;
    opt.daSampleOps = 700;
    core::Toolflow tf(opt);

    auto crcOf = [&](const InjectionCampaign &camp,
                     const models::ErrorModel &model) {
        std::vector<InjectionCampaign::RunRecord> recs(kInjectionRuns);
        InjectionCampaign::RunOptions ro;
        ro.pool = &tf.pool();
        ro.onComplete = [&](uint64_t i,
                            const InjectionCampaign::RunRecord &r) {
            recs[i] = r;
        };
        Rng rng(opt.seed);
        EXPECT_EQ(camp.runRange(model, 0, kInjectionRuns, rng, ro),
                  kInjectionRuns);
        return recordsCrc(recs);
    };

    struct Level
    {
        double vr;
        const char *name;
        std::span<const InjectionCase> cases;
    };
    const Level levels[] = {
        {circuit::kVR20, "VR20", kInjectionVr20},
        {circuit::kVR15, "VR15", kInjectionVr15},
    };
    int emptyVr15Cells = 0;
    for (const auto &lv : levels) {
        auto da = tf.daModel(lv.vr);
        auto ia = tf.iaModel(lv.vr);
        for (const auto &c : lv.cases) {
            const auto &camp = tf.campaign(c.workload);
            auto wa = tf.waModel(c.workload, lv.vr);
            EXPECT_EQ(crcOf(camp, da), c.da)
                << c.workload << " DA " << lv.name;
            EXPECT_EQ(crcOf(camp, ia), c.ia)
                << c.workload << " IA " << lv.name;
            EXPECT_EQ(crcOf(camp, wa), c.wa)
                << c.workload << " WA " << lv.name;
            if (lv.vr == circuit::kVR15 && !camp.workload().threaded)
                emptyVr15Cells += plansNothing(camp, da, opt.seed) +
                                  plansNothing(camp, ia, opt.seed) +
                                  plansNothing(camp, wa, opt.seed);
        }
    }
    // The VR15 rows must cover the empty-plan path, not only plans
    // with events.
    EXPECT_GT(emptyVr15Cells, 0);
    fs::remove_all(root);
}
