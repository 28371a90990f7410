/**
 * @file
 * The fleet contract: lease-based multi-process campaigns are
 * byte-identical to the single-process grid — for any worker count,
 * under SIGKILL chaos, and through the shard-journal merge — and a
 * unit that repeatedly kills workers is quarantined as poison instead
 * of stalling the campaign.
 *
 * The worker binary under test is injected at compile time
 * (TEA_WORKER_BIN, from $<TARGET_FILE:tea-worker>).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/coordinator.hh"
#include "fleet/queue.hh"
#include "fleet/workunit.hh"
#include "util/fsatomic.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::core;
using namespace tea::fleet;
using inject::InjectionCampaign;

namespace {

namespace fs = std::filesystem;

/** Tiny-but-real campaign: 2 workloads x 3 models x 1 VR, 6 runs. */
ToolflowOptions
tinyOptions(const std::string &cacheDir)
{
    ToolflowOptions opt;
    opt.iaCountPerOp = 200;
    opt.waMaxOps = 500;
    opt.daSampleOps = 700;
    opt.runsPerCell = 6;
    opt.vrLevels = {0.20};
    opt.threads = 1; // in-order journals; manifests match workers'
    opt.cacheDir = cacheDir;
    return opt;
}

GridSpec
tinySpec()
{
    GridSpec spec;
    spec.workloads = {"sobel", "cg"};
    return spec;
}

FleetOptions
tinyFleet(int workers, const std::string &spool)
{
    FleetOptions fopt;
    fopt.workers = workers;
    fopt.workerBin = TEA_WORKER_BIN;
    fopt.spoolDir = spool;
    fopt.leaseMs = 3000;
    fopt.maxAttempts = 3;
    fopt.backoffMs = 50;
    fopt.pollMs = 10;
    return fopt;
}

/** Set an env var for one scope (the workers inherit it). */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const char *n, const std::string &value) : name(n)
    {
        setenv(n, value.c_str(), 1);
    }
    ~ScopedEnv() { unsetenv(name.c_str()); }
};

/**
 * Strip the fields the manifest schema declares as observation-only
 * (`written` wall time and the trailing `metrics` snapshot); with
 * `dropReplayed`, also the replay provenance a crash-resumed cell
 * legitimately reports differently.
 */
std::string
normalizeManifest(std::string text, bool dropReplayed = false)
{
    size_t metrics = text.find("\"metrics\"");
    if (metrics != std::string::npos)
        text.resize(metrics);
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find("\"written\"") != std::string::npos)
            continue;
        if (dropReplayed &&
            line.find("\"replayedRuns\"") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

/** Grid CSV + per-cell manifest bytes, removed after capture so the
 * next campaign in the same cache dir regenerates them at identical
 * paths (characterization caches stay warm). */
struct Artifacts
{
    std::string csv;
    std::vector<std::string> manifests;
};

Artifacts
captureAndClear(const ToolflowOptions &opt, const GridSpec &spec)
{
    Artifacts a;
    std::string csvPath = gridCachePath(opt, spec);
    a.csv = readFileToString(csvPath).value_or("");
    fs::remove(csvPath);
    for (const CellPlan &cp : planEvaluationGrid(opt, spec)) {
        std::string mp =
            cellManifestPath(opt, cp.workload, cp.model, cp.vrFrac);
        a.manifests.push_back(readFileToString(mp).value_or(""));
        fs::remove(mp);
    }
    return a;
}

void
expectSameResults(const EvaluationGrid &ref, const EvaluationGrid &got)
{
    ASSERT_EQ(ref.cells.size(), got.cells.size());
    for (size_t i = 0; i < ref.cells.size(); ++i) {
        const auto &r = ref.cells[i].result;
        const auto &g = got.cells[i].result;
        EXPECT_EQ(ref.cells[i].workload, got.cells[i].workload);
        EXPECT_EQ(ref.cells[i].model, got.cells[i].model);
        EXPECT_EQ(r.runs, g.runs) << "cell " << i;
        EXPECT_EQ(r.masked, g.masked) << "cell " << i;
        EXPECT_EQ(r.sdc, g.sdc) << "cell " << i;
        EXPECT_EQ(r.crash, g.crash) << "cell " << i;
        EXPECT_EQ(r.timeout, g.timeout) << "cell " << i;
        EXPECT_EQ(r.engineFault, g.engineFault) << "cell " << i;
        EXPECT_EQ(r.injectedErrors, g.injectedErrors) << "cell " << i;
        EXPECT_EQ(r.committedInstructions, g.committedInstructions)
            << "cell " << i;
        if (std::isnan(r.avm()))
            EXPECT_TRUE(std::isnan(g.avm())) << "cell " << i;
        else
            EXPECT_DOUBLE_EQ(r.avm(), g.avm()) << "cell " << i;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Work-unit / plan / done-file serialization
// ---------------------------------------------------------------------

TEST(FleetFormats, WorkUnitRoundTrip)
{
    WorkUnit u;
    u.id = 42;
    u.kind = WorkUnit::Kind::Range;
    u.cell = 7;
    u.lo = 512;
    u.hi = 1024;
    auto parsed = WorkUnit::parse(u.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id, 42u);
    EXPECT_EQ(parsed->kind, WorkUnit::Kind::Range);
    EXPECT_EQ(parsed->cell, 7u);
    EXPECT_EQ(parsed->lo, 512u);
    EXPECT_EQ(parsed->hi, 1024u);
}

TEST(FleetFormats, SealRejectsDamage)
{
    WorkUnit u;
    u.id = 3;
    std::string good = u.serialize();
    EXPECT_TRUE(WorkUnit::parse(good).has_value());
    // Flip one payload byte: the CRC seal must reject it.
    std::string bad = good;
    bad[bad.find("unit 3") + 5] = '4';
    EXPECT_FALSE(WorkUnit::parse(bad).has_value());
    // Truncated mid-seal.
    EXPECT_FALSE(WorkUnit::parse(good.substr(0, good.size() - 4))
                     .has_value());
    EXPECT_FALSE(WorkUnit::parse("").has_value());
}

TEST(FleetFormats, PlanRoundTripIsExact)
{
    // Every plan key set to a non-default, in-range value.
    FleetPlan plan;
    ToolflowOptions &o = plan.opt;
    const ToolflowOptions defaults;
    o.seed = 0xdeadbeefULL;
    o.runsPerCell = 7;
    o.workloadScale = workloads::kMaxScale; // the row's upper bound
    o.iaCountPerOp = 201;
    o.waMaxOps = 502;
    o.daSampleOps = 703;
    o.threads = 3;
    o.resume = true;
    o.runDeadlineMs = 4321;
    o.maxRunAttempts = 5;
    o.ciTarget = 0.012345678901234567;
    o.ciConf = 0.9900000000000001;
    o.maxAdaptiveRuns = 999;
    o.isEnable = true;
    o.isBoost = 2.5;
    o.isFloor = 0.3333333333333333;
    o.isMaxTilted = 1e9;
    o.isCorpusPerOp = 250;
    o.mcCores = 4;
    o.mcQuantum = 17;
    o.cacheDir = "/tmp/some cache dir";
    o.vrLevels = {0.15, 0.2000000000000001};
    plan.spec = tinySpec();
    plan.spec.useCache = false;
    plan.leaseMs = 777;
    // The test itself must cover every table row.
    for (const OptionField &f : optionFields())
        EXPECT_NE(formatField(f.member, o), formatField(f.member, defaults))
            << f.planKey << " is left at its default";

    const std::string bytes = plan.serialize();
    auto parsed = FleetPlan::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    const ToolflowOptions &p = parsed->opt;
    EXPECT_EQ(p.seed, o.seed);
    EXPECT_EQ(p.runsPerCell, o.runsPerCell);
    EXPECT_EQ(p.workloadScale, o.workloadScale);
    EXPECT_EQ(p.iaCountPerOp, o.iaCountPerOp);
    EXPECT_EQ(p.waMaxOps, o.waMaxOps);
    EXPECT_EQ(p.daSampleOps, o.daSampleOps);
    EXPECT_EQ(p.threads, o.threads);
    EXPECT_EQ(p.resume, o.resume);
    EXPECT_EQ(p.runDeadlineMs, o.runDeadlineMs);
    EXPECT_EQ(p.maxRunAttempts, o.maxRunAttempts);
    // Doubles must round-trip bit-exactly (%.17g) — the whole
    // byte-identity story rides on workers seeing the same plan.
    EXPECT_EQ(p.ciTarget, o.ciTarget);
    EXPECT_EQ(p.ciConf, o.ciConf);
    EXPECT_EQ(p.maxAdaptiveRuns, o.maxAdaptiveRuns);
    EXPECT_EQ(p.isEnable, o.isEnable);
    EXPECT_EQ(p.isBoost, o.isBoost);
    EXPECT_EQ(p.isFloor, o.isFloor);
    EXPECT_EQ(p.isMaxTilted, o.isMaxTilted);
    EXPECT_EQ(p.isCorpusPerOp, o.isCorpusPerOp);
    EXPECT_EQ(p.mcCores, o.mcCores);
    EXPECT_EQ(p.mcQuantum, o.mcQuantum);
    EXPECT_EQ(p.cacheDir, o.cacheDir);
    EXPECT_EQ(p.vrLevels, o.vrLevels);
    EXPECT_EQ(parsed->spec.workloads, plan.spec.workloads);
    EXPECT_FALSE(parsed->spec.useCache);
    EXPECT_EQ(parsed->leaseMs, 777);
    EXPECT_EQ(parsed->serialize(), bytes);
}

TEST(FleetFormats, PlanRejectsOversizedThreadCount)
{
    // A plan sizes the pool of whoever runs it (the daemon included),
    // so `threads` is bounded like REPRO_THREADS, and checked before
    // narrowing: 2^32 + 1 must not wrap to 1. 0 still means default.
    FleetPlan plan;
    plan.opt = tinyOptions("/tmp/cache");
    plan.spec = tinySpec();
    for (unsigned ok : {0u, 4u, ThreadPool::kMaxThreads}) {
        plan.opt.threads = ok;
        auto parsed = FleetPlan::parse(plan.serialize());
        ASSERT_TRUE(parsed.has_value()) << ok;
        EXPECT_EQ(parsed->opt.threads, ok);
    }
    std::string body = *unsealBody(plan.serialize());
    const size_t at = body.find("\nthreads ") + 1;
    const size_t eol = body.find('\n', at);
    for (const char *junk : {"1025", "4294967297", "18446744073709551615",
                             "99999999999999999999999"}) {
        std::string bad = body;
        bad.replace(at, eol - at, std::string("threads ") + junk);
        EXPECT_FALSE(FleetPlan::parse(sealBody(bad)).has_value()) << junk;
    }
}

TEST(FleetFormats, UnitResultRoundTrip)
{
    UnitResult r;
    r.unit = 9;
    r.fresh = 4;
    inject::CampaignResult &c = r.result;
    c.runs = 60;
    c.masked = 30;
    c.sdc = 11;
    c.crash = 9;
    c.timeout = 5;
    c.engineFault = 5;
    c.retries = 2;
    c.injectedErrors = 17;
    c.committedInstructions = 54321;
    c.wrongPathInjections = 3;
    c.weightedModel = true;
    c.weightSum = 0.1234567890123456789;
    c.weightUnsafe = 1e-300;
    c.weightSqSum = 12345.678901234567;
    c.weightUnsafeSqSum = 2.0 / 3.0;
    c.mcCoherenceMasked = 6;
    c.mcSdcSameCore = 7;
    c.mcSdcCrossCore = 4;
    c.mcSyncCrash = 1;
    c.mcDeadlock = 8;
    auto parsed = UnitResult::parse(r.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->unit, 9u);
    EXPECT_EQ(parsed->fresh, 4u);
    const inject::CampaignResult &g = parsed->result;
    EXPECT_EQ(g.runs, c.runs);
    EXPECT_EQ(g.masked, c.masked);
    EXPECT_EQ(g.sdc, c.sdc);
    EXPECT_EQ(g.crash, c.crash);
    EXPECT_EQ(g.timeout, c.timeout);
    EXPECT_EQ(g.engineFault, c.engineFault);
    EXPECT_EQ(g.retries, c.retries);
    EXPECT_EQ(g.injectedErrors, c.injectedErrors);
    EXPECT_EQ(g.committedInstructions, c.committedInstructions);
    EXPECT_EQ(g.wrongPathInjections, c.wrongPathInjections);
    EXPECT_EQ(g.weightedModel, c.weightedModel);
    // Weight sums round-trip bit-exactly (%.17g).
    EXPECT_EQ(g.weightSum, c.weightSum);
    EXPECT_EQ(g.weightUnsafe, c.weightUnsafe);
    EXPECT_EQ(g.weightSqSum, c.weightSqSum);
    EXPECT_EQ(g.weightUnsafeSqSum, c.weightUnsafeSqSum);
    EXPECT_EQ(g.mcCoherenceMasked, c.mcCoherenceMasked);
    EXPECT_EQ(g.mcSdcSameCore, c.mcSdcSameCore);
    EXPECT_EQ(g.mcSdcCrossCore, c.mcSdcCrossCore);
    EXPECT_EQ(g.mcSyncCrash, c.mcSyncCrash);
    EXPECT_EQ(g.mcDeadlock, c.mcDeadlock);
}

// ---------------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------------

TEST(FleetQueue, ClaimIsExclusive)
{
    std::string dir = "/tmp/tea_fleet_test_queue";
    fs::remove_all(dir);
    WorkQueue q(dir);
    WorkUnit u;
    u.id = 0;
    ASSERT_TRUE(q.publish(FleetPlan{tinyOptions(dir), tinySpec()},
                          {u}));
    EXPECT_TRUE(q.claim(0, 111));
    EXPECT_FALSE(q.claim(0, 222)) << "second claimant must lose";
    auto lease = q.loadLease(0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->pid, 111);

    // Renewal moves the heartbeat and keeps the lease present.
    int64_t beat0 = lease->beat;
    EXPECT_TRUE(q.renew(0, 111));
    lease = q.loadLease(0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_GE(lease->beat, beat0);

    // A zombie must not release its successor's lease.
    EXPECT_FALSE(q.releaseIfOwner(0, 222));
    EXPECT_TRUE(q.loadLease(0).has_value());
    EXPECT_TRUE(q.releaseIfOwner(0, 111));
    EXPECT_FALSE(q.loadLease(0).has_value());
    EXPECT_TRUE(q.claim(0, 222)) << "released lease is claimable";

    // Tries and poison round-trip.
    EXPECT_EQ(q.tries(0), 0);
    q.setTries(0, 2);
    EXPECT_EQ(q.tries(0), 2);
    EXPECT_FALSE(q.isPoisoned(0));
    EXPECT_TRUE(q.poison(0));
    EXPECT_TRUE(q.isPoisoned(0));
    fs::remove_all(dir);
}

TEST(FleetQueue, RepublishRejectsStaleCampaignState)
{
    std::string dir = "/tmp/tea_fleet_test_stale";
    fs::remove_all(dir);
    WorkQueue q(dir);
    FleetPlan planA{tinyOptions(dir), tinySpec()};
    WorkUnit u0, u1;
    u0.id = 0;
    u1.id = 1;
    u1.cell = 1;
    ASSERT_TRUE(q.publish(planA, {u0, u1}));
    UnitResult done;
    done.unit = 0;
    done.result.runs = 6;
    ASSERT_TRUE(q.markDone(done));
    q.setTries(1, 1);
    ASSERT_TRUE(q.poison(1));

    // Byte-identical re-publish is a resume: state survives.
    ASSERT_TRUE(q.publish(planA, {u0, u1}));
    EXPECT_TRUE(q.isDone(0));
    EXPECT_TRUE(q.isPoisoned(1));
    EXPECT_EQ(q.tries(1), 1);

    // A different campaign (other seed) into the same spool: its
    // done/tries/poison describe other work and must be wiped, not
    // silently spliced into the new grid.
    FleetPlan planB = planA;
    planB.opt.seed += 1;
    ASSERT_TRUE(q.publish(planB, {u0, u1}));
    EXPECT_FALSE(q.isDone(0));
    EXPECT_FALSE(q.isPoisoned(1));
    EXPECT_EQ(q.tries(1), 0);
    ASSERT_TRUE(q.loadUnit(0).has_value());
    ASSERT_TRUE(q.loadUnit(1).has_value());

    // Same plan, different decomposition (e.g. another shard size):
    // a unit whose bytes changed voids its recorded state, and units
    // beyond the new count disappear from the workers' sweep.
    ASSERT_TRUE(q.markDone(done));
    WorkUnit r0 = u0;
    r0.kind = WorkUnit::Kind::Range;
    r0.lo = 0;
    r0.hi = 3;
    ASSERT_TRUE(q.publish(planB, {r0}));
    EXPECT_FALSE(q.isDone(0));
    EXPECT_EQ(q.listUnits(), std::vector<uint64_t>{0});
    auto reloaded = q.loadUnit(0);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(reloaded->kind, WorkUnit::Kind::Range);
    EXPECT_EQ(reloaded->hi, 3u);
    fs::remove_all(dir);
}

TEST(FleetQueue, LegacyEnginePlansKeepTheirSpool)
{
    // Builds that still had a DTA engine choice wrote a `dtabackend`
    // line (0 levelized, 1 the retired lane engine, 2 compiled) after
    // `maxadaptive`. Such a plan must parse, hash to the same campaign
    // identity and spool namespace as today's plan, and resume a spool
    // it published, so daemon campaigns keep their c<8hex> spool
    // across the upgrade.
    std::string dir = "/tmp/tea_fleet_test_upgrade";
    fs::remove_all(dir);
    FleetPlan plan{tinyOptions(dir), tinySpec()};
    // Computed on the last build that wrote `dtabackend`.
    EXPECT_EQ(spoolNamespace(plan), "ce8e19158");
    FleetPlan reseeded = plan;
    reseeded.opt.seed += 1;
    EXPECT_NE(spoolNamespace(plan), spoolNamespace(reseeded));

    const std::string current = plan.serialize();
    std::string body = *unsealBody(current);
    size_t at = body.find("\nmaxadaptive ");
    ASSERT_NE(at, std::string::npos);
    at = body.find('\n', at + 1) + 1;
    WorkUnit u0;
    u0.id = 0;
    UnitResult done;
    done.unit = 0;
    done.result.runs = 6;
    for (const char *engine : {"0", "1", "2"}) {
        std::string legacyBody = body;
        legacyBody.insert(at, std::string("dtabackend ") + engine + "\n");
        const std::string legacy = sealBody(legacyBody);

        auto parsed = FleetPlan::parse(legacy);
        ASSERT_TRUE(parsed.has_value()) << engine;
        EXPECT_EQ(parsed->serialize(), current) << engine;
        EXPECT_EQ(planIdentity(legacy), planIdentity(current)) << engine;
        EXPECT_EQ(spoolNamespace(*parsed), spoolNamespace(plan)) << engine;

        // A spool the earlier build published with that plan resumes.
        fs::remove_all(dir);
        WorkQueue q(dir);
        ASSERT_TRUE(q.publish(plan, {u0}));
        ASSERT_TRUE(q.markDone(done));
        ASSERT_TRUE(atomicWriteFile(q.planPath(), legacy));
        ASSERT_TRUE(q.loadPlan().has_value()) << engine;
        ASSERT_TRUE(q.publish(plan, {u0}));
        EXPECT_TRUE(q.isDone(0)) << engine;
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Shard-journal merge: bytes equal a single-threaded whole-cell run
// ---------------------------------------------------------------------

TEST(FleetShards, MergedJournalIsByteIdentical)
{
    std::string dir = "/tmp/tea_fleet_test_shards";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ToolflowOptions opt = tinyOptions(dir);
    opt.runsPerCell = 8;
    GridSpec spec;
    spec.workloads = {"sobel"};
    std::vector<CellPlan> cells = planEvaluationGrid(opt, spec);
    const CellPlan &cp = cells[0]; // sobel / DA

    // Reference: the whole cell on one thread — runGridCell leaves
    // its journal on disk, appended in run-index order.
    Toolflow tf(opt);
    CampaignCell ref = runGridCell(tf, cp, "");
    std::string jpath =
        cellJournalPath(opt, cp.workload, cp.model, cp.vrFrac);
    auto refJournal = readFileToString(jpath);
    ASSERT_TRUE(refJournal.has_value());
    ShardJournal(jpath).remove();

    // The same cell as two run-range shards, as fleet workers would
    // execute them (fresh Rng from the plan state for each).
    auto model = cellModel(tf, cp);
    std::string identity =
        cellIdentity(opt, cp.workload, *model, cp.vrFrac);
    auto &campaign = tf.campaign(cp.workload);
    std::vector<std::string> shardPaths = {dir + "/shard0.jnl",
                                           dir + "/shard1.jnl"};
    uint64_t splits[][2] = {{0, 3}, {3, 8}};
    for (int s = 0; s < 2; ++s) {
        ShardJournal sj(shardPaths[s]);
        ASSERT_EQ(sj.open(identity, true), 0u);
        InjectionCampaign::RunOptions ro;
        ro.pool = &tf.pool();
        ro.onComplete =
            [&sj](uint64_t i,
                  const InjectionCampaign::RunRecord &rec) {
                sj.append(i, rec);
            };
        Rng rng = Rng::fromState(cp.rngState);
        EXPECT_EQ(campaign.runRange(*model, splits[s][0], splits[s][1],
                                    rng, ro),
                  splits[s][1] - splits[s][0]);
    }

    // Coordinator-style merge: records from all shards, re-appended
    // into the canonical journal in run-index order.
    std::map<uint64_t, ShardJournal::RunRecord> merged;
    for (const auto &p : shardPaths) {
        ShardJournal sj(p);
        EXPECT_GT(sj.open(identity, true), 0u);
        for (const auto &[idx, rec] : sj.records())
            merged.emplace(idx, rec);
    }
    EXPECT_EQ(merged.size(), 8u);
    {
        ShardJournal canonical(jpath);
        canonical.open(identity, false);
        for (const auto &[idx, rec] : merged)
            canonical.append(idx, rec);
    }
    auto mergedJournal = readFileToString(jpath);
    ASSERT_TRUE(mergedJournal.has_value());
    EXPECT_EQ(*refJournal, *mergedJournal)
        << "merged shard journal must be byte-identical to the "
           "single-threaded whole-cell journal";

    // And replaying the merged journal reproduces the cell exactly.
    ToolflowOptions resumeOpt = opt;
    resumeOpt.resume = true;
    Toolflow tf2(resumeOpt);
    CampaignCell replayed = runGridCell(tf2, cp, "");
    EXPECT_EQ(replayed.result.runs, ref.result.runs);
    EXPECT_EQ(replayed.result.masked, ref.result.masked);
    EXPECT_EQ(replayed.result.sdc, ref.result.sdc);
    EXPECT_EQ(replayed.result.injectedErrors,
              ref.result.injectedErrors);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// End-to-end: N workers == 1 process, byte for byte
// ---------------------------------------------------------------------

TEST(FleetGrid, ByteIdenticalAcrossWorkerCounts)
{
    std::string dir = "/tmp/tea_fleet_test_e2e";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec = tinySpec();

    // Single-process reference; capture grid CSV + manifests, then
    // clear them so each fleet run regenerates at identical paths
    // (characterization caches stay warm and shared).
    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 6u);
    Artifacts refArt = captureAndClear(opt, spec);
    ASSERT_FALSE(refArt.csv.empty());

    for (int workers : {1, 2, 4}) {
        EvaluationGrid grid = runFleetGrid(
            opt, tinyFleet(workers, dir + "/spool" +
                                        std::to_string(workers)),
            spec);
        expectSameResults(ref, grid);
        Artifacts art = captureAndClear(opt, spec);
        EXPECT_EQ(refArt.csv, art.csv)
            << workers << "-worker grid CSV must be byte-identical";
        ASSERT_EQ(refArt.manifests.size(), art.manifests.size());
        for (size_t i = 0; i < art.manifests.size(); ++i) {
            ASSERT_FALSE(art.manifests[i].empty())
                << "missing manifest " << i << " at " << workers
                << " workers";
            EXPECT_EQ(normalizeManifest(refArt.manifests[i]),
                      normalizeManifest(art.manifests[i]))
                << "manifest " << i << " at " << workers << " workers";
        }
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, ChaosSigkillRecoversByteIdentical)
{
    std::string dir = "/tmp/tea_fleet_test_chaos";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec = tinySpec();

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    Artifacts refArt = captureAndClear(opt, spec);

    // Every unit's first attempt SIGKILLs its worker after 2 fresh
    // runs; reissued leases must resume the journals and finish.
    EvaluationGrid grid;
    {
        ScopedEnv chaos("TEA_FLEET_TEST_CRASH_RUNS", "2");
        grid = runFleetGrid(opt, tinyFleet(2, dir + "/spool"), spec);
    }
    expectSameResults(ref, grid);
    Artifacts art = captureAndClear(opt, spec);
    EXPECT_EQ(refArt.csv, art.csv)
        << "post-chaos grid CSV must be byte-identical";
    ASSERT_EQ(refArt.manifests.size(), art.manifests.size());
    for (size_t i = 0; i < art.manifests.size(); ++i) {
        ASSERT_FALSE(art.manifests[i].empty());
        // replayedRuns legitimately records the crash-resume replays;
        // everything else must match the uninterrupted reference.
        EXPECT_EQ(normalizeManifest(refArt.manifests[i], true),
                  normalizeManifest(art.manifests[i], true))
            << "manifest " << i;
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, CancelReapsWorkersAndResumesByteIdentical)
{
    std::string dir = "/tmp/tea_fleet_test_cancel";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    opt.runsPerCell = 200; // units outlast the cancellation
    GridSpec spec = tinySpec();

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    Artifacts refArt = captureAndClear(opt, spec);

    // Cancel the campaign's token once the workers finished a unit.
    const std::string spool = dir + "/spool";
    CancelToken token;
    EvaluationGrid cut;
    std::thread campaign([&] {
        cut = runFleetGrid(opt, tinyFleet(2, spool), spec, token);
    });
    WorkQueue q(spool);
    for (int i = 0; i < 12000 && !q.isDone(0) && !q.isDone(1); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.cancel();
    campaign.join();
    EXPECT_TRUE(cut.interrupted);
    EXPECT_LT(cut.cells.size(), ref.cells.size());
    // Every worker was reaped: this process has no child left.
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);

    // The resumed campaign keeps the finished units and the journaled
    // runs of the cut ones, and lands on the reference bytes.
    EvaluationGrid grid = runFleetGrid(opt, tinyFleet(2, spool), spec);
    EXPECT_FALSE(grid.interrupted);
    expectSameResults(ref, grid);
    Artifacts art = captureAndClear(opt, spec);
    EXPECT_EQ(refArt.csv, art.csv)
        << "resumed grid CSV must be byte-identical";
    ASSERT_EQ(refArt.manifests.size(), art.manifests.size());
    for (size_t i = 0; i < art.manifests.size(); ++i)
        EXPECT_EQ(normalizeManifest(refArt.manifests[i], true),
                  normalizeManifest(art.manifests[i], true))
            << "manifest " << i;
    fs::remove_all(dir);
}

TEST(FleetGrid, ShardedCellsMatchReference)
{
    std::string dir = "/tmp/tea_fleet_test_sharded";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec;
    spec.workloads = {"sobel"};

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    Artifacts refArt = captureAndClear(opt, spec);

    // 3-run shards: each 6-run cell becomes two Range units whose
    // journals the coordinator merges and replays.
    FleetOptions fopt = tinyFleet(2, dir + "/spool");
    fopt.shardRuns = 3;
    EvaluationGrid grid = runFleetGrid(opt, fopt, spec);
    expectSameResults(ref, grid);
    Artifacts art = captureAndClear(opt, spec);
    EXPECT_EQ(refArt.csv, art.csv);
    fs::remove_all(dir);
}

TEST(FleetGrid, ImportanceSampledGridIsByteIdentical)
{
    // REPRO_IS grids must keep the fleet contract: the surrogate is a
    // pure function of (seed, corpus, VR levels) so every worker
    // trains or cache-loads identical weights, per-site proposals
    // derive from the shared trace, and the weighted columns in the
    // grid CSV merge bit-exactly — including through 3-run shards,
    // whose journals carry each run's log weight verbatim.
    std::string dir = "/tmp/tea_fleet_test_is";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    opt.isEnable = true;
    opt.isBoost = 2.0;
    opt.isMaxTilted = 1e9;   // full tilt: nontrivial weights merge
    opt.isCorpusPerOp = 200; // keep surrogate training sub-second
    GridSpec spec;
    spec.workloads = {"sobel"};

    Toolflow tf(opt);
    EvaluationGrid ref = runEvaluationGrid(tf, spec);
    ASSERT_EQ(ref.cells.size(), 3u);
    // IA and WA cells sample the tilted proposal; DA stays plain.
    EXPECT_TRUE(ref.cells[1].result.weightedModel);
    EXPECT_TRUE(ref.cells[2].result.weightedModel);
    EXPECT_FALSE(ref.cells[0].result.weightedModel);
    EXPECT_GT(ref.cells[1].result.weightSum, 0.0);
    Artifacts refArt = captureAndClear(opt, spec);
    ASSERT_FALSE(refArt.csv.empty());
    EXPECT_NE(refArt.csv.find(",1,"), std::string::npos);

    for (int workers : {1, 2}) {
        FleetOptions fopt =
            tinyFleet(workers, dir + "/spool" + std::to_string(workers));
        if (workers == 2)
            fopt.shardRuns = 3; // exercise the weighted journal merge
        EvaluationGrid grid = runFleetGrid(opt, fopt, spec);
        expectSameResults(ref, grid);
        for (size_t i = 0; i < ref.cells.size(); ++i) {
            const auto &r = ref.cells[i].result;
            const auto &g = grid.cells[i].result;
            EXPECT_EQ(0, std::memcmp(&r.weightSum, &g.weightSum,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0, std::memcmp(&r.weightUnsafe, &g.weightUnsafe,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0, std::memcmp(&r.weightSqSum, &g.weightSqSum,
                                     sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
            EXPECT_EQ(0,
                      std::memcmp(&r.weightUnsafeSqSum,
                                  &g.weightUnsafeSqSum,
                                  sizeof(double)))
                << "cell " << i << " at " << workers << " workers";
        }
        Artifacts art = captureAndClear(opt, spec);
        EXPECT_EQ(refArt.csv, art.csv)
            << workers << "-worker IS grid CSV must be byte-identical";
    }
    fs::remove_all(dir);
}

TEST(FleetGrid, PoisonUnitDegradesToEngineFault)
{
    std::string dir = "/tmp/tea_fleet_test_poison";
    fs::remove_all(dir);
    ToolflowOptions opt = tinyOptions(dir);
    GridSpec spec;
    spec.workloads = {"sobel"};

    FleetOptions fopt = tinyFleet(2, dir + "/spool");
    fopt.maxAttempts = 2;
    EvaluationGrid grid;
    {
        // Unit 1 (sobel / IA-model) kills every worker that claims it.
        ScopedEnv poison("TEA_FLEET_TEST_POISON_UNIT", "1");
        grid = runFleetGrid(opt, fopt, spec);
    }
    // The campaign completed — three cells, no stall.
    ASSERT_EQ(grid.cells.size(), 3u);
    const auto &bad = grid.cells[1].result;
    EXPECT_EQ(bad.runs, static_cast<uint64_t>(opt.runsPerCell));
    EXPECT_EQ(bad.engineFault, bad.runs)
        << "poisoned cell must degrade to all-EngineFault";
    EXPECT_EQ(bad.classified(), 0u);
    EXPECT_TRUE(std::isnan(bad.avm()))
        << "a poisoned cell must not masquerade as AVM=0";
    EXPECT_DOUBLE_EQ(bad.fraction(inject::Outcome::EngineFault), 1.0);
    // The healthy neighbours completed normally.
    EXPECT_EQ(grid.cells[0].result.engineFault, 0u);
    EXPECT_EQ(grid.cells[2].result.engineFault, 0u);
    EXPECT_EQ(grid.cells[0].result.runs,
              static_cast<uint64_t>(opt.runsPerCell));
    // The quarantine marker is on disk for the post-mortem.
    WorkQueue q(dir + "/spool");
    EXPECT_TRUE(q.isPoisoned(1));
    EXPECT_FALSE(q.isPoisoned(0));
    fs::remove_all(dir);
}
