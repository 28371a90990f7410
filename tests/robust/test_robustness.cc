/**
 * @file
 * The fault-containment and durability contract: CRC32/Expected
 * primitives, watchdog cancellation and deadlines, hardened option
 * parsing, integrity-checked caches with quarantine, EngineFault
 * containment of throwing error models, and bit-identical
 * interrupt/resume through the shard journal.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/journal.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "inject/campaign.hh"
#include "isa/asmbuilder.hh"
#include "models/error_models.hh"
#include "sim/ooo_sim.hh"
#include "util/crc32.hh"
#include "util/expected.hh"
#include "util/logging.hh"
#include "util/watchdog.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::core;
using inject::InjectionCampaign;
using inject::Outcome;
using isa::AsmBuilder;
using fpu::FpuOp;

namespace {

/** Suppress expected warn() noise for a scope. */
struct Quiet
{
    Quiet() { setQuiet(true); }
    ~Quiet() { setQuiet(false); }
};

isa::Program
spinProgram()
{
    AsmBuilder b("spin");
    auto loop = b.newLabel();
    b.bind(loop);
    b.j(loop);
    return b.build();
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

/** An error model whose planner always throws. */
class ThrowingModel final : public models::ErrorModel
{
  public:
    models::ModelKind kind() const override
    {
        return models::ModelKind::DA;
    }
    std::string describe() const override { return "throwing"; }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &, Rng &) const override
    {
        throw std::runtime_error("planner bug");
    }
    double expectedErrors(const models::ProgramProfile &) const override
    {
        return 0;
    }
};

/**
 * Throws on every even-numbered plan() call. Driven single-threaded,
 * each run's attempt 0 faults and its retry succeeds.
 */
class FlakyModel final : public models::ErrorModel
{
  public:
    models::ModelKind kind() const override
    {
        return models::ModelKind::DA;
    }
    std::string describe() const override { return "flaky"; }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &, Rng &) const override
    {
        if (calls_.fetch_add(1) % 2 == 0)
            throw std::runtime_error("transient");
        return {};
    }
    double expectedErrors(const models::ProgramProfile &) const override
    {
        return 0;
    }

  private:
    mutable std::atomic<int> calls_{0};
};

void
expectSameAggregate(const inject::CampaignResult &a,
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
    EXPECT_EQ(a.wrongPathInjections, b.wrongPathInjections);
}

} // namespace

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(Crc32, KnownAnswerAndChaining)
{
    // The standard CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // Chaining across a split matches a single pass.
    uint32_t first = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, first), 0xCBF43926u);
    EXPECT_NE(crc32("123456788", 9), crc32("123456789", 9));
}

TEST(Expected, ValueAndErrorAlternatives)
{
    Expected<int> v(42);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 42);
    EXPECT_EQ(v.take(), 42);

    Expected<int> e(
        makeError(ErrorCode::CacheCorrupt, "bad byte at %d", 7));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code, ErrorCode::CacheCorrupt);
    EXPECT_NE(e.error().message.find("bad byte at 7"),
              std::string::npos);
    EXPECT_NE(e.error().describe().find("CacheCorrupt"),
              std::string::npos);

    Expected<void> ok;
    EXPECT_TRUE(ok.ok());
    Expected<void> bad(makeError(ErrorCode::IoError, "disk gone"));
    EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CancellationStopsTheSimulator)
{
    CancelToken token;
    token.cancel();
    Watchdog wd(&token);
    sim::OooSim sim(spinProgram());
    auto res = sim.run(100'000'000, &wd);
    EXPECT_EQ(res.status, sim::OooSim::Status::Interrupted);
    EXPECT_EQ(res.stop, Watchdog::Stop::Cancelled);
    // Cut off immediately, not after the cycle budget.
    EXPECT_LT(res.cycles, 0x2000u);
}

TEST(Watchdog, DeadlineStopsASlowRun)
{
    Watchdog wd(nullptr, 30); // 30 ms for an infinite loop
    sim::OooSim sim(spinProgram());
    auto res = sim.run(~0ULL, &wd);
    EXPECT_EQ(res.status, sim::OooSim::Status::Interrupted);
    EXPECT_EQ(res.stop, Watchdog::Stop::Deadline);
}

TEST(Watchdog, CancellationWinsARaceWithTheDeadline)
{
    // When a shutdown lands while the deadline has also expired, the
    // verdict matters: Deadline records the run as an EngineFault,
    // Cancelled drops it. The poll order pins cancellation as the
    // winner so a Ctrl-C during a slow run never fabricates a fault.
    CancelToken token;
    Watchdog wd(&token, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(wd.poll(), Watchdog::Stop::Deadline);
    token.cancel(); // both conditions now hold
    EXPECT_EQ(wd.poll(), Watchdog::Stop::Cancelled);
    EXPECT_EQ(wd.poll(), Watchdog::Stop::Cancelled) << "stable verdict";
}

TEST(Watchdog, CancelledRunNeverDoubleCountsAsDeadlineFault)
{
    // Campaign-level regression for the same race: with cancellation
    // requested and a 1 ms per-run deadline both cutting runs off, no
    // run may leak into the aggregate as a spurious EngineFault — the
    // campaign simply stops as interrupted.
    InjectionCampaign campaign(workloads::buildWorkload("sobel", 1));
    models::WaModel model("hot", aggressiveStats());
    CancelToken token;
    token.cancel();
    ThreadPool pool(2);
    InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    opts.cancel = &token;
    opts.runDeadlineMs = 1;
    Rng rng(7);
    auto res = campaign.run(model, 4, rng, opts);
    EXPECT_TRUE(res.interrupted);
    EXPECT_EQ(res.runs, 0u);
    EXPECT_EQ(res.engineFault, 0u)
        << "a cancelled run must be dropped, not recorded as a "
           "deadline EngineFault";
}

TEST(Watchdog, NoStopConditionsMeansNone)
{
    CancelToken token;
    Watchdog wd(&token, 0);
    EXPECT_EQ(wd.poll(), Watchdog::Stop::None);
    token.cancel();
    EXPECT_EQ(wd.poll(), Watchdog::Stop::Cancelled);
    token.reset();
    EXPECT_EQ(wd.poll(), Watchdog::Stop::None);
}

// ---------------------------------------------------------------------
// Hardened environment parsing
// ---------------------------------------------------------------------

TEST(OptionsFromEnv, RejectsAndClampsMalformedValues)
{
    Quiet q;
    setenv("REPRO_SEED", "banana", 1);
    setenv("REPRO_RUNS", "12abc", 1);
    setenv("REPRO_RUN_DEADLINE_MS", "oops", 1);
    auto opt = optionsFromEnv();
    ToolflowOptions defaults;
    EXPECT_EQ(opt.seed, defaults.seed);
    EXPECT_EQ(opt.runsPerCell, defaults.runsPerCell);
    EXPECT_EQ(opt.runDeadlineMs, 0);

    setenv("REPRO_RUNS", "-5", 1);
    EXPECT_EQ(optionsFromEnv().runsPerCell, 1);
    setenv("REPRO_RUN_DEADLINE_MS", "-100", 1);
    EXPECT_EQ(optionsFromEnv().runDeadlineMs, 0);

    setenv("REPRO_SEED", "0x10", 1);
    setenv("REPRO_RUNS", "250", 1);
    setenv("REPRO_RUN_DEADLINE_MS", "1500", 1);
    setenv("REPRO_RESUME", "1", 1);
    auto good = optionsFromEnv();
    EXPECT_EQ(good.seed, 16u);
    EXPECT_EQ(good.runsPerCell, 250);
    EXPECT_EQ(good.runDeadlineMs, 1500);
    EXPECT_TRUE(good.resume);

    unsetenv("REPRO_SEED");
    unsetenv("REPRO_RUNS");
    unsetenv("REPRO_RUN_DEADLINE_MS");
    unsetenv("REPRO_RESUME");
}

TEST(OptionsFromEnv, OneNumberSyntaxAndRowPolicies)
{
    // Every knob reads decimal or 0x hex — never octal — and an
    // out-of-range value is clamped or ignored as its table row says.
    Quiet q;
    setenv("REPRO_RUNS", "010", 1);
    setenv("REPRO_IS_CORPUS", "0x200", 1);
    setenv("REPRO_MC_CORES", "99", 1);    // clamps to the core limit
    setenv("REPRO_CI_CONF", "0.5", 1);    // open bound: keeps default
    setenv("REPRO_IS_FLOOR", "0", 1);     // open bound: keeps default
    setenv("REPRO_CI_TARGET", "0.7", 1);  // clamps to 0.49
    setenv("REPRO_IS", "yes", 1);         // not 0/1: keeps default
    auto opt = optionsFromEnv();
    ToolflowOptions defaults;
    EXPECT_EQ(opt.runsPerCell, 10);
    EXPECT_EQ(opt.isCorpusPerOp, 512u);
    EXPECT_EQ(opt.mcCores, isa::kMcMaxCores);
    EXPECT_EQ(opt.ciConf, defaults.ciConf);
    EXPECT_EQ(opt.isFloor, defaults.isFloor);
    EXPECT_EQ(opt.ciTarget, 0.49);
    EXPECT_EQ(opt.isEnable, defaults.isEnable);
    for (const char *v : {"REPRO_RUNS", "REPRO_IS_CORPUS", "REPRO_MC_CORES",
                          "REPRO_CI_CONF", "REPRO_IS_FLOOR",
                          "REPRO_CI_TARGET", "REPRO_IS"})
        unsetenv(v);
}

TEST(CacheTag, SanitizesAndNeverCollidesOnLongNames)
{
    std::string tag = Toolflow::cacheTag("wa", "has/slash es", 5);
    EXPECT_EQ(tag.find('/'), std::string::npos);
    EXPECT_EQ(tag.find(' '), std::string::npos);
    EXPECT_EQ(tag, "wa_has_slash_es_n5");

    // Two long names sharing a 60-char prefix must not collide the way
    // truncation would.
    std::string base(60, 'x');
    std::string a = Toolflow::cacheTag("wa", base + "alpha", 7);
    std::string b = Toolflow::cacheTag("wa", base + "beta", 7);
    EXPECT_NE(a, b);
    EXPECT_LT(a.size(), 64u);
    EXPECT_LT(b.size(), 64u);
}

// ---------------------------------------------------------------------
// Cache integrity
// ---------------------------------------------------------------------

TEST(CacheIntegrity, DetectsTruncationAndBitRot)
{
    auto stats = aggressiveStats();
    std::string path = "/tmp/tea_test_robust_stats.txt";
    ASSERT_TRUE(models::saveCampaignStats(path, stats));

    timing::CampaignStats loaded;
    ASSERT_EQ(models::loadCampaignStats(path, loaded),
              models::CacheLoad::Loaded);
    EXPECT_EQ(loaded.of(FpuOp::MulD).maskPool,
              stats.of(FpuOp::MulD).maskPool);

    // Truncation (a torn write) is Corrupt, not a parse of garbage.
    std::string full;
    {
        std::ifstream in(path);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(path, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }
    EXPECT_EQ(models::loadCampaignStats(path, loaded),
              models::CacheLoad::Corrupt);

    // A single flipped byte in the body is Corrupt too.
    {
        std::ofstream out(path, std::ios::trunc);
        std::string flipped = full;
        flipped[flipped.size() - 2] ^= 0x01;
        out << flipped;
    }
    EXPECT_EQ(models::loadCampaignStats(path, loaded),
              models::CacheLoad::Corrupt);

    EXPECT_EQ(models::loadCampaignStats("/tmp/tea_no_such_file", loaded),
              models::CacheLoad::Missing);
    std::remove(path.c_str());
}

TEST(CacheIntegrity, ToolflowQuarantinesAndRegenerates)
{
    Quiet q;
    std::string dir = "/tmp/tea_test_robust_cache";
    std::filesystem::remove_all(dir);
    ToolflowOptions opt;
    opt.iaCountPerOp = 50;
    opt.cacheDir = dir;
    opt.vrLevels = {0.20};
    {
        Toolflow tf(opt);
        EXPECT_EQ(tf.iaStats(0.20).totalOps(), 50u * fpu::kNumFpuOps);
    }
    // Exactly one stats file; flip one byte in its body.
    std::string statsFile;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".stats")
            statsFile = e.path().string();
    ASSERT_FALSE(statsFile.empty());
    {
        std::fstream f(statsFile, std::ios::in | std::ios::out);
        f.seekp(-3, std::ios::end);
        f.put('!');
    }
    // A fresh toolflow must detect the damage, quarantine the file,
    // and regenerate identical statistics.
    Toolflow tf2(opt);
    EXPECT_EQ(tf2.iaStats(0.20).totalOps(), 50u * fpu::kNumFpuOps);
    EXPECT_TRUE(std::filesystem::exists(statsFile + ".bad"));
    timing::CampaignStats reloaded;
    EXPECT_EQ(models::loadCampaignStats(statsFile, reloaded),
              models::CacheLoad::Loaded);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Cancelled characterization
// ---------------------------------------------------------------------

TEST(CancelledCharacterization, UnwindsWithoutCachingAndReleasesItsLead)
{
    // A characterization cut short by the toolflow's token throws
    // Cancelled, saves nothing and gives up its single-flight lead: a
    // toolflow on a live token then computes the same statistics (it
    // would wait forever on a leaked lead). The grid loop turns the
    // throw into an interrupted grid instead of ending the process.
    Quiet q;
    std::string dir = "/tmp/tea_test_robust_cancel_char";
    std::filesystem::remove_all(dir);
    ToolflowOptions opt;
    opt.iaCountPerOp = 50;
    opt.cacheDir = dir;
    opt.vrLevels = {0.20};
    GridSpec spec;
    spec.workloads = {"sobel"};
    const CellPlan ia = planEvaluationGrid(opt, spec).at(1);
    ASSERT_EQ(ia.model, models::ModelKind::IA);
    {
        CancelToken token;
        token.cancel();
        Toolflow tf(opt, token);
        try {
            tf.iaStats(0.20);
            ADD_FAILURE() << "a cancelled characterization must throw";
        } catch (const TeaException &e) {
            EXPECT_EQ(e.error().code, ErrorCode::Cancelled);
        }
        CampaignCell cell = runGridCell(tf, ia, "");
        EXPECT_TRUE(cell.result.interrupted);
        EXPECT_EQ(cell.result.runs, 0u);
    }
    spec.useCache = false;
    EvaluationGrid grid = runGrid(
        opt, spec, [](const CellPlan &, const std::string &) -> SourcedCell {
            throw TeaException(makeError(ErrorCode::Cancelled, "cut"));
        });
    EXPECT_TRUE(grid.interrupted);
    EXPECT_TRUE(grid.cells.empty());
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        EXPECT_NE(e.path().extension(), ".stats")
            << "partial statistics must not be cached: " << e.path();
    Toolflow live(opt);
    EXPECT_EQ(live.iaStats(0.20).totalOps(), 50u * fpu::kNumFpuOps);
    std::filesystem::remove_all(dir);
}

TEST(CancelledCharacterization, UncaughtEndsTheProcessInterrupted)
{
    // A bench main that reads statistics straight from its toolflow
    // lets the Cancelled exception escape main; the process then ends
    // the way an interrupted grid does, exit 130, not by aborting.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ToolflowOptions opt;
    opt.iaCountPerOp = 50;
    opt.cacheDir = "";
    opt.vrLevels = {0.20};
    EXPECT_EXIT(
        {
            CancelToken token;
            token.cancel();
            Toolflow tf(opt, token);
            [&tf]() noexcept { tf.iaStats(0.20); }();
        },
        ::testing::ExitedWithCode(130), "");
}

TEST(CacheIntegrity, QuarantineClaimsNumberedSlotsThenDegrades)
{
    Quiet q;
    namespace fs = std::filesystem;
    std::string dir = "/tmp/tea_test_robust_quarantine";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = dir + "/x.stats";
    auto put = [&](const std::string &text) {
        std::ofstream(path, std::ios::trunc) << text;
    };
    auto slurp = [](const std::string &p) {
        std::ifstream in(p);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };

    // First capture claims .bad; recorrupted regenerations claim
    // .bad2 ... .bad9 without ever overwriting the original evidence.
    put("first rot");
    EXPECT_TRUE(Toolflow::quarantineCache(path));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(slurp(path + ".bad"), "first rot");
    put("second rot");
    EXPECT_TRUE(Toolflow::quarantineCache(path));
    EXPECT_EQ(slurp(path + ".bad2"), "second rot");
    EXPECT_EQ(slurp(path + ".bad"), "first rot")
        << "later rot must never overwrite the first capture";
    for (int i = 3; i <= 9; ++i) {
        put("rot");
        EXPECT_TRUE(Toolflow::quarantineCache(path)) << "slot " << i;
        EXPECT_TRUE(fs::exists(path + ".bad" + std::to_string(i)));
    }

    // All nine slots taken: graceful degradation — report failure and
    // leave the corrupt file in place to be regenerated over.
    put("tenth rot");
    EXPECT_FALSE(Toolflow::quarantineCache(path));
    EXPECT_EQ(slurp(path), "tenth rot");

    // A source that vanished (raced with another process) fails every
    // rename and must report failure instead of aborting.
    EXPECT_FALSE(Toolflow::quarantineCache(dir + "/never_existed"));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Run-level containment
// ---------------------------------------------------------------------

TEST(Containment, ThrowingModelNeverAbortsAndNeverSkewsAvm)
{
    Quiet q;
    InjectionCampaign campaign(workloads::buildWorkload("sobel", 1));
    ThrowingModel model;
    ThreadPool pool(2);
    InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    Rng rng(7);
    auto res = campaign.run(model, 6, rng, opts);
    EXPECT_EQ(res.runs, 6u);
    EXPECT_EQ(res.engineFault, 6u);
    EXPECT_EQ(res.classified(), 0u);
    // No classified runs: the AVM is unknown, not a perfect zero.
    EXPECT_TRUE(std::isnan(res.avm()));
    EXPECT_TRUE(std::isnan(res.fraction(Outcome::Masked)));
    EXPECT_EQ(res.retries,
              6u * (inject::kDefaultRunAttempts - 1));
    EXPECT_DOUBLE_EQ(res.fraction(Outcome::EngineFault), 1.0);
    EXPECT_FALSE(res.interrupted);
}

TEST(Containment, TransientFaultRetriesDeterministically)
{
    InjectionCampaign campaign(workloads::buildWorkload("sobel", 1));
    FlakyModel model;
    // Single-threaded so the even/odd call pattern maps exactly to
    // (attempt 0 faults, attempt 1 succeeds) for every run.
    ThreadPool pool(1);
    InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    Rng rng(7);
    auto res = campaign.run(model, 4, rng, opts);
    EXPECT_EQ(res.runs, 4u);
    EXPECT_EQ(res.engineFault, 0u);
    EXPECT_EQ(res.retries, 4u);
    // An empty plan injects nothing, so every run masks.
    EXPECT_EQ(res.masked, 4u);
}

TEST(Containment, EngineFaultExcludedFromAvmArithmetic)
{
    inject::CampaignResult r;
    r.runs = 10;
    r.engineFault = 2;
    r.masked = 6;
    r.sdc = 2;
    EXPECT_EQ(r.classified(), 8u);
    EXPECT_DOUBLE_EQ(r.avm(), 0.25);
    EXPECT_DOUBLE_EQ(r.fraction(Outcome::SDC), 0.25);
    EXPECT_DOUBLE_EQ(r.fraction(Outcome::EngineFault), 0.2);
}

TEST(Containment, CreateFactoryReportsGoldenRunFailure)
{
    workloads::Workload w;
    w.name = "crasher";
    AsmBuilder b("crasher");
    b.li(5, 0x7f000000);
    b.ld(6, 5, 0);
    b.halt();
    w.program = b.build();
    auto res = InjectionCampaign::create(std::move(w));
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrorCode::GoldenRunFailed);

    auto good =
        InjectionCampaign::create(workloads::buildWorkload("sobel", 1));
    ASSERT_TRUE(good.ok());
    EXPECT_GT(good.value()->goldenCycles(), 0u);
}

// ---------------------------------------------------------------------
// Journal + resume
// ---------------------------------------------------------------------

TEST(Journal, InterruptedCampaignResumesBitIdentically)
{
    InjectionCampaign campaign(workloads::buildWorkload("sobel", 1));
    models::WaModel model("hot", aggressiveStats());
    constexpr int kRuns = 8;

    // Reference: one uninterrupted campaign.
    inject::CampaignResult ref;
    {
        ThreadPool pool(2);
        InjectionCampaign::RunOptions opts;
        opts.pool = &pool;
        Rng rng(7);
        ref = campaign.run(model, kRuns, rng, opts);
    }
    EXPECT_EQ(ref.runs, static_cast<uint64_t>(kRuns));

    // Interrupted campaign: cancel after three journaled completions.
    std::string jpath = "/tmp/tea_test_robust_journal.jnl";
    std::remove(jpath.c_str());
    const std::string identity = "robust-test-cell";
    CancelToken token;
    std::atomic<int> completed{0};
    {
        ShardJournal journal(jpath);
        EXPECT_EQ(journal.open(identity, true), 0u);
        ThreadPool pool(2);
        InjectionCampaign::RunOptions opts;
        opts.pool = &pool;
        opts.cancel = &token;
        opts.onComplete =
            [&](uint64_t i, const InjectionCampaign::RunRecord &rec) {
                journal.append(i, rec);
                if (completed.fetch_add(1) + 1 >= 3)
                    token.cancel();
            };
        Rng rng(7);
        auto partial = campaign.run(model, kRuns, rng, opts);
        EXPECT_TRUE(partial.interrupted);
        EXPECT_LT(partial.runs, static_cast<uint64_t>(kRuns));
        EXPECT_GE(completed.load(), 3);
    }

    // Resume at a different thread count: replay the journal, execute
    // only what is missing, and match the reference exactly.
    ShardJournal journal(jpath);
    size_t replayable = journal.open(identity, true);
    EXPECT_EQ(replayable, static_cast<size_t>(completed.load()));
    ASSERT_GT(replayable, 0u);
    std::atomic<int> executed{0};
    ThreadPool pool(4);
    InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    opts.replay = [&](uint64_t i, InjectionCampaign::RunRecord &rec) {
        return journal.tryReplay(i, rec);
    };
    opts.onComplete =
        [&](uint64_t, const InjectionCampaign::RunRecord &) {
            ++executed;
        };
    Rng rng(7);
    auto resumed = campaign.run(model, kRuns, rng, opts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(static_cast<size_t>(executed.load()) + replayable,
              static_cast<size_t>(kRuns));
    expectSameAggregate(resumed, ref);
    journal.remove();
    EXPECT_FALSE(std::filesystem::exists(jpath));
}

TEST(Journal, CorruptTailIsTruncatedNotFatal)
{
    Quiet q;
    std::string jpath = "/tmp/tea_test_robust_journal2.jnl";
    std::remove(jpath.c_str());
    const std::string identity = "tail-test";
    {
        ShardJournal j(jpath);
        j.open(identity, false);
        InjectionCampaign::RunRecord rec;
        rec.outcome = Outcome::SDC;
        rec.injected = 3;
        rec.committed = 100;
        for (uint64_t i = 0; i < 3; ++i)
            j.append(i, rec);
    }
    // A torn write: garbage where the next record should be.
    {
        std::ofstream out(jpath, std::ios::app);
        out << "r 3 1 9 9 9 1 0 cDEADBEEF-torn";
    }
    ShardJournal j2(jpath);
    EXPECT_EQ(j2.open(identity, true), 3u);
    InjectionCampaign::RunRecord rec;
    ASSERT_TRUE(j2.tryReplay(1, rec));
    EXPECT_EQ(rec.outcome, Outcome::SDC);
    EXPECT_EQ(rec.injected, 3u);
    EXPECT_EQ(rec.committed, 100u);
    EXPECT_FALSE(j2.tryReplay(3, rec));

    // A different identity must never replay foreign records.
    ShardJournal j3(jpath);
    EXPECT_EQ(j3.open("some-other-cell", true), 0u);
    std::remove(jpath.c_str());
}

TEST(Journal, TailTruncatedAtEveryByteOffsetKeepsValidPrefix)
{
    Quiet q;
    std::string jpath = "/tmp/tea_test_robust_journal3.jnl";
    std::remove(jpath.c_str());
    const std::string identity = "tail-sweep";

    // Four records with distinct payloads, so replay mix-ups show.
    auto makeRec = [](uint64_t i) {
        InjectionCampaign::RunRecord rec;
        rec.outcome = (i % 2) ? Outcome::SDC : Outcome::Masked;
        rec.injected = 10 * i + 1;
        rec.committed = 100 + i;
        rec.attempts = 1;
        return rec;
    };
    {
        ShardJournal j(jpath);
        j.open(identity, false);
        for (uint64_t i = 0; i < 4; ++i)
            j.append(i, makeRec(i));
    }
    std::string full;
    {
        std::ifstream in(jpath);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.back(), '\n');
    // Final record = everything after the fourth newline (header + 3
    // records precede it).
    size_t lastStart = 0;
    for (int n = 0; n < 4; ++n)
        lastStart = full.find('\n', lastStart) + 1;
    ASSERT_LT(lastStart, full.size());

    // Cut the file at every byte offset within the final record: a
    // complete final line (with or without its newline) keeps all 4
    // records; any shorter cut fails the CRC and keeps exactly the
    // 3-record prefix. Either way the journal must stay appendable.
    for (size_t len = lastStart; len <= full.size(); ++len) {
        {
            std::ofstream out(jpath, std::ios::trunc);
            out << full.substr(0, len);
        }
        size_t expect = len >= full.size() - 1 ? 4u : 3u;
        ShardJournal j(jpath);
        ASSERT_EQ(j.open(identity, true), expect) << "cut at " << len;
        InjectionCampaign::RunRecord rec;
        for (uint64_t i = 0; i < expect; ++i) {
            ASSERT_TRUE(j.tryReplay(i, rec)) << "cut at " << len;
            EXPECT_EQ(rec.injected, 10 * i + 1) << "cut at " << len;
            EXPECT_EQ(rec.committed, 100 + i) << "cut at " << len;
            EXPECT_EQ(rec.outcome,
                      (i % 2) ? Outcome::SDC : Outcome::Masked);
        }
        EXPECT_FALSE(j.tryReplay(expect, rec)) << "cut at " << len;
        // The rewrite must leave a cleanly-terminated file: a fresh
        // append after the torn tail must never fuse with a partial
        // line.
        j.append(expect, makeRec(expect));
        ShardJournal j2(jpath);
        ASSERT_EQ(j2.open(identity, true), expect + 1)
            << "append after cut at " << len;
        ASSERT_TRUE(j2.tryReplay(expect, rec));
        EXPECT_EQ(rec.injected, 10 * expect + 1);
    }
    std::remove(jpath.c_str());
}
