/**
 * The observability contract (ctest label tier1obs):
 *
 *  - counters/gauges/histograms are correct under the thread pool and
 *    dedup by (name, label);
 *  - the trace dump is well-formed Chrome trace_event JSON (checked
 *    with the in-tree parser);
 *  - run manifests round-trip through write/read;
 *  - and — the load-bearing one — campaign results are byte-identical
 *    with metrics + tracing armed vs. disabled.
 */

#include <gtest/gtest.h>

#include <atomic>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/results.hh"
#include "inject/campaign.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "util/threadpool.hh"
#include "util/watchdog.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::obs;

namespace {

std::string
tmpPath(const char *name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("tea_obs_test_") + name))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/**
 * Plans one event the run never reaches, so every run simulates the
 * whole program; optionally requests a cancellation while planning, so
 * the run's own watchdog stops it.
 */
class LateEventModel final : public models::ErrorModel
{
  public:
    explicit LateEventModel(CancelToken *cancelOnPlan = nullptr)
        : cancelOnPlan_(cancelOnPlan)
    {
    }
    models::ModelKind kind() const override
    {
        return models::ModelKind::DA;
    }
    std::string describe() const override { return "late-event"; }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &, Rng &) const override
    {
        if (cancelOnPlan_)
            cancelOnPlan_->cancel();
        sim::InjectionEvent ev{};
        ev.kind = sim::InjectionEvent::Kind::AnyDest;
        ev.index = ~0ULL;
        return {ev};
    }
    double expectedErrors(const models::ProgramProfile &) const override
    {
        return 0.0;
    }

  private:
    CancelToken *cancelOnPlan_;
};

} // namespace

// ---- metrics registry ----------------------------------------------

TEST(Metrics, CounterCorrectUnderThreadPool)
{
    Registry &reg = Registry::global();
    Counter c = reg.counter("tea_test_pool_total", "", "test");
    uint64_t before = c.value();
    ThreadPool pool(4);
    pool.parallelFor(0, 1000, [&](uint64_t, unsigned) { c.inc(1); });
    EXPECT_EQ(c.value() - before, 1000u);
}

TEST(Metrics, CounterDedupsByNameAndLabel)
{
    Registry &reg = Registry::global();
    Counter a = reg.counter("tea_test_dedup_total", "k=\"v\"", "test");
    Counter b = reg.counter("tea_test_dedup_total", "k=\"v\"");
    Counter other = reg.counter("tea_test_dedup_total", "k=\"w\"");
    uint64_t beforeA = a.value(), beforeOther = other.value();
    a.inc(3);
    EXPECT_EQ(b.value() - beforeA, 3u); // same underlying cell
    EXPECT_EQ(other.value() - beforeOther, 0u); // distinct label
}

TEST(Metrics, GaugeHoldsLastValue)
{
    Gauge g = Registry::global().gauge("tea_test_gauge", "", "test");
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.set(-7);
    EXPECT_EQ(g.value(), -7);
}

TEST(Metrics, HistogramBucketsAndSumUnderThreadPool)
{
    obs::Histogram h = Registry::global().histogram(
        "tea_test_hist_ms", {1.0, 10.0, 100.0}, "", "test");
    uint64_t before = h.count();
    ThreadPool pool(4);
    // 250 x 0.5 (bucket 0), 250 x 5 (bucket 1), 250 x 50 (bucket 2),
    // 250 x 500 (overflow).
    const double vals[4] = {0.5, 5.0, 50.0, 500.0};
    pool.parallelFor(0, 1000, [&](uint64_t i, unsigned) {
        h.observe(vals[i % 4]);
    });
    EXPECT_EQ(h.count() - before, 1000u);
    EXPECT_GE(h.bucketCount(0), 250u);
    EXPECT_GE(h.bucketCount(1), 250u);
    EXPECT_GE(h.bucketCount(2), 250u);
    EXPECT_GE(h.bucketCount(3), 250u);
    EXPECT_NEAR(h.sum(), 250 * (0.5 + 5.0 + 50.0 + 500.0), 1.0);
}

TEST(Metrics, SnapshotIsWellFormedJson)
{
    Registry &reg = Registry::global();
    reg.counter("tea_test_snap_total", "", "snapshot test").inc(1);
    json::Value snap = reg.snapshot();
    auto reparsed = json::parse(snap.dump(2));
    ASSERT_TRUE(reparsed.has_value());
    const json::Value *schema = reparsed->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "tea-metrics-v1");
    const json::Value *metrics = reparsed->find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->asArray().size(), 0u);
}

TEST(Metrics, PrometheusRenderingHasFamiliesAndHistogramSeries)
{
    Registry &reg = Registry::global();
    reg.counter("tea_test_prom_total", "", "prom test").inc(5);
    reg.histogram("tea_test_prom_ms", {1.0, 10.0}, "", "prom test")
        .observe(3.0);
    std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP tea_test_prom_total"), std::string::npos);
    EXPECT_NE(text.find("# TYPE tea_test_prom_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE tea_test_prom_ms histogram"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_bucket{le=\"10\"}"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_sum"), std::string::npos);
    EXPECT_NE(text.find("tea_test_prom_ms_count"), std::string::npos);
}

// ---- phase tracer --------------------------------------------------

TEST(Trace, DumpIsWellFormedChromeTraceJson)
{
    Tracer &tracer = Tracer::global();
    tracer.enable(1024);
    tracer.clear();
    {
        Span outer("outer.phase", "toolflow");
        ThreadPool pool(4);
        pool.parallelFor(0, 64, [&](uint64_t i, unsigned) {
            Span inner("inner.run", "inject",
                       static_cast<int64_t>(i));
        });
    }
    std::string path = tmpPath("trace.json");
    ASSERT_TRUE(tracer.dumpTo(path));
    auto parsed = json::parse(slurp(path));
    ASSERT_TRUE(parsed.has_value());
    const json::Value *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->asArray().size(), 65u); // 64 inner + 1 outer
    for (const json::Value &e : events->asArray()) {
        const json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->asString(), "X");
        EXPECT_NE(e.find("name"), nullptr);
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("dur"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
    }
    EXPECT_EQ(tracer.dropped(), 0u);
    std::filesystem::remove(path);
}

TEST(Trace, RingOverwritesAndCountsDrops)
{
    Tracer &tracer = Tracer::global();
    tracer.enable(16);
    tracer.clear();
    for (int i = 0; i < 40; ++i)
        Span s("span", "test");
    EXPECT_EQ(tracer.recorded(), 40u);
    EXPECT_EQ(tracer.dropped(), 24u);
    std::string path = tmpPath("trace_ring.json");
    ASSERT_TRUE(tracer.dumpTo(path));
    auto parsed = json::parse(slurp(path));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("traceEvents")->asArray().size(), 16u);
    std::filesystem::remove(path);
}

// ---- run manifests -------------------------------------------------

TEST(Manifest, RoundTripsThroughWriteAndRead)
{
    RunManifest m;
    m.workload = "sobel";
    m.model = "WA";
    m.modelDetail = "WA(sobel)";
    m.vrFrac = 0.20;
    m.seed = 7;
    m.runsPerCell = 60;
    m.workloadScale = 2;
    m.threads = 4;
    m.identity = "workload=sobel model=WA(sobel) vr=0.2000";
    m.journalPath = "/tmp/jnl";
    m.gridCsvPath = "/tmp/grid.csv";
    m.runs = 60;
    m.masked = 40;
    m.sdc = 10;
    m.crash = 6;
    m.timeout = 3;
    m.engineFault = 1;
    m.retries = 2;
    m.replayedRuns = 30;
    m.injectedErrors = 1234;
    m.committedInstructions = 987654;
    m.interrupted = false;

    std::string path = tmpPath("manifest.json");
    ASSERT_TRUE(writeRunManifest(path, m));
    auto back = readRunManifest(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->workload, m.workload);
    EXPECT_EQ(back->model, m.model);
    EXPECT_EQ(back->modelDetail, m.modelDetail);
    EXPECT_DOUBLE_EQ(back->vrFrac, m.vrFrac);
    EXPECT_EQ(back->seed, m.seed);
    EXPECT_EQ(back->runsPerCell, m.runsPerCell);
    EXPECT_EQ(back->workloadScale, m.workloadScale);
    EXPECT_EQ(back->threads, m.threads);
    EXPECT_EQ(back->identity, m.identity);
    EXPECT_EQ(back->journalPath, m.journalPath);
    EXPECT_EQ(back->gridCsvPath, m.gridCsvPath);
    EXPECT_EQ(back->runs, m.runs);
    EXPECT_EQ(back->masked, m.masked);
    EXPECT_EQ(back->sdc, m.sdc);
    EXPECT_EQ(back->crash, m.crash);
    EXPECT_EQ(back->timeout, m.timeout);
    EXPECT_EQ(back->engineFault, m.engineFault);
    EXPECT_EQ(back->retries, m.retries);
    EXPECT_EQ(back->replayedRuns, m.replayedRuns);
    EXPECT_EQ(back->injectedErrors, m.injectedErrors);
    EXPECT_EQ(back->committedInstructions, m.committedInstructions);
    EXPECT_EQ(back->interrupted, m.interrupted);
    // writeRunManifest stamps provenance that was left empty.
    EXPECT_FALSE(back->gitDescribe.empty());
    EXPECT_FALSE(back->wallTime.empty());
    EXPECT_FALSE(back->metrics.isNull());
    std::filesystem::remove(path);
}

TEST(Manifest, RejectsWrongSchema)
{
    std::string path = tmpPath("bad_manifest.json");
    {
        std::ofstream out(path);
        out << "{\"schema\": \"tea-manifest-v999\", "
               "\"workload\": \"x\"}\n";
    }
    EXPECT_FALSE(readRunManifest(path).has_value());
    std::filesystem::remove(path);
}

// ---- determinism: obs on vs off ------------------------------------

TEST(Metrics, RunRangeCountsWatchdogOutcomes)
{
    // Fleet workers execute their shards through runRange(); it must
    // count deadline cut-offs and cancelled runs exactly as run() does.
    inject::InjectionCampaign campaign(workloads::buildWorkload("mg", 1));
    Registry &reg = Registry::global();
    Counter deadline = reg.counter(metric::kWatchdogDeadline);
    Counter cancelled = reg.counter(metric::kWatchdogCancelled);
    ThreadPool pool(1);

    // A 1 ms deadline against a full mg run (tens of ms): both runs
    // are recorded, as RunDeadline EngineFaults.
    uint64_t deadlineBefore = deadline.value();
    uint64_t cancelledBefore = cancelled.value();
    std::vector<ErrorCode> faults;
    inject::InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    opts.runDeadlineMs = 1;
    opts.onComplete = [&](uint64_t,
                          const inject::InjectionCampaign::RunRecord &r) {
        faults.push_back(r.fault);
    };
    LateEventModel late;
    Rng rng(1);
    EXPECT_EQ(campaign.runRange(late, 0, 2, rng, opts), 2u);
    EXPECT_EQ(faults, std::vector<ErrorCode>(2, ErrorCode::RunDeadline));
    EXPECT_EQ(deadline.value() - deadlineBefore, 2u);
    EXPECT_EQ(cancelled.value() - cancelledBefore, 0u);

    // Cancellation requested while run 0 plans: run 0 is abandoned
    // mid-simulation and run 1 never starts. Nothing is recorded.
    CancelToken token;
    LateEventModel cancelling(&token);
    faults.clear();
    deadlineBefore = deadline.value();
    opts.runDeadlineMs = 0;
    opts.cancel = &token;
    Rng rng2(1);
    EXPECT_EQ(campaign.runRange(cancelling, 0, 2, rng2, opts), 0u);
    EXPECT_TRUE(faults.empty());
    EXPECT_EQ(cancelled.value() - cancelledBefore, 1u);
    EXPECT_EQ(deadline.value() - deadlineBefore, 0u);
}

TEST(Metrics, RunAndRunRangeCountReplaysCancelsAndDeadlines)
{
    // run() and runRange() share one per-run loop. Replays count in
    // both; deadline cut-offs count once per executed run, and run()
    // also counts a replayed cut-off, as it always has.
    inject::InjectionCampaign campaign(workloads::buildWorkload("mg", 1));
    Registry &reg = Registry::global();
    Counter deadline = reg.counter(metric::kWatchdogDeadline);
    Counter cancelled = reg.counter(metric::kWatchdogCancelled);
    Counter replays = reg.counter(metric::kInjectReplays);
    ThreadPool pool(2);
    LateEventModel late;
    using Record = inject::InjectionCampaign::RunRecord;

    // Run 0 replays a journaled cut-off, runs 1 and 2 execute into a
    // 1 ms deadline, run 3 replays a finished run.
    inject::InjectionCampaign::RunOptions opts;
    opts.pool = &pool;
    opts.runDeadlineMs = 1;
    opts.replay = [](uint64_t i, Record &r) {
        if (i != 0 && i != 3)
            return false;
        r = Record{};
        if (i == 0) {
            r.outcome = inject::Outcome::EngineFault;
            r.fault = ErrorCode::RunDeadline;
        }
        return true;
    };
    std::atomic<int> completed{0};
    opts.onComplete = [&](uint64_t, const Record &) { ++completed; };

    uint64_t d0 = deadline.value(), c0 = cancelled.value();
    uint64_t r0 = replays.value();
    Rng rng(1);
    auto res = campaign.run(late, 4, rng, opts);
    EXPECT_EQ(res.runs, 4u);
    EXPECT_EQ(res.engineFault, 3u);
    EXPECT_EQ(completed.load(), 2);
    EXPECT_EQ(replays.value() - r0, 2u);
    EXPECT_EQ(deadline.value() - d0, 3u);
    EXPECT_EQ(cancelled.value() - c0, 0u);

    completed = 0;
    d0 = deadline.value();
    r0 = replays.value();
    Rng rng2(1);
    EXPECT_EQ(campaign.runRange(late, 0, 4, rng2, opts), 2u);
    EXPECT_EQ(completed.load(), 2);
    EXPECT_EQ(replays.value() - r0, 2u);
    EXPECT_EQ(deadline.value() - d0, 2u);
    EXPECT_EQ(cancelled.value() - c0, 0u);

    // A cancellation during run 0's planning abandons it mid-run and
    // starts no other run: nothing is recorded by either entry point.
    CancelToken token;
    LateEventModel cancelling(&token);
    inject::InjectionCampaign::RunOptions copts;
    copts.pool = &pool;
    copts.cancel = &token;
    Rng rng3(1);
    auto cres = campaign.run(cancelling, 1, rng3, copts);
    EXPECT_TRUE(cres.interrupted);
    EXPECT_EQ(cres.runs, 0u);
    EXPECT_EQ(cancelled.value() - c0, 1u);
    token.reset();
    Rng rng4(1);
    EXPECT_EQ(campaign.runRange(cancelling, 0, 1, rng4, copts), 0u);
    EXPECT_EQ(cancelled.value() - c0, 2u);
}

TEST(Determinism, CampaignBytesIdenticalWithObsOnVsOff)
{
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::DaModel model(5e-3);
    ThreadPool pool(4);
    inject::InjectionCampaign::RunOptions opts;
    opts.pool = &pool;

    auto runOnce = [&] {
        Rng rng(42);
        return campaign.run(model, 8, rng, opts);
    };

    // Pass 1 runs with the process's ambient obs state; pass 2 with
    // the tracer freshly armed and the metric registry hot. Identical
    // bytes prove observability is observation-only. (The stronger
    // obs-subsystem-absent baseline was established against the
    // pre-obs tree when this layer landed.)
    Tracer::global().clear();
    auto off = runOnce();

    Tracer::global().enable(4096);
    auto on = runOnce();

    core::EvaluationGrid a, b;
    a.cells.push_back({"sobel", models::ModelKind::DA, 0.2, off});
    b.cells.push_back({"sobel", models::ModelKind::DA, 0.2, on});
    std::string pa = tmpPath("grid_off.csv");
    std::string pb = tmpPath("grid_on.csv");
    core::saveGrid(pa, a);
    core::saveGrid(pb, b);
    EXPECT_EQ(slurp(pa), slurp(pb));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}
