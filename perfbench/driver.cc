/**
 * @file
 * End-to-end benchmark driver for the TEA toolflow.
 *
 *   tea-perfbench --workload cold|grid|daemon --seed <n> --seconds <s>
 *                 --trace 0|1 --dir <scratch dir>
 *
 * One process runs one workload on inputs derived only from the seed,
 * measures for the given number of seconds, checks every output, and
 * prints one JSON object as its last stdout line:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end ones (latency_ms,
 * throughput_per_s, setup_s); with --trace 1 the driver records spans
 * around every call it makes into a layer and reports per-layer
 * metrics from them and from the program's own counters instead.
 *
 * Workloads (see perfbench/README.md for why each exists):
 *
 *  - cold:   model development from an empty characterization cache.
 *            One op = a fresh Toolflow characterizing the IA model, the
 *            seven benchmarks' WA models and the DA model for one VR
 *            level — gate-level DTA.
 *  - grid:   injection grid over warm (cached) models. One op = every
 *            cell of one VR level — the seven benchmarks on the OoO
 *            simulator and two threaded ones on the multi-core
 *            simulator, under each model.
 *  - daemon: closed-loop clients against an in-process tea-daemon over
 *            a real Unix socket. One op = one campaign, from SUBMIT to
 *            the DONE frame of its WATCH stream.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/results.hh"
#include "core/toolflow.hh"
#include "fleet/workunit.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;
using namespace tea;
using Clock = std::chrono::steady_clock;

namespace {

// ---- workload sizes --------------------------------------------------
// The characterization sizes are the toolflow defaults (4000 / 20000 /
// 20000) divided by 8, so IA, WA and DA keep their default shares of a
// model-development pass. Grid cells run 3 injection runs instead of
// 60; a cell's own overhead is a few ms, so injection runs still take
// about 98 % of a grid op. An op takes 1 to 6 s, so a 20 s run holds 4
// to 50 of them (daemon ops overlap), and a run with its set-up stays
// under a minute.

/**
 * Worker threads of every in-process Toolflow: fixed, so an op's work
 * does not depend on the host, and more than one, so the thread pool
 * and the shard merge run under parallel load.
 */
constexpr unsigned kThreads = 2;
/** Characterization sizes (ops per type / trace ops / DA sample). */
constexpr uint64_t kIaOps = 500;
constexpr uint64_t kWaOps = 2500;
constexpr uint64_t kDaOps = 2500;
/** Injection runs per grid cell and per daemon campaign cell. */
constexpr int kGridRuns = 3;
constexpr int kDaemonRuns = 6;
/** Bring-ups timed for setup_s; the median is reported. */
constexpr int kSetupReps = 5;
/** Closed-loop clients (and daemon executors). */
constexpr int kDaemonClients = 2;
/** The one workload every daemon campaign evaluates (all models, VRs). */
constexpr const char *kDaemonWorkload = "sobel";
/** Threaded variants the grid runs on the multi-core simulator. */
const std::vector<std::string> kThreadedWorkloads = {"k-means-mt",
                                                     "hotspot-mt"};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

// ---- spans -----------------------------------------------------------

/**
 * In-memory span log around the driver's calls into each layer. Off
 * (no clock reads, no records) unless --trace 1.
 */
class Spans
{
  public:
    struct Record
    {
        std::string name;
        int parent;
        unsigned tid;
        double start; ///< seconds since the log was created
        double dur;
    };

    class Scope
    {
      public:
        Scope(Spans &log, const char *name) : log_(log)
        {
            if (!log_.on_)
                return;
            parent_ = current();
            id_ = log_.open(name, parent_);
            current() = id_;
        }
        ~Scope()
        {
            if (!log_.on_)
                return;
            log_.close(id_);
            current() = parent_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        static int &current()
        {
            thread_local int cur = -1;
            return cur;
        }
        Spans &log_;
        int id_ = -1;
        int parent_ = -1;
    };

    explicit Spans(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    /** Mean duration in ms of the spans named `name` (0 when none). */
    double meanMs(const std::string &name) const
    {
        std::vector<double> d;
        for (const auto &r : recs_)
            if (r.name == name)
                d.push_back(r.dur * 1e3);
        return mean(d);
    }
    /** Total seconds spent in spans named `name`. */
    double totalS(const std::string &name) const
    {
        double s = 0;
        for (const auto &r : recs_)
            if (r.name == name)
                s += r.dur;
        return s;
    }

    /** Chrome trace_event JSON (complete events, microseconds). */
    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < recs_.size(); ++i) {
            const auto &r = recs_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          i ? "," : "", r.name.c_str(), r.tid,
                          r.start * 1e6, r.dur * 1e6, i, r.parent);
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    int open(const char *name, int parent)
    {
        double t = since(epoch_);
        std::lock_guard<std::mutex> lock(mu_);
        recs_.push_back({name, parent, threadId(), t, 0.0});
        return static_cast<int>(recs_.size() - 1);
    }
    void close(int id)
    {
        double t = since(epoch_);
        std::lock_guard<std::mutex> lock(mu_);
        recs_[id].dur = t - recs_[id].start;
    }
    unsigned threadId()
    {
        auto self = std::this_thread::get_id();
        for (size_t i = 0; i < tids_.size(); ++i)
            if (tids_[i] == self)
                return static_cast<unsigned>(i);
        tids_.push_back(self);
        return static_cast<unsigned>(tids_.size() - 1);
    }

    const bool on_;
    const Clock::time_point epoch_;
    std::mutex mu_; ///< guards recs_ and tids_
    std::vector<Record> recs_;
    std::vector<std::thread::id> tids_;
};

// ---- program counters ------------------------------------------------
// Named through the obs::metric catalog, so a renamed or retired family
// breaks the build instead of silently reading 0.

uint64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** Mean observation of a latency histogram (0 when empty). */
double
histogramMean(const char *name)
{
    obs::Histogram h =
        obs::Registry::global().histogram(name, obs::latencyBucketsMs());
    return h.count() ? h.sum() / static_cast<double>(h.count()) : 0.0;
}

// ---- run state -------------------------------------------------------

struct Run
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    /** One completed op, in seconds from the start of the window. */
    struct Op
    {
        double start;
        double dur;
    };
    std::vector<Op> ops;
    std::vector<double> setupS; ///< one entry per bring-up
    double prewarmS = 0;        ///< one-off cache fill (grid, daemon)

    void addOp(Clock::time_point windowStart, Clock::time_point opStart)
    {
        ops.push_back(
            {std::chrono::duration<double>(opStart - windowStart).count(),
             since(opStart)});
    }

    void fail(const std::string &what)
    {
        correct = false;
        if (problems.size() < 8)
            problems.push_back(what);
    }
};

core::ToolflowOptions
baseOptions(uint64_t seed, const std::string &cacheDir)
{
    core::ToolflowOptions opt;
    opt.seed = seed;
    opt.cacheDir = cacheDir;
    opt.threads = kThreads;
    opt.iaCountPerOp = kIaOps;
    opt.waMaxOps = kWaOps;
    opt.daSampleOps = kDaOps;
    opt.runsPerCell = kGridRuns;
    return opt;
}

/** Every field of a cell result that a correct program reproduces. */
std::string
resultDigest(const inject::CampaignResult &r)
{
    std::ostringstream o;
    o.precision(17);
    o << r.runs << ' ' << r.masked << ' ' << r.sdc << ' ' << r.crash << ' '
      << r.timeout << ' ' << r.engineFault << ' ' << r.injectedErrors
      << ' ' << r.committedInstructions << ' ' << r.wrongPathInjections
      << ' ' << r.weightSum << ' ' << r.weightUnsafe << ' '
      << r.mcCoherenceMasked << ' ' << r.mcSdcSameCore << ' '
      << r.mcSdcCrossCore << ' ' << r.mcSyncCrash << ' ' << r.mcDeadlock;
    return o.str();
}

/** Outcome-accounting invariants of one finished cell. */
bool
cellSane(const inject::CampaignResult &r, int runs)
{
    return !r.interrupted && r.engineFault == 0 &&
           r.runs == static_cast<uint64_t>(runs) &&
           r.masked + r.sdc + r.crash + r.timeout == r.runs;
}

/** CRC of every file in `dir`, in name order (the cached stats). */
std::string
dirDigest(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::string out;
    for (const auto &f : files) {
        std::ifstream in(f, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s:%08x;",
                      f.filename().string().substr(0, 2).c_str(),
                      crc32(ss.str()));
        out += buf;
    }
    return out;
}

/**
 * The set-up every workload times for setup_s: a toolflow brought up
 * for all seven benchmarks — gate-level FPU build, each benchmark's FP
 * trace (functional simulation) and golden OoO run.
 */
std::unique_ptr<core::Toolflow>
bringUp(Spans &spans, const core::ToolflowOptions &opt)
{
    std::unique_ptr<core::Toolflow> tf;
    {
        Spans::Scope s(spans, "toolflow_build");
        tf = std::make_unique<core::Toolflow>(opt);
    }
    for (const auto &w : workloads::workloadNames()) {
        {
            Spans::Scope s(spans, "trace");
            tf->trace(w);
        }
        Spans::Scope s(spans, "golden_run");
        tf->campaign(w);
    }
    return tf;
}

/** Median-of-kSetupReps bring-up; returns the last toolflow. */
std::unique_ptr<core::Toolflow>
timedSetup(Run &run, Spans &spans, const core::ToolflowOptions &opt)
{
    std::unique_ptr<core::Toolflow> tf;
    for (int i = 0; i < kSetupReps; ++i) {
        tf.reset();
        auto t0 = Clock::now();
        Spans::Scope s(spans, "setup");
        tf = bringUp(spans, opt);
        run.setupS.push_back(since(t0));
    }
    return tf;
}

// ---- cold: model development ----------------------------------------

/**
 * Develop every model of one VR level from nothing: a new Toolflow
 * (gate-level FPU build) over an empty cache directory, then the IA,
 * the seven WA and the DA characterizations. Returns the digest of the
 * cache files it wrote, "" on failure.
 */
std::string
coldOp(Run &run, Spans &spans, const std::string &dir, double vr)
{
    fs::remove_all(dir);
    core::ToolflowOptions opt = baseOptions(run.seed, dir);
    std::unique_ptr<core::Toolflow> tf;
    {
        Spans::Scope s(spans, "toolflow_build");
        tf = std::make_unique<core::Toolflow>(opt);
    }
    auto sane = [](const timing::CampaignStats &st) {
        return !st.interrupted && st.engineFaults == 0 &&
               st.totalOps() > 0 && st.errorRatio() >= 0.0 &&
               st.errorRatio() <= 1.0;
    };
    bool ok = true;
    {
        Spans::Scope s(spans, "characterize");
        ok = sane(tf->iaStats(vr)) && ok;
    }
    for (const auto &w : workloads::workloadNames()) {
        Spans::Scope s(spans, "characterize");
        ok = sane(tf->waStats(w, vr)) && ok;
    }
    {
        Spans::Scope s(spans, "characterize");
        double er = tf->daErrorRatio(vr);
        ok = er >= 0.0 && er <= 1.0 && ok;
    }
    return ok ? dirDigest(dir) : std::string();
}

void
runCold(Run &run, Spans &spans)
{
    const std::vector<double> vrs = core::ToolflowOptions{}.vrLevels;

    timedSetup(run, spans, baseOptions(run.seed, run.dir + "/setup"));

    // Op i develops the models of VR level i mod 2, so from the third
    // op on every op re-develops a level and must reproduce its cache
    // files byte for byte.
    std::map<size_t, std::string> seen;
    auto key = [&](size_t i) { return i % vrs.size(); };
    auto check = [&](size_t i, const std::string &digest) {
        if (digest.empty()) {
            ++run.failed;
            run.fail("cold: degraded characterization at op " +
                     std::to_string(i));
            return;
        }
        auto [it, fresh] = seen.emplace(key(i), digest);
        if (!fresh && it->second != digest) {
            ++run.failed;
            run.fail("cold: characterization not reproducible at op " +
                     std::to_string(i));
        }
    };

    std::string dir = run.dir + "/cold";
    auto start = Clock::now();
    size_t i = 0;
    while (since(start) < run.seconds) {
        auto t0 = Clock::now();
        std::string digest;
        {
            Spans::Scope s(spans, "cold_op");
            digest = coldOp(run, spans, dir, vrs[key(i)]);
        }
        run.addOp(start, t0);
        ++run.attempted;
        check(i, digest);
        ++i;
    }
    // A run too short to revisit a point still proves reproducibility
    // once, outside the measured window.
    if (i <= seen.size()) {
        ++run.attempted;
        check(0, coldOp(run, spans, dir, vrs[key(0)]));
    }
    fs::remove_all(dir);
}

// ---- grid: injection over warm models --------------------------------

void
runGrid(Run &run, Spans &spans)
{
    core::ToolflowOptions opt = baseOptions(run.seed, run.dir + "/grid");
    core::GridSpec spec;
    spec.workloads = workloads::workloadNames();
    spec.workloads.insert(spec.workloads.end(), kThreadedWorkloads.begin(),
                          kThreadedWorkloads.end());
    std::vector<core::CellPlan> cells = core::planEvaluationGrid(opt, spec);

    // One-off: fill the characterization cache (the cold workload
    // measures this path).
    {
        auto t0 = Clock::now();
        core::Toolflow filler(opt);
        for (const auto &cell : cells)
            core::cellModel(filler, cell);
        run.prewarmS = since(t0);
    }
    std::unique_ptr<core::Toolflow> tf = timedSetup(run, spans, opt);
    {
        Spans::Scope s(spans, "model_load");
        for (const auto &cell : cells)
            core::cellModel(*tf, cell);
    }

    // Op i runs every cell of VR level i mod 2: each benchmark under
    // each model. Both levels cost the same within a few percent, while
    // single cells differ a hundredfold with the model, so every op does
    // the same work whatever the speed of the program. From the third op
    // on, every cell revisits and must reproduce its first result
    // exactly.
    const std::vector<double> vrs = opt.vrLevels;
    std::vector<std::string> first(cells.size());
    auto check = [&](size_t c, const inject::CampaignResult &r) {
        std::string d = resultDigest(r);
        if (!cellSane(r, cells[c].runCap)) {
            run.fail("grid: bad outcome accounting in cell " +
                     std::to_string(c));
            return false;
        }
        if (first[c].empty())
            first[c] = d;
        if (first[c] != d) {
            run.fail("grid: cell " + std::to_string(c) +
                     " not reproducible");
            return false;
        }
        return true;
    };
    auto gridOp = [&](double vr) {
        Spans::Scope op(spans, "grid_op");
        bool ok = true;
        for (size_t c = 0; c < cells.size(); ++c) {
            if (cells[c].vrFrac != vr)
                continue;
            Spans::Scope s(spans, workloads::isThreadedWorkload(
                                      cells[c].workload)
                                      ? "mc_cell"
                                      : "grid_cell");
            ok = check(c, core::runGridCell(*tf, cells[c], "").result) &&
                 ok;
        }
        ++run.attempted;
        if (!ok)
            ++run.failed;
    };
    auto start = Clock::now();
    size_t i = 0;
    while (since(start) < run.seconds) {
        auto t0 = Clock::now();
        gridOp(vrs[i % vrs.size()]);
        run.addOp(start, t0);
        ++i;
    }
    // A run too short to revisit a level still proves reproducibility
    // once, outside the measured window.
    if (i <= vrs.size())
        gridOp(vrs[0]);
}

// ---- daemon: closed-loop campaign service ----------------------------

struct DaemonClient
{
    fleet::FleetPlan plan;
    std::vector<std::string> reference; ///< in-process cell digests
};

void
runDaemon(Run &run, Spans &spans)
{
    std::string cacheDir = run.dir + "/daemon";

    // Client k owns one plan with its own seed, so no two clients
    // collide on artifact coordinates and serialize. It resubmits that
    // plan after each completion; every campaign must reproduce the
    // in-process grid cell for cell.
    std::vector<DaemonClient> clients(kDaemonClients);
    for (int k = 0; k < kDaemonClients; ++k) {
        core::ToolflowOptions opt =
            baseOptions(run.seed * 16 + 1 + static_cast<uint64_t>(k),
                        cacheDir);
        opt.runsPerCell = kDaemonRuns;
        core::GridSpec spec;
        spec.workloads = {kDaemonWorkload};
        spec.useCache = false;
        clients[k].plan = fleet::FleetPlan{opt, spec};
    }

    // One-off: characterize every client's models and record the
    // in-process reference grid.
    {
        auto t0 = Clock::now();
        for (auto &c : clients) {
            core::Toolflow tf(c.plan.opt);
            core::EvaluationGrid grid =
                core::runEvaluationGrid(tf, c.plan.spec);
            for (const auto &cell : grid.cells)
                c.reference.push_back(resultDigest(cell.result));
            if (grid.interrupted || c.reference.empty())
                run.fail("daemon: in-process reference grid failed");
        }
        run.prewarmS = since(t0);
    }

    timedSetup(run, spans, clients[0].plan.opt);

    service::DaemonOptions dopt;
    dopt.socketPath = run.dir + "/d.sock";
    dopt.cacheDir = cacheDir;
    dopt.concurrency = kDaemonClients;
    dopt.queueCap = kDaemonClients + 1;
    dopt.clientInflight = 2;
    dopt.fleet.workers = 0;
    service::ServiceDaemon daemon(dopt);
    if (!daemon.start()) {
        run.fail("daemon: cannot bind " + dopt.socketPath);
        return;
    }

    std::mutex mu; ///< guards run's counters and latency samples
    auto start = Clock::now();
    auto clientLoop = [&](int k) {
        const DaemonClient &me = clients[k];
        std::string planBytes = me.plan.serialize();
        auto conn = service::Client::connectUnix(dopt.socketPath,
                                                 "bench" + std::to_string(k));
        if (!conn) {
            std::lock_guard<std::mutex> lock(mu);
            ++run.attempted;
            ++run.failed;
            run.fail("daemon: client cannot connect");
            return;
        }
        while (since(start) < run.seconds) {
            auto t0 = Clock::now();
            Spans::Scope op(spans, "daemon_campaign");
            service::Client::Submitted sub;
            bool ok;
            {
                Spans::Scope s(spans, "daemon_submit");
                ok = conn->submit(planBytes, sub);
            }
            std::vector<std::string> got;
            service::Client::Status fin;
            ok = ok && conn->watch(
                           sub.id,
                           [&got](const core::CampaignCell &cell) {
                               got.push_back(resultDigest(cell.result));
                           },
                           fin);
            bool good = ok && fin.state == "done" && got == me.reference;
            std::lock_guard<std::mutex> lock(mu);
            ++run.attempted;
            if (good) {
                run.addOp(start, t0);
            } else {
                ++run.failed;
                run.fail(ok ? "daemon: campaign result differs from "
                              "the in-process grid"
                            : "daemon: request failed: " +
                                  conn->lastError().detail);
                if (!ok)
                    return;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int k = 0; k < kDaemonClients; ++k)
        threads.emplace_back(clientLoop, k);
    for (auto &t : threads)
        t.join();
    daemon.stop();
}

// ---- report ----------------------------------------------------------

void
addMetric(std::string &out, const char *name, double value, const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name, value, unit);
    out += buf;
}

/**
 * Ops completed per second of the window [0, seconds]. The op that
 * straddles its end counts for the share of it inside, so one long
 * last op does not swing the rate.
 */
double
throughput(const Run &run)
{
    double done = 0;
    for (const auto &op : run.ops) {
        double inside = std::min(op.start + op.dur, run.seconds) - op.start;
        if (inside > 0)
            done += inside / op.dur;
    }
    return done / run.seconds;
}

std::string
endToEndMetrics(const Run &run)
{
    std::vector<double> lat;
    for (const auto &op : run.ops)
        lat.push_back(op.dur * 1e3);
    std::string m;
    addMetric(m, "latency_ms", median(lat), "ms");
    addMetric(m, "throughput_per_s", throughput(run), "1/s");
    addMetric(m, "setup_s", median(run.setupS), "s");
    return m;
}

std::string
perLayerMetrics(const Run &run, const Spans &spans)
{
    namespace k = obs::metric;
    std::string m;
    double dtaOps = static_cast<double>(counter(k::kDtaOps));
    double charS = spans.totalS("characterize");
    addMetric(m, "toolflow_build_ms", spans.meanMs("toolflow_build"), "ms");
    addMetric(m, "trace_ms", spans.meanMs("trace"), "ms");
    addMetric(m, "golden_run_ms", spans.meanMs("golden_run"), "ms");
    addMetric(m, "model_load_ms", spans.meanMs("model_load"), "ms");
    addMetric(m, "characterize_ms", spans.meanMs("characterize"), "ms");
    addMetric(m, "dta_ops_per_s", charS > 0 ? dtaOps / charS : 0.0, "1/s");
    addMetric(m, "dta_scalar_fallback_pct",
              dtaOps > 0 ? 100.0 *
                               static_cast<double>(
                                   counter(k::kDtaLaneFallbackOps)) /
                               dtaOps
                         : 0.0,
              "%");
    addMetric(m, "grid_cell_ms", spans.meanMs("grid_cell"), "ms");
    addMetric(m, "mc_cell_ms", spans.meanMs("mc_cell"), "ms");
    addMetric(m, "inject_run_ms", histogramMean(k::kInjectRunMs), "ms");
    addMetric(m, "inject_runs",
              static_cast<double>(counter(k::kInjectRuns)), "count");
    addMetric(m, "mc_invalidations",
              static_cast<double>(counter(k::kMcInvalidations)), "count");
    addMetric(m, "journal_appends",
              static_cast<double>(counter(k::kJournalAppends)), "count");
    addMetric(m, "cache_hits", static_cast<double>(counter(k::kCacheHits)),
              "count");
    addMetric(m, "cache_misses",
              static_cast<double>(counter(k::kCacheMisses)), "count");
    addMetric(m, "daemon_submit_ms", spans.meanMs("daemon_submit"), "ms");
    addMetric(m, "daemon_queue_wait_ms",
              histogramMean(k::kDaemonQueueWaitMs), "ms");
    addMetric(m, "daemon_campaign_ms", histogramMean(k::kDaemonCampaignMs),
              "ms");
    addMetric(m, "prewarm_s", run.prewarmS, "s");
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tea-perfbench --workload cold|grid|daemon "
                 "--seed <n> --seconds <s> --trace 0|1 --dir <path>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            run.workload = value;
        else if (flag == "--seed")
            run.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            run.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            run.trace = value == "1";
        else if (flag == "--dir")
            run.dir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || run.dir.empty() || !(run.seconds > 0) ||
        (run.workload != "cold" && run.workload != "grid" &&
         run.workload != "daemon"))
        return usage();

    // Status chatter goes nowhere: the last stdout line is the result.
    setLogLevel(LogLevel::Warn);
    fs::remove_all(run.dir);
    fs::create_directories(run.dir);

    Spans spans(run.trace);
    if (run.workload == "cold")
        runCold(run, spans);
    else if (run.workload == "grid")
        runGrid(run, spans);
    else
        runDaemon(run, spans);

    for (const auto &p : run.problems)
        std::fprintf(stderr, "tea-perfbench: %s\n", p.c_str());
    if (run.ops.empty())
        run.fail("no operation completed");
    if (spans.on())
        spans.write(run.dir + "/trace.json");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                run.correct ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed),
                run.trace ? perLayerMetrics(run, spans).c_str()
                          : endToEndMetrics(run).c_str());
    std::fflush(stdout);
    return 0;
}
