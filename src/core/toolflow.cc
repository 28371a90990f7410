#include "core/toolflow.hh"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "sim/func_sim.hh"
#include "util/crc32.hh"
#include "util/errors.hh"
#include "util/logging.hh"

namespace tea::core {

using timing::CampaignStats;

Toolflow::Toolflow(ToolflowOptions opt, const CancelToken &cancel)
    : opt_(std::move(opt)), watchdog_(&cancel),
      pool_(std::make_unique<ThreadPool>(opt_.threads)),
      core_(std::make_unique<fpu::FpuCore>())
{
    // First SIGINT/SIGTERM flips the process-wide (default) token; the
    // campaigns poll theirs cooperatively, flush their journals, and
    // the drivers print partial results instead of dying mid-write.
    installShutdownHandlers();
    // Arm REPRO_TRACE / REPRO_METRICS (idempotent; bench mains may
    // already have armed them from --trace/--metrics flags).
    obs::configureFromEnv();
    if (!opt_.cacheDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.cacheDir, ec);
        if (ec) {
            warn("cannot create cache dir '%s'; caching disabled",
                 opt_.cacheDir.c_str());
            opt_.cacheDir.clear();
        }
    }
}

inject::InjectionCampaign::RunOptions
Toolflow::runOptions() const
{
    inject::InjectionCampaign::RunOptions ro;
    ro.pool = pool_.get();
    ro.cancel = watchdog_.token();
    ro.runDeadlineMs = opt_.runDeadlineMs;
    ro.maxAttempts = opt_.maxRunAttempts;
    ro.ciTarget = opt_.ciTarget;
    ro.ciConf = opt_.ciConf;
    return ro;
}

size_t
Toolflow::pointFor(double vrFrac)
{
    int key = static_cast<int>(vrFrac * 10000 + 0.5);
    auto it = points_.find(key);
    if (it != points_.end())
        return it->second;
    double scale = vm_.delayFactorAtReduction(vrFrac);
    size_t idx = core_->addOperatingPoint(scale);
    points_[key] = idx;
    return idx;
}

std::string
Toolflow::cacheTag(const char *prefix, const std::string &name,
                   uint64_t n)
{
    // Sanitize: the name lands in a filename, so anything outside
    // [A-Za-z0-9._-] becomes '_'.
    std::string safe;
    safe.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        safe.push_back(ok ? c : '_');
    }
    // Long names are shortened to a readable prefix plus a CRC of the
    // *original* string: bounded length, and no two distinct names map
    // to the same tag the way plain truncation would.
    constexpr size_t kMaxName = 32;
    if (safe.size() > kMaxName) {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "~%08x",
                      crc32(name.data(), name.size()));
        safe = safe.substr(0, kMaxName - 9) + suffix;
    }
    char count[32];
    std::snprintf(count, sizeof(count), "_n%llu",
                  static_cast<unsigned long long>(n));
    return std::string(prefix) + "_" + safe + count;
}

std::string
Toolflow::cachePath(const std::string &tag, double vrFrac) const
{
    if (opt_.cacheDir.empty())
        return "";
    // "p3" names the cache-file revision: p1 was the sharded-campaign
    // statistics without an integrity envelope; p2 added the
    // CRC-guarded format; p3 switched the levelized engine's arrival
    // accumulation from float to double, which can reclassify
    // capture-edge samples and so invalidates cached statistics.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_vr%02d_s%llu_p3.stats",
                  static_cast<int>(vrFrac * 100 + 0.5),
                  static_cast<unsigned long long>(opt_.seed));
    return opt_.cacheDir + "/" + tag + buf;
}

bool
Toolflow::quarantineCache(const std::string &path)
{
    // The first .bad capture is the interesting evidence (it shows
    // what originally rotted); later corruption of the regenerated
    // file claims .bad2, .bad3, ... instead of overwriting it.
    std::error_code lastEc;
    for (int i = 1; i <= 9; ++i) {
        char suffix[8];
        if (i == 1)
            std::snprintf(suffix, sizeof(suffix), ".bad");
        else
            std::snprintf(suffix, sizeof(suffix), ".bad%d", i);
        std::string bad = path + suffix;
        std::error_code ec;
        if (std::filesystem::exists(bad, ec))
            continue;
        std::filesystem::rename(path, bad, ec);
        if (!ec) {
            warn("corrupt cache '%s' quarantined to '%s'; regenerating",
                 path.c_str(), bad.c_str());
            return true;
        }
        lastEc = ec;
    }
    warn("corrupt cache '%s' could not be quarantined (%s); "
         "regenerating over it",
         path.c_str(),
         lastEc ? lastEc.message().c_str() : "no free quarantine slot");
    return false;
}

namespace {

/**
 * Process-wide singleflight over on-disk characterization caches.
 * Two concurrent campaigns (daemon executor threads, each with its own
 * Toolflow but one shared cache dir) that need the same
 * (unit, operating point) characterization would otherwise both run
 * the gate-level campaign; instead the first becomes the leader and
 * the rest wait, then re-read the leader's freshly saved cache file.
 * Keyed on the cache *path* — the full on-disk identity (tag, VR,
 * seed, revision) — so distinct characterizations never serialize.
 */
struct StatsSingleflight
{
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::string> inflight;
};

StatsSingleflight &
statsSingleflight()
{
    static StatsSingleflight sf;
    return sf;
}

} // namespace

const CampaignStats &
Toolflow::characterize(
    const std::string &tag, double vrFrac,
    const std::function<CampaignStats(size_t)> &run)
{
    char keyBuf[32];
    std::snprintf(keyBuf, sizeof(keyBuf), "@%.4f", vrFrac);
    std::string key = tag + keyBuf;
    auto it = statsCache_.find(key);
    if (it != statsCache_.end())
        return it->second;

    obs::Registry &reg = obs::Registry::global();
    std::string path = cachePath(tag, vrFrac);
    CampaignStats stats;
    bool leader = false;
    StatsSingleflight &sf = statsSingleflight();
    auto releaseLead = [&] {
        if (!leader)
            return;
        std::lock_guard<std::mutex> lock(sf.mu);
        sf.inflight.erase(path);
        sf.cv.notify_all();
    };
    if (!path.empty()) {
        for (;;) {
            switch (models::loadCampaignStats(path, stats)) {
              case models::CacheLoad::Loaded:
                releaseLead();
                inform("loaded cached characterization %s",
                       path.c_str());
                reg.counter(obs::metric::kCacheHits, "",
                            "characterizations served from the stats "
                            "cache")
                    .inc(1);
                return statsCache_.emplace(key, std::move(stats))
                    .first->second;
              case models::CacheLoad::Missing:
                reg.counter(obs::metric::kCacheMisses, "",
                            "characterizations recomputed on a cold "
                            "cache")
                    .inc(1);
                break; // cold cache: the quiet, normal case
              case models::CacheLoad::Corrupt:
                reg.counter(obs::metric::kCacheCorrupt, "",
                            "cache files quarantined after failing "
                            "integrity checks")
                    .inc(1);
                quarantineCache(path);
                stats = CampaignStats{};
                break;
            }
            std::unique_lock<std::mutex> lock(sf.mu);
            if (!sf.inflight.count(path)) {
                sf.inflight.insert(path);
                leader = true;
                break;
            }
            // Someone else is computing this exact characterization
            // right now: wait, then re-read their saved cache.
            reg.counter(obs::metric::kCacheSingleflight, "",
                        "characterizations that waited on a concurrent "
                        "identical computation")
                .inc(1);
            sf.cv.wait(lock,
                       [&] { return !sf.inflight.count(path); });
        }
    }
    size_t point = pointFor(vrFrac);
    obs::Span span("toolflow.characterize", "toolflow");
    stats = run(point);
    if (stats.interrupted) {
        // Partial statistics never feed models or caches; a waiter
        // on this computation takes it over.
        releaseLead();
        inform("characterization '%s' interrupted; partial statistics "
               "discarded",
               key.c_str());
        throw TeaException(makeError(ErrorCode::Cancelled,
                                     "characterization '%s' interrupted",
                                     key.c_str()));
    }
    if (stats.engineFaults > 0) {
        warn("characterization '%s' degraded (%llu shard(s) dropped "
             "after repeated faults); statistics kept for this run but "
             "not cached",
             key.c_str(),
             static_cast<unsigned long long>(stats.engineFaults));
    } else if (!path.empty()) {
        models::saveCampaignStats(path, stats);
    }
    releaseLead();
    return statsCache_.emplace(key, std::move(stats)).first->second;
}

namespace {

/**
 * Adaptive characterizations live under their own cache names: the
 * run count is decided by convergence, so the interval parameters —
 * not an op count — are what identify the result. Keeping the name
 * distinct also keeps every fixed-size cache file byte-identical
 * whether or not adaptive mode was ever used.
 */
std::string
adaptiveName(const char *base, const ToolflowOptions &opt)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s-a%g-c%g", base, opt.ciTarget,
                  opt.ciConf);
    return buf;
}

/** Planner settings shared by the adaptive characterizations. */
stats::PlannerConfig
plannerConfig(const ToolflowOptions &opt, uint64_t cap)
{
    stats::PlannerConfig cfg;
    cfg.ciTarget = opt.ciTarget;
    cfg.ciConf = opt.ciConf;
    cfg.maxPerStratum = cap;
    return cfg;
}

} // namespace

const CampaignStats &
Toolflow::iaStats(double vrFrac)
{
    if (opt_.adaptive()) {
        // Cap far above any realistic convergence point; REPRO_MAX_RUNS
        // tightens it when gate-level time is the binding constraint.
        uint64_t cap = opt_.maxAdaptiveRuns ? opt_.maxAdaptiveRuns
                                            : (1ULL << 20);
        std::string tag =
            cacheTag("ia", adaptiveName("rnd", opt_), cap);
        return characterize(tag, vrFrac, [&](size_t point) {
            Rng rng(opt_.seed ^ 0x1a1a1aULL);
            inform("adaptive IA characterization at VR%.0f "
                   "(half-width %g at %g%%, %u threads)...",
                   vrFrac * 100, opt_.ciTarget, opt_.ciConf * 100,
                   pool_->numThreads());
            return timing::runAdaptiveRandomCampaign(
                *core_, point, plannerConfig(opt_, cap), rng,
                pool_.get(), &watchdog_);
        });
    }
    std::string tag = cacheTag("ia", "rnd", opt_.iaCountPerOp);
    return characterize(tag, vrFrac, [&](size_t point) {
        Rng rng(opt_.seed ^ 0x1a1a1aULL);
        inform("IA characterization at VR%.0f (%llu ops/type, "
               "%u threads)...",
               vrFrac * 100,
               static_cast<unsigned long long>(opt_.iaCountPerOp),
               pool_->numThreads());
        return timing::runRandomCampaign(*core_, point,
                                         opt_.iaCountPerOp, rng,
                                         pool_.get(),
                                         &watchdog_);
    });
}

const CampaignStats &
Toolflow::waStats(const std::string &workload, double vrFrac)
{
    if (opt_.adaptive()) {
        // The window list is the fixed-N geometry (extended when
        // REPRO_MAX_RUNS asks for more); a converged adaptive run
        // consumes a bit-exact prefix of it.
        uint64_t cap = opt_.maxAdaptiveRuns ? opt_.maxAdaptiveRuns
                                            : opt_.waMaxOps;
        uint64_t maxOps = std::max(opt_.waMaxOps, cap);
        std::string tag = cacheTag(
            "wa", adaptiveName(workload.c_str(), opt_), maxOps);
        return characterize(tag, vrFrac, [&](size_t point) {
            inform("adaptive WA characterization of %s at VR%.0f "
                   "(half-width %g at %g%%, %u threads)...",
                   workload.c_str(), vrFrac * 100, opt_.ciTarget,
                   opt_.ciConf * 100, pool_->numThreads());
            return timing::runAdaptiveTraceCampaign(
                *core_, point, trace(workload), maxOps,
                plannerConfig(opt_, cap), pool_.get(),
                &watchdog_);
        });
    }
    std::string tag = cacheTag("wa", workload, opt_.waMaxOps);
    return characterize(tag, vrFrac, [&](size_t point) {
        inform("WA characterization of %s at VR%.0f (%u threads)...",
               workload.c_str(), vrFrac * 100, pool_->numThreads());
        return timing::runTraceCampaign(*core_, point, trace(workload),
                                        opt_.waMaxOps, pool_.get(),
                                        &watchdog_);
    });
}

double
Toolflow::daErrorRatio(double vrFrac)
{
    int key = static_cast<int>(vrFrac * 10000 + 0.5);
    auto it = daEr_.find(key);
    if (it != daEr_.end())
        return it->second;
    // Monte-Carlo over instructions randomly extracted from all
    // benchmarks (paper Section IV.C.1) — realized as an even trace
    // sample per workload.
    std::string tag =
        opt_.adaptive()
            ? cacheTag("da", adaptiveName("all", opt_),
                       opt_.daSampleOps)
            : cacheTag("da", "all", opt_.daSampleOps);
    const CampaignStats &stats =
        characterize(tag, vrFrac, [&](size_t point) {
            inform("DA calibration at VR%.0f...", vrFrac * 100);
            CampaignStats merged;
            uint64_t per =
                opt_.daSampleOps / workloads::workloadNames().size();
            for (const auto &name : workloads::workloadNames()) {
                auto s =
                    opt_.adaptive()
                        ? timing::runAdaptiveTraceCampaign(
                              *core_, point, trace(name), per,
                              plannerConfig(opt_, per), pool_.get(),
                              &watchdog_)
                        : timing::runTraceCampaign(*core_, point,
                                                   trace(name), per,
                                                   pool_.get(),
                                                   &watchdog_);
                // Degradation and interruption are properties of the
                // merged calibration too.
                merged.merge(s);
                if (merged.interrupted)
                    break;
            }
            return merged;
        });
    double er = stats.errorRatio();
    daEr_[key] = er;
    return er;
}

models::DaModel
Toolflow::daModel(double vrFrac)
{
    return models::DaModel(daErrorRatio(vrFrac));
}

models::IaModel
Toolflow::iaModel(double vrFrac)
{
    return models::IaModel(iaStats(vrFrac));
}

models::WaModel
Toolflow::waModel(const std::string &workload, double vrFrac)
{
    return models::WaModel(workload, waStats(workload, vrFrac));
}

const surrogate::ErrorSurrogate &
Toolflow::surrogate()
{
    if (surrogate_)
        return *surrogate_;

    // Identity: everything the trained weights are a function of. The
    // VR levels enter via a CRC over their exact bit patterns, so two
    // level lists that differ in any ulp train separately.
    std::string vrBits;
    for (double vr : opt_.vrLevels) {
        char buf[24];
        uint64_t bits;
        std::memcpy(&bits, &vr, sizeof(bits));
        std::snprintf(buf, sizeof(buf), "%016llx,",
                      static_cast<unsigned long long>(bits));
        vrBits += buf;
    }
    char identity[128];
    std::snprintf(identity, sizeof(identity),
                  "surrogate s%llu n%llu v%08x",
                  static_cast<unsigned long long>(opt_.seed),
                  static_cast<unsigned long long>(opt_.isCorpusPerOp),
                  crc32(vrBits.data(), vrBits.size()));
    std::string path;
    if (!opt_.cacheDir.empty()) {
        char file[96];
        std::snprintf(file, sizeof(file),
                      "/surrogate_s%llu_n%llu_v%08x_p1.sg",
                      static_cast<unsigned long long>(opt_.seed),
                      static_cast<unsigned long long>(
                          opt_.isCorpusPerOp),
                      crc32(vrBits.data(), vrBits.size()));
        path = opt_.cacheDir + file;
    }

    auto sg = std::make_unique<surrogate::ErrorSurrogate>();
    obs::Registry &reg = obs::Registry::global();
    bool cached = !path.empty() && sg->load(path, identity);
    if (cached) {
        inform("loaded cached surrogate %s (AUC %.3f)", path.c_str(),
               sg->heldOutAuc());
        reg.counter(obs::metric::kCacheHits, "",
                    "characterizations served from the stats cache")
            .inc(1);
    } else {
        std::vector<std::pair<double, size_t>> vrPoints;
        for (double vr : opt_.vrLevels)
            vrPoints.emplace_back(vr, pointFor(vr));
        surrogate::CorpusConfig cfg;
        cfg.seed = opt_.seed;
        cfg.opsPerOpPerVr = opt_.isCorpusPerOp;
        inform("training error surrogate (%llu ops/type x %zu VR "
               "levels)...",
               static_cast<unsigned long long>(cfg.opsPerOpPerVr),
               opt_.vrLevels.size());
        obs::Span span("toolflow.surrogate", "toolflow");
        auto t0 = std::chrono::steady_clock::now();
        sg->train(*core_, vrPoints, cfg);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        reg.histogram(obs::metric::kSurrogateTrainMs,
                      obs::latencyBucketsMs(), "",
                      "wall-clock ms spent training the error "
                      "surrogate")
            .observe(ms);
        inform("surrogate trained: held-out AUC %.3f over %llu "
               "corpus ops (%.0f ms)",
               sg->heldOutAuc(),
               static_cast<unsigned long long>(sg->corpusOps()), ms);
        if (!path.empty())
            sg->save(path, identity);
    }
    // Fractional gauges export in parts-per-million (gauges are
    // integral); see docs/OBSERVABILITY.md.
    reg.gauge(obs::metric::kSurrogateAuc, "",
              "held-out surrogate AUC in parts per million")
        .set(static_cast<int64_t>(sg->heldOutAuc() * 1e6));
    reg.counter(obs::metric::kSurrogateCorpusOps, "",
                "gate-level DTA ops spent building surrogate corpora")
        .inc(cached ? 0 : sg->corpusOps());
    surrogate_ = std::move(sg);
    return *surrogate_;
}

const workloads::Workload &
Toolflow::workload(const std::string &name)
{
    auto it = workloads_.find(name);
    if (it == workloads_.end()) {
        it = workloads_
                 .emplace(name, workloads::buildWorkload(
                                    name, opt_.seed, opt_.workloadScale))
                 .first;
    }
    return it->second;
}

const std::vector<sim::FpTraceEntry> &
Toolflow::trace(const std::string &name)
{
    auto it = traces_.find(name);
    if (it == traces_.end()) {
        const auto &w = workload(name);
        // Threaded workloads trace on N cores; entries merge in the
        // deterministic interleave order, so the trace is a pure
        // function of (workload, cores).
        sim::FuncSim::Config fcfg;
        fcfg.cores = w.threaded ? opt_.mcCores : 1;
        sim::FuncSim sim(w.program, fcfg);
        std::vector<sim::FpTraceEntry> tr;
        sim.setFpTrace(&tr);
        auto res = sim.run();
        fatal_if(res.status != sim::FuncSim::Status::Halted,
                 "workload '%s' did not halt while tracing", name.c_str());
        it = traces_.emplace(name, std::move(tr)).first;
    }
    return it->second;
}

inject::InjectionCampaign &
Toolflow::campaign(const std::string &name)
{
    auto it = campaigns_.find(name);
    if (it == campaigns_.end()) {
        mc::McConfig mcCfg;
        mcCfg.cores = opt_.mcCores;
        mcCfg.quantum = opt_.mcQuantum;
        it = campaigns_
                 .emplace(name,
                          std::make_unique<inject::InjectionCampaign>(
                              workload(name), sim::OooConfig{}, mcCfg))
                 .first;
    }
    return *it->second;
}

} // namespace tea::core
