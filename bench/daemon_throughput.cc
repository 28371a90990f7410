/**
 * @file
 * Campaign-service throughput ladder (BENCH_daemon.json).
 *
 * Starts an in-process tea-daemon on a Unix-domain socket and drives
 * it with real protocol clients:
 *
 *  1. **Request latency** — STATUS round-trips per second on an idle
 *     daemon (pure framing + dispatch cost).
 *  2. **Campaign throughput** — N distinct small campaigns submitted
 *     at once and watched to completion, at scheduler concurrency 1,
 *     2 and 4, with speedup vs concurrency 1.
 *  3. **Dedup fan-out** — the same plan submitted by many clients:
 *     one execution, every watcher streamed the full cell set.
 *
 * `--json <path>` writes the machine-readable report
 * (scripts/bench_snapshot.sh records it as BENCH_daemon.json).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/results.hh"
#include "core/toolflow.hh"
#include "obs/json.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::core;
using namespace tea::service;

namespace {

ToolflowOptions
benchOptions(const std::string &cacheDir, uint64_t seed)
{
    ToolflowOptions opt = optionsFromEnv();
    if (!std::getenv("REPRO_RUNS"))
        opt.runsPerCell = 6;
    opt.threads = 1;
    opt.seed = seed;
    opt.cacheDir = cacheDir;
    return opt;
}

fleet::FleetPlan
benchPlan(const std::string &cacheDir, uint64_t seed)
{
    GridSpec spec;
    spec.workloads = {"sobel"};
    return fleet::FleetPlan{benchOptions(cacheDir, seed), spec};
}

constexpr int kConcurrency[] = {1, 2, 4};
constexpr uint64_t kDedupSeed = 999;

/**
 * Seed of campaign `i` on the rung at concurrency `conc`. Distinct per
 * rung so every campaign re-executes its cells instead of loading a
 * cached grid.
 */
uint64_t
ladderSeed(int conc, int i)
{
    return 100 * static_cast<uint64_t>(conc) + static_cast<uint64_t>(i);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    std::string jsonPath =
        bench::consumeFlagValue(argc, argv, "--json");
    bench::banner("campaign-service throughput ladder",
                  "daemon scheduling over the fleet substrate");

    std::string cacheDir = std::getenv("REPRO_CACHE")
                               ? std::getenv("REPRO_CACHE")
                               : "/tmp/tea_bench_daemon_cache";
    // The socket lives in the cache dir, next to everything else the
    // ladder writes.
    std::string sock = cacheDir + "/daemon.sock";
    const int campaigns = 4;

    // Warm the characterization caches of every seed the ladder and
    // the dedup fan-out submit (cache files are per seed), so they
    // time campaign scheduling and execution, not gate-level
    // simulation. The warm grids are not cached, and a grid an earlier
    // ladder run cached is dropped, so the timed campaigns still
    // execute their cells.
    std::filesystem::create_directories(cacheDir);
    std::vector<uint64_t> warmSeeds{kDedupSeed};
    for (int conc : kConcurrency)
        for (int i = 0; i < campaigns; ++i)
            warmSeeds.push_back(ladderSeed(conc, i));
    setQuiet(true);
    for (uint64_t seed : warmSeeds) {
        fleet::FleetPlan warm = benchPlan(cacheDir, seed);
        Toolflow tf(warm.opt);
        GridSpec spec = warm.spec;
        spec.useCache = false;
        runEvaluationGrid(tf, spec);
        std::filesystem::remove(gridCachePath(warm.opt, warm.spec));
    }
    setQuiet(false);

    // ---- 1. request latency ----------------------------------------
    double reqPerSec = 0;
    {
        DaemonOptions opt;
        opt.socketPath = sock;
        opt.cacheDir = cacheDir;
        opt.fleet.workers = 0;
        ServiceDaemon daemon(opt);
        if (!daemon.start()) {
            std::printf("daemon_throughput: cannot bind %s\n",
                        sock.c_str());
            return 2;
        }
        auto client = Client::connectUnix(sock, "bench");
        if (!client) {
            std::printf("daemon_throughput: cannot connect\n");
            return 2;
        }
        const int reqs = 2000;
        Client::Status st;
        bench::WallTimer t;
        for (int i = 0; i < reqs; ++i)
            client->status(999999, st); // NOT_FOUND round-trip
        double sec = t.seconds();
        reqPerSec = sec > 0 ? reqs / sec : 0;
        daemon.stop();
        std::printf("request latency: %d STATUS round-trips in "
                    "%.3f s (%.0f req/s)\n\n",
                    reqs, sec, reqPerSec);
    }

    // ---- 2. campaign throughput ladder -----------------------------
    Table table(
        {"concurrency", "seconds", "campaigns/s", "speedup"});
    obs::json::Array rows;
    double oneSec = 0;
    for (int conc : kConcurrency) {
        DaemonOptions opt;
        opt.socketPath = sock;
        opt.cacheDir = cacheDir;
        opt.concurrency = conc;
        opt.queueCap = campaigns + 1;
        opt.clientInflight = campaigns + 1;
        opt.fleet.workers = 0;
        ServiceDaemon daemon(opt);
        if (!daemon.start()) {
            std::printf("daemon_throughput: cannot bind %s\n",
                        sock.c_str());
            return 2;
        }
        setQuiet(true);
        auto client = Client::connectUnix(sock, "bench");
        bench::WallTimer t;
        std::vector<uint64_t> ids;
        for (int i = 0; i < campaigns; ++i) {
            Client::Submitted sub;
            if (!client->submit(
                    benchPlan(cacheDir, ladderSeed(conc, i)).serialize(),
                    sub)) {
                setQuiet(false);
                std::printf("daemon_throughput: submit failed: %s\n",
                            client->lastError().detail.c_str());
                return 1;
            }
            ids.push_back(sub.id);
        }
        Client::Status fin;
        for (uint64_t id : ids)
            client->watch(id, nullptr, fin);
        double sec = t.seconds();
        daemon.stop();
        setQuiet(false);
        if (conc == 1)
            oneSec = sec;
        double speedup = sec > 0 && oneSec > 0 ? oneSec / sec : 0;
        table.addRow({std::to_string(conc), Table::num(sec, 2),
                      Table::num(sec > 0 ? campaigns / sec : 0, 2),
                      Table::num(speedup, 2)});
        rows.push_back(obs::json::Object{
            {"concurrency", static_cast<int64_t>(conc)},
            {"seconds", sec},
            {"campaignsPerSec", sec > 0 ? campaigns / sec : 0.0},
            {"speedupVsConc1", speedup},
        });
    }
    std::printf("%s\n", table.render("campaign throughput").c_str());
    std::printf("%d campaigns (sobel grid, distinct seeds) per rung; "
                "speedup vs concurrency 1\n\n",
                campaigns);

    // ---- 3. dedup fan-out ------------------------------------------
    double dedupSec = 0;
    bool dedupOk = true;
    {
        DaemonOptions opt;
        opt.socketPath = sock;
        opt.cacheDir = cacheDir;
        opt.fleet.workers = 0;
        ServiceDaemon daemon(opt);
        if (!daemon.start())
            return 2;
        setQuiet(true);
        std::string plan = benchPlan(cacheDir, kDedupSeed).serialize();
        const int watchers = 4;
        std::vector<Client> clients;
        std::vector<uint64_t> ids;
        bench::WallTimer t;
        for (int i = 0; i < watchers; ++i) {
            auto c = Client::connectUnix(
                sock, "w" + std::to_string(i));
            if (!c)
                return 2;
            Client::Submitted sub;
            if (!c->submit(plan, sub))
                return 1;
            dedupOk = dedupOk && (i == 0 ? !sub.deduped : sub.deduped);
            ids.push_back(sub.id);
            clients.push_back(std::move(*c));
        }
        for (int i = 0; i < watchers; ++i) {
            size_t cells = 0;
            Client::Status fin;
            clients[i].watch(
                ids[i],
                [&cells](const CampaignCell &) { ++cells; },
                fin);
            dedupOk = dedupOk && fin.state == "done" &&
                      cells == fin.cellsTotal;
        }
        dedupSec = t.seconds();
        daemon.stop();
        setQuiet(false);
        std::printf("dedup fan-out: %d watchers, one execution, "
                    "%.2f s (%s)\n",
                    watchers, dedupSec, dedupOk ? "ok" : "FAIL");
    }

    if (!jsonPath.empty()) {
        obs::json::Object report{
            {"schema", "tea-bench-daemon-v1"},
            {"git", obs::gitDescribe()},
            {"nproc",
             static_cast<int64_t>(std::thread::hardware_concurrency())},
            {"statusReqPerSec", reqPerSec},
            {"campaignsPerRung", static_cast<int64_t>(campaigns)},
            {"ladder", std::move(rows)},
            {"dedupFanoutSec", dedupSec},
            {"dedupFanoutOk", dedupOk},
        };
        std::string text =
            obs::json::Value(std::move(report)).dump(2);
        if (!atomicWriteFile(jsonPath, text + "\n")) {
            std::printf("cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    std::filesystem::remove(sock);
    return dedupOk ? 0 : 1;
}
