/**
 * @file
 * Multi-core injection scaling ladder (BENCH_mc.json).
 *
 * Runs DA-model campaigns on the threaded workloads (k-means-mt,
 * hotspot-mt) at 2 and 4 cores and records the multi-core outcome
 * refinement (DESIGN.md §15): how many masked runs were coherence-
 * masked, how the SDCs split between same-core and cross-core
 * propagation, and how many crashes/timeouts were synchronization
 * faults or barrier deadlocks — plus campaign throughput per cell.
 *
 * The error ratio is synthetic and deliberately elevated far above
 * any characterized operating point: the ladder's purpose is not an
 * AVM estimate but coverage of the refined taxonomy, and the gate is
 * that cross-core SDC propagation is OBSERVED (nonzero across the
 * ladder). The subsystem exists to measure that escape channel; a
 * zero means the taint plumbing regressed, and the bench exits 1.
 *
 * `--json <path>` writes the machine-readable report
 * (scripts/bench_snapshot.sh records it as BENCH_mc.json).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/toolflow.hh"
#include "inject/campaign.hh"
#include "models/error_models.hh"
#include "obs/json.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

using namespace tea;

namespace {

/**
 * Synthetic DA error ratio. Calibrated so a default-sized cell
 * populates the whole refined taxonomy: at 2e-5 a k-means-mt run
 * expects a handful of injections — enough that some corrupt shared
 * data another core consumes (cross-core SDC), some die under later
 * clean stores (coherence-masked), and some derail synchronization,
 * while a large masked fraction survives.
 */
constexpr double kErrorRatio = 2e-5;

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    std::string jsonPath = bench::consumeFlagValue(argc, argv, "--json");
    bench::banner("multi-core injection scaling ladder",
                  "DESIGN.md Sec. 15 (cross-core SDC classification); "
                  "knobs REPRO_MC_CORES/REPRO_MC_QUANTUM");

    core::ToolflowOptions opt = core::optionsFromEnv();
    // Enough runs that the rarest refined classes are populated even
    // at the laptop-friendly default cell size.
    const int runs = std::max(80, opt.runsPerCell);
    std::printf("runs per cell: %d; DA error ratio %g (synthetic, "
                "taxonomy-coverage regime)\n\n",
                runs, kErrorRatio);

    const std::vector<std::string> workloadSet = {"k-means-mt",
                                                  "hotspot-mt"};
    const std::vector<unsigned> coreSet = {2, 4};
    models::DaModel model(kErrorRatio);

    Table table({"workload", "cores", "runs", "masked", "coh-mask",
                 "sdc-same", "sdc-cross", "crash", "sync", "dead",
                 "timeout", "runs/s"});
    obs::json::Array cells;
    uint64_t totalCrossCore = 0;
    uint64_t totalRuns = 0;
    bench::WallTimer ladder;
    for (const auto &w : workloadSet) {
        for (unsigned cores : coreSet) {
            mc::McConfig mcCfg;
            mcCfg.cores = cores;
            setQuiet(true);
            inject::InjectionCampaign camp(
                workloads::buildWorkload(w, opt.seed,
                                         opt.workloadScale),
                sim::OooConfig{}, mcCfg);
            Rng rng(opt.seed);
            bench::WallTimer timer;
            inject::CampaignResult r = camp.run(model, runs, rng);
            setQuiet(false);
            double secs = timer.seconds();
            double rps = secs > 0
                             ? static_cast<double>(r.runs) / secs
                             : 0.0;
            totalCrossCore += r.mcSdcCrossCore;
            totalRuns += r.runs;

            table.addRow({w, std::to_string(cores),
                          std::to_string(r.runs),
                          std::to_string(r.masked),
                          std::to_string(r.mcCoherenceMasked),
                          std::to_string(r.mcSdcSameCore),
                          std::to_string(r.mcSdcCrossCore),
                          std::to_string(r.crash),
                          std::to_string(r.mcSyncCrash),
                          std::to_string(r.mcDeadlock),
                          std::to_string(r.timeout),
                          Table::num(rps, 1)});
            cells.push_back(obs::json::Object{
                {"workload", w},
                {"cores", static_cast<int64_t>(cores)},
                {"runs", static_cast<int64_t>(r.runs)},
                {"masked", static_cast<int64_t>(r.masked)},
                {"coherenceMasked",
                 static_cast<int64_t>(r.mcCoherenceMasked)},
                {"sdc", static_cast<int64_t>(r.sdc)},
                {"sdcSameCore",
                 static_cast<int64_t>(r.mcSdcSameCore)},
                {"sdcCrossCore",
                 static_cast<int64_t>(r.mcSdcCrossCore)},
                {"crash", static_cast<int64_t>(r.crash)},
                {"syncCrash", static_cast<int64_t>(r.mcSyncCrash)},
                {"deadlock", static_cast<int64_t>(r.mcDeadlock)},
                {"timeout", static_cast<int64_t>(r.timeout)},
                {"engineFault", static_cast<int64_t>(r.engineFault)},
                {"avm", r.avm()},
                {"runsPerSec", rps},
            });
        }
    }
    ladder.report("injection runs", totalRuns);

    const bool passed = totalCrossCore > 0;
    std::printf(
        "%s\n",
        table
            .render("DA(" + Table::num(kErrorRatio, 6) +
                    ") outcome refinement per (workload, cores) cell")
            .c_str());
    std::printf("'coh-mask' of 'masked', 'sdc-same'+'sdc-cross' = SDC, "
                "'sync' of 'crash',\n'dead' of 'timeout' "
                "(DESIGN.md Sec. 15 refinement partitions)\n");
    if (!passed)
        std::printf("FAIL: no cross-core SDC observed anywhere in the "
                    "ladder — taint tracking regressed\n");

    if (!jsonPath.empty()) {
        obs::json::Object report{
            {"schema", "tea-bench-mc-v1"},
            {"git", obs::gitDescribe()},
            {"passed", passed},
            {"runsPerCell", static_cast<int64_t>(runs)},
            {"errorRatio", kErrorRatio},
            {"seed", static_cast<int64_t>(opt.seed)},
            {"crossCoreSdcTotal",
             static_cast<int64_t>(totalCrossCore)},
            {"cells", std::move(cells)},
        };
        std::string text = obs::json::Value(std::move(report)).dump(2);
        if (!atomicWriteFile(jsonPath, text + "\n")) {
            std::printf("cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return passed ? 0 : 1;
}
