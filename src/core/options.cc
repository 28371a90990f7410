#include "core/toolflow.hh"

#include <cmath>
#include <cstdlib>

#include "isa/program.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

namespace tea::core {

namespace {

/** Bounds of an open interval, as the nearest inclusive doubles. */
double above(double x) { return std::nextafter(x, kNoLimit); }
double below(double x) { return std::nextafter(x, -kNoLimit); }

} // namespace

const std::vector<OptionField> &
optionFields()
{
    using O = ToolflowOptions;
    constexpr bool kKeep = true;
    // Rows without a REPRO_* name are set only by plans (and code);
    // `threads` comes from REPRO_THREADS via ThreadPool::defaultThreads,
    // whose list syntax is its own.
    static const std::vector<OptionField> kFields = {
        {"seed", "REPRO_SEED", &O::seed},
        {"runs", "REPRO_RUNS", &O::runsPerCell, 1, 1000000},
        {"scale", nullptr, &O::workloadScale, 1, workloads::kMaxScale},
        {"iacount", nullptr, &O::iaCountPerOp, 1, 10000000},
        {"wamaxops", nullptr, &O::waMaxOps, 1, 10000000},
        {"dasampleops", nullptr, &O::daSampleOps, 1, 10000000},
        {"threads", nullptr, &O::threads, 0, ThreadPool::kMaxThreads},
        {"resume", "REPRO_RESUME", &O::resume},
        {"deadlinems", "REPRO_RUN_DEADLINE_MS", &O::runDeadlineMs},
        {"maxattempts", nullptr, &O::maxRunAttempts, 1, 100},
        {"citarget", "REPRO_CI_TARGET", &O::ciTarget, 0, 0.49},
        {"ciconf", "REPRO_CI_CONF", &O::ciConf, above(0.5), below(1.0),
         kKeep},
        {"maxadaptive", "REPRO_MAX_RUNS", &O::maxAdaptiveRuns},
        {"isenable", "REPRO_IS", &O::isEnable},
        {"isboost", "REPRO_IS_BOOST", &O::isBoost, 1, 64},
        {"isfloor", "REPRO_IS_FLOOR", &O::isFloor, above(0.0), 1, kKeep},
        {"ismaxtilt", "REPRO_IS_MAXTILT", &O::isMaxTilted, 0.1},
        {"iscorpus", "REPRO_IS_CORPUS", &O::isCorpusPerOp, 100, 1000000},
        {"mccores", "REPRO_MC_CORES", &O::mcCores, 1, isa::kMcMaxCores},
        {"mcquantum", "REPRO_MC_QUANTUM", &O::mcQuantum, 1, 1000000},
        {"cachedir", "REPRO_CACHE", &O::cacheDir},
    };
    return kFields;
}

ToolflowOptions
optionsFromEnv()
{
    ToolflowOptions opt;
    for (const OptionField &f : optionFields())
        if (f.envName)
            envField(f.envName, f.member, opt, f.lo, f.hi,
                     !f.envKeepsDefault);
    if (const char *full = std::getenv("REPRO_FULL");
        full && full[0] == '1') {
        opt.runsPerCell = inject::kStatisticalRuns;
        opt.iaCountPerOp = 20000;
        opt.waMaxOps = 100000;
        opt.daSampleOps = 100000;
    }
    opt.threads = ThreadPool::defaultThreads();
    return opt;
}

} // namespace tea::core
