#include "core/results.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/journal.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "surrogate/importance.hh"
#include "util/crc32.hh"
#include "util/errors.hh"
#include "util/fields.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::core {

using inject::CampaignResult;
using models::ModelKind;

const CampaignResult *
EvaluationGrid::find(const std::string &workload, ModelKind model,
                     double vrFrac) const
{
    for (const auto &cell : cells) {
        if (cell.workload == workload && cell.model == model &&
            std::fabs(cell.vrFrac - vrFrac) < 1e-9)
            return &cell.result;
    }
    return nullptr;
}

namespace {

/**
 * The result record's fields in wire order. The first ten are
 * required on read; the weighted-estimator and multi-core ones are
 * optional.
 */
const std::pair<const char *, FieldMember<CampaignResult>>
    kResultFields[] = {
        {"runs", &CampaignResult::runs},
        {"masked", &CampaignResult::masked},
        {"sdc", &CampaignResult::sdc},
        {"crash", &CampaignResult::crash},
        {"timeout", &CampaignResult::timeout},
        {"enginefault", &CampaignResult::engineFault},
        {"retries", &CampaignResult::retries},
        {"injected", &CampaignResult::injectedErrors},
        {"committed", &CampaignResult::committedInstructions},
        {"wrongpath", &CampaignResult::wrongPathInjections},
        {"weighted", &CampaignResult::weightedModel},
        {"wsum", &CampaignResult::weightSum},
        {"wunsafe", &CampaignResult::weightUnsafe},
        {"wsqsum", &CampaignResult::weightSqSum},
        {"wusqsum", &CampaignResult::weightUnsafeSqSum},
        {"mcchm", &CampaignResult::mcCoherenceMasked},
        {"mcscs", &CampaignResult::mcSdcSameCore},
        {"mcccs", &CampaignResult::mcSdcCrossCore},
        {"mcsync", &CampaignResult::mcSyncCrash},
        {"mcdead", &CampaignResult::mcDeadlock},
};
constexpr size_t kRequiredResultFields = 10;

bool
parseResultField(const FieldMember<CampaignResult> &member,
                 const std::string &text, CampaignResult &r)
{
    return parseField(member, text, r, 0, kNoLimit) == FieldParse::Ok;
}

/** Cell coordinates and result from a parsed record. */
bool
cellFromFields(const std::string &model, const std::string &vr,
               CampaignCell &out)
{
    int64_t kind;
    if (!parseNumber(model.c_str(), kind) ||
        !parseNumber(vr.c_str(), out.vrFrac))
        return false;
    out.model = static_cast<ModelKind>(kind);
    out.result.workload = out.workload;
    out.result.model = models::modelKindName(out.model);
    return true;
}

std::string
gridCsvHeader()
{
    std::string header = "workload,model,vr";
    for (const auto &[key, member] : kResultFields)
        header += std::string(",") + key;
    return header;
}

} // namespace

std::string
resultToKv(const CampaignResult &r)
{
    std::string out;
    for (const auto &[key, member] : kResultFields)
        out += std::string(key) + " " + formatField(member, r) + "\n";
    return out;
}

bool
resultFromKv(const std::map<std::string, std::string> &kv,
             CampaignResult &out)
{
    for (size_t i = 0; i < std::size(kResultFields); ++i) {
        const auto &[key, member] = kResultFields[i];
        auto it = kv.find(key);
        if (it == kv.end()) {
            if (i < kRequiredResultFields)
                return false;
        } else if (!parseResultField(member, it->second, out)) {
            return false;
        }
    }
    return true;
}

std::string
cellToKv(const CampaignCell &cell)
{
    char vr[32];
    std::snprintf(vr, sizeof(vr), "%.17g", cell.vrFrac);
    return "workload " + cell.workload + "\nmodel " +
           std::to_string(static_cast<int>(cell.model)) + "\nvr " + vr +
           "\n" + resultToKv(cell.result);
}

bool
cellFromKv(const std::map<std::string, std::string> &kv,
           CampaignCell &out)
{
    auto wl = kv.find("workload");
    auto model = kv.find("model");
    auto vr = kv.find("vr");
    if (wl == kv.end() || model == kv.end() || vr == kv.end())
        return false;
    out.workload = wl->second;
    return cellFromFields(model->second, vr->second, out) &&
           resultFromKv(kv, out.result);
}

void
saveGrid(const std::string &path, const EvaluationGrid &grid)
{
    std::ostringstream out;
    out << gridCsvHeader() << "\n";
    for (const auto &c : grid.cells) {
        // Every bit of the VR level, as plans and CELL frames carry it:
        // a reloaded grid reports the vrFrac a fresh one does.
        char vr[32];
        std::snprintf(vr, sizeof(vr), "%.17g", c.vrFrac);
        out << c.workload << "," << static_cast<int>(c.model) << ","
            << vr;
        for (const auto &[key, member] : kResultFields)
            out << "," << formatField(member, c.result);
        out << "\n";
    }
    // Atomic publication: a reader (or a crash) never sees a torn grid.
    fatal_if(!atomicWriteFile(path, out.str()), "cannot write '%s'",
             path.c_str());
}

std::optional<EvaluationGrid>
loadGrid(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line) || line != gridCsvHeader())
        return std::nullopt;
    EvaluationGrid grid;
    while (std::getline(in, line)) {
        std::vector<std::string> tok;
        std::istringstream ls(line);
        for (std::string t; std::getline(ls, t, ',');)
            tok.push_back(std::move(t));
        CampaignCell cell;
        if (tok.size() != 3 + std::size(kResultFields))
            return std::nullopt;
        cell.workload = tok[0];
        if (!cellFromFields(tok[1], tok[2], cell))
            return std::nullopt;
        for (size_t i = 0; i < std::size(kResultFields); ++i)
            if (!parseResultField(kResultFields[i].second, tok[3 + i],
                                  cell.result))
                return std::nullopt;
        grid.cells.push_back(std::move(cell));
    }
    return grid.cells.empty() ? std::nullopt
                              : std::make_optional(std::move(grid));
}

int
cellRunCap(const ToolflowOptions &opt)
{
    if (opt.adaptive() && opt.maxAdaptiveRuns > 0)
        return static_cast<int>(
            std::min<uint64_t>(opt.maxAdaptiveRuns, 1000000));
    return opt.runsPerCell;
}

namespace {

/**
 * Extra path/identity component in adaptive mode. Empty when adaptive
 * sizing is off, so every classic cache, journal, and grid file name
 * stays byte-for-byte what it was before adaptive mode existed.
 */
std::string
adaptiveSuffix(const ToolflowOptions &opt)
{
    if (!opt.adaptive())
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_a%gc%g", opt.ciTarget,
                  opt.ciConf);
    return buf;
}

/**
 * Extra path/identity component for importance-sampled campaigns.
 * IS changes the proposal distribution (different RNG consumption,
 * different per-run weights), so its grids and journals must never
 * share a file with plain campaigns of the same geometry. Empty when
 * IS is off.
 */
std::string
isSuffix(const ToolflowOptions &opt)
{
    if (!opt.isEnable)
        return "";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "_isb%gf%gm%gn%llu", opt.isBoost,
                  opt.isFloor, opt.isMaxTilted,
                  static_cast<unsigned long long>(opt.isCorpusPerOp));
    return buf;
}

/**
 * Extra path/identity component for threaded ("-mt") workloads: the
 * multi-core geometry changes golden references, plans, and outcomes,
 * so cells from different core counts or quanta must never share a
 * journal or manifest. Empty for single-core workloads — their file
 * names are untouched by the multi-core subsystem.
 */
std::string
mcSuffix(const ToolflowOptions &opt, const std::string &workload)
{
    if (!workloads::isThreadedWorkload(workload))
        return "";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "_c%uq%u", opt.mcCores,
                  opt.mcQuantum);
    return buf;
}

/** The workloads a spec covers (empty list = every workload). */
std::vector<std::string>
specWorkloads(const GridSpec &spec)
{
    if (!spec.workloads.empty())
        return spec.workloads;
    return workloads::workloadNames();
}

/**
 * `<cache>/<prefix>_<workload>_n<runs>_m<model>_vr<VR>_s<seed>_x<scale>`
 * plus the adaptive, IS and mc suffixes and `tail`: one cell's file.
 */
std::string
cellPath(const ToolflowOptions &opt, const char *prefix,
         const std::string &workload, ModelKind kind, double vr,
         const char *tail)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "_m%d_vr%02d_s%llu_x%d%s%s%s%s",
                  static_cast<int>(kind),
                  static_cast<int>(vr * 100 + 0.5),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale, adaptiveSuffix(opt).c_str(),
                  isSuffix(opt).c_str(),
                  mcSuffix(opt, workload).c_str(), tail);
    return opt.cacheDir + "/" +
           Toolflow::cacheTag(prefix, workload,
                              static_cast<uint64_t>(cellRunCap(opt))) +
           buf;
}

} // namespace

std::string
gridCachePath(const ToolflowOptions &opt, const GridSpec &spec)
{
    if (opt.cacheDir.empty())
        return "";
    // What shapes the grid but has no place in the name: its
    // workloads, VR levels and characterization sizes.
    std::ostringstream shape;
    shape.precision(17);
    for (const auto &w : specWorkloads(spec))
        shape << w << ",";
    for (double vr : opt.vrLevels)
        shape << vr << ",";
    shape << "ia" << opt.iaCountPerOp << ",wa" << opt.waMaxOps << ",da"
          << opt.daSampleOps;
    const std::string key = shape.str();
    char buf[160];
    // "_p7" = grid-file revision: p2 added the enginefault/retries
    // columns; p3 invalidated grids derived from float-precision
    // arrival times; p4 added the weighted-estimator columns
    // (weighted, wsum, wunsafe, wsqsum); p5 added the multi-core
    // refinement columns and the mc geometry in the name (a grid may
    // contain threaded cells, whose results depend on it); p6 added
    // the grid-shape CRC (`_g`), so grids of different workload lists,
    // VR levels or model sizes no longer share a file; p7 writes the
    // `vr` column with all 17 significant digits (was 6).
    std::snprintf(buf, sizeof(buf),
                  "grid_r%d_s%llu_x%d%s%s_c%uq%u_g%08x_p7.csv",
                  cellRunCap(opt),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale, adaptiveSuffix(opt).c_str(),
                  isSuffix(opt).c_str(), opt.mcCores, opt.mcQuantum,
                  crc32(key.data(), key.size()));
    return opt.cacheDir + "/" + buf;
}

std::string
cellJournalPath(const ToolflowOptions &opt, const std::string &workload,
                ModelKind kind, double vr)
{
    // "_p5" = journal revision: record lines now carry the multi-core
    // outcome refinement (core/journal.cc, tea-journal-v3); p4 added
    // the run's exact log likelihood-ratio weight.
    return cellPath(opt, "jnl", workload, kind, vr, "_p5.jnl");
}

std::string
cellManifestPath(const ToolflowOptions &opt, const std::string &workload,
                 ModelKind kind, double vr)
{
    return cellPath(opt, "mft", workload, kind, vr, ".json");
}

std::string
cellIdentity(const ToolflowOptions &opt, const std::string &workload,
             const models::ErrorModel &model, double vr)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "workload=%s model=%s vr=%.4f runs=%d seed=%llu "
                  "scale=%d",
                  workload.c_str(), model.describe().c_str(), vr,
                  cellRunCap(opt),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale);
    std::string id = buf;
    if (workloads::isThreadedWorkload(workload)) {
        // A threaded cell's runs depend on the mc geometry; journals
        // from a different one must not replay into this cell.
        std::snprintf(buf, sizeof(buf), " cores=%u quantum=%u",
                      opt.mcCores, opt.mcQuantum);
        id += buf;
    }
    if (opt.adaptive()) {
        // Journaled adaptive prefixes are only replayable into a
        // campaign with the same stopping rule.
        std::snprintf(buf, sizeof(buf), " ci=%g conf=%g", opt.ciTarget,
                      opt.ciConf);
        id += buf;
    }
    return id;
}

std::vector<CellPlan>
planEvaluationGrid(const ToolflowOptions &opt, const GridSpec &spec)
{
    // One rng.split() per cell, in exactly the order the classic
    // sequential loop consumed them — the plan is a transcript of that
    // loop's randomness, safe to execute in any process, any order.
    Rng rng(opt.seed ^ 0xe1a1ULL);
    std::vector<CellPlan> plan;
    const ModelKind kinds[] = {ModelKind::DA, ModelKind::IA,
                               ModelKind::WA};
    for (const auto &name : specWorkloads(spec)) {
        for (double vr : opt.vrLevels) {
            for (ModelKind kind : kinds) {
                CellPlan cell;
                cell.index = plan.size();
                cell.workload = name;
                cell.model = kind;
                cell.vrFrac = vr;
                cell.runCap = cellRunCap(opt);
                cell.rngState = rng.split().state();
                plan.push_back(std::move(cell));
            }
        }
    }
    return plan;
}

std::unique_ptr<models::ErrorModel>
cellModel(Toolflow &tf, const CellPlan &plan)
{
    const auto &opt = tf.options();
    // IS tilts per-site probabilities by operand risk, which only the
    // statistical (IA/WA) models have: the DA model injects uniformly
    // into any destination register, so it runs plain even with
    // REPRO_IS=1.
    auto importance =
        [&](const models::StatisticalModel &base)
        -> std::unique_ptr<models::ErrorModel> {
        return std::make_unique<surrogate::ImportanceModel>(
            base, tf.surrogate(), tf.trace(plan.workload), plan.vrFrac,
            opt.isBoost, opt.isFloor, opt.isMaxTilted);
    };
    switch (plan.model) {
      case ModelKind::DA:
        return std::make_unique<models::DaModel>(
            tf.daModel(plan.vrFrac));
      case ModelKind::IA: {
        auto base = tf.iaModel(plan.vrFrac);
        if (opt.isEnable)
            return importance(base);
        return std::make_unique<models::IaModel>(std::move(base));
      }
      case ModelKind::WA: {
        auto base = tf.waModel(plan.workload, plan.vrFrac);
        if (opt.isEnable)
            return importance(base);
        return std::make_unique<models::WaModel>(std::move(base));
      }
    }
    fatal("unknown model kind %d", static_cast<int>(plan.model));
    return nullptr;
}

CampaignCell
runGridCell(Toolflow &tf, const CellPlan &plan,
            const std::string &gridCsvPath,
            const std::function<
                void(uint64_t,
                     const inject::InjectionCampaign::RunRecord &)>
                &onFreshRecord)
{
    const auto &opt = tf.options();
    CampaignCell cell{plan.workload, plan.model, plan.vrFrac, {}};
    cell.result.interrupted = tf.cancelToken().cancelled();
    if (cell.result.interrupted)
        return cell; // a cancelled toolflow starts no cell
    auto &campaign = tf.campaign(plan.workload);
    auto model = cellModel(tf, plan);

    inform("campaign: %s %s VR%.0f (%d runs%s)...",
           plan.workload.c_str(), models::modelKindName(plan.model),
           plan.vrFrac * 100, plan.runCap,
           opt.adaptive() ? " max, adaptive" : "");
    Rng cellRng = Rng::fromState(plan.rngState);

    inject::InjectionCampaign::RunOptions ro = tf.runOptions();
    std::unique_ptr<ShardJournal> journal;
    size_t replayable = 0;
    if (!opt.cacheDir.empty()) {
        journal = std::make_unique<ShardJournal>(cellJournalPath(
            opt, plan.workload, plan.model, plan.vrFrac));
        replayable = journal->open(
            cellIdentity(opt, plan.workload, *model, plan.vrFrac),
            opt.resume);
        if (replayable > 0)
            inform("resuming %s %s VR%.0f: %zu/%d runs journaled",
                   plan.workload.c_str(),
                   models::modelKindName(plan.model), plan.vrFrac * 100,
                   replayable, plan.runCap);
        ShardJournal *j = journal.get();
        ro.replay = [j](uint64_t i,
                        inject::InjectionCampaign::RunRecord &rec) {
            return j->tryReplay(i, rec);
        };
        ro.onComplete =
            [j, &onFreshRecord](
                uint64_t i,
                const inject::InjectionCampaign::RunRecord &rec) {
                j->append(i, rec);
                if (onFreshRecord)
                    onFreshRecord(i, rec);
            };
    } else if (onFreshRecord) {
        ro.onComplete = onFreshRecord;
    }

    {
        obs::Span cellSpan(plan.workload + "/" +
                               models::modelKindName(plan.model),
                           "grid",
                           static_cast<int64_t>(plan.vrFrac * 100 + 0.5));
        cell.result =
            campaign.run(*model, plan.runCap, cellRng, ro);
    }
    if (journal && !cell.result.interrupted)
        journal->canonicalize();
    obs::Registry::global()
        .counter(obs::metric::kCampaignCells, "",
                 "evaluation-grid cells executed")
        .inc(1);
    if (!opt.cacheDir.empty()) {
        obs::RunManifest m;
        m.workload = plan.workload;
        m.model = models::modelKindName(plan.model);
        m.modelDetail = model->describe();
        m.vrFrac = plan.vrFrac;
        m.seed = opt.seed;
        m.runsPerCell = plan.runCap;
        m.workloadScale = opt.workloadScale;
        m.threads = tf.pool().numThreads();
        m.identity =
            cellIdentity(opt, plan.workload, *model, plan.vrFrac);
        m.journalPath =
            cellJournalPath(opt, plan.workload, plan.model, plan.vrFrac);
        m.gridCsvPath = gridCsvPath;
        m.runs = cell.result.runs;
        m.masked = cell.result.masked;
        m.sdc = cell.result.sdc;
        m.crash = cell.result.crash;
        m.timeout = cell.result.timeout;
        m.engineFault = cell.result.engineFault;
        m.retries = cell.result.retries;
        m.replayedRuns = replayable;
        m.injectedErrors = cell.result.injectedErrors;
        m.committedInstructions = cell.result.committedInstructions;
        m.interrupted = cell.result.interrupted;
        std::string mpath = cellManifestPath(opt, plan.workload,
                                             plan.model, plan.vrFrac);
        if (obs::writeRunManifest(mpath, std::move(m)))
            obs::Registry::global()
                .counter(obs::metric::kManifestsWritten, "",
                         "per-cell run manifests written")
                .inc(1);
        else
            logWarn("cannot write run manifest '%s'", mpath.c_str());
    }
    return cell;
}

EvaluationGrid
runEvaluationGrid(Toolflow &tf, bool useCache)
{
    GridSpec spec;
    spec.useCache = useCache;
    return runEvaluationGrid(tf, spec);
}

EvaluationGrid
runEvaluationGrid(Toolflow &tf, const GridSpec &spec)
{
    return runGrid(tf.options(), spec,
                   [&tf](const CellPlan &plan, const std::string &csv) {
                       return SourcedCell{runGridCell(tf, plan, csv)};
                   });
}

EvaluationGrid
runGrid(const ToolflowOptions &opt, const GridSpec &spec,
        const CellSource &source)
{
    const std::string cachePath =
        spec.useCache ? gridCachePath(opt, spec) : "";
    if (auto grid = loadGrid(cachePath)) {
        inform("loaded cached evaluation grid %s", cachePath.c_str());
        return *grid;
    }

    obs::Span gridSpan("toolflow.grid", "toolflow");
    EvaluationGrid grid;
    std::vector<std::string> journalPaths;
    for (const CellPlan &plan : planEvaluationGrid(opt, spec)) {
        SourcedCell got;
        try {
            got = source(plan, cachePath);
        } catch (const TeaException &e) {
            if (e.error().code != ErrorCode::Cancelled)
                throw;
            got.cell.result.interrupted = true; // characterization cut
        }
        const inject::CampaignResult &r = got.cell.result;
        if (r.interrupted) {
            // Partial cell: its completed runs are safely in the
            // journal; the aggregate is not comparable and is
            // reported, not recorded.
            inform("interrupted during %s %s VR%.0f after %llu/%d runs "
                   "(masked=%llu sdc=%llu crash=%llu timeout=%llu "
                   "enginefault=%llu)",
                   plan.workload.c_str(),
                   models::modelKindName(plan.model), plan.vrFrac * 100,
                   static_cast<unsigned long long>(r.runs), plan.runCap,
                   static_cast<unsigned long long>(r.masked),
                   static_cast<unsigned long long>(r.sdc),
                   static_cast<unsigned long long>(r.crash),
                   static_cast<unsigned long long>(r.timeout),
                   static_cast<unsigned long long>(r.engineFault));
            grid.interrupted = true;
            break;
        }
        if (got.journaled && !opt.cacheDir.empty())
            journalPaths.push_back(cellJournalPath(
                opt, plan.workload, plan.model, plan.vrFrac));
        grid.cells.push_back(std::move(got.cell));
        if (spec.onCell)
            spec.onCell(grid.cells.back());
    }
    if (grid.interrupted) {
        inform("evaluation grid interrupted with %zu cell(s) complete; "
               "rerun with REPRO_RESUME=1 to pick up where it stopped",
               grid.cells.size());
        return grid;
    }
    if (!cachePath.empty())
        saveGrid(cachePath, grid);
    // The grid is durably cached (or caching is off and the journals
    // have no future): the per-cell journals have served their purpose.
    for (const auto &p : journalPaths)
        ShardJournal(p).remove();
    return grid;
}

} // namespace tea::core
