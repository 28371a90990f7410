/**
 * @file
 * Full-grid campaign execution (every workload x error model x VR
 * level) with an on-disk result cache, so the Fig. 9 / Fig. 10 / AVM
 * benches share one expensive evaluation pass.
 *
 * The grid is first *planned* — a canonical enumeration of cells, each
 * carrying the exact RNG substream state it would receive in the
 * classic sequential loop — and then executed cell by cell through one
 * shared runGridCell() path. The fleet layer (src/fleet) executes the
 * same plan across worker processes: because a cell's randomness is
 * captured in its CellPlan and the execution path is shared, an
 * N-process fleet produces byte-identical journals, manifests, and
 * grid CSVs to the single-process loop.
 */

#ifndef TEA_CORE_RESULTS_HH
#define TEA_CORE_RESULTS_HH

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/toolflow.hh"
#include "inject/campaign.hh"

namespace tea::core {

struct CampaignCell
{
    std::string workload;
    models::ModelKind model;
    double vrFrac;
    inject::CampaignResult result;
};

struct EvaluationGrid
{
    std::vector<CampaignCell> cells;
    /**
     * True when a cooperative cancellation stopped the grid early.
     * The cells present are complete and exact; the rest were left in
     * their journals for a REPRO_RESUME=1 rerun.
     */
    bool interrupted = false;

    const inject::CampaignResult *find(const std::string &workload,
                                       models::ModelKind model,
                                       double vrFrac) const;
};

/**
 * Which part of the full grid to run. The default (empty workload
 * list) is the paper's complete 7 benchmarks x 3 models x 2 VR grid;
 * tests and fleet benches restrict it. The workload subset is part of
 * the campaign identity: a restricted grid is its own enumeration with
 * its own cell RNG states.
 */
struct GridSpec
{
    /** Workload subset in canonical order; empty = all workloads. */
    std::vector<std::string> workloads;
    bool useCache = true;

    /**
     * Observation-only: invoked after each cell completes and is
     * appended to the grid (from the executing thread, in canonical
     * cell order), so the daemon can stream cells to its clients.
     * Never serialized into fleet plans and without effect on any byte
     * the campaign produces. Not invoked when the whole grid is served
     * from its CSV cache.
     */
    std::function<void(const CampaignCell &)> onCell;
};

/**
 * One planned grid cell: everything a process — this one or a fleet
 * worker — needs to execute the cell bit-identically to the classic
 * sequential grid loop.
 */
struct CellPlan
{
    /** Canonical position in the grid enumeration. */
    uint64_t index = 0;
    std::string workload;
    models::ModelKind model = models::ModelKind::DA;
    double vrFrac = 0.0;
    /** Fixed run count (or the adaptive cap). */
    int runCap = 0;
    /** The cell's Rng state at campaign entry (rng.split() chain). */
    std::array<uint64_t, 4> rngState{};
};

/**
 * Enumerate the grid canonically (workload-major, then VR, then
 * DA/IA/WA) and capture each cell's RNG substream — the exact state
 * the classic loop would hand it.
 */
std::vector<CellPlan> planEvaluationGrid(const ToolflowOptions &opt,
                                         const GridSpec &spec = {});

// ---- cache-artifact naming (shared with src/fleet) -----------------

/** Injection runs per cell: fixed count or the adaptive cap. */
int cellRunCap(const ToolflowOptions &opt);
/**
 * Grid CSV path in the cache dir ("" when caching is off), named by
 * everything the grid's cells depend on, the spec's workloads included.
 */
std::string gridCachePath(const ToolflowOptions &opt,
                          const GridSpec &spec);
/** Journal file path for one grid cell (unique per configuration). */
std::string cellJournalPath(const ToolflowOptions &opt,
                            const std::string &workload,
                            models::ModelKind kind, double vr);
/** Manifest file path for one grid cell (mirrors cellJournalPath). */
std::string cellManifestPath(const ToolflowOptions &opt,
                             const std::string &workload,
                             models::ModelKind kind, double vr);
/** Everything a cell's journaled records depend on (journal header). */
std::string cellIdentity(const ToolflowOptions &opt,
                         const std::string &workload,
                         const models::ErrorModel &model, double vr);

/**
 * Build a planned cell's error model through the toolflow's
 * characterization caches (fleet workers executing run ranges need the
 * model without the rest of runGridCell).
 */
std::unique_ptr<models::ErrorModel> cellModel(Toolflow &tf,
                                              const CellPlan &plan);

/**
 * Execute one planned cell end-to-end: build its model, open/replay
 * its journal (honouring opt.resume), run the campaign, and write the
 * run manifest. `gridCsvPath` is recorded in the manifest for
 * provenance. The journal file is left on disk — callers remove it
 * once the cell's result is durable elsewhere (the saved grid CSV, or
 * a fleet done-file). The single execution path shared by
 * runEvaluationGrid and the fleet worker. Once the toolflow's token
 * is cancelled the cell comes back interrupted, unstarted or cut.
 *
 * `onFreshRecord`, when set, is invoked (from worker threads) for each
 * freshly-executed run after it is journaled — fleet workers use it to
 * count fresh work and to host fault-injection test hooks.
 */
CampaignCell runGridCell(
    Toolflow &tf, const CellPlan &plan, const std::string &gridCsvPath,
    const std::function<void(uint64_t,
                             const inject::InjectionCampaign::RunRecord &)>
        &onFreshRecord = {});

/** One planned cell as a grid's cell source delivers it. */
struct SourcedCell
{
    CampaignCell cell;
    /**
     * False for a result no journal backs (a fleet's poisoned cell):
     * whatever sits at its journal path stays for the post-mortem.
     */
    bool journaled = true;
};

/** Delivers one planned cell; the grid CSV path is for its manifest. */
using CellSource = std::function<SourcedCell(
    const CellPlan &, const std::string &gridCsvPath)>;

/**
 * The one grid loop: load `spec`'s grid CSV, or take every planned
 * cell from `source` in canonical order, then save the CSV and remove
 * the cells' journals. The first interrupted cell, or a cancelled
 * characterization thrown by `source`, ends it: the completed prefix
 * comes back with `interrupted` set and every journal kept.
 */
EvaluationGrid runGrid(const ToolflowOptions &opt, const GridSpec &spec,
                       const CellSource &source);

/**
 * Run (or load from cache) the evaluation grid for `spec` in this
 * process through runGridCell; the default spec is the paper's grid.
 */
EvaluationGrid runEvaluationGrid(Toolflow &tf, const GridSpec &spec);
EvaluationGrid runEvaluationGrid(Toolflow &tf, bool useCache = true);

// ---- result records --------------------------------------------------

/**
 * A CampaignResult's outcome fields as `key value` lines, in the one
 * key order the fleet done-record, the daemon CELL frame and the grid
 * CSV columns share (%.17g weight sums round-trip bit-exactly).
 */
std::string resultToKv(const inject::CampaignResult &r);
/**
 * Read resultToKv's keys back; `runs` .. `wrongpath` are required, the
 * weighted-estimator and multi-core keys optional (older writers omit
 * them). False on a missing required key or a malformed value.
 */
bool resultFromKv(const std::map<std::string, std::string> &kv,
                  inject::CampaignResult &out);

/** `workload`, `model`, %.17g `vr`, then resultToKv: a CELL body. */
std::string cellToKv(const CampaignCell &cell);
/** Rebuild a cell; false when cellToKv's or resultFromKv's keys fail. */
bool cellFromKv(const std::map<std::string, std::string> &kv,
                CampaignCell &out);

/**
 * Serialize/deserialize the grid (CSV in the toolflow cache dir);
 * loadGrid is nullopt for a missing, empty-named or damaged file.
 */
void saveGrid(const std::string &path, const EvaluationGrid &grid);
std::optional<EvaluationGrid> loadGrid(const std::string &path);

} // namespace tea::core

#endif // TEA_CORE_RESULTS_HH
