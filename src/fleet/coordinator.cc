#include "fleet/coordinator.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "core/journal.hh"
#include "fleet/queue.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "util/env.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/watchdog.hh"

namespace tea::fleet {

using core::CellPlan;
using core::EvaluationGrid;
using core::GridSpec;
using core::ToolflowOptions;

namespace {

/** All work units of a campaign, in canonical (plan) order. */
std::vector<WorkUnit>
planUnits(const ToolflowOptions &opt,
          const std::vector<CellPlan> &cells, uint64_t shardRuns)
{
    std::vector<WorkUnit> units;
    if (shardRuns > 0 && opt.adaptive()) {
        warn("fleet: run-range shards are incompatible with adaptive "
             "sizing (stopping is a whole-cell decision); using "
             "whole-cell units");
        shardRuns = 0;
    }
    for (const CellPlan &cell : cells) {
        if (shardRuns == 0) {
            WorkUnit u;
            u.id = units.size();
            u.kind = WorkUnit::Kind::Cell;
            u.cell = cell.index;
            units.push_back(u);
            continue;
        }
        for (uint64_t lo = 0;
             lo < static_cast<uint64_t>(cell.runCap);
             lo += shardRuns) {
            WorkUnit u;
            u.id = units.size();
            u.kind = WorkUnit::Kind::Range;
            u.cell = cell.index;
            u.lo = lo;
            u.hi = std::min<uint64_t>(lo + shardRuns,
                                      static_cast<uint64_t>(cell.runCap));
            units.push_back(u);
        }
    }
    return units;
}

/**
 * The graceful-degradation result for a cell whose units kept killing
 * workers: every run an EngineFault. fraction(EngineFault) = 1,
 * avm() = NaN, and the AVM aggregations established in the EngineFault
 * taxonomy exclude it — the campaign completes around the poison.
 */
core::CampaignCell
poisonedCell(const CellPlan &plan)
{
    core::CampaignCell cell{plan.workload, plan.model, plan.vrFrac, {}};
    cell.result.workload = plan.workload;
    cell.result.model = models::modelKindName(plan.model);
    cell.result.runs = static_cast<uint64_t>(plan.runCap);
    cell.result.engineFault = static_cast<uint64_t>(plan.runCap);
    return cell;
}

/** One spawned tea-worker process. */
struct WorkerProc
{
    pid_t pid = -1;
    bool alive = false;
};

class Supervisor
{
  public:
    Supervisor(WorkQueue &q, const FleetOptions &fopt,
               const std::vector<WorkUnit> &units,
               const CancelToken &cancel)
        : q_(q), fopt_(fopt), units_(units), cancel_(cancel)
    {
    }

    ~Supervisor() { terminateAll(); }

    /**
     * Supervise until every unit is done or poisoned, the campaign is
     * cancelled, a worker cannot be respawned, or the restart budget
     * is exhausted; every worker is reaped on return. The merge phase
     * finishes whatever is left in-process.
     */
    void supervise();

  private:
    bool allResolved() const
    {
        for (const WorkUnit &u : units_)
            if (!q_.isDone(u.id) && !q_.isPoisoned(u.id))
                return false;
        return true;
    }

    bool spawn()
    {
        pid_t pid = fork();
        if (pid < 0) {
            warn("fleet: fork failed: %s", std::strerror(errno));
            return false;
        }
        if (pid == 0) {
            execl(fopt_.workerBin.c_str(), "tea-worker",
                  q_.dir().c_str(), static_cast<char *>(nullptr));
            // Exec failure: exit 2 tells the coordinator not to burn
            // the restart budget respawning a broken binary.
            _exit(2);
        }
        workers_.push_back({pid, true});
        // The kernel may hand this child a reaped worker's recycled
        // PID; it must not inherit the "instantly stale" verdict.
        deadPids_.erase(pid);
        return true;
    }

    size_t liveWorkers() const
    {
        size_t n = 0;
        for (const WorkerProc &w : workers_)
            n += w.alive;
        return n;
    }

    /** Collect exited children; respawn abnormal deaths. */
    bool reapWorkers();
    /** Expire silent/dead leases; reissue with backoff or poison. */
    void reapLeases();
    void terminateAll();

    WorkQueue &q_;
    const FleetOptions &fopt_;
    const std::vector<WorkUnit> &units_;
    const CancelToken &cancel_;
    std::vector<WorkerProc> workers_;
    /** Children that exited — their leases are instantly stale. */
    std::set<int64_t> deadPids_;
    /** unit id -> earliest reissue time (exponential backoff). */
    std::map<uint64_t, int64_t> reissueAt_;
    int restartBudget_ = 0;

  public:
    void setRestartBudget(int n) { restartBudget_ = n; }
    bool spawnInitial(int n)
    {
        for (int i = 0; i < n; ++i)
            if (!spawn())
                return false;
        return true;
    }
};

bool
Supervisor::reapWorkers()
{
    obs::Counter restarts = obs::Registry::global().counter(
        obs::metric::kFleetWorkerRestarts, "",
        "crashed or hung fleet workers restarted");
    // spawn() push_backs into workers_, so respawns are deferred
    // until after the scan — growing the vector mid-loop would
    // invalidate the references being iterated.
    int respawns = 0;
    for (size_t i = 0, n = workers_.size(); i < n; ++i) {
        WorkerProc &w = workers_[i];
        if (!w.alive)
            continue;
        int status = 0;
        pid_t r = waitpid(w.pid, &status, WNOHANG);
        if (r != w.pid)
            continue;
        w.alive = false;
        deadPids_.insert(w.pid);
        bool normal = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
            // The worker could not even read the spool/plan (or exec
            // failed): respawning would loop forever.
            warn("fleet: worker %d unusable (exit 2); finishing "
                 "in-process",
                 static_cast<int>(w.pid));
            return false;
        }
        if (normal || allResolved())
            continue;
        if (restartBudget_-- <= 0) {
            warn("fleet: worker restart budget exhausted; finishing "
                 "in-process");
            return false;
        }
        inform("fleet: worker %d died (%s); restarting",
               static_cast<int>(w.pid),
               WIFSIGNALED(status) ? "signal" : "nonzero exit");
        restarts.inc(1);
        ++respawns;
    }
    while (respawns-- > 0)
        if (!spawn())
            return false;
    return true;
}

void
Supervisor::reapLeases()
{
    obs::Registry &reg = obs::Registry::global();
    obs::Counter expired =
        reg.counter(obs::metric::kFleetLeasesExpired, "",
                    "leases whose holder died or stopped heartbeating");
    obs::Counter reissued =
        reg.counter(obs::metric::kFleetLeasesReissued, "",
                    "expired leases released for re-execution");
    obs::Counter poisoned =
        reg.counter(obs::metric::kFleetUnitsPoisoned, "",
                    "work units quarantined after repeated failures");
    int64_t now = wallClockMs();
    for (const WorkUnit &u : units_) {
        if (q_.isDone(u.id) || q_.isPoisoned(u.id)) {
            reissueAt_.erase(u.id);
            continue;
        }
        auto lease = q_.loadLease(u.id);
        if (!lease) {
            reissueAt_.erase(u.id);
            continue;
        }
        bool stale = deadPids_.count(lease->pid) ||
                     now - lease->beat > fopt_.leaseMs;
        auto pending = reissueAt_.find(u.id);
        if (!stale) {
            // A fresh heartbeat rescinds any scheduled reissue — the
            // holder was slow, not dead.
            if (pending != reissueAt_.end())
                reissueAt_.erase(pending);
            continue;
        }
        if (pending == reissueAt_.end()) {
            int tries = q_.tries(u.id) + 1;
            q_.setTries(u.id, tries);
            expired.inc(1);
            if (tries >= fopt_.maxAttempts) {
                q_.poison(u.id);
                q_.release(u.id);
                poisoned.inc(1);
                warn("fleet: unit u%06llu poisoned after %d failed "
                     "attempt(s); its cell degrades to EngineFault",
                     static_cast<unsigned long long>(u.id), tries);
                continue;
            }
            // Exponential backoff: the lease file itself blocks
            // re-claims until the coordinator releases it below.
            int shift = std::min(tries - 1, 16);
            reissueAt_[u.id] = now + (fopt_.backoffMs << shift);
            // A hung-but-alive holder would keep renewing and rescind
            // this; a dead child cannot. Kill hung children so they
            // stop burning a process slot.
            for (WorkerProc &w : workers_)
                if (w.alive && w.pid == lease->pid &&
                    !deadPids_.count(lease->pid))
                    kill(w.pid, SIGKILL);
        } else if (now >= pending->second) {
            reissueAt_.erase(pending);
            q_.release(u.id);
            reissued.inc(1);
            if (liveWorkers() == 0 && restartBudget_-- > 0)
                spawn();
        }
    }
}

void
Supervisor::terminateAll()
{
    for (WorkerProc &w : workers_) {
        if (!w.alive)
            continue;
        kill(w.pid, SIGTERM);
    }
    for (WorkerProc &w : workers_) {
        if (!w.alive)
            continue;
        // Workers poll the cancel token between runs; give them a
        // moment to flush journals, then force the issue.
        int status = 0;
        for (int i = 0; i < 200; ++i) {
            if (waitpid(w.pid, &status, WNOHANG) == w.pid) {
                w.alive = false;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (w.alive) {
            kill(w.pid, SIGKILL);
            waitpid(w.pid, &status, 0);
            w.alive = false;
        }
    }
}

void
Supervisor::supervise()
{
    while (!cancel_.cancelled() && !allResolved() && reapWorkers()) {
        reapLeases();
        if (liveWorkers() == 0 && reissueAt_.empty() &&
            !allResolved()) {
            // Workers drained while leases still pend on nothing —
            // e.g. every remaining unit is poisoned-adjacent debris.
            // Respawn one if the budget allows, else fall back.
            if (restartBudget_-- <= 0 || !spawn())
                break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fopt_.pollMs));
    }
    terminateAll();
}

/**
 * Merge a sharded cell's journals into the canonical cell journal in
 * run-index order — the exact byte order a single-threaded cell run
 * appends in — and leave it ready for replay.
 */
void
mergeShardJournals(core::Toolflow &tf, const CellPlan &plan,
                   WorkQueue &q, const std::vector<WorkUnit> &units)
{
    const ToolflowOptions &opt = tf.options();
    auto model = core::cellModel(tf, plan);
    std::string identity = core::cellIdentity(opt, plan.workload,
                                              *model, plan.vrFrac);
    std::map<uint64_t, core::ShardJournal::RunRecord> merged;
    for (const WorkUnit &u : units) {
        if (u.kind != WorkUnit::Kind::Range || u.cell != plan.index)
            continue;
        core::ShardJournal shard(q.shardJournalPath(u.id));
        shard.open(identity, /*resume=*/true);
        for (const auto &[idx, rec] : shard.records())
            merged.emplace(idx, rec);
    }
    core::ShardJournal canonical(core::cellJournalPath(
        opt, plan.workload, plan.model, plan.vrFrac));
    canonical.open(identity, /*resume=*/false);
    for (const auto &[idx, rec] : merged)
        canonical.append(idx, rec);
}

} // namespace

FleetOptions
fleetOptionsFromEnv()
{
    FleetOptions fopt;
    int64_t v;
    if (envClamped("REPRO_FLEET_WORKERS", kWorkersRange, v))
        fopt.workers = static_cast<int>(v);
    if (const char *bin = std::getenv("REPRO_FLEET_WORKER_BIN"))
        fopt.workerBin = bin;
    if (const char *dir = std::getenv("REPRO_FLEET_DIR"))
        fopt.spoolDir = dir;
    envClamped("REPRO_FLEET_LEASE_MS", kLeaseMsRange, fopt.leaseMs);
    if (envClamped("REPRO_FLEET_ATTEMPTS", kAttemptsRange, v))
        fopt.maxAttempts = static_cast<int>(v);
    if (envClamped("REPRO_FLEET_SHARD_RUNS", kShardRunsRange, v))
        fopt.shardRuns = static_cast<uint64_t>(v);
    if (envClamped("REPRO_FLEET_WORKER_THREADS", kWorkerThreadsRange, v))
        fopt.workerThreads = static_cast<unsigned>(v);
    return fopt;
}

EvaluationGrid
runFleetGrid(const ToolflowOptions &opt, const FleetOptions &fopt,
             const GridSpec &spec, const CancelToken &cancel)
{
    const bool farm = fopt.workers > 0 && !fopt.workerBin.empty();
    // The in-process toolflow, built when a cell first needs it (a
    // cached grid never does): every cell without a fleet; with one,
    // the sharded cells to merge and whatever the fleet could not
    // finish, which by determinism is byte-identical to what a worker
    // would have produced. Merging replays the workers' journals.
    ToolflowOptions localOpt = opt;
    localOpt.resume = opt.resume || farm;
    std::unique_ptr<core::Toolflow> local;
    auto tf = [&]() -> core::Toolflow & {
        if (!local)
            local = std::make_unique<core::Toolflow>(localOpt, cancel);
        return *local;
    };
    if (!farm)
        return core::runGrid(
            opt, spec,
            [&](const CellPlan &cp, const std::string &csv) {
                return core::SourcedCell{core::runGridCell(tf(), cp, csv)};
            });

    std::vector<CellPlan> cells = core::planEvaluationGrid(opt, spec);
    std::vector<WorkUnit> units =
        planUnits(opt, cells, fopt.shardRuns);
    std::string spool = !fopt.spoolDir.empty() ? fopt.spoolDir
                        : !opt.cacheDir.empty()
                            ? opt.cacheDir + "/fleet"
                            : std::string("tea_fleet");
    WorkQueue q(spool);
    // Farm the campaign out when the grid loop asks for its first
    // cell, so a cached grid publishes nothing.
    bool farmed = false;
    auto farmOut = [&] {
        if (std::exchange(farmed, true))
            return;
        obs::Span fleetSpan("fleet.grid", "fleet");
        FleetPlan plan;
        plan.opt = opt;
        // Workers always resume: a reissued unit must pick up its
        // predecessor's journal instead of discarding it.
        plan.opt.resume = true;
        if (fopt.workerThreads > 0)
            plan.opt.threads = fopt.workerThreads;
        plan.spec = spec;
        plan.leaseMs = fopt.leaseMs;
        if (!q.publish(plan, units)) {
            warn("fleet: cannot publish spool '%s'; running in-process",
                 spool.c_str());
            return;
        }
        Supervisor sup(q, fopt, units, cancel);
        int nWorkers = std::min<int>(
            fopt.workers, static_cast<int>(units.size()));
        sup.setRestartBudget(fopt.maxAttempts *
                                 static_cast<int>(units.size()) +
                             nWorkers + 8);
        inform("fleet: %zu unit(s) across %d worker(s), spool %s",
               units.size(), nWorkers, spool.c_str());
        sup.spawnInitial(nWorkers);
        sup.supervise();
    };

    std::vector<std::string> shardPaths;
    EvaluationGrid grid = core::runGrid(
        opt, spec,
        [&](const CellPlan &cp,
            const std::string &csv) -> core::SourcedCell {
            farmOut();
            bool poisoned = false, sharded = false, allDone = true;
            std::optional<UnitResult> cellDone;
            for (const WorkUnit &u : units) {
                if (u.cell != cp.index)
                    continue;
                sharded = u.kind == WorkUnit::Kind::Range;
                if (q.isPoisoned(u.id))
                    poisoned = true;
                else if (!q.isDone(u.id))
                    allDone = false;
                else if (!sharded)
                    cellDone = q.loadDone(u.id);
                if (sharded)
                    shardPaths.push_back(q.shardJournalPath(u.id));
            }
            core::SourcedCell got;
            if (poisoned) {
                got.cell = poisonedCell(cp);
                got.journaled = false;
            } else if (cellDone && allDone) {
                // A worker ran the whole cell (journal + manifest
                // already on disk); only the counters travel back.
                got.cell = {cp.workload, cp.model, cp.vrFrac,
                            cellDone->result};
                got.cell.result.workload = cp.workload;
                got.cell.result.model = models::modelKindName(cp.model);
            } else if (!allDone && cancel.cancelled()) {
                // Cancelled with this cell unfinished: stop without
                // bringing up a toolflow only to be interrupted.
                got.cell.result.interrupted = true;
            } else {
                // Sharded cell, or one the fleet never finished: merge
                // whatever shard records exist, then let the canonical
                // cell path replay them and execute any gaps here.
                if (sharded)
                    mergeShardJournals(tf(), cp, q, units);
                got.cell = core::runGridCell(tf(), cp, csv);
            }
            return got;
        });
    // Grid durable: the shard journals have served their purpose
    // (poisoned cells' canonical journals and spool debris stay for
    // the post-mortem).
    if (!grid.interrupted)
        for (const auto &p : shardPaths)
            core::ShardJournal(p).remove();
    return grid;
}

} // namespace tea::fleet
