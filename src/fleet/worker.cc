#include "fleet/worker.hh"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "core/journal.hh"
#include "core/results.hh"
#include "fleet/queue.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"
#include "util/watchdog.hh"

namespace tea::fleet {

namespace {

using core::CellPlan;
using inject::InjectionCampaign;

/** Renew the lease at a third of its TTL (floor 25 ms). */
int64_t
heartbeatPeriod(int64_t leaseMs)
{
    return std::max<int64_t>(25, leaseMs / 3);
}

/**
 * Background heartbeat for the one unit this worker is executing.
 * Renewal keeps going even if the coordinator reaped us (we would be
 * the zombie then — renewals recreate the lease, the successor's work
 * is byte-identical, and the done file is still atomic last-wins).
 */
class Heartbeat
{
  public:
    Heartbeat(WorkQueue &q, uint64_t unit, int64_t leaseMs)
        : q_(q), unit_(unit),
          thread_([this, leaseMs] { loop(leaseMs); })
    {
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void loop(int64_t leaseMs)
    {
        obs::Counter renewals = obs::Registry::global().counter(
            obs::metric::kFleetLeaseRenewals, "",
            "lease heartbeat renewals sent by this worker");
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(
            lock, std::chrono::milliseconds(heartbeatPeriod(leaseMs)),
            [this] { return stop_; })) {
            if (q_.renew(unit_, getpid()))
                renewals.inc(1);
        }
    }

    WorkQueue &q_;
    uint64_t unit_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

/** Test-only fault injection (see file header). */
struct TestHooks
{
    int64_t crashAfterRuns = 0; ///< 0 = disabled
    int64_t poisonUnit = -1;    ///< -1 = disabled

    static TestHooks fromEnv()
    {
        TestHooks h;
        envI64("TEA_FLEET_TEST_CRASH_RUNS", h.crashAfterRuns);
        envI64("TEA_FLEET_TEST_POISON_UNIT", h.poisonUnit);
        return h;
    }
};

struct ExecOutcome
{
    bool complete = false;
    uint64_t fresh = 0;
    inject::CampaignResult result;
};

ExecOutcome
executeCell(core::Toolflow &tf, const WorkUnit &unit,
            const std::vector<CellPlan> &cells,
            const std::string &gridCsv,
            const std::function<void()> &onFreshRun)
{
    ExecOutcome out;
    if (unit.cell >= cells.size())
        return out;
    std::atomic<uint64_t> fresh{0};
    core::CampaignCell cell = core::runGridCell(
        tf, cells[unit.cell], gridCsv,
        [&](uint64_t, const InjectionCampaign::RunRecord &) {
            fresh.fetch_add(1, std::memory_order_relaxed);
            if (onFreshRun)
                onFreshRun();
        });
    out.fresh = fresh.load();
    out.result = cell.result;
    out.complete = !cell.result.interrupted;
    return out;
}

ExecOutcome
executeRange(core::Toolflow &tf, WorkQueue &q, const WorkUnit &unit,
             const std::vector<CellPlan> &cells,
             const std::function<void()> &onFreshRun)
{
    ExecOutcome out;
    if (unit.cell >= cells.size() || unit.hi <= unit.lo)
        return out;
    const CellPlan &plan = cells[unit.cell];
    const auto &opt = tf.options();
    auto model = core::cellModel(tf, plan);
    auto &campaign = tf.campaign(plan.workload);

    core::ShardJournal journal(q.shardJournalPath(unit.id));
    size_t replayed = journal.open(
        core::cellIdentity(opt, plan.workload, *model, plan.vrFrac),
        /*resume=*/true);

    InjectionCampaign::RunOptions ro = tf.runOptions();
    ro.replay = [&journal](uint64_t i,
                           InjectionCampaign::RunRecord &rec) {
        return journal.tryReplay(i, rec);
    };
    ro.onComplete = [&](uint64_t i,
                        const InjectionCampaign::RunRecord &rec) {
        journal.append(i, rec);
        if (onFreshRun)
            onFreshRun();
    };
    Rng rng = Rng::fromState(plan.rngState);
    out.fresh = campaign.runRange(*model, unit.lo, unit.hi, rng, ro);
    // A shard journal holds exactly this range's records, so the
    // range is complete when replay + fresh covers it.
    out.complete = replayed + out.fresh == unit.hi - unit.lo;
    return out;
}

} // namespace

int
workerMain(const std::string &spoolDir)
{
    installShutdownHandlers();
    obs::configureFromEnv();
    WorkQueue q(spoolDir);
    auto plan = q.loadPlan();
    if (!plan) {
        warn("fleet worker: unreadable plan in '%s'", spoolDir.c_str());
        return 2;
    }
    const TestHooks hooks = TestHooks::fromEnv();
    // The worker's campaign token is the one SIGTERM cancels: the
    // coordinator stops a worker by signalling it.
    const CancelToken &cancel = CancelToken::processWide();
    core::Toolflow tf(plan->opt, cancel);
    std::vector<CellPlan> cells =
        core::planEvaluationGrid(plan->opt, plan->spec);
    std::string gridCsv =
        plan->spec.useCache ? core::gridCachePath(plan->opt, plan->spec)
                            : std::string();

    obs::Registry &reg = obs::Registry::global();
    obs::Counter granted =
        reg.counter(obs::metric::kFleetLeasesGranted, "",
                    "work-unit leases this worker won");
    obs::Counter completed =
        reg.counter(obs::metric::kFleetUnitsCompleted, "",
                    "work units completed by this worker");
    obs::Histogram unitMs =
        reg.histogram(obs::metric::kFleetUnitMs,
                      obs::latencyBucketsMs(), "",
                      "wall time to execute one claimed work unit");

    // Keep sweeping the queue until a pass claims nothing: another
    // worker's in-flight lease is not our business (if it dies, the
    // coordinator reissues and respawns).
    bool claimedAny = true;
    while (claimedAny && !cancel.cancelled()) {
        claimedAny = false;
        for (uint64_t id : q.listUnits()) {
            if (cancel.cancelled())
                break;
            if (q.isDone(id) || q.isPoisoned(id))
                continue;
            if (!q.claim(id, getpid()))
                continue; // leased elsewhere (or just lost the race)
            granted.inc(1);
            claimedAny = true;
            if (q.isDone(id)) { // won a race against a finisher
                q.releaseIfOwner(id, getpid());
                continue;
            }
            if (hooks.poisonUnit >= 0 &&
                static_cast<uint64_t>(hooks.poisonUnit) == id)
                raise(SIGKILL); // test hook: a poison unit
            auto unit = q.loadUnit(id);
            if (!unit) {
                warn("fleet worker: unreadable unit u%06llu",
                     static_cast<unsigned long long>(id));
                q.releaseIfOwner(id, getpid());
                continue;
            }

            // Arm the crash hook only on a unit's first attempt so
            // its reissue completes (the chaos test's "every unit
            // dies once" schedule).
            std::atomic<int64_t> crashBudget{
                hooks.crashAfterRuns > 0 && q.tries(id) == 0
                    ? hooks.crashAfterRuns
                    : -1};
            auto onFreshRun = [&crashBudget] {
                if (crashBudget.load(std::memory_order_relaxed) < 0)
                    return;
                if (crashBudget.fetch_sub(
                        1, std::memory_order_relaxed) == 1)
                    raise(SIGKILL); // test hook: die mid-unit
            };

            int64_t t0 = wallClockMs();
            ExecOutcome out;
            {
                Heartbeat beat(q, id, plan->leaseMs);
                out = unit->kind == WorkUnit::Kind::Cell
                          ? executeCell(tf, *unit, cells, gridCsv,
                                        onFreshRun)
                          : executeRange(tf, q, *unit, cells,
                                         onFreshRun);
            }
            if (out.complete) {
                UnitResult done;
                done.unit = id;
                done.fresh = out.fresh;
                done.result = out.result;
                // The atomic commit point: after this rename the unit
                // is durably finished no matter what kills us next.
                q.markDone(done);
                completed.inc(1);
                unitMs.observe(
                    static_cast<double>(wallClockMs() - t0));
            }
            q.releaseIfOwner(id, getpid());
        }
    }
    obs::flush();
    return 0;
}

} // namespace tea::fleet
