/**
 * @file
 * The file-based work queue (spool directory) behind the fleet.
 *
 * Layout of a spool directory:
 *
 *     plan.tfp          the sealed FleetPlan (atomicWriteFile)
 *     units/u%06llu     one sealed WorkUnit per leasable unit
 *     leases/u%06llu    claim file: O_CREAT|O_EXCL claim, atomic-rename
 *                       heartbeat renewals ("pid <p>\nbeat <ms>\n")
 *     done/u%06llu      sealed UnitResult; the unit's atomic commit
 *                       point — it exists iff the unit completed
 *     tries/u%06llu     failed-attempt count (coordinator-written)
 *     poison/u%06llu    quarantine marker: the unit killed workers
 *                       `tries` times and is excluded from execution
 *     shards/u%06llu.jnl  per-Range-unit shard journal
 *
 * Concurrency story, in one paragraph: exactly one process wins the
 * O_CREAT|O_EXCL lease claim; the coordinator is the *only* process
 * that ever removes or expires leases, so there are no reclaim races;
 * the done file is written atomically and never removed while the
 * campaign runs, so "is this unit finished?" has a stable answer; and
 * because every run's result is a pure function of the plan, a zombie
 * worker (lease expired, process still alive) double-executing a unit
 * writes byte-identical artifacts — harmless by determinism rather
 * than by exclusion.
 */

#ifndef TEA_FLEET_QUEUE_HH
#define TEA_FLEET_QUEUE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/workunit.hh"

namespace tea::fleet {

/** A parsed lease file. */
struct Lease
{
    int64_t pid = 0;
    /** Last heartbeat, wallClockMs(). */
    int64_t beat = 0;
};

class WorkQueue
{
  public:
    explicit WorkQueue(std::string dir);

    const std::string &dir() const { return dir_; }

    // ---- paths ------------------------------------------------------
    std::string planPath() const;
    std::string unitPath(uint64_t id) const;
    std::string leasePath(uint64_t id) const;
    std::string donePath(uint64_t id) const;
    std::string triesPath(uint64_t id) const;
    std::string poisonPath(uint64_t id) const;
    std::string shardJournalPath(uint64_t id) const;

    // ---- coordinator side -------------------------------------------
    /**
     * Create the directory tree and publish plan + units. The plan
     * file doubles as the spool's identity: publishing a plan with an
     * equal planIdentity (it may differ only in its DTA engine) is an
     * idempotent resume that preserves done/tries/poison state, while
     * a differing plan (or a unit whose bytes changed,
     * e.g. another shard size) wipes the stale state first — a spool
     * left by a different campaign must never leak its results into
     * this one.
     */
    bool publish(const FleetPlan &plan,
                 const std::vector<WorkUnit> &units);

    // ---- both sides -------------------------------------------------
    std::optional<FleetPlan> loadPlan() const;
    /** Unit ids present under units/, sorted. */
    std::vector<uint64_t> listUnits() const;
    std::optional<WorkUnit> loadUnit(uint64_t id) const;

    /**
     * Try to claim `id`: exactly one of N racing workers wins. The
     * caller must already have checked done/poison (racing a check is
     * fine — a claim of a finished unit just gets re-verified by the
     * claimer and released).
     */
    bool claim(uint64_t id, int64_t pid);
    /** Refresh the heartbeat timestamp (atomic rename). */
    bool renew(uint64_t id, int64_t pid);
    /** Drop a lease (worker done with it, or coordinator reaping). */
    bool release(uint64_t id);
    /**
     * Drop a lease only while `pid` still owns it — a zombie worker
     * (lease reaped and reissued under it) must not release its
     * successor's lease.
     */
    bool releaseIfOwner(uint64_t id, int64_t pid);
    std::optional<Lease> loadLease(uint64_t id) const;

    bool isDone(uint64_t id) const;
    bool isPoisoned(uint64_t id) const;
    /** Publish a unit's completion record (atomic; last-wins). */
    bool markDone(const UnitResult &result);
    std::optional<UnitResult> loadDone(uint64_t id) const;

    /** Failed-attempt counter (0 when never failed). */
    int tries(uint64_t id) const;
    void setTries(uint64_t id, int n);
    /** Quarantine: exclude the unit from all further claims. */
    bool poison(uint64_t id);

  private:
    /** Wipe all per-unit state (a different campaign owned it). */
    bool clearState();
    /** Remove one unit's file and every record attached to it. */
    bool dropUnit(uint64_t id);

    std::string dir_;
};

} // namespace tea::fleet

#endif // TEA_FLEET_QUEUE_HH
