/**
 * @file
 * The fleet coordinator: publish, supervise, reap, merge.
 *
 * The coordinator turns an evaluation grid into leasable work units,
 * farms them out to `tea-worker` processes, and reassembles the
 * results so that the N-worker campaign is byte-identical to the
 * single-process `runEvaluationGrid`:
 *
 *  - every cell's randomness is pinned in the shared plan
 *    (planEvaluationGrid), so *where* it executes cannot matter;
 *  - whole-cell units run the same runGridCell code path a local grid
 *    runs, emitting the same journals and manifests;
 *  - run-range shards journal into per-unit shard journals that the
 *    coordinator merges into the canonical cell journal in run-index
 *    order — the byte order a single-threaded cell run would produce —
 *    before replaying them through the normal campaign aggregation;
 *  - the grid CSV is written once, by the coordinator, via the same
 *    saveGrid serializer.
 *
 * Fault handling is lease-based: workers heartbeat their leases, the
 * coordinator (the *only* process that ever revokes a lease) reaps
 * leases whose holder died or went silent, reissues them with capped
 * retry and exponential backoff, and after `maxAttempts` failures
 * quarantines the unit as poison. A poisoned cell degrades to a
 * synthetic all-EngineFault result — visible in the grid, excluded
 * from AVM (fraction(EngineFault) = 1, avm() = NaN) — instead of
 * stalling the campaign. If workers cannot run at all (missing
 * binary, restart budget exhausted), the coordinator falls back to
 * executing the remaining units in-process; determinism makes the
 * fallback indistinguishable in the output.
 */

#ifndef TEA_FLEET_COORDINATOR_HH
#define TEA_FLEET_COORDINATOR_HH

#include <cstdint>
#include <string>

#include "core/results.hh"
#include "util/env.hh"
#include "util/threadpool.hh"
#include "util/watchdog.hh"

namespace tea::fleet {

struct FleetOptions
{
    /** Worker processes; <= 0 runs the grid in-process instead. */
    int workers = 0;
    /** Path to the tea-worker binary ("" disables the fleet). */
    std::string workerBin;
    /** Spool directory ("" = <cacheDir>/fleet). */
    std::string spoolDir;
    /** Lease TTL; a lease this stale is considered abandoned. */
    int64_t leaseMs = 10000;
    /** Worker-kill attempts before a unit is poisoned. */
    int maxAttempts = 3;
    /**
     * Injection runs per Range work unit; 0 = whole-cell units.
     * Ignored (with a warning) in adaptive mode, where stopping is a
     * whole-cell decision.
     */
    uint64_t shardRuns = 0;
    /** Thread count published to workers (0 = inherit the options'). */
    unsigned workerThreads = 0;
    /** First reissue backoff; doubles per failed attempt. */
    int64_t backoffMs = 250;
    /** Supervision poll period. */
    int64_t pollMs = 25;
};

/** Fleet setting ranges (REPRO_FLEET_* clamps; --workers rejects). */
inline constexpr IntRange kWorkersRange{0, 256};
inline constexpr IntRange kAttemptsRange{1, 100};
inline constexpr IntRange kShardRunsRange{0, 1000000};
inline constexpr IntRange kWorkerThreadsRange{0, ThreadPool::kMaxThreads};

/**
 * Read REPRO_FLEET_WORKERS / REPRO_FLEET_WORKER_BIN / REPRO_FLEET_DIR
 * / REPRO_FLEET_LEASE_MS / REPRO_FLEET_ATTEMPTS /
 * REPRO_FLEET_SHARD_RUNS / REPRO_FLEET_WORKER_THREADS overrides.
 * Malformed values warn and keep the default; out-of-range ones warn
 * and clamp.
 */
FleetOptions fleetOptionsFromEnv();

/**
 * Run (or load from cache) the evaluation grid for `spec` across a
 * worker fleet. Byte-identical to runEvaluationGrid(tf, spec) for any
 * worker count, including under worker crashes; falls back to
 * in-process execution when `fopt` disables the fleet. `cancel`
 * reaps every worker and ends the grid interrupted, resumable.
 */
core::EvaluationGrid
runFleetGrid(const core::ToolflowOptions &opt, const FleetOptions &fopt,
             const core::GridSpec &spec = {},
             const CancelToken &cancel = CancelToken::processWide());

} // namespace tea::fleet

#endif // TEA_FLEET_COORDINATOR_HH
