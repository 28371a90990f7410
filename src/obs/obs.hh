/**
 * @file
 * Observability facade: the metric catalog, environment wiring, and
 * the at-exit exporters.
 *
 * The layer has three pieces (all deterministic-safe — observation
 * only, never campaign control flow, RNG, or merge order):
 *
 *  - **Metrics** (obs/metrics.hh): counters/gauges/histograms exported
 *    as JSON + Prometheus text when `REPRO_METRICS=<path>` (or
 *    `--metrics <path>` on the bench binaries) is set.
 *  - **Phase tracing** (obs/trace.hh): nested spans dumped as Chrome
 *    trace_event JSON when `REPRO_TRACE=<path>` / `--trace <path>`.
 *  - **Run manifests** (obs/manifest.hh): per-grid-cell provenance
 *    JSON written into the cache dir whenever caching is on.
 *
 * Every metric family name lives in obs::metric:: below; the catalog
 * is the single source of truth that scripts/check_docs.sh greps
 * against docs/OBSERVABILITY.md, so adding a metric without
 * documenting it fails ctest.
 */

#ifndef TEA_OBS_OBS_HH
#define TEA_OBS_OBS_HH

#include <string>

namespace tea::obs {

namespace metric {

// ---- injection engine ---------------------------------------------
inline constexpr const char *kInjectRuns = "tea_inject_runs_total";
inline constexpr const char *kInjectOutcomes =
    "tea_inject_outcomes_total";
inline constexpr const char *kInjectRetries =
    "tea_inject_retries_total";
inline constexpr const char *kInjectReplays =
    "tea_inject_replays_total";
inline constexpr const char *kInjectRunMs = "tea_inject_run_ms";
inline constexpr const char *kInjectShortcuts =
    "tea_inject_runs_shortcut_total";
inline constexpr const char *kInjectFastPathRuns =
    "tea_inject_fastpath_runs_total";
inline constexpr const char *kInjectFastPathFallbacks =
    "tea_inject_fastpath_fallbacks_total";
// ---- multi-core injection (McSim) ----------------------------------
inline constexpr const char *kMcOutcomes = "tea_mc_outcomes_total";
inline constexpr const char *kMcInvalidations =
    "tea_mc_invalidations_total";
inline constexpr const char *kMcC2cTransfers =
    "tea_mc_c2c_transfers_total";
inline constexpr const char *kMcL2Misses = "tea_mc_l2_misses_total";
inline constexpr const char *kMcCrossReads =
    "tea_mc_cross_reads_total";
inline constexpr const char *kMcOverwriteMasked =
    "tea_mc_overwrite_masked_total";
inline constexpr const char *kMcSpawns = "tea_mc_spawns_total";
inline constexpr const char *kMcBarriers = "tea_mc_barriers_total";
// ---- DTA characterization -----------------------------------------
inline constexpr const char *kDtaShards = "tea_dta_shards_total";
inline constexpr const char *kDtaShardRetries =
    "tea_dta_shard_retries_total";
inline constexpr const char *kDtaShardsDropped =
    "tea_dta_shards_dropped_total";
inline constexpr const char *kDtaOps = "tea_dta_ops_total";
inline constexpr const char *kDtaShardMs = "tea_dta_shard_ms";
inline constexpr const char *kDtaLaneBatches =
    "tea_dta_lane_batches_total";
inline constexpr const char *kDtaLaneFallbackOps =
    "tea_dta_lane_fallback_ops_total";
inline constexpr const char *kDtaCompileMs = "tea_dta_compile_ms";
// ---- importance sampling / surrogate -------------------------------
inline constexpr const char *kIsRuns = "tea_is_runs_total";
inline constexpr const char *kIsEssRatio = "tea_is_ess_ratio";
inline constexpr const char *kSurrogateTrainMs =
    "tea_surrogate_train_ms";
inline constexpr const char *kSurrogateAuc = "tea_surrogate_auc";
inline constexpr const char *kSurrogateCorpusOps =
    "tea_surrogate_corpus_ops_total";
// ---- adaptive estimation ------------------------------------------
inline constexpr const char *kStatsRounds = "tea_stats_rounds_total";
inline constexpr const char *kStatsEarlyStops =
    "tea_stats_early_stops_total";
inline constexpr const char *kStatsAllocatedTrials =
    "tea_stats_allocated_trials_total";
inline constexpr const char *kStatsTrialsSaved =
    "tea_stats_trials_saved_total";
// ---- durability ----------------------------------------------------
inline constexpr const char *kJournalAppends =
    "tea_journal_appends_total";
inline constexpr const char *kCacheHits = "tea_cache_hits_total";
inline constexpr const char *kCacheMisses = "tea_cache_misses_total";
inline constexpr const char *kCacheCorrupt = "tea_cache_corrupt_total";
inline constexpr const char *kCacheSingleflight =
    "tea_cache_singleflight_total";
// ---- watchdogs -----------------------------------------------------
inline constexpr const char *kWatchdogDeadline =
    "tea_watchdog_deadline_total";
inline constexpr const char *kWatchdogCancelled =
    "tea_watchdog_cancelled_total";
// ---- fleet (multi-process job farm) --------------------------------
// Lease lifecycle metrics are split by role: workers count the leases
// they acquire and renew, the coordinator counts expiries, reissues,
// poisonings, and worker restarts — each process exports its own view.
inline constexpr const char *kFleetLeasesGranted =
    "tea_fleet_leases_granted_total";
inline constexpr const char *kFleetLeaseRenewals =
    "tea_fleet_lease_renewals_total";
inline constexpr const char *kFleetLeasesExpired =
    "tea_fleet_leases_expired_total";
inline constexpr const char *kFleetLeasesReissued =
    "tea_fleet_leases_reissued_total";
inline constexpr const char *kFleetUnitsCompleted =
    "tea_fleet_units_completed_total";
inline constexpr const char *kFleetUnitsPoisoned =
    "tea_fleet_units_poisoned_total";
inline constexpr const char *kFleetWorkerRestarts =
    "tea_fleet_worker_restarts_total";
inline constexpr const char *kFleetUnitMs = "tea_fleet_unit_ms";
// ---- service daemon (tea-daemon) -----------------------------------
// Connection- and frame-level counters, the admission pipeline
// (submitted / deduplicated / rejected / completed / cancelled), the
// scheduler's live state gauges, and the per-campaign latency
// histograms. All daemon-side: tea-client is stateless.
inline constexpr const char *kDaemonConnections =
    "tea_daemon_connections_total";
inline constexpr const char *kDaemonBadFrames =
    "tea_daemon_bad_frames_total";
inline constexpr const char *kDaemonRequests =
    "tea_daemon_requests_total";
inline constexpr const char *kDaemonSubmitted =
    "tea_daemon_campaigns_submitted_total";
inline constexpr const char *kDaemonDeduped =
    "tea_daemon_campaigns_deduped_total";
inline constexpr const char *kDaemonRejected =
    "tea_daemon_campaigns_rejected_total";
inline constexpr const char *kDaemonCompleted =
    "tea_daemon_campaigns_completed_total";
inline constexpr const char *kDaemonCancelled =
    "tea_daemon_campaigns_cancelled_total";
inline constexpr const char *kDaemonCellsStreamed =
    "tea_daemon_cells_streamed_total";
inline constexpr const char *kDaemonQueueDepth =
    "tea_daemon_queue_depth";
inline constexpr const char *kDaemonActive =
    "tea_daemon_campaigns_active";
inline constexpr const char *kDaemonState = "tea_daemon_state";
inline constexpr const char *kDaemonCampaignMs =
    "tea_daemon_campaign_ms";
inline constexpr const char *kDaemonQueueWaitMs =
    "tea_daemon_queue_wait_ms";
// ---- grid / process -----------------------------------------------
inline constexpr const char *kCampaignCells =
    "tea_campaign_cells_total";
inline constexpr const char *kManifestsWritten =
    "tea_manifests_written_total";
inline constexpr const char *kPoolTasks = "tea_pool_tasks_total";
inline constexpr const char *kPoolIdleNs = "tea_pool_idle_ns_total";
inline constexpr const char *kTraceDropped =
    "tea_trace_spans_dropped_total";

} // namespace metric

/**
 * Read REPRO_TRACE / REPRO_METRICS and arm the tracer/exporter
 * accordingly; registers one at-exit flush. Idempotent — the Toolflow
 * constructor and every bench/example entry point call it, whichever
 * runs first wins.
 */
void configureFromEnv();

/** CLI overrides (`--trace <path>` / `--metrics <path>`). */
void setTracePath(const std::string &path);
void setMetricsPath(const std::string &path);

/** Paths currently armed ("" = disabled). */
const std::string &tracePath();
const std::string &metricsPath();

/**
 * Write everything now: metrics JSON to metricsPath(), Prometheus text
 * to metricsPath()+".prom", the span ring to tracePath(). Safe to call
 * repeatedly; the at-exit hook calls it last.
 */
void flush();

/** `git describe` of the built tree (baked in at configure time). */
const char *gitDescribe();

} // namespace tea::obs

#endif // TEA_OBS_OBS_HH
