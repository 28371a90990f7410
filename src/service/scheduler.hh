/**
 * @file
 * The multi-campaign scheduler behind tea-daemon.
 *
 * Campaigns arrive as serialized FleetPlans, pass admission control,
 * wait in a bounded FIFO queue, and execute on a small pool of
 * executor threads — each running the PR7 fleet path
 * (fleet::runFleetGrid) against its own namespaced spool under one
 * shared spool root, with one shared characterization cache
 * (plan.opt.cacheDir is overridden to the daemon's), so concurrent
 * campaigns reuse each other's (unit, operating point) work instead of
 * re-running gate-level simulation.
 *
 * Admission control, in rejection order:
 *
 *  1. **Draining/stopping** — SHUTTING_DOWN; nothing new is accepted.
 *  2. **Deduplication** — a plan byte-identical (after the cache-dir
 *     override) to a queued or running campaign attaches to it: same
 *     id, same streamed cells, no queue slot or in-flight charge.
 *  3. **Per-client in-flight cap** — INFLIGHT_LIMIT when the client
 *     already owns `clientInflight` queued+running campaigns.
 *  4. **Bounded queue** — RETRY_AFTER (with a retry hint) when
 *     `queueCap` campaigns are already waiting. The daemon never
 *     blocks a submitter and never drops a campaign it accepted.
 *
 * Two non-identical campaigns whose artifact coordinates (run cap,
 * seed, scale, adaptive suffix) collide would race on the same grid
 * CSV and journal files in the shared cache; the scheduler serializes
 * them — such a campaign stays queued until the clashing one finishes.
 *
 * Execution streams: every merged cell is appended to the campaign's
 * in-memory result list and broadcast; `next()` is the blocking
 * cursor-based reader the connection threads use to multiplex CELL
 * frames to any number of watchers.
 */

#ifndef TEA_SERVICE_SCHEDULER_HH
#define TEA_SERVICE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/results.hh"
#include "fleet/coordinator.hh"
#include "fleet/workunit.hh"
#include "service/protocol.hh"
#include "util/watchdog.hh"

namespace tea::service {

struct DaemonOptions
{
    /** Unix-domain socket path the daemon listens on. */
    std::string socketPath = "tea_daemon.sock";
    /** TCP port on loopback (< 0 disabled; 0 picks an ephemeral one). */
    int tcpPort = -1;
    /** Bounded admission queue: queued (not running) campaign cap. */
    int queueCap = 8;
    /** Executor threads = campaigns that may run concurrently. */
    int concurrency = 1;
    /** Per-client queued+running campaign cap. */
    int clientInflight = 4;
    /** Retry hint sent with RETRY_AFTER rejections. */
    int64_t retryMs = 500;
    /**
     * Shared characterization-cache dir forced onto every submitted
     * plan ("" = the REPRO_CACHE / default cache dir at startup).
     */
    std::string cacheDir;
    /** Spool root; campaigns get `<root>/<spoolNamespace(plan)>`. */
    std::string spoolRoot;
    /** Worker-fleet settings applied to every campaign. */
    fleet::FleetOptions fleet;
};

/** Daemon setting ranges (REPRO_DAEMON_* clamps; flags reject). */
inline constexpr IntRange kTcpPortRange{-1, 65535};
inline constexpr IntRange kQueueCapRange{1, 4096};
inline constexpr IntRange kConcurrencyRange{1, 64};
inline constexpr IntRange kClientInflightRange{1, 4096};
inline constexpr IntRange kRetryMsRange{1, 3600000};

/**
 * Read REPRO_DAEMON_SOCKET / REPRO_DAEMON_TCP_PORT /
 * REPRO_DAEMON_QUEUE / REPRO_DAEMON_CONCURRENCY /
 * REPRO_DAEMON_CLIENT_INFLIGHT / REPRO_DAEMON_RETRY_MS /
 * REPRO_DAEMON_SPOOL overrides (malformed values warn and keep the
 * default; out-of-range ones warn and clamp), plus the REPRO_FLEET_*
 * fleet settings.
 */
DaemonOptions daemonOptionsFromEnv();

enum class CampaignState
{
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
};

const char *campaignStateName(CampaignState s);

class Scheduler
{
  public:
    explicit Scheduler(DaemonOptions opt);
    ~Scheduler();

    struct Submission
    {
        uint64_t id = 0;
        /** True when attached to an already-active identical plan. */
        bool deduped = false;
        uint64_t cellsTotal = 0;
    };

    struct Rejection
    {
        ErrorCode code = ErrorCode::Internal;
        int64_t retryMs = 0;
        std::string detail;
    };

    struct SubmitResult
    {
        bool accepted = false;
        Submission sub;
        Rejection rej;
    };

    /** Admit (or reject) one serialized FleetPlan from `client`. */
    SubmitResult submit(const std::string &planBytes,
                        const std::string &client);

    struct Progress
    {
        CampaignState state = CampaignState::Queued;
        uint64_t cellsDone = 0;
        uint64_t cellsTotal = 0;
        bool interrupted = false;
    };

    std::optional<Progress> status(uint64_t id) const;

    struct Event
    {
        bool haveCell = false;
        core::CampaignCell cell; ///< valid when haveCell
        bool terminal = false;   ///< campaign reached a final state
        Progress progress;
    };

    /**
     * Blocking watch step: wait up to `timeoutMs` for cell `cursor` to
     * exist or the campaign to finish. Returns false for an unknown
     * id; an Event with neither flag set means timeout (call again).
     */
    bool next(uint64_t id, uint64_t cursor, int timeoutMs, Event &ev);

    /**
     * Cancel: a queued campaign is removed immediately; a running one
     * has its token cancelled: its runs stop at their next watchdog
     * poll, completed ones stay journaled. False for an unknown id.
     */
    bool cancel(uint64_t id);

    /** Stop admitting; queued and running campaigns still finish. */
    void drain();
    bool draining() const;
    /** Block until no campaign is queued or running. */
    void awaitIdle();
    /**
     * Hold/release the executors. While paused, admitted campaigns
     * stay queued — deterministic backpressure for tests and a
     * maintenance valve for operators.
     */
    void setPaused(bool paused);
    /** Cancel everything, as cancel() does, and join the executors. */
    void stop();

  private:
    struct Campaign
    {
        uint64_t id = 0;
        /** fleet::planIdentity of the plan after the overrides. */
        std::string identity;
        fleet::FleetPlan plan;
        std::string client;
        /** Shared-cache artifact coordinates (see file header). */
        std::string clashKey;
        CampaignState state = CampaignState::Queued;
        /** The campaign's one stop signal (cancel() and stop()). */
        CancelToken cancel;
        std::vector<core::CampaignCell> cells;
        uint64_t cellsTotal = 0;
        bool interrupted = false;
        int64_t submitMs = 0;
        int64_t startMs = 0;
    };

    void executorLoop();
    void execute(Campaign &c);
    /** Queued campaign runnable now (clash-free); lock held. */
    std::deque<uint64_t>::iterator nextRunnable();
    void finish(Campaign &c, CampaignState state);
    void updateGauges(); ///< lock held

    DaemonOptions opt_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    uint64_t nextId_ = 1;
    std::map<uint64_t, std::unique_ptr<Campaign>> campaigns_;
    std::deque<uint64_t> queue_;
    /** Plan identity -> active (queued/running) campaign id. */
    std::map<std::string, uint64_t> activeByPlan_;
    /** Clash keys of running campaigns (serialization guard). */
    std::set<std::string> runningClash_;
    size_t running_ = 0;
    bool draining_ = false;
    bool paused_ = false;
    bool stopping_ = false;
    std::vector<std::thread> executors_;
};

} // namespace tea::service

#endif // TEA_SERVICE_SCHEDULER_HH
