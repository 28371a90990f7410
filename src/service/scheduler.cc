#include "service/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/env.hh"
#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::service {

namespace {

obs::Counter
rejectionCounter(ErrorCode code)
{
    std::string label =
        std::string("code=\"") + errorCodeName(code) + "\"";
    return obs::Registry::global().counter(
        obs::metric::kDaemonRejected, label,
        "campaign submissions rejected at admission");
}

/**
 * The coordinates under which a campaign's shared-cache artifacts
 * (grid CSV, cell journals, manifests) are named. Two *distinct*
 * campaigns with equal coordinates must not run concurrently — they
 * would write the same files.
 */
std::string
clashKeyFor(const core::ToolflowOptions &opt)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "r%d_s%llu_x%d_a%g_c%g",
                  core::cellRunCap(opt),
                  static_cast<unsigned long long>(opt.seed),
                  opt.workloadScale,
                  opt.adaptive() ? opt.ciTarget : 0.0,
                  opt.adaptive() ? opt.ciConf : 0.0);
    return std::string(buf) + "@" + opt.cacheDir;
}

} // namespace

DaemonOptions
daemonOptionsFromEnv()
{
    DaemonOptions d;
    d.fleet = fleet::fleetOptionsFromEnv();
    if (const char *v = std::getenv("REPRO_DAEMON_SOCKET"))
        d.socketPath = v;
    if (const char *v = std::getenv("REPRO_DAEMON_SPOOL"))
        d.spoolRoot = v;
    int64_t n;
    if (envClamped("REPRO_DAEMON_TCP_PORT", kTcpPortRange, n))
        d.tcpPort = static_cast<int>(n);
    if (envClamped("REPRO_DAEMON_QUEUE", kQueueCapRange, n))
        d.queueCap = static_cast<int>(n);
    if (envClamped("REPRO_DAEMON_CONCURRENCY", kConcurrencyRange, n))
        d.concurrency = static_cast<int>(n);
    if (envClamped("REPRO_DAEMON_CLIENT_INFLIGHT", kClientInflightRange,
                   n))
        d.clientInflight = static_cast<int>(n);
    envClamped("REPRO_DAEMON_RETRY_MS", kRetryMsRange, d.retryMs);
    return d;
}

const char *
campaignStateName(CampaignState s)
{
    switch (s) {
      case CampaignState::Queued: return "queued";
      case CampaignState::Running: return "running";
      case CampaignState::Done: return "done";
      case CampaignState::Cancelled: return "cancelled";
      case CampaignState::Failed: return "failed";
    }
    return "unknown";
}

Scheduler::Scheduler(DaemonOptions opt) : opt_(std::move(opt))
{
    if (opt_.cacheDir.empty())
        opt_.cacheDir = core::optionsFromEnv().cacheDir;
    if (opt_.spoolRoot.empty())
        opt_.spoolRoot = !opt_.cacheDir.empty()
                             ? opt_.cacheDir + "/daemon-spool"
                             : std::string("tea_daemon_spool");
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(1);
    for (int i = 0; i < opt_.concurrency; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

Scheduler::~Scheduler()
{
    stop();
}

void
Scheduler::updateGauges()
{
    obs::Registry &reg = obs::Registry::global();
    reg.gauge(obs::metric::kDaemonQueueDepth, "",
              "campaigns admitted but not yet executing")
        .set(static_cast<int64_t>(queue_.size()));
    reg.gauge(obs::metric::kDaemonActive, "",
              "campaigns currently executing")
        .set(static_cast<int64_t>(running_));
}

Scheduler::SubmitResult
Scheduler::submit(const std::string &planBytes,
                  const std::string &client)
{
    SubmitResult r;
    std::string why;
    auto plan = fleet::FleetPlan::parse(planBytes, &why);
    if (!plan) {
        r.rej = {ErrorCode::BadRequest, 0, "invalid fleet plan: " + why};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    // One shared characterization cache across every campaign — and,
    // because the override lands *before* dedup keying, two clients
    // differing only in their local cache paths still deduplicate.
    plan->opt.cacheDir = opt_.cacheDir;
    std::string canon = *fleet::planIdentity(plan->serialize());

    std::lock_guard<std::mutex> lock(mu_);
    obs::Registry &reg = obs::Registry::global();
    if (stopping_ || draining_) {
        r.rej = {ErrorCode::ShuttingDown, 0, "daemon is draining"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    if (auto it = activeByPlan_.find(canon);
        it != activeByPlan_.end()) {
        Campaign &c = *campaigns_.at(it->second);
        reg.counter(obs::metric::kDaemonDeduped, "",
                    "submissions attached to an identical active "
                    "campaign")
            .inc(1);
        r.accepted = true;
        r.sub = {c.id, true, c.cellsTotal};
        return r;
    }
    int owned = 0;
    for (const auto &[id, c] : campaigns_)
        if (c->client == client &&
            (c->state == CampaignState::Queued ||
             c->state == CampaignState::Running))
            ++owned;
    if (owned >= opt_.clientInflight) {
        r.rej = {ErrorCode::InflightLimit, opt_.retryMs,
                 "client in-flight campaign cap reached"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }
    if (queue_.size() >= static_cast<size_t>(opt_.queueCap)) {
        r.rej = {ErrorCode::RetryAfter, opt_.retryMs,
                 "admission queue full"};
        rejectionCounter(r.rej.code).inc(1);
        return r;
    }

    auto c = std::make_unique<Campaign>();
    c->id = nextId_++;
    c->identity = canon;
    c->plan = std::move(*plan);
    c->client = client;
    c->clashKey = clashKeyFor(c->plan.opt);
    c->cellsTotal =
        core::planEvaluationGrid(c->plan.opt, c->plan.spec).size();
    c->submitMs = wallClockMs();
    r.accepted = true;
    r.sub = {c->id, false, c->cellsTotal};
    activeByPlan_[canon] = c->id;
    queue_.push_back(c->id);
    campaigns_.emplace(c->id, std::move(c));
    reg.counter(obs::metric::kDaemonSubmitted, "",
                "campaigns admitted to the scheduler")
        .inc(1);
    updateGauges();
    cv_.notify_all();
    return r;
}

std::optional<Scheduler::Progress>
Scheduler::status(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return std::nullopt;
    const Campaign &c = *it->second;
    Progress p;
    p.state = c.state;
    p.cellsDone = c.cells.size();
    p.cellsTotal = c.cellsTotal;
    p.interrupted = c.interrupted;
    return p;
}

bool
Scheduler::next(uint64_t id, uint64_t cursor, int timeoutMs, Event &ev)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return false;
    Campaign &c = *it->second;
    auto ready = [&] {
        return cursor < c.cells.size() ||
               (c.state != CampaignState::Queued &&
                c.state != CampaignState::Running);
    };
    if (timeoutMs < 0)
        cv_.wait(lock, ready);
    else
        cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                     ready);
    ev = Event{};
    ev.progress.state = c.state;
    ev.progress.cellsDone = c.cells.size();
    ev.progress.cellsTotal = c.cellsTotal;
    ev.progress.interrupted = c.interrupted;
    if (cursor < c.cells.size()) {
        ev.haveCell = true;
        ev.cell = c.cells[cursor];
        return true;
    }
    ev.terminal = c.state != CampaignState::Queued &&
                  c.state != CampaignState::Running;
    return true;
}

bool
Scheduler::cancel(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return false;
    Campaign &c = *it->second;
    switch (c.state) {
      case CampaignState::Queued: {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                     queue_.end());
        c.state = CampaignState::Cancelled;
        activeByPlan_.erase(c.identity);
        obs::Registry::global()
            .counter(obs::metric::kDaemonCancelled, "",
                     "campaigns cancelled by request")
            .inc(1);
        updateGauges();
        cv_.notify_all();
        break;
      }
      case CampaignState::Running:
        // Token only: the running runs stop at their next watchdog
        // poll, and the executor records the terminal state.
        c.cancel.cancel();
        break;
      default:
        break; // already terminal — cancel is idempotent
    }
    return true;
}

void
Scheduler::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
        return;
    draining_ = true;
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(2);
    cv_.notify_all();
}

bool
Scheduler::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

void
Scheduler::awaitIdle()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void
Scheduler::setPaused(bool paused)
{
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
    cv_.notify_all();
}

void
Scheduler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        paused_ = false;
        // Queued campaigns will never run now; running ones are
        // cancelled and finish as Cancelled.
        for (uint64_t id : queue_) {
            Campaign &c = *campaigns_.at(id);
            c.state = CampaignState::Cancelled;
            activeByPlan_.erase(c.identity);
        }
        queue_.clear();
        for (auto &[id, c] : campaigns_)
            if (c->state == CampaignState::Running)
                c->cancel.cancel();
        updateGauges();
        cv_.notify_all();
    }
    for (std::thread &t : executors_)
        if (t.joinable())
            t.join();
    obs::Registry::global()
        .gauge(obs::metric::kDaemonState, "",
               "scheduler state: 0 stopped, 1 serving, 2 draining")
        .set(0);
}

std::deque<uint64_t>::iterator
Scheduler::nextRunnable()
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const Campaign &c = *campaigns_.at(*it);
        if (!runningClash_.count(c.clashKey))
            return it;
    }
    return queue_.end();
}

void
Scheduler::finish(Campaign &c, CampaignState state)
{
    std::lock_guard<std::mutex> lock(mu_);
    c.state = state;
    runningClash_.erase(c.clashKey);
    --running_;
    auto it = activeByPlan_.find(c.identity);
    if (it != activeByPlan_.end() && it->second == c.id)
        activeByPlan_.erase(it);
    obs::Registry &reg = obs::Registry::global();
    if (state == CampaignState::Done)
        reg.counter(obs::metric::kDaemonCompleted, "",
                    "campaigns that ran to completion")
            .inc(1);
    else if (state == CampaignState::Cancelled)
        reg.counter(obs::metric::kDaemonCancelled, "",
                    "campaigns cancelled by request")
            .inc(1);
    reg.histogram(obs::metric::kDaemonCampaignMs,
                  obs::latencyBucketsMs(), "",
                  "campaign wall time, admission to terminal state")
        .observe(static_cast<double>(wallClockMs() - c.submitMs));
    updateGauges();
    cv_.notify_all();
}

void
Scheduler::execute(Campaign &c)
{
    core::GridSpec spec = c.plan.spec;
    spec.onCell = [this, &c](const core::CampaignCell &cell) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            c.cells.push_back(cell);
        }
        cv_.notify_all();
    };
    fleet::FleetOptions fopt = opt_.fleet;
    // Every campaign gets its own spool namespace under the shared
    // root; plans with one identity map to the same namespace, so a
    // resubmission of a crashed campaign resumes its spool.
    fopt.spoolDir = opt_.spoolRoot + "/" + fleet::spoolNamespace(c.plan);

    core::EvaluationGrid grid =
        fleet::runFleetGrid(c.plan.opt, fopt, spec, c.cancel);

    bool stopped = c.cancel.cancelled();
    {
        std::lock_guard<std::mutex> lock(mu_);
        // The cached-grid fast path returns without firing onCell:
        // stream the cells it loaded.
        for (size_t i = c.cells.size(); i < grid.cells.size(); ++i)
            c.cells.push_back(grid.cells[i]);
        c.interrupted = grid.interrupted;
    }
    cv_.notify_all();
    finish(c, grid.interrupted
                  ? (stopped ? CampaignState::Cancelled
                             : CampaignState::Failed)
                  : CampaignState::Done);
}

void
Scheduler::executorLoop()
{
    obs::Registry &reg = obs::Registry::global();
    for (;;) {
        Campaign *c = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] {
                return stopping_ ||
                       (!paused_ && nextRunnable() != queue_.end());
            });
            if (stopping_)
                return;
            auto it = nextRunnable();
            c = campaigns_.at(*it).get();
            queue_.erase(it);
            c->state = CampaignState::Running;
            c->startMs = wallClockMs();
            runningClash_.insert(c->clashKey);
            ++running_;
            reg.histogram(obs::metric::kDaemonQueueWaitMs,
                          obs::latencyBucketsMs(), "",
                          "time campaigns wait in the admission queue")
                .observe(static_cast<double>(c->startMs -
                                             c->submitMs));
            updateGauges();
        }
        execute(*c);
    }
}

} // namespace tea::service
