#include "fleet/queue.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "util/fsatomic.hh"
#include "util/logging.hh"

namespace tea::fleet {

namespace fs = std::filesystem;

namespace {

std::string
unitName(uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "u%06llu",
                  static_cast<unsigned long long>(id));
    return buf;
}

std::string
leaseBody(int64_t pid)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "pid %lld\nbeat %lld\n",
                  static_cast<long long>(pid),
                  static_cast<long long>(wallClockMs()));
    return buf;
}

} // namespace

WorkQueue::WorkQueue(std::string dir) : dir_(std::move(dir)) {}

std::string
WorkQueue::planPath() const
{
    return dir_ + "/plan.tfp";
}

std::string
WorkQueue::unitPath(uint64_t id) const
{
    return dir_ + "/units/" + unitName(id);
}

std::string
WorkQueue::leasePath(uint64_t id) const
{
    return dir_ + "/leases/" + unitName(id);
}

std::string
WorkQueue::donePath(uint64_t id) const
{
    return dir_ + "/done/" + unitName(id);
}

std::string
WorkQueue::triesPath(uint64_t id) const
{
    return dir_ + "/tries/" + unitName(id);
}

std::string
WorkQueue::poisonPath(uint64_t id) const
{
    return dir_ + "/poison/" + unitName(id);
}

std::string
WorkQueue::shardJournalPath(uint64_t id) const
{
    return dir_ + "/shards/" + unitName(id) + ".jnl";
}

bool
WorkQueue::publish(const FleetPlan &plan,
                   const std::vector<WorkUnit> &units)
{
    std::error_code ec;
    for (const char *sub :
         {"", "/units", "/leases", "/done", "/tries", "/poison",
          "/shards"}) {
        fs::create_directories(dir_ + sub, ec);
        if (ec) {
            warn("fleet: cannot create spool '%s%s': %s", dir_.c_str(),
                 sub, ec.message().c_str());
            return false;
        }
    }
    // The spool encodes no plan identity in its path, so it may hold
    // the remains of a *different* campaign (other seed, spec, or
    // options). Those done/tries/poison records describe other work —
    // reusing them would silently splice a previous campaign's results
    // into this grid. The plan file is the identity check: an equal
    // planIdentity means same campaign (resume), anything else (or
    // damaged bytes) means wipe.
    std::string planBytes = plan.serialize();
    auto prevPlan = readFileToString(planPath());
    if (prevPlan && planIdentity(*prevPlan) != planIdentity(planBytes)) {
        inform("fleet: spool '%s' holds a different campaign's plan; "
               "clearing it",
               dir_.c_str());
        if (!clearState())
            return false;
    }
    if (!atomicWriteFile(planPath(), planBytes))
        return false;
    // Unit ids are dense [0, N): drop files a previous, larger
    // decomposition left beyond this one — workers sweep units/ and
    // would otherwise execute stale definitions.
    for (uint64_t id : listUnits())
        if (id >= units.size() && !dropUnit(id))
            return false;
    for (const WorkUnit &u : units) {
        std::string path = unitPath(u.id);
        std::string bytes = u.serialize();
        if (createExclusive(path, bytes))
            continue;
        auto prev = readFileToString(path);
        if (prev && *prev == bytes)
            continue; // byte-identical re-publish: resume as-is
        // Same plan but different bytes: the decomposition changed
        // (e.g. another REPRO_FLEET_SHARD_RUNS) or the file is torn.
        // Any state recorded against the old definition is void.
        if (!dropUnit(u.id) || !atomicWriteFile(path, bytes))
            return false;
    }
    return true;
}

bool
WorkQueue::clearState()
{
    std::error_code ec;
    for (const char *sub :
         {"/units", "/leases", "/done", "/tries", "/poison",
          "/shards"}) {
        fs::remove_all(dir_ + sub, ec);
        if (ec) {
            warn("fleet: cannot clear spool '%s%s': %s", dir_.c_str(),
                 sub, ec.message().c_str());
            return false;
        }
        fs::create_directories(dir_ + sub, ec);
        if (ec) {
            warn("fleet: cannot recreate spool '%s%s': %s",
                 dir_.c_str(), sub, ec.message().c_str());
            return false;
        }
    }
    return true;
}

bool
WorkQueue::dropUnit(uint64_t id)
{
    return removeFile(unitPath(id)) && removeFile(leasePath(id)) &&
           removeFile(donePath(id)) && removeFile(triesPath(id)) &&
           removeFile(poisonPath(id)) &&
           removeFile(shardJournalPath(id));
}

std::optional<FleetPlan>
WorkQueue::loadPlan() const
{
    auto content = readFileToString(planPath());
    if (!content)
        return std::nullopt;
    return FleetPlan::parse(*content);
}

std::vector<uint64_t>
WorkQueue::listUnits() const
{
    std::vector<uint64_t> ids;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(dir_ + "/units", ec)) {
        std::string name = entry.path().filename().string();
        if (name.size() > 1 && name[0] == 'u')
            ids.push_back(std::strtoull(name.c_str() + 1, nullptr, 10));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::optional<WorkUnit>
WorkQueue::loadUnit(uint64_t id) const
{
    auto content = readFileToString(unitPath(id));
    if (!content)
        return std::nullopt;
    return WorkUnit::parse(*content);
}

bool
WorkQueue::claim(uint64_t id, int64_t pid)
{
    return createExclusive(leasePath(id), leaseBody(pid));
}

bool
WorkQueue::renew(uint64_t id, int64_t pid)
{
    // Atomic rename: the lease file exists continuously through a
    // renewal, so the coordinator never mistakes a renewing worker for
    // a vanished one. Not durable: a heartbeat lost to power failure
    // just re-expires, and fsync at heartbeat rate would throttle
    // every worker.
    return atomicWriteFile(leasePath(id), leaseBody(pid),
                           /*durable=*/false);
}

bool
WorkQueue::release(uint64_t id)
{
    return removeFile(leasePath(id));
}

bool
WorkQueue::releaseIfOwner(uint64_t id, int64_t pid)
{
    auto lease = loadLease(id);
    if (!lease || lease->pid != pid)
        return false;
    // Benign TOCTOU: if the coordinator reissues between the read and
    // the unlink, the successor's next heartbeat recreates its lease
    // and the unit is at worst double-executed — which determinism
    // makes byte-identical.
    return removeFile(leasePath(id));
}

std::optional<Lease>
WorkQueue::loadLease(uint64_t id) const
{
    auto content = readFileToString(leasePath(id));
    if (!content)
        return std::nullopt;
    Lease l;
    long long pid = 0, beat = 0;
    if (std::sscanf(content->c_str(), "pid %lld beat %lld", &pid,
                    &beat) != 2)
        return std::nullopt;
    l.pid = pid;
    l.beat = beat;
    return l;
}

bool
WorkQueue::isDone(uint64_t id) const
{
    std::error_code ec;
    return fs::exists(donePath(id), ec);
}

bool
WorkQueue::isPoisoned(uint64_t id) const
{
    std::error_code ec;
    return fs::exists(poisonPath(id), ec);
}

bool
WorkQueue::markDone(const UnitResult &result)
{
    return atomicWriteFile(donePath(result.unit), result.serialize());
}

std::optional<UnitResult>
WorkQueue::loadDone(uint64_t id) const
{
    auto content = readFileToString(donePath(id));
    if (!content)
        return std::nullopt;
    return UnitResult::parse(*content);
}

int
WorkQueue::tries(uint64_t id) const
{
    auto content = readFileToString(triesPath(id));
    if (!content)
        return 0;
    return static_cast<int>(std::strtol(content->c_str(), nullptr, 10));
}

void
WorkQueue::setTries(uint64_t id, int n)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d\n", n);
    atomicWriteFile(triesPath(id), buf);
}

bool
WorkQueue::poison(uint64_t id)
{
    return createExclusive(poisonPath(id), "poisoned\n");
}

} // namespace tea::fleet
