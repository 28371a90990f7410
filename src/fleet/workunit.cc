#include "fleet/workunit.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/crc32.hh"

namespace tea::fleet {

std::optional<std::string>
planIdentity(const std::string &planBytes)
{
    auto body = unsealBody(planBytes);
    if (!body)
        return std::nullopt;
    // Plans from earlier builds carry a `dtabackend` line naming the
    // DTA engine. Every engine gave byte-identical results, so the line
    // is dropped: such a plan keeps its spool namespace and resumes.
    size_t at = body->find("\ndtabackend ");
    if (at != std::string::npos)
        body->erase(at, body->find('\n', at + 1) - at);
    return body;
}

std::string
spoolNamespace(const FleetPlan &plan)
{
    std::string id = *planIdentity(plan.serialize());
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c%08x", crc32(id.data(), id.size()));
    return buf;
}

std::string
sealBody(const std::string &body)
{
    char line[24];
    std::snprintf(line, sizeof(line), "crc %08x\n",
                  crc32(body.data(), body.size()));
    return body + line;
}

std::optional<std::string>
unsealBody(const std::string &content)
{
    // The seal is the final "crc <8hex>\n" line.
    size_t tail = content.rfind("crc ");
    if (tail == std::string::npos ||
        (tail != 0 && content[tail - 1] != '\n'))
        return std::nullopt;
    uint32_t stored = 0;
    if (std::sscanf(content.c_str() + tail + 4, "%8x", &stored) != 1)
        return std::nullopt;
    std::string body = content.substr(0, tail);
    if (crc32(body.data(), body.size()) != stored)
        return std::nullopt;
    return body;
}

namespace {

/** %.17g — doubles round-trip bit-exactly through the plan file. */
std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Minimal line scanner: `key` = first word, `value` = rest of line.
 * Unknown keys are ignored so the format can grow.
 */
struct LineScanner
{
    std::istringstream in;
    explicit LineScanner(const std::string &body) : in(body) {}

    bool next(std::string &key, std::string &value)
    {
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            size_t sp = line.find(' ');
            key = line.substr(0, sp);
            value = sp == std::string::npos ? "" : line.substr(sp + 1);
            return true;
        }
        return false;
    }
};

uint64_t
toU64(const std::string &v)
{
    return std::strtoull(v.c_str(), nullptr, 10);
}

} // namespace

std::string
WorkUnit::serialize() const
{
    std::ostringstream out;
    out << "tea-fleet-unit-v1\n";
    out << "unit " << id << "\n";
    out << "kind " << (kind == Kind::Cell ? "cell" : "range") << "\n";
    out << "cell " << cell << "\n";
    if (kind == Kind::Range)
        out << "lo " << lo << "\nhi " << hi << "\n";
    return sealBody(out.str());
}

std::optional<WorkUnit>
WorkUnit::parse(const std::string &content)
{
    auto body = unsealBody(content);
    if (!body || body->rfind("tea-fleet-unit-v1\n", 0) != 0)
        return std::nullopt;
    WorkUnit u;
    LineScanner sc(body->substr(body->find('\n') + 1));
    std::string key, value;
    bool sawKind = false;
    while (sc.next(key, value)) {
        if (key == "unit")
            u.id = toU64(value);
        else if (key == "kind") {
            if (value == "cell")
                u.kind = Kind::Cell;
            else if (value == "range")
                u.kind = Kind::Range;
            else
                return std::nullopt;
            sawKind = true;
        } else if (key == "cell")
            u.cell = toU64(value);
        else if (key == "lo")
            u.lo = toU64(value);
        else if (key == "hi")
            u.hi = toU64(value);
    }
    if (!sawKind)
        return std::nullopt;
    return u;
}

std::string
FleetPlan::serialize() const
{
    std::ostringstream out;
    out << "tea-fleet-plan-v1\n";
    out << "seed " << opt.seed << "\n";
    out << "runs " << opt.runsPerCell << "\n";
    out << "scale " << opt.workloadScale << "\n";
    out << "iacount " << opt.iaCountPerOp << "\n";
    out << "wamaxops " << opt.waMaxOps << "\n";
    out << "dasampleops " << opt.daSampleOps << "\n";
    out << "threads " << opt.threads << "\n";
    out << "resume " << (opt.resume ? 1 : 0) << "\n";
    out << "deadlinems " << opt.runDeadlineMs << "\n";
    out << "maxattempts " << opt.maxRunAttempts << "\n";
    out << "citarget " << fmtDouble(opt.ciTarget) << "\n";
    out << "ciconf " << fmtDouble(opt.ciConf) << "\n";
    out << "maxadaptive " << opt.maxAdaptiveRuns << "\n";
    out << "isenable " << (opt.isEnable ? 1 : 0) << "\n";
    out << "isboost " << fmtDouble(opt.isBoost) << "\n";
    out << "isfloor " << fmtDouble(opt.isFloor) << "\n";
    out << "ismaxtilt " << fmtDouble(opt.isMaxTilted) << "\n";
    out << "iscorpus " << opt.isCorpusPerOp << "\n";
    out << "mccores " << opt.mcCores << "\n";
    out << "mcquantum " << opt.mcQuantum << "\n";
    out << "cachedir " << opt.cacheDir << "\n";
    out << "leasems " << leaseMs << "\n";
    out << "usecache " << (spec.useCache ? 1 : 0) << "\n";
    out << "vrlevels";
    for (double vr : opt.vrLevels)
        out << " " << fmtDouble(vr);
    out << "\n";
    out << "workloads";
    for (const auto &w : spec.workloads)
        out << " " << w;
    out << "\n";
    return sealBody(out.str());
}

std::optional<FleetPlan>
FleetPlan::parse(const std::string &content)
{
    auto body = unsealBody(content);
    if (!body || body->rfind("tea-fleet-plan-v1\n", 0) != 0)
        return std::nullopt;
    FleetPlan p;
    p.opt.vrLevels.clear();
    LineScanner sc(body->substr(body->find('\n') + 1));
    std::string key, value;
    while (sc.next(key, value)) {
        if (key == "seed")
            p.opt.seed = toU64(value);
        else if (key == "runs")
            p.opt.runsPerCell = static_cast<int>(toU64(value));
        else if (key == "scale")
            p.opt.workloadScale = static_cast<int>(toU64(value));
        else if (key == "iacount")
            p.opt.iaCountPerOp = toU64(value);
        else if (key == "wamaxops")
            p.opt.waMaxOps = toU64(value);
        else if (key == "dasampleops")
            p.opt.daSampleOps = toU64(value);
        else if (key == "threads") {
            // Checked before narrowing: 2^32 + 1 must not wrap to 1,
            // and no client may size a pool past the env clamp.
            uint64_t v = toU64(value);
            if (v > ThreadPool::kMaxThreads)
                return std::nullopt;
            p.opt.threads = static_cast<unsigned>(v);
        } else if (key == "resume")
            p.opt.resume = value == "1";
        else if (key == "deadlinems")
            p.opt.runDeadlineMs = static_cast<int64_t>(toU64(value));
        else if (key == "maxattempts")
            p.opt.maxRunAttempts = static_cast<int>(toU64(value));
        else if (key == "citarget")
            p.opt.ciTarget = std::strtod(value.c_str(), nullptr);
        else if (key == "ciconf")
            p.opt.ciConf = std::strtod(value.c_str(), nullptr);
        else if (key == "maxadaptive")
            p.opt.maxAdaptiveRuns = toU64(value);
        else if (key == "isenable")
            p.opt.isEnable = value == "1";
        else if (key == "isboost")
            p.opt.isBoost = std::strtod(value.c_str(), nullptr);
        else if (key == "isfloor")
            p.opt.isFloor = std::strtod(value.c_str(), nullptr);
        else if (key == "ismaxtilt")
            p.opt.isMaxTilted = std::strtod(value.c_str(), nullptr);
        else if (key == "iscorpus")
            p.opt.isCorpusPerOp = toU64(value);
        else if (key == "mccores")
            p.opt.mcCores = static_cast<unsigned>(toU64(value));
        else if (key == "mcquantum")
            p.opt.mcQuantum = static_cast<unsigned>(toU64(value));
        else if (key == "cachedir")
            p.opt.cacheDir = value;
        else if (key == "leasems")
            p.leaseMs = static_cast<int64_t>(toU64(value));
        else if (key == "usecache")
            p.spec.useCache = value == "1";
        else if (key == "vrlevels") {
            std::istringstream vs(value);
            double vr;
            while (vs >> vr)
                p.opt.vrLevels.push_back(vr);
        } else if (key == "workloads") {
            std::istringstream ws(value);
            std::string w;
            while (ws >> w)
                p.spec.workloads.push_back(w);
        }
    }
    if (p.opt.vrLevels.empty())
        return std::nullopt;
    return p;
}

std::string
UnitResult::serialize() const
{
    std::ostringstream out;
    out << "tea-fleet-done-v1\n";
    out << "unit " << unit << "\n";
    out << "fresh " << fresh << "\n";
    out << "runs " << result.runs << "\n";
    out << "masked " << result.masked << "\n";
    out << "sdc " << result.sdc << "\n";
    out << "crash " << result.crash << "\n";
    out << "timeout " << result.timeout << "\n";
    out << "enginefault " << result.engineFault << "\n";
    out << "retries " << result.retries << "\n";
    out << "injected " << result.injectedErrors << "\n";
    out << "committed " << result.committedInstructions << "\n";
    out << "wrongpath " << result.wrongPathInjections << "\n";
    out << "weighted " << (result.weightedModel ? 1 : 0) << "\n";
    out << "wsum " << fmtDouble(result.weightSum) << "\n";
    out << "wunsafe " << fmtDouble(result.weightUnsafe) << "\n";
    out << "wsqsum " << fmtDouble(result.weightSqSum) << "\n";
    out << "wusqsum " << fmtDouble(result.weightUnsafeSqSum) << "\n";
    out << "mcchm " << result.mcCoherenceMasked << "\n";
    out << "mcscs " << result.mcSdcSameCore << "\n";
    out << "mcccs " << result.mcSdcCrossCore << "\n";
    out << "mcsync " << result.mcSyncCrash << "\n";
    out << "mcdead " << result.mcDeadlock << "\n";
    return sealBody(out.str());
}

std::optional<UnitResult>
UnitResult::parse(const std::string &content)
{
    auto body = unsealBody(content);
    if (!body || body->rfind("tea-fleet-done-v1\n", 0) != 0)
        return std::nullopt;
    UnitResult r;
    LineScanner sc(body->substr(body->find('\n') + 1));
    std::string key, value;
    while (sc.next(key, value)) {
        if (key == "unit")
            r.unit = toU64(value);
        else if (key == "fresh")
            r.fresh = toU64(value);
        else if (key == "runs")
            r.result.runs = toU64(value);
        else if (key == "masked")
            r.result.masked = toU64(value);
        else if (key == "sdc")
            r.result.sdc = toU64(value);
        else if (key == "crash")
            r.result.crash = toU64(value);
        else if (key == "timeout")
            r.result.timeout = toU64(value);
        else if (key == "enginefault")
            r.result.engineFault = toU64(value);
        else if (key == "retries")
            r.result.retries = toU64(value);
        else if (key == "injected")
            r.result.injectedErrors = toU64(value);
        else if (key == "committed")
            r.result.committedInstructions = toU64(value);
        else if (key == "wrongpath")
            r.result.wrongPathInjections = toU64(value);
        else if (key == "weighted")
            r.result.weightedModel = value == "1";
        else if (key == "wsum")
            r.result.weightSum = std::strtod(value.c_str(), nullptr);
        else if (key == "wunsafe")
            r.result.weightUnsafe = std::strtod(value.c_str(), nullptr);
        else if (key == "wsqsum")
            r.result.weightSqSum = std::strtod(value.c_str(), nullptr);
        else if (key == "wusqsum")
            r.result.weightUnsafeSqSum =
                std::strtod(value.c_str(), nullptr);
        else if (key == "mcchm")
            r.result.mcCoherenceMasked = toU64(value);
        else if (key == "mcscs")
            r.result.mcSdcSameCore = toU64(value);
        else if (key == "mcccs")
            r.result.mcSdcCrossCore = toU64(value);
        else if (key == "mcsync")
            r.result.mcSyncCrash = toU64(value);
        else if (key == "mcdead")
            r.result.mcDeadlock = toU64(value);
    }
    return r;
}

} // namespace tea::fleet
