#include "fleet/workunit.hh"

#include <cstdio>
#include <sstream>

#include "util/crc32.hh"
#include "util/env.hh"

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

/** The plan keys outside the option table. */
constexpr const char *kLeaseMsKey = "leasems";
constexpr const char *kUseCacheKey = "usecache";
constexpr const char *kVrLevelsKey = "vrlevels";
constexpr const char *kWorkloadsKey = "workloads";

/** `key` from a parsed body as a u64; false when absent or malformed. */
bool
getU64(const std::map<std::string, std::string> &kv, const char *key,
       uint64_t &out)
{
    auto it = kv.find(key);
    return it != kv.end() && parseNumber(it->second.c_str(), out);
}

/** The body of a sealed file with header line `magic`, as a key map. */
std::optional<std::map<std::string, std::string>>
parseSealed(const std::string &content, const char *magic)
{
    auto body = unsealBody(content);
    if (!body || body->rfind(std::string(magic) + "\n", 0) != 0)
        return std::nullopt;
    return parseKv(body->substr(body->find('\n') + 1));
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
    auto kv = parseSealed(content, "tea-fleet-unit-v1");
    if (!kv)
        return std::nullopt;
    WorkUnit u;
    auto kind = kv->find("kind");
    if (kind == kv->end() || !getU64(*kv, "unit", u.id) ||
        !getU64(*kv, "cell", u.cell))
        return std::nullopt;
    if (kind->second == "range") {
        u.kind = Kind::Range;
        if (!getU64(*kv, "lo", u.lo) || !getU64(*kv, "hi", u.hi))
            return std::nullopt;
    } else if (kind->second != "cell") {
        return std::nullopt;
    }
    return u;
}

std::string
FleetPlan::serialize() const
{
    std::ostringstream out;
    out << "tea-fleet-plan-v1\n";
    for (const core::OptionField &f : core::optionFields())
        out << f.planKey << " " << formatField(f.member, opt) << "\n";
    out << kLeaseMsKey << " " << leaseMs << "\n";
    out << kUseCacheKey << " " << (spec.useCache ? 1 : 0) << "\n";
    out << kVrLevelsKey;
    for (double vr : opt.vrLevels) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.17g", vr);
        out << buf;
    }
    out << "\n";
    out << kWorkloadsKey;
    for (const auto &w : spec.workloads)
        out << " " << w;
    out << "\n";
    return sealBody(out.str());
}

std::optional<FleetPlan>
FleetPlan::parse(const std::string &content, std::string *why)
{
    auto reject = [why](std::string reason) -> std::optional<FleetPlan> {
        if (why)
            *why = std::move(reason);
        return std::nullopt;
    };
    auto kv = parseSealed(content, "tea-fleet-plan-v1");
    if (!kv)
        return reject("damaged or not a fleet plan");
    // Unknown keys are skipped, so the format can grow; a missing key
    // keeps its default.
    FleetPlan p;
    for (const core::OptionField &f : core::optionFields()) {
        auto it = kv->find(f.planKey);
        if (it != kv->end() &&
            parseField(f.member, it->second, p.opt, f.lo, f.hi) !=
                FieldParse::Ok)
            return reject(std::string("bad ") + f.planKey + " '" +
                          it->second + "'");
    }
    auto get = [&kv](const char *key) -> const std::string * {
        auto it = kv->find(key);
        return it == kv->end() ? nullptr : &it->second;
    };
    if (const std::string *v = get(kLeaseMsKey);
        v && (!parseNumber(v->c_str(), p.leaseMs) ||
              !kLeaseMsRange.contains(p.leaseMs)))
        return reject("bad leasems '" + *v + "'");
    if (const std::string *v = get(kUseCacheKey)) {
        if (*v != "0" && *v != "1")
            return reject("bad usecache '" + *v + "'");
        p.spec.useCache = *v == "1";
    }
    p.opt.vrLevels.clear();
    const std::string *vrs = get(kVrLevelsKey);
    std::istringstream vs(vrs ? *vrs : std::string());
    for (std::string tok; vs >> tok;) {
        double vr;
        if (!parseNumber(tok.c_str(), vr) || vr < core::kMinVrFrac ||
            vr > core::kMaxVrFrac)
            return reject("bad vrlevels entry '" + tok + "'");
        p.opt.vrLevels.push_back(vr);
    }
    if (p.opt.vrLevels.empty())
        return reject("no vrlevels");
    const std::string *names = get(kWorkloadsKey);
    std::istringstream ws(names ? *names : std::string());
    for (std::string w; ws >> w;) {
        if (!workloads::isKnownWorkload(w))
            return reject("unknown workload '" + w + "'");
        p.spec.workloads.push_back(w);
    }
    return p;
}

std::string
UnitResult::serialize() const
{
    std::ostringstream out;
    out << "tea-fleet-done-v1\n";
    out << "unit " << unit << "\n";
    out << "fresh " << fresh << "\n";
    out << core::resultToKv(result);
    return sealBody(out.str());
}

std::optional<UnitResult>
UnitResult::parse(const std::string &content)
{
    auto kv = parseSealed(content, "tea-fleet-done-v1");
    UnitResult r;
    if (!kv || !getU64(*kv, "unit", r.unit) ||
        !getU64(*kv, "fresh", r.fresh) ||
        !core::resultFromKv(*kv, r.result))
        return std::nullopt;
    return r;
}

} // namespace tea::fleet
