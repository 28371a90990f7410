/**
 * @file
 * Fleet work units and the CRC-sealed key=value file format.
 *
 * Everything the coordinator and workers exchange on disk — the
 * campaign plan, the work units, the completion records — is a small
 * text file of `key value` lines sealed by a trailing `crc <8hex>`
 * line over everything before it. A torn or damaged file fails the
 * seal and is treated as absent, which the lease protocol already
 * handles (the unit is simply re-executed; determinism makes
 * re-execution free of side effects).
 *
 * A work unit is either a whole evaluation-grid cell or a contiguous
 * range of injection-run indices within one cell (a shard). Both carry
 * only coordinates — the unit's randomness is reconstructed from the
 * shared campaign plan (planEvaluationGrid), never shipped.
 */

#ifndef TEA_FLEET_WORKUNIT_HH
#define TEA_FLEET_WORKUNIT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/toolflow.hh"
#include "util/env.hh"

namespace tea::fleet {

/** One leasable unit of campaign work. */
struct WorkUnit
{
    enum class Kind
    {
        /** One whole grid cell (journal + manifest + result). */
        Cell,
        /** Injection runs [lo, hi) of one cell (shard journal only). */
        Range,
    };

    uint64_t id = 0;
    Kind kind = Kind::Cell;
    /** Index into the campaign plan (CellPlan::index). */
    uint64_t cell = 0;
    /** Run range for Kind::Range (ignored for Kind::Cell). */
    uint64_t lo = 0, hi = 0;

    std::string serialize() const;
    static std::optional<WorkUnit> parse(const std::string &content);
};

/** Lease TTLs: REPRO_FLEET_LEASE_MS clamps, a plan's `leasems` must fit. */
inline constexpr IntRange kLeaseMsRange{100, 3600000};

/**
 * The campaign plan a coordinator publishes and every worker loads:
 * the full ToolflowOptions (so workers reconstruct byte-identical
 * Toolflows, caches, and RNG plans) plus the grid spec.
 */
struct FleetPlan
{
    core::ToolflowOptions opt;
    core::GridSpec spec;
    /** Lease TTL — workers heartbeat at a fraction of this. */
    int64_t leaseMs = 10000;

    /** core::optionFields() in order, then the four keys below. */
    std::string serialize() const;
    /**
     * nullopt on damaged bytes, a malformed or out-of-range field (see
     * core::optionFields(); `leasems`, `vrlevels` against
     * kLeaseMsRange and core::kMaxVrFrac), no VR level or an unknown
     * workload; `why` says which. Unknown keys are skipped and missing
     * ones keep their defaults.
     */
    static std::optional<FleetPlan> parse(const std::string &content,
                                          std::string *why = nullptr);
};

/** Outcome counters a worker publishes for a completed unit. */
struct UnitResult
{
    uint64_t unit = 0;
    /** Fresh (non-replayed) runs this execution performed. */
    uint64_t fresh = 0;
    inject::CampaignResult result;

    std::string serialize() const;
    static std::optional<UnitResult> parse(const std::string &content);
};

/**
 * A serialized plan's campaign identity: its unsealed body without
 * the `dtabackend` line that plans from earlier builds carry (every
 * DTA engine gave byte-identical results). Plans with equal
 * identities describe the same campaign; nullopt when the bytes are
 * damaged.
 */
std::optional<std::string> planIdentity(const std::string &planBytes);

/**
 * Stable spool subdirectory name for a plan: "c<8hex>", the CRC-32 of
 * its planIdentity(). The daemon namespaces one spool root across
 * concurrent campaigns with it — a resubmission of the same campaign
 * lands in the same spool (and resumes, by WorkQueue::publish's
 * plan-identity rule) while distinct campaigns can never collide on
 * unit ids.
 */
std::string spoolNamespace(const FleetPlan &plan);

/** Append the `crc` seal line to a key=value body. */
std::string sealBody(const std::string &body);
/** Verify and strip the seal; nullopt when damaged or missing. */
std::optional<std::string> unsealBody(const std::string &content);

} // namespace tea::fleet

#endif // TEA_FLEET_WORKUNIT_HH
