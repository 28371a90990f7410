#include "fpu/fpu_core.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tea::fpu {

FpuCore::FpuCore(const FpuConfig &cfg, const circuit::CellLibrary &lib)
    : cfg_(cfg), lib_(lib)
{
    units_.reserve(kNumFpuUnits);
    for (unsigned u = 0; u < kNumFpuUnits; ++u)
        units_.push_back(std::make_unique<FpuUnit>(
            static_cast<FpuUnitKind>(u), cfg_, lib_));

    intSide_ = buildIntegerSideNetlists();
    for (const auto &nl : intSide_) {
        circuit::DelayAnnotation annot(*nl, lib_,
                                       cfg_.variationSeed ^ 0xabcdULL);
        intSta_.push_back(circuit::staAnalyze(*nl, annot));
    }

    for (const auto &u : units_)
        clockPs_ = std::max(clockPs_, u->worstStagePathPs());
    for (const auto &sta : intSta_)
        clockPs_ = std::max(clockPs_, sta.criticalPathPs());
    captureTimePs_ = clockPs_ - lib_.setupPs;
}

size_t
FpuCore::addOperatingPoint(double delayScale, bool exactEngine)
{
    size_t idx = 0;
    for (size_t u = 0; u < units_.size(); ++u) {
        size_t i = units_[u]->addOperatingPoint(delayScale, exactEngine);
        if (u == 0)
            idx = i;
        else
            panic_if(i != idx, "operating point index skew");
    }
    return idx;
}

std::vector<size_t>
FpuCore::workerPoints(size_t point, unsigned count)
{
    if (count == 0)
        count = 1;
    auto &pool = replicas_[point];
    double scale = units_.front()->pointScale(point);
    bool exact = units_.front()->pointExact(point);
    while (1 + pool.size() < count)
        pool.push_back(addOperatingPoint(scale, exact));
    std::vector<size_t> out;
    out.reserve(count);
    out.push_back(point);
    out.insert(out.end(), pool.begin(),
               pool.begin() + std::min<size_t>(count - 1, pool.size()));
    return out;
}

FpuCore::Exec
FpuCore::execute(size_t point, FpuOp op, uint64_t a, uint64_t b)
{
    FpuUnit &u = unit(unitFor(op));
    auto stage0 = u.packInputs(op, a, b);
    return u.execute(point, stage0, captureTimePs_);
}

void
FpuCore::executeBatch(size_t point, const FpuOp *ops, const uint64_t *a,
                      const uint64_t *b, unsigned lanes, Exec *out)
{
    panic_if(lanes == 0 || lanes > circuit::CompiledDta::kMaxLanes,
             "executeBatch: bad lane count %u", lanes);
    FpuUnit &u = unit(unitFor(ops[0]));
    // Transpose the operands into W-word planes per stage-0 input net
    // (input-major); packInputs stays the single source of truth for
    // the input layout itself, and panics on an op of another unit.
    const unsigned W = circuit::CompiledDta::wordsFor(lanes);
    std::vector<uint64_t> planes(u.stage(0).numInputs() * size_t{W},
                                 0);
    for (unsigned l = 0; l < lanes; ++l) {
        auto in = u.packInputs(ops[l], a[l], b[l]);
        for (size_t i = 0; i < in.size(); ++i)
            if (in[i])
                planes[i * W + l / 64] |= 1ULL << (l % 64);
    }
    u.executeBatch(point, planes, lanes, captureTimePs_, out);
}

void
FpuCore::reset(size_t point)
{
    for (auto &u : units_)
        u->reset(point);
}

std::vector<UnitPathInfo>
FpuCore::pathReport() const
{
    std::vector<UnitPathInfo> out;
    for (const auto &u : units_) {
        for (size_t s = 0; s < u->numStages(); ++s) {
            for (const auto &ep : u->sta()[s].endpoints()) {
                out.push_back(UnitPathInfo{
                    u->stage(s).name(), true, ep.pathDelayPs});
            }
        }
    }
    for (size_t i = 0; i < intSide_.size(); ++i)
        for (const auto &ep : intSta_[i].endpoints())
            out.push_back(
                UnitPathInfo{intSide_[i]->name(), false, ep.pathDelayPs});
    std::sort(out.begin(), out.end(),
              [](const UnitPathInfo &a, const UnitPathInfo &b) {
                  return a.pathDelayPs > b.pathDelayPs;
              });
    return out;
}

size_t
FpuCore::totalCells() const
{
    size_t n = 0;
    for (const auto &u : units_)
        n += u->totalCells();
    return n;
}

} // namespace tea::fpu
