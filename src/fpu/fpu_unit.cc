#include "fpu/fpu_unit.hh"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace tea::fpu {

using circuit::DelayAnnotation;
using circuit::DtaResult;
using circuit::EventDrivenDta;
using circuit::LevelizedDta;
using circuit::Netlist;

FpuUnit::FpuUnit(FpuUnitKind kind, const FpuConfig &cfg,
                 const circuit::CellLibrary &lib)
    : kind_(kind), stages_(buildUnitCircuits(kind, cfg))
{
    annots_.reserve(stages_.size());
    sta_.reserve(stages_.size());
    for (size_t s = 0; s < stages_.size(); ++s) {
        uint64_t seed = cfg.variationSeed ^
                        (static_cast<uint64_t>(kind) << 32) ^ s;
        annots_.emplace_back(*stages_[s], lib, seed);
        sta_.push_back(circuit::staAnalyze(*stages_[s], annots_.back()));
    }
    // Result bus is the first output bus of the final stage.
    const auto &buses = stages_.back()->outputBuses();
    panic_if(buses.size() < 2 || buses[0].name != "result" ||
                 buses[1].name != "flags",
             "unit '%s': unexpected final-stage output layout", name());
    resultBits_ = static_cast<unsigned>(buses[0].nets.size());
}

size_t
FpuUnit::totalCells() const
{
    size_t n = 0;
    for (const auto &s : stages_)
        n += s->numCells();
    return n;
}

double
FpuUnit::worstStagePathPs() const
{
    double worst = 0.0;
    for (const auto &sta : sta_)
        worst = std::max(worst, sta.criticalPathPs());
    return worst;
}

size_t
FpuUnit::addOperatingPoint(double delayScale, bool exactEngine)
{
    Point pt;
    pt.scale = delayScale;
    pt.exact = exactEngine;
    for (size_t s = 0; s < stages_.size(); ++s) {
        if (exactEngine) {
            pt.engines.push_back(std::make_unique<EventDrivenDta>(
                *stages_[s], annots_[s], delayScale));
        } else {
            pt.engines.push_back(std::make_unique<LevelizedDta>(
                *stages_[s], annots_[s], delayScale));
        }
    }
    pt.prevIn.resize(stages_.size());
    points_.push_back(std::move(pt));
    return points_.size() - 1;
}

double
FpuUnit::pointScale(size_t point) const
{
    panic_if(point >= points_.size(), "bad operating point %zu", point);
    return points_[point].scale;
}

bool
FpuUnit::pointExact(size_t point) const
{
    panic_if(point >= points_.size(), "bad operating point %zu", point);
    return points_[point].exact;
}

FpuUnit::Exec
FpuUnit::execute(size_t point, const std::vector<bool> &stage0,
                 double captureTimePs)
{
    panic_if(point >= points_.size(), "bad operating point %zu", point);
    Point &pt = points_[point];

    std::vector<bool> goldenIn = stage0;
    std::vector<bool> faultyIn = stage0;
    bool diverged = false;

    Exec out{};
    std::vector<bool> goldenOut, faultyOut;
    for (size_t s = 0; s < stages_.size(); ++s) {
        const std::vector<bool> &prev =
            pt.primed ? pt.prevIn[s] : faultyIn;
        DtaResult res = pt.engines[s]->run(prev, faultyIn, captureTimePs);
        pt.prevIn[s] = faultyIn;
        faultyOut = res.captured;
        if (!diverged) {
            goldenOut = res.settled;
        } else {
            auto vals = circuit::evaluate(*stages_[s], goldenIn);
            goldenOut = circuit::flattenOutputs(*stages_[s], vals);
        }
        if (faultyOut != goldenOut)
            diverged = true;
        out.maxArrivalPs = std::max(out.maxArrivalPs, res.maxArrivalPs);
        goldenIn = std::move(goldenOut);
        faultyIn = std::move(faultyOut);
    }
    pt.primed = true;

    // goldenIn/faultyIn now hold the final-stage flat outputs
    // (result bits first, then the 5 flag bits).
    auto extract = [&](const std::vector<bool> &flat, uint64_t &value,
                       uint8_t &flags) {
        value = 0;
        for (unsigned i = 0; i < resultBits_; ++i)
            if (flat[i])
                value |= 1ULL << i;
        flags = 0;
        for (unsigned i = 0; i < 5; ++i)
            if (flat[resultBits_ + i])
                flags |= 1u << i;
    };
    extract(goldenIn, out.golden, out.goldenFlags);
    extract(faultyIn, out.faulty, out.faultyFlags);
    out.errorMask = out.golden ^ out.faulty;
    out.timingError =
        out.errorMask != 0 || out.goldenFlags != out.faultyFlags;
    return out;
}

void
FpuUnit::ensureCompiledEngines(Point &pt, double captureTimePs)
{
    if (pt.compiledEngines.empty())
        for (size_t s = 0; s < stages_.size(); ++s)
            pt.compiledEngines.push_back(
                std::make_unique<circuit::CompiledDta>(
                    *stages_[s], annots_[s], pt.scale));
    auto t0 = std::chrono::steady_clock::now();
    bool compiled = false;
    for (auto &eng : pt.compiledEngines)
        compiled |= eng->prepare(captureTimePs);
    if (compiled) {
        static obs::Histogram hCompile =
            obs::Registry::global().histogram(
                obs::metric::kDtaCompileMs,
                {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500}, "",
                "wall-clock ms lowering netlists into DTA programs");
        hCompile.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
}

void
FpuUnit::executeBatch(size_t point,
                      const std::vector<uint64_t> &stage0Planes,
                      unsigned lanes, double captureTimePs, Exec *out)
{
    panic_if(point >= points_.size(), "bad operating point %zu", point);
    Point &pt = points_[point];

    panic_if(lanes == 0 || lanes > circuit::CompiledDta::kMaxLanes,
             "executeBatch: bad lane count %u", lanes);
    const unsigned W = circuit::CompiledDta::wordsFor(lanes);
    panic_if(stage0Planes.size() !=
                 stages_.front()->numInputs() * size_t{W},
             "executeBatch: bad stage-0 plane count");

    if (pt.exact || lanes == 1) {
        // Scalar fallback: exact points have no batch engines, and a
        // single lane gains nothing from plane packing — which makes
        // `lanes = 1` the levelized oracle every batch is tested to.
        std::vector<bool> in(stages_.front()->numInputs());
        for (unsigned l = 0; l < lanes; ++l) {
            for (size_t i = 0; i < in.size(); ++i)
                in[i] = (stage0Planes[i * W + l / 64] >> (l % 64)) & 1;
            out[l] = execute(point, in, captureTimePs);
        }
        return;
    }

    std::vector<uint64_t> goldenIn = stage0Planes;
    std::vector<uint64_t> faultyIn = stage0Planes;
    std::array<double, circuit::CompiledDta::kMaxLanes> maxArr{};
    std::vector<uint64_t> prev;

    ensureCompiledEngines(pt, captureTimePs);
    for (size_t s = 0; s < stages_.size(); ++s) {
        circuit::CompiledDta &eng = *pt.compiledEngines[s];
        const size_t nIn = stages_[s]->numInputs();
        // Lane l's previous stage input is lane l-1's: the cross-lane
        // dependency is a one-bit funnel shift across the W words of
        // each input. Lane 0 continues from the stored history, or
        // (unprimed) from its own input — the same self-transition
        // the scalar path uses.
        prev.resize(nIn * W);
        for (size_t i = 0; i < nIn; ++i) {
            uint64_t carry = pt.primed ? (pt.prevIn[s][i] ? 1 : 0)
                                       : (faultyIn[i * W] & 1);
            for (unsigned w = 0; w < W; ++w) {
                uint64_t v = faultyIn[i * W + w];
                prev[i * W + w] = (v << 1) | carry;
                carry = v >> 63;
            }
        }
        // After the batch the stored history is the last lane's
        // input, exactly what `lanes` scalar calls leave behind.
        std::vector<bool> &hist = pt.prevIn[s];
        hist.assign(nIn, false);
        for (size_t i = 0; i < nIn; ++i)
            hist[i] = (faultyIn[i * W + (lanes - 1) / 64] >>
                       ((lanes - 1) % 64)) &
                      1;
        const circuit::WideBatch &res =
            eng.runBatch(prev, faultyIn, goldenIn, captureTimePs, lanes);
        for (unsigned l = 0; l < lanes; ++l)
            maxArr[l] = std::max(maxArr[l], res.maxArrivalPs[l]);
        faultyIn = res.captured;
        // The golden chain is the fused third plane: a pure functional
        // evaluation of the golden inputs, which is what the scalar
        // chain computes whether or not the chains have diverged.
        goldenIn = res.golden;
    }
    pt.primed = true;

    for (unsigned l = 0; l < lanes; ++l) {
        Exec &e = out[l];
        e = Exec{};
        const unsigned w = l / 64, b = l % 64;
        for (unsigned i = 0; i < resultBits_; ++i) {
            if ((goldenIn[i * W + w] >> b) & 1)
                e.golden |= 1ULL << i;
            if ((faultyIn[i * W + w] >> b) & 1)
                e.faulty |= 1ULL << i;
        }
        for (unsigned i = 0; i < 5; ++i) {
            if ((goldenIn[(resultBits_ + i) * W + w] >> b) & 1)
                e.goldenFlags |= 1u << i;
            if ((faultyIn[(resultBits_ + i) * W + w] >> b) & 1)
                e.faultyFlags |= 1u << i;
        }
        e.errorMask = e.golden ^ e.faulty;
        e.timingError =
            e.errorMask != 0 || e.goldenFlags != e.faultyFlags;
        e.maxArrivalPs = maxArr[l];
    }
}

void
FpuUnit::reset(size_t point)
{
    panic_if(point >= points_.size(), "bad operating point %zu", point);
    Point &pt = points_[point];
    pt.primed = false;
    for (auto &p : pt.prevIn)
        p.clear();
}

std::vector<bool>
FpuUnit::packInputs(FpuOp op, uint64_t a, uint64_t b) const
{
    panic_if(unitFor(op) != kind_, "op %s does not run on unit %s",
             fpuOpName(op), name());
    const Netlist &s0 = *stages_.front();
    std::vector<bool> in(s0.numInputs());
    auto put = [&](size_t base, uint64_t v, unsigned width) {
        for (unsigned i = 0; i < width; ++i)
            in[base + i] = (v >> i) & 1;
    };
    unsigned w = isDoubleOp(op) ? 64 : 32;
    switch (kind_) {
      case FpuUnitKind::AddSubD:
      case FpuUnitKind::AddSubS:
        put(0, a, w);
        put(w, b, w);
        in[2 * w] = (op == FpuOp::SubD || op == FpuOp::SubS);
        break;
      case FpuUnitKind::MulD:
      case FpuUnitKind::MulS:
      case FpuUnitKind::DivD:
      case FpuUnitKind::DivS:
        put(0, a, w);
        put(w, b, w);
        break;
      case FpuUnitKind::I2FD:
      case FpuUnitKind::I2FS:
      case FpuUnitKind::F2ID:
      case FpuUnitKind::F2IS:
        put(0, a, w);
        break;
    }
    return in;
}

} // namespace tea::fpu
