/**
 * Tests for STA and the DTA engines, including cross-validation of the
 * levelized approximation against the exact event-driven reference and
 * of the batched compiled engine against the levelized oracle.
 */

#include <gtest/gtest.h>

#include "circuit/builders.hh"
#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "circuit/sta.hh"
#include "util/bitops.hh"
#include "util/rng.hh"

using namespace tea::circuit;
using tea::Rng;
using tea::lowMask;

namespace {

/** 8-bit ripple adder test fixture: long carry chains, data dependent. */
struct AdderFixture
{
    Netlist nl{"adder8"};
    Bus ia, ib;
    Bus sum;

    AdderFixture()
    {
        Builder b(nl);
        ia = nl.addInputBus("a", 8);
        ib = nl.addInputBus("b", 8);
        auto add = b.rippleAdd(ia, ib);
        sum = add.sum;
        sum.push_back(add.carry);
        nl.addOutputBus("sum", sum);
    }

    std::vector<bool>
    inputs(uint64_t a, uint64_t bv) const
    {
        std::vector<bool> in(nl.numInputs());
        for (size_t i = 0; i < 8; ++i) {
            in[ia[i]] = (a >> i) & 1;
            in[ib[i]] = (bv >> i) & 1;
        }
        return in;
    }
};

uint64_t
busBits(const std::vector<bool> &flat)
{
    uint64_t v = 0;
    for (size_t i = 0; i < flat.size(); ++i)
        if (flat[i])
            v |= 1ULL << i;
    return v;
}

} // namespace

TEST(Sta, ArrivalMonotoneAlongPath)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    auto sta = staAnalyze(f.nl, annot);
    // The carry-out is the deepest endpoint of a ripple adder.
    auto eps = sta.endpoints();
    EXPECT_EQ(eps.front().net, f.sum.back());
    // Worst path is nontrivial and starts at an input.
    auto path = sta.worstPath(eps.front().net);
    EXPECT_GT(path.size(), 8u);
    EXPECT_EQ(f.nl.cell(path.front()).kind, CellKind::Input);
    // Arrivals increase along the path.
    for (size_t i = 1; i < path.size(); ++i)
        EXPECT_GE(sta.arrivalPs(path[i]), sta.arrivalPs(path[i - 1]));
}

TEST(Sta, CriticalPathScalesWithWidth)
{
    Netlist nl4("a4"), nl16("a16");
    {
        Builder b(nl4);
        Bus ia = nl4.addInputBus("a", 4);
        Bus ib = nl4.addInputBus("b", 4);
        auto add = b.rippleAdd(ia, ib);
        nl4.addOutputBus("s", add.sum);
    }
    {
        Builder b(nl16);
        Bus ia = nl16.addInputBus("a", 16);
        Bus ib = nl16.addInputBus("b", 16);
        auto add = b.rippleAdd(ia, ib);
        nl16.addOutputBus("s", add.sum);
    }
    auto lib = CellLibrary::nangate45Like();
    auto sta4 = staAnalyze(nl4, DelayAnnotation(nl4, lib, 1));
    auto sta16 = staAnalyze(nl16, DelayAnnotation(nl16, lib, 1));
    EXPECT_GT(sta16.criticalPathPs(), 2.0 * sta4.criticalPathPs());
}

TEST(Sta, KoggeStoneShallowerThanRipple)
{
    Netlist nlr("r"), nlk("k");
    auto build = [](Netlist &nl, bool fast) {
        Builder b(nl);
        Bus ia = nl.addInputBus("a", 32);
        Bus ib = nl.addInputBus("b", 32);
        auto add = fast ? b.koggeStoneAdd(ia, ib) : b.rippleAdd(ia, ib);
        nl.addOutputBus("s", add.sum);
    };
    build(nlr, false);
    build(nlk, true);
    auto lib = CellLibrary::nangate45Like();
    auto star = staAnalyze(nlr, DelayAnnotation(nlr, lib, 1));
    auto stak = staAnalyze(nlk, DelayAnnotation(nlk, lib, 1));
    EXPECT_LT(stak.criticalPathPs(), 0.5 * star.criticalPathPs());
}

TEST(VoltageModel, DelayFactorMonotone)
{
    VoltageModel vm;
    EXPECT_NEAR(vm.delayFactor(vm.nominalV), 1.0, 1e-12);
    double f15 = vm.delayFactorAtReduction(kVR15);
    double f20 = vm.delayFactorAtReduction(kVR20);
    EXPECT_GT(f15, 1.05);
    EXPECT_GT(f20, f15);
    EXPECT_LT(f20, 2.0);
}

TEST(VoltageModel, PowerSavings)
{
    VoltageModel vm;
    double p15 = vm.totalPowerFactor(vm.voltageFor(kVR15));
    double p20 = vm.totalPowerFactor(vm.voltageFor(kVR20));
    EXPECT_LT(p20, p15);
    EXPECT_LT(p15, 1.0);
    EXPECT_GT(p20, 0.4);
}

TEST(DelayAnnotation, DeterministicAndPositive)
{
    AdderFixture f;
    auto lib = CellLibrary::nangate45Like();
    DelayAnnotation a1(f.nl, lib, 42), a2(f.nl, lib, 42), a3(f.nl, lib, 7);
    bool anyDiffer = false;
    for (NetId i = 0; i < f.nl.numCells(); ++i) {
        EXPECT_EQ(a1.delayPs(i), a2.delayPs(i));
        if (a1.delayPs(i) != a3.delayPs(i))
            anyDiffer = true;
        auto kind = f.nl.cell(i).kind;
        bool zeroDelay = kind == CellKind::Input ||
                         kind == CellKind::Const0 ||
                         kind == CellKind::Const1;
        if (!zeroDelay) {
            EXPECT_GT(a1.delayPs(i), 0.0);
        }
    }
    EXPECT_TRUE(anyDiffer); // different seed -> different variation
}

TEST(EventDrivenDta, SettlesToFunctionalValue)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta dta(f.nl, annot);
    Rng rng(21);
    for (int t = 0; t < 200; ++t) {
        uint64_t a0 = rng.next() & 0xff, b0 = rng.next() & 0xff;
        uint64_t a1 = rng.next() & 0xff, b1 = rng.next() & 0xff;
        auto res = dta.run(f.inputs(a0, b0), f.inputs(a1, b1), 1e9);
        EXPECT_EQ(busBits(res.settled), a1 + b1);
        // Generous capture time: captured == settled.
        EXPECT_EQ(busBits(res.captured), a1 + b1);
        EXPECT_FALSE(res.anyError());
    }
}

TEST(EventDrivenDta, TightClockLatchesStaleBits)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta dta(f.nl, annot);
    // 0xFF + 0x01 after 0x00 + 0x00 rings the full carry chain.
    auto res = dta.run(f.inputs(0, 0), f.inputs(0xff, 0x01), 200.0);
    EXPECT_EQ(busBits(res.settled), 0x100u);
    EXPECT_TRUE(res.anyError());
    EXPECT_NE(res.errorMask64(), 0u);
    EXPECT_GT(res.maxArrivalPs, 200.0);
}

TEST(EventDrivenDta, NoTransitionNoError)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta dta(f.nl, annot);
    auto in = f.inputs(0x12, 0x34);
    auto res = dta.run(in, in, 0.0); // zero capture time
    EXPECT_FALSE(res.anyError());
    EXPECT_EQ(res.events, 0u);
    EXPECT_EQ(busBits(res.settled), 0x12u + 0x34u);
}

TEST(EventDrivenDta, DelayScaleShiftsFailurePoint)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta nominal(f.nl, annot, 1.0);
    EventDrivenDta scaled(f.nl, annot, 1.3);
    auto prev = f.inputs(0, 0);
    auto cur = f.inputs(0xff, 0x01);
    double settle = nominal.run(prev, cur, 1e9).maxArrivalPs;
    // Capture just above the nominal settle time: nominal passes,
    // voltage-scaled fails.
    double capture = settle * 1.05;
    EXPECT_FALSE(nominal.run(prev, cur, capture).anyError());
    EXPECT_TRUE(scaled.run(prev, cur, capture).anyError());
}

TEST(LevelizedDta, MatchesExactOnSettledValues)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(f.nl, annot);
    LevelizedDta fast(f.nl, annot);
    Rng rng(22);
    for (int t = 0; t < 200; ++t) {
        uint64_t a0 = rng.next() & 0xff, b0 = rng.next() & 0xff;
        uint64_t a1 = rng.next() & 0xff, b1 = rng.next() & 0xff;
        auto p = f.inputs(a0, b0);
        auto c = f.inputs(a1, b1);
        auto re = exact.run(p, c, 1e9);
        auto rl = fast.run(p, c, 1e9);
        EXPECT_EQ(busBits(re.settled), busBits(rl.settled));
        EXPECT_FALSE(rl.anyError());
    }
}

TEST(LevelizedDta, ArrivalTracksExactWithinBand)
{
    // The levelized last-arrival estimate is hazard-blind (it can be
    // early when glitches extend settling, and late because it takes the
    // worst changed fanin rather than the sensitized one). On a glitchy
    // ripple adder it should still land within [0.5x, 2x] of the exact
    // engine for the bulk of transitions; the ablation bench reports the
    // full distribution.
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(f.nl, annot);
    LevelizedDta fast(f.nl, annot);
    Rng rng(23);
    int inBand = 0, total = 0;
    for (int t = 0; t < 500; ++t) {
        uint64_t a0 = rng.next() & 0xff, b0 = rng.next() & 0xff;
        uint64_t a1 = rng.next() & 0xff, b1 = rng.next() & 0xff;
        auto p = f.inputs(a0, b0);
        auto c = f.inputs(a1, b1);
        auto re = exact.run(p, c, 1e9);
        auto rl = fast.run(p, c, 1e9);
        if (re.maxArrivalPs < 1.0)
            continue;
        ++total;
        double ratio = rl.maxArrivalPs / re.maxArrivalPs;
        if (ratio >= 0.5 && ratio <= 2.0)
            ++inBand;
    }
    ASSERT_GT(total, 300);
    EXPECT_GT(static_cast<double>(inBand) / total, 0.75);
}

TEST(LevelizedDta, DetectsMajorityOfExactErrorsUnderTightClock)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(f.nl, annot);
    LevelizedDta fast(f.nl, annot);
    Rng rng(24);
    int bothError = 0, exactError = 0, levError = 0;
    for (int t = 0; t < 1000; ++t) {
        uint64_t a0 = rng.next() & 0xff, b0 = rng.next() & 0xff;
        uint64_t a1 = rng.next() & 0xff, b1 = rng.next() & 0xff;
        auto p = f.inputs(a0, b0);
        auto c = f.inputs(a1, b1);
        auto re = exact.run(p, c, 250.0);
        auto rl = fast.run(p, c, 250.0);
        if (rl.anyError())
            ++levError;
        if (re.anyError()) {
            ++exactError;
            if (rl.anyError())
                ++bothError;
        }
    }
    ASSERT_GT(exactError, 100);
    // The hazard-blind engine misses glitch-capture errors but should
    // still find at least half of the exact ones, and its overall error
    // rate should be the same order of magnitude.
    EXPECT_GT(static_cast<double>(bothError) / exactError, 0.5);
    EXPECT_GT(levError * 4, exactError);
    EXPECT_LT(levError, exactError * 2);
}

TEST(DtaResult, ErrorMaskBits)
{
    DtaResult r;
    r.settled = {true, false, true, false};
    r.captured = {true, true, true, true};
    EXPECT_TRUE(r.anyError());
    EXPECT_EQ(r.errorMask64(), 0b1010u);
}

TEST(DtaResultDeathTest, ErrorMaskPanicsOnWidthOverflow)
{
    // More than 64 output bits cannot be represented in the mask;
    // truncating them would silently drop error statistics.
    DtaResult r;
    r.settled.assign(65, false);
    r.captured.assign(65, false);
    EXPECT_DEATH(r.errorMask64(), "errorMask64");
}

namespace {

/** Pack one input-vector bit per lane into plane words. */
std::vector<uint64_t>
packPlanes(const std::vector<std::vector<bool>> &vecs)
{
    std::vector<uint64_t> planes(vecs.front().size(), 0);
    for (size_t l = 0; l < vecs.size(); ++l)
        for (size_t i = 0; i < vecs[l].size(); ++i)
            if (vecs[l][i])
                planes[i] |= 1ULL << l;
    return planes;
}

} // namespace

TEST(CompiledDta, AdderBitIdenticalToScalarLevelized)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    LevelizedDta scalar(f.nl, annot, 1.2);
    CompiledDta comp(f.nl, annot, 1.2);
    Rng rng(31);
    // Include a tight capture right in the arrival distribution so
    // both error and error-free lanes occur.
    for (double capture : {1e9, 250.0, 180.0}) {
        for (int round = 0; round < 4; ++round) {
            std::vector<std::vector<bool>> prevs, curs;
            for (unsigned l = 0; l < 64; ++l) {
                prevs.push_back(
                    f.inputs(rng.next() & 0xff, rng.next() & 0xff));
                curs.push_back(
                    f.inputs(rng.next() & 0xff, rng.next() & 0xff));
            }
            auto cur = packPlanes(curs);
            const auto &batch =
                comp.runBatch(packPlanes(prevs), cur, cur, capture, 64);
            for (unsigned l = 0; l < 64; ++l) {
                auto ref = scalar.run(prevs[l], curs[l], capture);
                uint64_t settled = 0, captured = 0;
                for (size_t k = 0; k < ref.settled.size(); ++k) {
                    settled |= uint64_t{ref.settled[k]} << k;
                    captured |= uint64_t{ref.captured[k]} << k;
                }
                uint64_t laneSettled = 0, laneCaptured = 0;
                for (size_t k = 0; k < batch.settled.size(); ++k) {
                    laneSettled |=
                        ((batch.settled[k] >> l) & 1) << k;
                    laneCaptured |=
                        ((batch.captured[k] >> l) & 1) << k;
                }
                ASSERT_EQ(laneSettled, settled);
                ASSERT_EQ(laneCaptured, captured);
                // Arrival contract: exact above the capture time (same
                // doubles, same order), lower bound below it.
                if (ref.maxArrivalPs > capture)
                    ASSERT_EQ(batch.maxArrivalPs[l], ref.maxArrivalPs);
                else
                    ASSERT_LE(batch.maxArrivalPs[l], ref.maxArrivalPs);
            }
        }
    }
}

TEST(CompiledDta, AdderPartialBatchMatchesScalar)
{
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    LevelizedDta scalar(f.nl, annot);
    CompiledDta comp(f.nl, annot);
    Rng rng(32);
    std::vector<std::vector<bool>> prevs, curs;
    for (unsigned l = 0; l < 5; ++l) {
        prevs.push_back(f.inputs(rng.next() & 0xff, rng.next() & 0xff));
        curs.push_back(f.inputs(rng.next() & 0xff, rng.next() & 0xff));
    }
    auto cur = packPlanes(curs);
    const auto &batch =
        comp.runBatch(packPlanes(prevs), cur, cur, 230.0, 5);
    for (unsigned l = 0; l < 5; ++l) {
        auto ref = scalar.run(prevs[l], curs[l], 230.0);
        for (size_t k = 0; k < ref.settled.size(); ++k) {
            ASSERT_EQ((batch.settled[k] >> l) & 1,
                      uint64_t{ref.settled[k]});
            ASSERT_EQ((batch.captured[k] >> l) & 1,
                      uint64_t{ref.captured[k]});
        }
        if (ref.maxArrivalPs > 230.0)
            ASSERT_EQ(batch.maxArrivalPs[l], ref.maxArrivalPs);
        else
            ASSERT_LE(batch.maxArrivalPs[l], ref.maxArrivalPs);
    }
}

TEST(CompiledDta, AdderGoldenPlaneMatchesFunctionalEvaluation)
{
    // The golden plane is a zero-delay evaluation of its own inputs,
    // independent of the faulty chain's transition.
    AdderFixture f;
    DelayAnnotation annot(f.nl, CellLibrary::nangate45Like(), 1);
    CompiledDta comp(f.nl, annot);
    Rng rng(33);
    std::vector<std::vector<bool>> prevs, curs;
    for (unsigned l = 0; l < 64; ++l) {
        prevs.push_back(f.inputs(rng.next() & 0xff, rng.next() & 0xff));
        curs.push_back(f.inputs(rng.next() & 0xff, rng.next() & 0xff));
    }
    auto prev = packPlanes(prevs);
    const auto &out =
        comp.runBatch(prev, prev, packPlanes(curs), 1.0, 64).golden;
    for (unsigned l = 0; l < 64; ++l) {
        auto flat = flattenOutputs(f.nl, evaluate(f.nl, curs[l]));
        for (size_t k = 0; k < flat.size(); ++k)
            ASSERT_EQ((out[k] >> l) & 1, uint64_t{flat[k]});
    }
}
