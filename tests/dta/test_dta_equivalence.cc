/**
 * Cross-engine DTA equivalence suite (ctest label tier1dta).
 *
 * The contract under test: the batched compiled engine, the scalar
 * levelized engine, and the exact event-driven reference agree where
 * they must — and campaigns produce bit-identical statistics at every
 * lane width and thread count. Also pins the float->double arrival
 * precision fix and the deterministic mask-pool reservoir.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "circuit/builders.hh"
#include "circuit/celllib.hh"
#include "circuit/compiled_dta.hh"
#include "circuit/dta.hh"
#include "fpu/fpu_core.hh"
#include "timing/ber_csv.hh"
#include "timing/dta_campaign.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

using namespace tea;
using namespace tea::circuit;
using namespace tea::timing;
using fpu::FpuOp;

namespace {

/** Shared FPU fixture: construction (netlists + STA) dominates cost. */
fpu::FpuCore &
core()
{
    static fpu::FpuCore c;
    return c;
}

size_t
vr20Point()
{
    static size_t p = core().addOperatingPoint(
        VoltageModel{}.delayFactorAtReduction(kVR20));
    return p;
}

/** Deep inverter chain: every gate adds one delay term, so arrival is a
 * long sequential sum — exactly where float accumulation diverges. */
Netlist
chainNetlist(unsigned depth)
{
    Netlist nl("chain");
    NetId n = nl.addInput("a");
    for (unsigned i = 0; i < depth; ++i)
        n = nl.addGate(CellKind::Not, n);
    nl.addOutputBus("out", {n});
    return nl;
}

/** Compare every per-op statistic two campaigns accumulated. */
void
expectIdenticalStats(const CampaignStats &got, const CampaignStats &ref,
                     const char *what)
{
    EXPECT_EQ(got.engineFaults, ref.engineFaults) << what;
    EXPECT_EQ(got.interrupted, ref.interrupted) << what;
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &g = got.perOp[o];
        const auto &r = ref.perOp[o];
        ASSERT_EQ(g.total, r.total) << what << " op " << o;
        ASSERT_EQ(g.faulty, r.faulty) << what << " op " << o;
        for (unsigned b = 0; b < 64; ++b)
            ASSERT_EQ(g.bitErrors[b], r.bitErrors[b])
                << what << " op " << o << " bit " << b;
        ASSERT_EQ(g.maskPool, r.maskPool) << what << " op " << o;
        ASSERT_EQ(g.maskKeys, r.maskKeys) << what << " op " << o;
    }
    // The figure-artifact view of the same statistics must be
    // byte-identical too (this is what fig7/fig8 --csv emit).
    EXPECT_EQ(berCsv(got), berCsv(ref)) << what;
}

} // namespace

TEST(DtaEquivalence, EnginesAgreeOnSettledValues)
{
    // Functional (settled) outputs are exact in all three engines.
    Netlist nl("mix");
    Builder bld(nl);
    Bus ia = nl.addInputBus("a", 6);
    Bus ib = nl.addInputBus("b", 6);
    auto add = bld.rippleAdd(ia, ib);
    Bus out = add.sum;
    out.push_back(add.carry);
    nl.addOutputBus("s", out);

    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(nl, annot, 1.3);
    LevelizedDta lev(nl, annot, 1.3);
    CompiledDta comp(nl, annot, 1.3);

    Rng rng(40);
    for (int round = 0; round < 32; ++round) {
        std::vector<bool> prev(nl.numInputs()), cur(nl.numInputs());
        for (size_t i = 0; i < nl.numInputs(); ++i) {
            prev[i] = rng.next() & 1;
            cur[i] = rng.next() & 1;
        }
        auto re = exact.run(prev, cur, 1e9);
        auto rl = lev.run(prev, cur, 1e9);
        std::vector<uint64_t> pp(nl.numInputs(), 0), cp(nl.numInputs(), 0);
        for (size_t i = 0; i < nl.numInputs(); ++i) {
            pp[i] = prev[i] ? 1 : 0;
            cp[i] = cur[i] ? 1 : 0;
        }
        const auto &rb = comp.runBatch(pp, cp, cp, 1e9, 1);
        for (size_t k = 0; k < re.settled.size(); ++k) {
            ASSERT_EQ(rl.settled[k], re.settled[k]);
            ASSERT_EQ(rb.settled[k] & 1, uint64_t{re.settled[k]});
            // No error at an infinite capture time.
            ASSERT_EQ(rl.captured[k], rl.settled[k]);
            ASSERT_EQ(rb.captured[k] & 1, rb.settled[k] & 1);
        }
    }
}

TEST(DtaEquivalence, DeepChainArrivalMatchesExactReference)
{
    // Regression for the float->double arrival fix: with float
    // accumulation a ~2000-deep chain drifts by whole picoseconds from
    // the event-driven reference; with double both engines perform the
    // same sequence of double additions and agree to the last ulp.
    Netlist nl = chainNetlist(2000);
    DelayAnnotation annot(nl, CellLibrary::nangate45Like(), 1);
    EventDrivenDta exact(nl, annot, 1.1);
    LevelizedDta lev(nl, annot, 1.1);
    CompiledDta comp(nl, annot, 1.1);

    std::vector<bool> prev{false}, cur{true};
    auto re = exact.run(prev, cur, 1e12);
    auto rl = lev.run(prev, cur, 1e12);
    ASSERT_GT(re.maxArrivalPs, 1e4); // deep chain: a long sum
    EXPECT_DOUBLE_EQ(rl.maxArrivalPs, re.maxArrivalPs);
    // A capture edge inside the last gate delay separates float from
    // double: classify against the exact arrival. Here the chain is
    // capture-risky, so the compiled engine's arrival is exact too.
    double edge = re.maxArrivalPs - 1e-9;
    auto rl2 = lev.run(prev, cur, edge);
    const auto &rb2 = comp.runBatch({0}, {1}, {1}, edge, 1);
    EXPECT_NE(rl2.captured[0], rl2.settled[0]);
    EXPECT_EQ((rb2.captured[0] ^ rb2.settled[0]) & 1, 1u);
    EXPECT_DOUBLE_EQ(rb2.maxArrivalPs[0], re.maxArrivalPs);
}

TEST(DtaEquivalence, ExecuteBatchMatchesSequentialExecute)
{
    auto &c = core();
    size_t pt = vr20Point();
    constexpr unsigned kOps = 600;

    Rng rng(41);
    std::vector<uint64_t> a(kOps), b(kOps);
    for (unsigned i = 0; i < kOps; ++i)
        randomOperands(FpuOp::MulD, rng, a[i], b[i]);

    // Reference: sequential scalar stream (history carries across).
    c.reset(pt);
    std::vector<fpu::FpuCore::Exec> ref;
    for (unsigned i = 0; i < kOps; ++i)
        ref.push_back(c.execute(pt, FpuOp::MulD, a[i], b[i]));

    // Same stream cut into batches and scalar interludes: the batch
    // boundary must continue the pipeline history exactly.
    c.reset(pt);
    std::vector<fpu::FpuCore::Exec> got(kOps);
    const std::vector<FpuOp> mulOps(64, FpuOp::MulD);
    unsigned i = 0;
    for (unsigned seg : {5u, 64u, 3u, 64u, 17u, 64u, 2u, 64u, 29u, 64u,
                         64u, 64u, 64u, 32u}) {
        ASSERT_LE(i + seg, kOps);
        if (seg < 8) {
            for (unsigned k = 0; k < seg; ++k)
                got[i + k] = c.execute(pt, FpuOp::MulD, a[i + k], b[i + k]);
        } else {
            c.executeBatch(pt, mulOps.data(), a.data() + i,
                           b.data() + i, seg, got.data() + i);
        }
        i += seg;
    }
    ASSERT_EQ(i, kOps);

    unsigned faulty = 0;
    for (unsigned k = 0; k < kOps; ++k) {
        ASSERT_EQ(got[k].golden, ref[k].golden) << "op " << k;
        ASSERT_EQ(got[k].faulty, ref[k].faulty) << "op " << k;
        ASSERT_EQ(got[k].errorMask, ref[k].errorMask) << "op " << k;
        ASSERT_EQ(got[k].goldenFlags, ref[k].goldenFlags) << "op " << k;
        ASSERT_EQ(got[k].faultyFlags, ref[k].faultyFlags) << "op " << k;
        ASSERT_EQ(got[k].timingError, ref[k].timingError) << "op " << k;
        // Arrival contract of the batch path: exact above the capture
        // time, lower bound below it.
        if (ref[k].maxArrivalPs > c.captureTimePs())
            EXPECT_DOUBLE_EQ(got[k].maxArrivalPs, ref[k].maxArrivalPs)
                << "op " << k;
        else
            EXPECT_LE(got[k].maxArrivalPs, ref[k].maxArrivalPs)
                << "op " << k;
        faulty += ref[k].timingError;
    }
    // The comparison only means something if errors actually occur.
    EXPECT_GT(faulty, 0u);
}

TEST(DtaEquivalence, ExecuteBatchMixedAddSubMatchesSequentialExecute)
{
    // add.d and sub.d share one unit: a batch may interleave them lane
    // by lane, and the per-lane sub bit must reproduce the scalar
    // stream — history included — exactly.
    auto &c = core();
    size_t pt = vr20Point();
    constexpr unsigned kOps = 130; // two full words plus a partial one

    Rng rng(45);
    std::vector<FpuOp> ops(kOps);
    std::vector<uint64_t> a(kOps), b(kOps);
    for (unsigned i = 0; i < kOps; ++i) {
        ops[i] = (rng.next() & 1) ? FpuOp::SubD : FpuOp::AddD;
        randomOperands(ops[i], rng, a[i], b[i]);
    }
    c.reset(pt);
    std::vector<fpu::FpuCore::Exec> ref;
    for (unsigned i = 0; i < kOps; ++i)
        ref.push_back(c.execute(pt, ops[i], a[i], b[i]));
    c.reset(pt);
    std::vector<fpu::FpuCore::Exec> got(kOps);
    c.executeBatch(pt, ops.data(), a.data(), b.data(), kOps,
                   got.data());
    for (unsigned k = 0; k < kOps; ++k) {
        ASSERT_EQ(got[k].golden, ref[k].golden) << "op " << k;
        ASSERT_EQ(got[k].faulty, ref[k].faulty) << "op " << k;
        ASSERT_EQ(got[k].goldenFlags, ref[k].goldenFlags) << "op " << k;
        ASSERT_EQ(got[k].faultyFlags, ref[k].faultyFlags) << "op " << k;
    }
}

TEST(DtaEquivalence, RandomCampaignInvariantAcrossLanesAndThreads)
{
    auto &c = core();
    size_t pt = vr20Point();
    // 160 ops/type: two full 64-lane blocks plus a 32-op partial block
    // per shard, so both block widths run.
    constexpr uint64_t kPerOp = 160;

    auto run = [&](unsigned lanes, unsigned threads) {
        ThreadPool pool(threads);
        Rng rng(42);
        return runRandomCampaign(c, pt, kPerOp, rng, &pool, nullptr,
                                 lanes);
    };

    auto ref = run(1, 1);
    EXPECT_EQ(ref.totalOps(), kPerOp * fpu::kNumFpuOps);
    EXPECT_GT(ref.totalFaulty(), 0u);

    struct Config
    {
        unsigned lanes, threads;
    };
    for (Config cfg : {Config{64, 1}, Config{16, 3}, Config{64, 2},
                       Config{512, 2}}) {
        auto got = run(cfg.lanes, cfg.threads);
        char what[64];
        std::snprintf(what, sizeof(what), "lanes=%u threads=%u",
                      cfg.lanes, cfg.threads);
        expectIdenticalStats(got, ref, what);
    }
}

TEST(DtaEquivalence, TraceCampaignInvariantWithMixedOpRuns)
{
    auto &c = core();
    size_t pt = vr20Point();

    // Mixed-op trace: long MulD runs broken by short AddD/SubD bursts.
    // Batches form per unit, so the bursts batch together across the
    // MulD runs.
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(43);
    auto push = [&](FpuOp op, unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            uint64_t a, b;
            randomOperands(op, rng, a, b);
            trace.push_back({op, a, b});
        }
    };
    for (int block = 0; block < 8; ++block) {
        push(FpuOp::MulD, 130);
        push(FpuOp::AddD, 5);
        push(FpuOp::SubD, 3);
    }

    auto run = [&](unsigned lanes, unsigned threads) {
        ThreadPool pool(threads);
        return runTraceCampaign(c, pt, trace, trace.size(), &pool,
                                nullptr, lanes);
    };

    auto ref = run(1, 1);
    EXPECT_EQ(ref.totalOps(), trace.size());
    EXPECT_GT(ref.totalFaulty(), 0u);
    auto got64 = run(64, 1);
    expectIdenticalStats(got64, ref, "trace lanes=64 threads=1");
    auto got64t = run(64, 2);
    expectIdenticalStats(got64t, ref, "trace lanes=64 threads=2");
}

TEST(DtaReservoir, CapBoundsPoolAndKeepsSmallestKeys)
{
    constexpr size_t kStream = 6000;
    OpErrorStats s;
    std::vector<std::pair<uint64_t, uint64_t>> all; // (key, mask)
    for (size_t i = 0; i < kStream; ++i) {
        uint64_t key = maskPriority(5, 2, i);
        uint64_t mask = (i * 0x9e3779b97f4a7c15ULL) | 1;
        s.addMask(mask, key);
        all.emplace_back(key, mask);
    }
    ASSERT_EQ(s.maskPool.size(), OpErrorStats::kMaskPoolCap);
    ASSERT_EQ(s.maskKeys.size(), OpErrorStats::kMaskPoolCap);

    // Content = the kMaskPoolCap smallest (key, mask) pairs.
    std::sort(all.begin(), all.end());
    all.resize(OpErrorStats::kMaskPoolCap);
    std::vector<std::pair<uint64_t, uint64_t>> kept;
    for (size_t i = 0; i < s.maskPool.size(); ++i)
        kept.emplace_back(s.maskKeys[i], s.maskPool[i]);
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(kept, all);
}

TEST(DtaReservoir, MergeIsSplitInvariant)
{
    constexpr size_t kStream = 6000;
    auto feed = [](OpErrorStats &s, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            s.addMask((i * 0x9e3779b97f4a7c15ULL) | 1,
                      maskPriority(9, 4, i));
    };
    auto sortedPairs = [](const OpErrorStats &s) {
        std::vector<std::pair<uint64_t, uint64_t>> v;
        for (size_t i = 0; i < s.maskPool.size(); ++i)
            v.emplace_back(s.maskKeys[i], s.maskPool[i]);
        std::sort(v.begin(), v.end());
        return v;
    };

    OpErrorStats whole;
    feed(whole, 0, kStream);
    for (size_t cut : {size_t{100}, size_t{2500}, size_t{5900}}) {
        OpErrorStats a, b;
        feed(a, 0, cut);
        feed(b, cut, kStream);
        a.merge(b);
        ASSERT_EQ(a.maskPool.size(), OpErrorStats::kMaskPoolCap);
        EXPECT_EQ(sortedPairs(a), sortedPairs(whole)) << "cut " << cut;
    }
}

TEST(DtaReservoir, SealLoadedPoolPreservesOrder)
{
    OpErrorStats s;
    s.maskPool = {0x50, 0x07, 0x90}; // cache-load path: masks only
    s.sealLoadedPool();
    EXPECT_EQ(s.maskPool, (std::vector<uint64_t>{0x50, 0x07, 0x90}));
    EXPECT_EQ(s.maskKeys, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(DtaLanes, OutOfRangeWidthsClampToEngineRange)
{
    // The width is a per-call argument: 0 means one lane, anything
    // above the engine ceiling means the ceiling — never a panic.
    auto &c = core();
    size_t pt = vr20Point();
    auto run = [&](unsigned lanes) {
        Rng rng(46);
        return runRandomCampaign(c, pt, 64, rng, nullptr, nullptr,
                                 lanes);
    };
    expectIdenticalStats(run(0), run(1), "lanes=0 vs 1");
    expectIdenticalStats(run(4096), run(kMaxDtaLanes),
                         "lanes=4096 vs max");
}

namespace {

/**
 * Interleaved multi-unit trace over two replay windows (ops 0..511
 * and 512..899): add.d/sub.d alternating on their shared unit (and
 * add.s/sub.s on theirs), mixed with mul, div and conversions. Window
 * 0 holds exactly one div.s and no i2f.s, window 1 exactly one i2f.s
 * and no div.s — so every window has a unit with zero ops and a unit
 * with a single op.
 */
std::vector<sim::FpTraceEntry>
interleavedTrace()
{
    static constexpr FpuOp kMix[] = {
        FpuOp::AddD, FpuOp::MulD, FpuOp::DivD, FpuOp::I2FD,
        FpuOp::F2ID, FpuOp::AddS, FpuOp::MulS, FpuOp::F2IS,
    };
    std::vector<sim::FpTraceEntry> trace;
    Rng rng(48);
    bool subD = false, subS = false;
    for (unsigned i = 0; i < 900; ++i) {
        FpuOp op = kMix[rng.nextBounded(std::size(kMix))];
        if (op == FpuOp::AddD && (subD = !subD))
            op = FpuOp::SubD;
        if (op == FpuOp::AddS && (subS = !subS))
            op = FpuOp::SubS;
        if (i == 100)
            op = FpuOp::DivS;
        if (i == 700)
            op = FpuOp::I2FS;
        uint64_t a, b;
        randomOperands(op, rng, a, b);
        trace.push_back({op, a, b});
    }
    return trace;
}

} // namespace

TEST(DtaUnitGrouping, InterleavedTraceMatchesScalarOracle)
{
    // Replay grouped by unit, at every batch width and thread count,
    // must equal the levelized oracle run one op at a time — for both
    // the fixed and the adaptive trace campaign.
    auto &c = core();
    size_t pt = vr20Point();
    const auto trace = interleavedTrace();
    // A target tight enough that the adaptive campaign consumes both
    // windows in rounds rather than converging on the first.
    stats::PlannerConfig cfg;
    cfg.ciTarget = 0.001;
    cfg.maxPerStratum = trace.size();

    auto run = [&](unsigned lanes, unsigned threads, bool adaptive) {
        ThreadPool pool(threads);
        return adaptive ? runAdaptiveTraceCampaign(c, pt, trace,
                                                   trace.size(), cfg,
                                                   &pool, nullptr, lanes)
                        : runTraceCampaign(c, pt, trace, trace.size(),
                                           &pool, nullptr, lanes);
    };

    for (bool adaptive : {false, true}) {
        // lanes = 1 runs every op through the scalar LevelizedDta.
        auto ref = run(1, 1, adaptive);
        EXPECT_EQ(ref.totalOps(), trace.size());
        EXPECT_GT(ref.totalFaulty(), 0u);
        for (unsigned lanes : {1u, 2u, 3u, 63u, 64u, 65u, 512u}) {
            for (unsigned threads : {1u, 2u}) {
                char what[64];
                std::snprintf(what, sizeof(what),
                              "%s lanes=%u threads=%u",
                              adaptive ? "adaptive" : "fixed", lanes,
                              threads);
                expectIdenticalStats(run(lanes, threads, adaptive), ref,
                                     what);
            }
        }
    }
}
