/**
 * @file
 * The parallel-campaign contract: ThreadPool semantics, and
 * bit-identical DTA / injection campaign results at 1, 2, and 4
 * threads (the determinism guarantee REPRO_THREADS documents).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "circuit/celllib.hh"
#include "inject/campaign.hh"
#include "timing/dta_campaign.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace tea;
using namespace tea::timing;
using fpu::FpuOp;

namespace {

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
        circuit::VoltageModel{}.delayFactorAtReduction(circuit::kVR20));
    return p;
}

void
expectSameStats(const CampaignStats &a, const CampaignStats &b)
{
    for (unsigned o = 0; o < fpu::kNumFpuOps; ++o) {
        const auto &sa = a.perOp[o];
        const auto &sb = b.perOp[o];
        EXPECT_EQ(sa.total, sb.total) << fpu::fpuOpName(
            static_cast<FpuOp>(o));
        EXPECT_EQ(sa.faulty, sb.faulty) << fpu::fpuOpName(
            static_cast<FpuOp>(o));
        for (unsigned bit = 0; bit < 64; ++bit)
            EXPECT_EQ(sa.bitErrors[bit], sb.bitErrors[bit]);
        // Exact mask sequences, not just counts: merge order must be
        // shard order, independent of scheduling.
        EXPECT_EQ(sa.maskPool, sb.maskPool);
    }
}

timing::CampaignStats
aggressiveStats()
{
    timing::CampaignStats stats;
    auto &mul = stats.of(FpuOp::MulD);
    mul.total = 1000;
    mul.faulty = 100;
    mul.maskPool = {0x7ff0000000000000ULL, 0x000fffff00000000ULL,
                    0x4010000000000000ULL};
    auto &div = stats.of(FpuOp::DivD);
    div.total = 1000;
    div.faulty = 50;
    div.maskPool = {0x7ff8000000000000ULL, 0x3ff0000000000000ULL};
    return stats;
}

} // namespace

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.numThreads(), threads);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelFor(0, hits.size(), [&](uint64_t i, unsigned w) {
            EXPECT_LT(w, threads);
            hits[i].fetch_add(1);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeAndReuse)
{
    ThreadPool pool(4);
    int ran = 0;
    pool.parallelFor(5, 5, [&](uint64_t, unsigned) { ++ran; });
    EXPECT_EQ(ran, 0);
    // The same pool serves many loops back to back.
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(0, 10,
                         [&](uint64_t i, unsigned) { sum += i; });
    EXPECT_EQ(sum.load(), 50u * 45u);
}

TEST(ThreadPool, BackToBackTinyJobsNeverHang)
{
    // Regression: the last worker out of a job used to signal
    // completion without the pool mutex, so the wakeup could land
    // between the caller's predicate check and its wait — a lost
    // wakeup that hung parallelFor within a few thousand tiny jobs.
    ThreadPool pool(4);
    std::atomic<uint64_t> sum{0};
    constexpr int kJobs = 20000;
    for (int it = 0; it < kJobs; ++it)
        pool.parallelFor(0, 3, [&](uint64_t i, unsigned) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), uint64_t{3} * kJobs);
}

TEST(ThreadPool, ParallelMapCollectsInOrder)
{
    ThreadPool pool(3);
    auto out = pool.parallelMap<uint64_t>(
        64, [](uint64_t i, unsigned) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (uint64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, PropagatesTaskException)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(0, 8,
                         [](uint64_t i, unsigned) {
                             if (i == 3)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(ParallelDeterminism, RandomDtaCampaignThreadCountInvariant)
{
    std::vector<CampaignStats> results;
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        Rng rng(99);
        results.push_back(runRandomCampaign(core(), vr20Point(), 300,
                                            rng, &pool));
    }
    EXPECT_GT(results[0].totalOps(), 0u);
    EXPECT_EQ(results[0].totalOps(), 300u * fpu::kNumFpuOps);
    expectSameStats(results[0], results[1]);
    expectSameStats(results[0], results[2]);
}

TEST(ParallelDeterminism, TraceDtaCampaignThreadCountInvariant)
{
    // A trace long enough for several windows, with faulting op types.
    std::vector<sim::FpTraceEntry> trace;
    Rng gen(5);
    for (int i = 0; i < 4000; ++i) {
        uint64_t a, b;
        FpuOp op = (i % 2) ? FpuOp::MulD : FpuOp::DivD;
        randomOperands(op, gen, a, b);
        trace.push_back({op, a, b});
    }
    std::vector<CampaignStats> results;
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        results.push_back(runTraceCampaign(core(), vr20Point(), trace,
                                           1500, &pool));
    }
    EXPECT_GT(results[0].totalOps(), 1400u);
    EXPECT_LE(results[0].totalOps(), 1500u);
    EXPECT_GT(results[0].totalFaulty(), 0u);
    expectSameStats(results[0], results[1]);
    expectSameStats(results[0], results[2]);
}

TEST(ParallelDeterminism, InjectionCampaignThreadCountInvariant)
{
    inject::InjectionCampaign campaign(
        workloads::buildWorkload("sobel", 1));
    models::WaModel model("hot", aggressiveStats());

    std::vector<inject::CampaignResult> results;
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        inject::InjectionCampaign::RunOptions opts;
        opts.pool = &pool;
        Rng rng(7);
        results.push_back(campaign.run(model, 6, rng, opts));
    }
    EXPECT_EQ(results[0].runs, 6u);
    EXPECT_GT(results[0].injectedErrors, 0u);
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[0].masked, results[i].masked);
        EXPECT_EQ(results[0].sdc, results[i].sdc);
        EXPECT_EQ(results[0].crash, results[i].crash);
        EXPECT_EQ(results[0].timeout, results[i].timeout);
        EXPECT_EQ(results[0].injectedErrors, results[i].injectedErrors);
        EXPECT_EQ(results[0].committedInstructions,
                  results[i].committedInstructions);
        EXPECT_EQ(results[0].wrongPathInjections,
                  results[i].wrongPathInjections);
    }
}
