/**
 * Ablation (ours) — the full DTA engine ladder: exact event-driven
 * vs. fast levelized vs. compiled SIMD-wide batches. Agreement on
 * settled values (must be total), on error detection, on dynamic
 * arrival estimates, and the speedups that justify each rung for
 * campaign-scale model development. The batched engine must match the
 * levelized oracle bit-for-bit per op — its row ablates pure execution
 * strategy, not semantics. Run on
 * the DP add/sub unit (the glitchiest datapath: a 57-bit ripple carry
 * chain) at a deep voltage reduction; the DP multiply array is too
 * glitchy for exact transport-delay simulation at scale, which is
 * precisely why the fast engines exist.
 */

#include <chrono>

#include "bench_common.hh"
#include "circuit/celllib.hh"
#include "fpu/fpu_core.hh"
#include "timing/dta_campaign.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace tea;
using namespace tea::fpu;

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    bench::banner("DTA engine ablation: exact vs levelized",
                  "DESIGN.md ablation (methodology validation)");

    circuit::VoltageModel vm;
    // Deeper than VR20 so the shallower add/sub unit shows errors.
    double scale = vm.delayFactorAtReduction(0.32);

    FpuCore exactCore, fastCore;
    size_t pe = exactCore.addOperatingPoint(scale, /*exact=*/true);
    size_t pf = fastCore.addOperatingPoint(scale, /*exact=*/false);

    const int N = 1500;
    Rng rng(42);
    std::vector<std::pair<uint64_t, uint64_t>> ops;
    for (int i = 0; i < N; ++i) {
        uint64_t a, b;
        timing::randomOperands(FpuOp::AddD, rng, a, b);
        ops.push_back({a, b});
    }

    int settledMismatch = 0;
    int exactErr = 0, fastErr = 0, bothErr = 0;
    tea::StreamingStats arrRatio;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<FpuCore::Exec> exactRes;
    for (auto [a, b] : ops)
        exactRes.push_back(exactCore.execute(pe, FpuOp::AddD, a, b));
    auto t1 = std::chrono::steady_clock::now();
    std::vector<FpuCore::Exec> fastRes;
    for (auto [a, b] : ops)
        fastRes.push_back(fastCore.execute(pf, FpuOp::AddD, a, b));
    auto t2 = std::chrono::steady_clock::now();

    // Batched engine: the same op stream through executeBatch blocks,
    // which reproduce sequential pipeline history exactly. Its own
    // core, built and warmed outside the timed region so program
    // compilation does not distort the throughput row.
    FpuCore batchCore;
    size_t pc = batchCore.addOperatingPoint(scale);
    constexpr unsigned lanes = 512;
    auto runBatched = [&] {
        batchCore.reset(pc); // sequential-from-scratch every run
        std::vector<FpuCore::Exec> res(N);
        std::vector<uint64_t> av(lanes), bv(lanes);
        const std::vector<FpuOp> addOps(lanes, FpuOp::AddD);
        for (int i = 0; i < N;) {
            unsigned n =
                std::min<unsigned>(lanes, static_cast<unsigned>(N - i));
            for (unsigned l = 0; l < n; ++l) {
                av[l] = ops[i + l].first;
                bv[l] = ops[i + l].second;
            }
            batchCore.executeBatch(pc, addOps.data(), av.data(),
                                   bv.data(), n, res.data() + i);
            i += n;
        }
        return res;
    };
    // Untimed warmup compiles the programs and sizes scratch.
    runBatched();
    auto t3 = std::chrono::steady_clock::now();
    auto compRes = runBatched();
    auto t4 = std::chrono::steady_clock::now();

    int compMismatch = 0;
    for (int i = 0; i < N; ++i) {
        const auto &re = exactRes[i];
        const auto &rl = fastRes[i];
        if (re.golden != rl.golden)
            ++settledMismatch;
        exactErr += re.timingError;
        fastErr += rl.timingError;
        bothErr += re.timingError && rl.timingError;
        if (re.maxArrivalPs > 1.0)
            arrRatio.sample(rl.maxArrivalPs / re.maxArrivalPs);
        // The batched engine must be bit-for-bit the levelized oracle
        // per op (arrivals excluded: its cone-only estimate is exact
        // for faulty ops but a lower bound otherwise).
        const FpuCore::Exec &x = compRes[i];
        compMismatch += !(x.golden == rl.golden && x.faulty == rl.faulty &&
                          x.errorMask == rl.errorMask &&
                          x.goldenFlags == rl.goldenFlags &&
                          x.faultyFlags == rl.faultyFlags &&
                          x.timingError == rl.timingError);
    }

    double exactMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double fastMs =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    double compMs =
        std::chrono::duration<double, std::milli>(t4 - t3).count();

    Table t({"metric", "exact (event-driven)", "levelized",
             "compiled (512)"});
    t.addRow({"ops", std::to_string(N), std::to_string(N),
              std::to_string(N)});
    t.addRow({"settled-value mismatches", "0 (reference)",
              std::to_string(settledMismatch), "-"});
    t.addRow({"per-op mismatches vs levelized", "-", "0 (oracle)",
              std::to_string(compMismatch)});
    t.addRow({"ops with timing errors", std::to_string(exactErr),
              std::to_string(fastErr), std::to_string(fastErr)});
    t.addRow({"errors found by both", std::to_string(bothErr), "-",
              "-"});
    t.addRow({"time (ms)", Table::num(exactMs, 1),
              Table::num(fastMs, 1), Table::num(compMs, 1)});
    t.addRow({"throughput (ops/s)", Table::num(N / exactMs * 1000, 0),
              Table::num(N / fastMs * 1000, 0),
              Table::num(N / compMs * 1000, 0)});
    std::printf("%s\n", t.render().c_str());

    std::printf("levelized/exact arrival ratio: mean %.2f (sd %.2f)\n",
                arrRatio.mean(), arrRatio.stddev());
    std::printf("speedups vs exact: levelized %.1fx, compiled %.1fx\n\n",
                exactMs / fastMs, exactMs / compMs);
    std::printf(
        "Interpretation: the two engines agree bit-exactly on settled\n"
        "values (the hard correctness bar). Their error sets differ in\n"
        "the tail because the levelized engine is both hazard-blind (it\n"
        "misses glitch-capture errors, underestimating on ripple-carry\n"
        "logic) and path-insensitive (it takes the slowest *changed*\n"
        "fanin rather than the sensitized one, overestimating on mux-\n"
        "heavy datapaths). The speedup is what makes 100k-op WA-model\n"
        "characterizations tractable — the paper's equivalent trade-off\n"
        "is full ModelSim gate simulation vs statistical sampling.\n"
        "The compiled column changes only the execution strategy —\n"
        "SIMD-wide plane programs — so it must (and does) reproduce\n"
        "the levelized results bit-for-bit.\n");
    return settledMismatch == 0 && compMismatch == 0 ? 0 : 1;
}
