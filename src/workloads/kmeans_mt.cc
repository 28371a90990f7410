/**
 * @file
 * k-means-mt — SPMD multi-core variant of the k-means workload.
 *
 * Core 0 spawns one worker per remaining core, then all M cores run
 * the same iteration body: each core shards the point set by striding
 * (point i belongs to core i mod M) and accumulates into a private
 * partial-sum slice, a barrier synchronizes, core 0 reduces the
 * per-core partials into the shared centroids (reading every worker's
 * slice — this is where a fault on a worker core propagates into
 * core 0's output), and a second barrier releases everyone into the
 * next iteration. Workers halt after the loop; core 0 joins and
 * prints the centroids.
 *
 * Runs on the N-core simulators, sim::FuncSim and mc::McSim (control
 * page + spawn ABI); sim::OooSim faults on the control-page load.
 */

#include "isa/asmbuilder.hh"
#include "util/rng.hh"
#include "workloads/workloads.hh"

namespace tea::workloads {

using isa::AsmBuilder;

Workload
buildKmeansMt(uint64_t seed, int scale)
{
    const int N = 256 * scale;
    const int K = 4; // slice shifts below hard-code K == 4
    const int kIters = 5;
    Rng rng(seed ^ 0x3a6e5ULL);

    // Same synthetic input as the single-core k-means.
    const double cx[K] = {2.0, 8.0, 2.5, 9.0};
    const double cy[K] = {3.0, 1.5, 8.5, 7.5};
    std::vector<double> pts(static_cast<size_t>(N) * 2);
    for (int i = 0; i < N; ++i) {
        int c = static_cast<int>(rng.nextBounded(K));
        pts[2 * i] = cx[c] + (rng.nextDouble() - 0.5) * 2.0;
        pts[2 * i + 1] = cy[c] + (rng.nextDouble() - 0.5) * 2.0;
    }
    std::vector<double> cent0(static_cast<size_t>(K) * 2);
    for (int c = 0; c < K; ++c) {
        cent0[2 * c] = pts[2 * c];
        cent0[2 * c + 1] = pts[2 * c + 1];
    }

    AsmBuilder b("k-means-mt");
    b.dataDoubles("pts", pts);
    b.dataDoubles("cent", cent0);
    b.dataSpace("assign", static_cast<uint64_t>(N) * 8);
    // Per-core partial sums / counts: one K-entry slice per core.
    b.dataSpace("psums",
                static_cast<uint64_t>(isa::kMcMaxCores) * K * 2 * 8);
    b.dataSpace("pcounts",
                static_cast<uint64_t>(isa::kMcMaxCores) * K * 8);
    b.dataDoubles("big", {1e30});

    // ---- core-0 entry: spawn M-1 workers, then fall into the body.
    auto workerEntry = b.newLabel();
    b.mcNumCores(21); // x21 = M
    b.laCode(22, workerEntry);
    b.li(11, 1);
    auto spawnLoop = b.newLabel();
    auto spawnDone = b.newLabel();
    b.bind(spawnLoop);
    {
        b.bge(11, 21, spawnDone);
        b.spawn(22);
        b.addi(11, 11, 1);
        b.j(spawnLoop);
    }
    b.bind(spawnDone);

    // ---- shared SPMD body (all cores, core 0 falls through) ----
    b.bind(workerEntry);
    b.la(5, "pts");
    b.la(6, "cent");
    b.la(7, "assign");
    b.la(8, "psums");
    b.la(9, "pcounts");
    b.la(10, "big");
    b.fld(30, 10, 0); // f30 = big
    b.mcCoreId(22);   // x22 = c
    b.mcNumCores(21); // x21 = M
    // x23 = &psums[c*K], x24 = &pcounts[c*K] (K == 4).
    b.slli(13, 22, 6);
    b.add(23, 8, 13);
    b.slli(13, 22, 5);
    b.add(24, 9, 13);

    b.li(20, kIters);
    auto iterLoop = b.newLabel();
    b.bind(iterLoop);
    {
        // Zero this core's partial slice.
        b.li(11, 0);
        b.li(12, K);
        auto zeroLoop = b.newLabel();
        b.bind(zeroLoop);
        {
            b.slli(13, 11, 4);
            b.add(13, 13, 23);
            b.sd(0, 13, 0);
            b.sd(0, 13, 8);
            b.slli(13, 11, 3);
            b.add(13, 13, 24);
            b.sd(0, 13, 0);
            b.addi(11, 11, 1);
            b.blt(11, 12, zeroLoop);
        }

        // Assignment pass over this core's shard: i = c, c+M, c+2M, ...
        b.mv(11, 22);
        b.li(12, N);
        auto ptLoop = b.newLabel();
        auto ptDone = b.newLabel();
        b.bind(ptLoop);
        {
            b.bge(11, 12, ptDone);
            b.slli(13, 11, 4);
            b.add(14, 13, 5); // point ptr
            b.fld(1, 14, 0);  // px
            b.fld(2, 14, 8);  // py
            b.fmv(3, 30);     // best dist
            b.li(15, 0);      // best cluster
            b.li(16, 0);      // cluster index
            b.li(17, K);
            b.mv(18, 6); // centroid ptr
            auto cLoop = b.newLabel();
            b.bind(cLoop);
            {
                b.fld(4, 18, 0);
                b.fld(5, 18, 8);
                b.fsub_d(6, 1, 4);
                b.fsub_d(7, 2, 5);
                b.fmul_d(6, 6, 6);
                b.fmul_d(7, 7, 7);
                b.fadd_d(6, 6, 7); // dist
                auto notBetter = b.newLabel();
                b.flt_d(19, 6, 3);
                b.beq(19, 0, notBetter);
                b.fmv(3, 6);
                b.mv(15, 16);
                b.bind(notBetter);
                b.addi(18, 18, 16);
                b.addi(16, 16, 1);
                b.blt(16, 17, cLoop);
            }
            // assign[i] = best; private psums[best] += p; pcounts++.
            b.slli(13, 11, 3);
            b.add(13, 13, 7);
            b.sd(15, 13, 0);
            b.slli(13, 15, 4);
            b.add(13, 13, 23);
            b.fld(4, 13, 0);
            b.fadd_d(4, 4, 1);
            b.fsd(4, 13, 0);
            b.fld(4, 13, 8);
            b.fadd_d(4, 4, 2);
            b.fsd(4, 13, 8);
            b.slli(13, 15, 3);
            b.add(13, 13, 24);
            b.ld(16, 13, 0);
            b.addi(16, 16, 1);
            b.sd(16, 13, 0);

            b.add(11, 11, 21); // i += M
            b.j(ptLoop);
        }
        b.bind(ptDone);

        b.barrier();

        // Reduction (core 0 only): cent[k] = sum over cores / count.
        auto skipReduce = b.newLabel();
        b.bne(22, 0, skipReduce);
        {
            b.li(11, 0); // k
            b.li(12, K);
            auto kLoop = b.newLabel();
            b.bind(kLoop);
            {
                b.fmv_d_x(4, 0); // sumx
                b.fmv_d_x(5, 0); // sumy
                b.li(16, 0);     // count
                b.li(15, 0);     // source core
                auto cSum = b.newLabel();
                b.bind(cSum);
                {
                    b.slli(13, 15, 2); // c2*K
                    b.add(13, 13, 11); // + k
                    b.slli(14, 13, 4);
                    b.add(14, 14, 8); // &psums[c2*K + k]
                    b.fld(6, 14, 0);
                    b.fadd_d(4, 4, 6);
                    b.fld(6, 14, 8);
                    b.fadd_d(5, 5, 6);
                    b.slli(14, 13, 3);
                    b.add(14, 14, 9);
                    b.ld(17, 14, 0);
                    b.add(16, 16, 17);
                    b.addi(15, 15, 1);
                    b.blt(15, 21, cSum);
                }
                auto skipK = b.newLabel();
                b.beq(16, 0, skipK);
                b.fcvt_d_l(7, 16);
                b.slli(13, 11, 4);
                b.add(13, 13, 6); // &cent[k]
                b.fdiv_d(4, 4, 7);
                b.fsd(4, 13, 0);
                b.fdiv_d(5, 5, 7);
                b.fsd(5, 13, 8);
                b.bind(skipK);
                b.addi(11, 11, 1);
                b.blt(11, 12, kLoop);
            }
        }
        b.bind(skipReduce);

        b.barrier();

        b.addi(20, 20, -1);
        b.bne(20, 0, iterLoop);
    }

    // Epilogue: workers halt; core 0 joins and prints the centroids.
    auto workerHalt = b.newLabel();
    b.bne(22, 0, workerHalt);
    b.join();
    b.li(11, 0);
    b.li(12, 2 * K);
    auto prLoop = b.newLabel();
    b.bind(prLoop);
    {
        b.slli(13, 11, 3);
        b.add(13, 13, 6);
        b.fld(1, 13, 0);
        b.printFp(1);
        b.addi(11, 11, 1);
        b.blt(11, 12, prLoop);
    }
    b.halt();
    b.bind(workerHalt);
    b.halt();

    Workload w;
    w.name = "k-means-mt";
    w.program = b.build();
    w.inputDesc = std::to_string(N) + " pts, k=" + std::to_string(K);
    w.classification = "Clustering";
    w.outputSymbols = {"assign", "cent"};
    w.threaded = true;
    return w;
}

} // namespace tea::workloads
