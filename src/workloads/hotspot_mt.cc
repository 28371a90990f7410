/**
 * @file
 * hotspot-mt — SPMD multi-core variant of the hotspot stencil.
 *
 * Rows are sharded round-robin across cores (interior row y belongs
 * to core (y-1) mod M), so every stencil update reads north/south
 * neighbor rows that another core produced in the previous iteration
 * — a fault on any core diffuses into its neighbors' rows within two
 * iterations. A barrier separates the stencil from the border copy
 * (core 0 only), a second barrier separates the border copy from the
 * buffer swap, and every core swaps its private src/dst pointers in
 * lockstep. Workers halt after the loop; core 0 joins and prints the
 * hot-region checksum.
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
buildHotspotMt(uint64_t seed, int scale)
{
    const int N = 24 * scale; // grid side
    const int kIters = 4;     // even: "temp" holds the final grid
    Rng rng(seed ^ 0x407507ULL);

    // Same synthetic input as the single-core hotspot.
    std::vector<double> temp(static_cast<size_t>(N) * N);
    std::vector<double> power(static_cast<size_t>(N) * N);
    for (int y = 0; y < N; ++y) {
        for (int x = 0; x < N; ++x) {
            size_t i = static_cast<size_t>(y) * N + x;
            temp[i] = 323.0 + 2.0 * rng.nextDouble();
            bool hot = (x > N / 4 && x < N / 2 && y > N / 2);
            power[i] = (hot ? 1.5 : 0.05) + 0.01 * rng.nextDouble();
        }
    }

    AsmBuilder b("hotspot-mt");
    b.dataDoubles("temp", temp);
    b.dataDoubles("power", power);
    b.dataSpace("temp2", static_cast<uint64_t>(N) * N * 8);
    b.dataDoubles("consts", {0.12, 0.09, 0.45, 0.0125, 345.0});

    const int rowB = N * 8;

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
    b.la(5, "consts");
    b.fld(24, 5, 0);  // rx
    b.fld(25, 5, 8);  // ry
    b.fld(26, 5, 16); // step
    b.fld(27, 5, 24); // amb coupling
    b.fld(28, 5, 32); // ambient temp
    b.la(5, "temp");
    b.la(6, "temp2");
    b.la(7, "power");
    b.mcCoreId(22);   // x22 = c
    b.mcNumCores(21); // x21 = M

    b.li(20, kIters);
    auto iterLoop = b.newLabel();
    b.bind(iterLoop);
    {
        // Stencil over this core's rows: y = 1+c, 1+c+M, ...
        b.addi(10, 22, 1); // y
        b.li(11, N - 1);
        auto yLoop = b.newLabel();
        auto yDone = b.newLabel();
        b.bind(yLoop);
        {
            b.bge(10, 11, yDone);
            b.li(13, rowB);
            b.mul(14, 10, 13);
            b.addi(14, 14, 8);
            b.add(15, 5, 14); // src ptr
            b.add(16, 6, 14); // dst ptr
            b.add(17, 7, 14); // power ptr
            b.li(12, 1);      // x
            b.li(18, N - 1);
            auto xLoop = b.newLabel();
            b.bind(xLoop);
            {
                b.fld(1, 15, 0);     // t
                b.fld(2, 15, -rowB); // n (a neighbor core's row)
                b.fld(3, 15, rowB);  // s (a neighbor core's row)
                b.fld(4, 15, -8);    // w
                b.fld(5, 15, 8);     // e
                b.fld(6, 17, 0);     // p

                b.fadd_d(7, 2, 3);   // n+s
                b.fadd_d(8, 1, 1);   // 2t
                b.fsub_d(7, 7, 8);   // n+s-2t
                b.fmul_d(7, 7, 25);  // *ry
                b.fadd_d(9, 4, 5);   // w+e
                b.fsub_d(9, 9, 8);   // w+e-2t
                b.fmul_d(9, 9, 24);  // *rx
                b.fadd_d(7, 7, 9);
                b.fsub_d(10, 28, 1); // amb - t
                b.fmul_d(10, 10, 27);
                b.fadd_d(7, 7, 10);
                b.fadd_d(7, 7, 6);   // + power
                b.fmul_d(7, 7, 26);  // * step
                b.fadd_d(7, 7, 1);   // t'
                b.fsd(7, 16, 0);

                b.addi(15, 15, 8);
                b.addi(16, 16, 8);
                b.addi(17, 17, 8);
                b.addi(12, 12, 1);
                b.blt(12, 18, xLoop);
            }
            b.add(10, 10, 21); // y += M
            b.j(yLoop);
        }
        b.bind(yDone);

        b.barrier();

        // Border replication (core 0 only, on the freshly written dst).
        auto skipBorders = b.newLabel();
        b.bne(22, 0, skipBorders);
        {
            b.li(10, 0);
            b.li(11, N);
            b.li(19, (N - 1) * rowB);
            auto rowCopy = b.newLabel();
            b.bind(rowCopy);
            {
                b.slli(13, 10, 3);
                b.add(14, 5, 13);
                b.add(15, 6, 13);
                b.fld(1, 14, 0);
                b.fsd(1, 15, 0);
                b.add(14, 14, 19);
                b.add(15, 15, 19);
                b.fld(1, 14, 0);
                b.fsd(1, 15, 0);
                b.addi(10, 10, 1);
                b.blt(10, 11, rowCopy);
            }
            b.li(10, 0);
            auto colCopy = b.newLabel();
            b.bind(colCopy);
            {
                b.li(13, rowB);
                b.mul(14, 10, 13);
                b.add(15, 5, 14);
                b.add(16, 6, 14);
                b.fld(1, 15, 0);
                b.fsd(1, 16, 0);
                b.fld(1, 15, rowB - 8);
                b.fsd(1, 16, rowB - 8);
                b.addi(10, 10, 1);
                b.blt(10, 11, colCopy);
            }
        }
        b.bind(skipBorders);

        b.barrier();

        // Every core swaps its private src/dst pointers in lockstep.
        b.mv(13, 5);
        b.mv(5, 6);
        b.mv(6, 13);
        b.addi(20, 20, -1);
        b.bne(20, 0, iterLoop);
    }

    // Epilogue: workers halt; core 0 joins and prints the checksum of
    // the hot region (kIters is even, so x5 points back at "temp").
    auto workerHalt = b.newLabel();
    b.bne(22, 0, workerHalt);
    b.join();
    b.fmv_d_x(1, 0);
    b.li(10, N / 2);
    b.li(11, N - 1);
    auto sumLoop = b.newLabel();
    b.bind(sumLoop);
    {
        b.li(13, rowB);
        b.mul(14, 10, 13);
        b.add(14, 14, 5);
        b.fld(2, 14, (N / 3) * 8);
        b.fadd_d(1, 1, 2);
        b.addi(10, 10, 1);
        b.blt(10, 11, sumLoop);
    }
    b.printFp(1);
    b.halt();
    b.bind(workerHalt);
    b.halt();

    Workload w;
    w.name = "hotspot-mt";
    w.program = b.build();
    w.inputDesc = std::to_string(N) + " " + std::to_string(N) + " " +
                  std::to_string(kIters);
    w.classification = "File Output";
    w.outputSymbols = {"temp", "temp2"};
    w.threaded = true;
    return w;
}

} // namespace tea::workloads
