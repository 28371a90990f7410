#include <gtest/gtest.h>

#include "isa/asmbuilder.hh"
#include "sim/func_sim.hh"
#include "sim/ooo_sim.hh"
#include "softfloat/softfloat.hh"
#include "util/rng.hh"
#include "workloads/workloads.hh"

using namespace tea::isa;
using namespace tea::sim;
using tea::Rng;

namespace {

/** A program with branches, memory traffic, FP math, and a call. */
Program
mixedProgram()
{
    AsmBuilder b("mixed");
    b.dataDoubles("xs", {1.5, -2.25, 3.0, 0.5, 10.0, -1.0, 2.0, 4.0});
    b.dataDoubles("one", {1.0});
    b.dataSpace("out", 64);

    auto fn = b.newLabel();
    auto start = b.newLabel();
    b.j(start);

    // fn: f10 += f10 * f11 ; returns
    b.bind(fn);
    b.fmul_d(12, 10, 11);
    b.fadd_d(10, 10, 12);
    b.ret();

    b.bind(start);
    b.la(5, "xs");
    b.la(6, "out");
    b.li(7, 8);  // n
    b.li(8, 0);  // i
    b.la(9, "one");
    b.fld(10, 9, 0); // accumulator starts at 1.0
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.slli(9, 8, 3);
    b.add(9, 9, 5);
    b.fld(11, 9, 0);
    // Skip negative values (data-dependent branch).
    b.fmv_d_x(13, 0);
    b.fle_d(14, 13, 11);
    b.beq(14, 0, skip);
    b.call(fn);
    b.bind(skip);
    b.addi(8, 8, 1);
    b.blt(8, 7, loop);
    b.fsd(10, 6, 0);
    b.fcvt_l_d(15, 10);
    b.printInt(15);
    b.printFp(10);
    b.halt();
    return b.build();
}

} // namespace

TEST(OooSim, MatchesFunctionalOnMixedProgram)
{
    Program p = mixedProgram();
    FuncSim fsim(p);
    auto fr = fsim.run();
    ASSERT_EQ(fr.status, FuncSim::Status::Halted);

    OooSim osim(p);
    auto orr = osim.run(1'000'000);
    ASSERT_EQ(orr.status, OooSim::Status::Halted);
    EXPECT_EQ(orr.committed, fr.instructions);
    EXPECT_EQ(osim.console(), fsim.console());
    EXPECT_EQ(osim.memory().readBlock(p.symbol("out"), 8),
              fsim.memory().readBlock(p.symbol("out"), 8));
    // Sanity: the OoO core actually overlapped work.
    EXPECT_LT(orr.cycles, 10 * orr.committed);
    EXPECT_GE(orr.executed, orr.committed);
}

TEST(OooSim, StoreToLoadForwarding)
{
    AsmBuilder b("fwd");
    b.dataSpace("buf", 32);
    b.la(5, "buf");
    b.li(6, 1234);
    b.sd(6, 5, 0);
    b.ld(7, 5, 0); // must see the in-flight store
    b.addi(7, 7, 1);
    b.printInt(7);
    b.halt();
    Program p = b.build();
    OooSim sim(p);
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console()[0], 1235u);
}

TEST(OooSim, BranchMispredictsAreCounted)
{
    // Data-dependent alternating branch pattern defeats the bimodal
    // predictor part of the time.
    AsmBuilder b("br");
    b.li(5, 200);
    b.li(6, 0);
    auto loop = b.newLabel();
    auto odd = b.newLabel();
    auto cont = b.newLabel();
    b.bind(loop);
    b.andi(7, 5, 1);
    b.bne(7, 0, odd);
    b.addi(6, 6, 2);
    b.j(cont);
    b.bind(odd);
    b.addi(6, 6, 1);
    b.bind(cont);
    b.addi(5, 5, -1);
    b.bne(5, 0, loop);
    b.printInt(6);
    b.halt();
    Program p = b.build();

    FuncSim fsim(p);
    fsim.run();
    OooSim sim(p);
    auto r = sim.run(1'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console(), fsim.console());
    EXPECT_GT(r.branchMispredicts, 10u);
    EXPECT_GT(r.squashedInstructions, 0u); // wrong-path work happened
    EXPECT_GE(r.executed, r.committed);
}

TEST(OooSim, CrashOnCommittedTrap)
{
    AsmBuilder b("crash");
    b.li(5, 0x7f000000);
    b.ld(6, 5, 0);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Crashed);
    EXPECT_EQ(r.trap, TrapKind::MemFault);
}

TEST(OooSim, WrongPathFaultDoesNotCrash)
{
    // An always-taken branch starts cold-predicted not-taken, so the
    // faulting load behind it is fetched (and may execute) on the wrong
    // path; the fault must be squashed, never committed.
    AsmBuilder b("wp");
    b.li(9, 0x7f000000); // bad pointer
    b.li(5, 1);
    auto skip = b.newLabel();
    b.beq(5, 5, skip); // always taken
    b.ld(6, 9, 0);     // wrong-path only
    b.ld(7, 9, 8);
    b.bind(skip);
    b.printInt(5);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(1'000'000);
    EXPECT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_GE(r.branchMispredicts, 1u);
    EXPECT_GT(r.squashedInstructions, 0u);
}

TEST(OooSim, CycleLimitReported)
{
    AsmBuilder b("spin");
    auto loop = b.here();
    b.j(loop);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(5000);
    EXPECT_EQ(r.status, OooSim::Status::CycleLimit);
    EXPECT_EQ(r.cycles, 5000u);
}

TEST(OooSim, InjectionChangesResult)
{
    // Flip a high mantissa bit of the first executed fp-mul.
    Program p = mixedProgram();
    FuncSim fsim(p);
    fsim.run();

    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0,
         0xffff000000000ULL},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(1'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 1u);
    // The corrupted multiply feeds the accumulator: output must differ.
    EXPECT_NE(sim.console(), fsim.console());
}

TEST(OooSim, InjectionIntoDeadValueIsMasked)
{
    AsmBuilder b("dead");
    b.dataDoubles("c", {2.0, 3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fmul_d(3, 1, 2); // dead: overwritten before use
    b.fmv(3, 1);
    b.printFp(3);
    b.halt();
    Program p = b.build();
    FuncSim fsim(p);
    fsim.run();

    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0,
         0x8000000000000000ULL},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 1u);
    EXPECT_EQ(sim.console(), fsim.console()); // masked
}

TEST(OooSim, InjectionCanCauseCrash)
{
    // Corrupt the address-producing conversion so a load goes wild.
    AsmBuilder b("crashinj");
    b.dataDoubles("c", {1.0}); // index as double
    b.dataSpace("arr", 64);
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fcvt_l_d(6, 1);  // int index 1
    b.slli(6, 6, 3);
    b.la(7, "arr");
    b.add(7, 7, 6);
    b.ld(8, 7, 0);
    b.printInt(8);
    b.halt();
    Program p = b.build();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::F2ID, 0,
         0x7f00000000ULL}, // huge index
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Crashed);
    EXPECT_EQ(r.trap, TrapKind::MemFault);
}

TEST(OooSim, DeterministicAcrossRuns)
{
    Program p = mixedProgram();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::AnyDest, tea::fpu::FpuOp::AddD, 17,
         1ULL << 20},
    };
    OooSim s1(p, OooConfig{}, InjectionPlan(events));
    OooSim s2(p, OooConfig{}, InjectionPlan(events));
    auto r1 = s1.run(1'000'000);
    auto r2 = s2.run(1'000'000);
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(s1.console(), s2.console());
}

TEST(OooSim, CacheStatsPlausible)
{
    // Stream over a buffer larger than L1: misses must show up.
    AsmBuilder b("stream");
    b.dataSpace("buf", 128 * 1024);
    b.la(5, "buf");
    b.li(6, 16384); // 16K doubles = 128KB
    auto loop = b.here();
    b.ld(7, 5, 0);
    b.addi(5, 5, 8);
    b.addi(6, 6, -1);
    b.bne(6, 0, loop);
    b.halt();
    OooSim sim(b.build());
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_GT(r.cacheAccesses, 16000u);
    // One miss per 64B line = every 8th access.
    EXPECT_GT(r.cacheMisses, 1500u);
    EXPECT_LT(r.cacheMisses, 4000u);
}

TEST(OooSim, RandomProgramsMatchFunctional)
{
    // Property test: random (structured) programs produce identical
    // architectural results on both models.
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        AsmBuilder b("rand");
        std::vector<double> init;
        for (int i = 0; i < 16; ++i)
            init.push_back((rng.nextDouble() - 0.5) * 100.0);
        b.dataDoubles("vals", init);
        b.dataSpace("out", 128);
        b.la(5, "vals");
        b.la(6, "out");
        for (int i = 1; i <= 8; ++i)
            b.fld(i, 5, static_cast<int32_t>(rng.nextBounded(16) * 8));
        int nOps = 10 + static_cast<int>(rng.nextBounded(30));
        for (int i = 0; i < nOps; ++i) {
            auto fd = static_cast<uint8_t>(1 + rng.nextBounded(8));
            auto f1 = static_cast<uint8_t>(1 + rng.nextBounded(8));
            auto f2 = static_cast<uint8_t>(1 + rng.nextBounded(8));
            switch (rng.nextBounded(4)) {
              case 0: b.fadd_d(fd, f1, f2); break;
              case 1: b.fsub_d(fd, f1, f2); break;
              case 2: b.fmul_d(fd, f1, f2); break;
              default: b.fabs_d(fd, f1); break;
            }
        }
        for (int i = 1; i <= 8; ++i)
            b.fsd(i, 6, (i - 1) * 8);
        b.halt();
        Program p = b.build();
        FuncSim fsim(p);
        auto fr = fsim.run();
        ASSERT_EQ(fr.status, FuncSim::Status::Halted);
        OooSim osim(p);
        auto orr = osim.run(1'000'000);
        ASSERT_EQ(orr.status, OooSim::Status::Halted);
        EXPECT_EQ(osim.memory().readBlock(p.symbol("out"), 128),
                  fsim.memory().readBlock(p.symbol("out"), 128))
            << "trial " << trial;
    }
}

TEST(OooSim, MultipleInjectionsAccumulate)
{
    // Several masks on the same dynamic instruction XOR together.
    AsmBuilder b("multi");
    b.dataDoubles("c", {2.0, 3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fmul_d(3, 1, 2);
    b.printFp(3);
    b.halt();
    Program p = b.build();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0, 0xf0},
        {InjectionEvent::Kind::FpOp, tea::fpu::FpuOp::MulD, 0, 0x0f},
    };
    OooSim sim(p, OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 2u);
    EXPECT_EQ(sim.console()[0], tea::sf::fromDouble(6.0) ^ 0xffULL);
}

TEST(OooSim, InjectionIndexBeyondExecutionNeverFires)
{
    AsmBuilder b("beyond");
    b.li(5, 1);
    b.printInt(5);
    b.halt();
    std::vector<InjectionEvent> events{
        {InjectionEvent::Kind::AnyDest, tea::fpu::FpuOp::AddD, 999999,
         1},
    };
    OooSim sim(b.build(), OooConfig{}, InjectionPlan(events));
    auto r = sim.run(100000);
    EXPECT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.injectionsApplied, 0u);
}

TEST(OooSim, NarrowMachineStillCorrect)
{
    // A 1-wide, tiny-window configuration must produce identical
    // architectural results (only slower).
    Program p = mixedProgram();
    FuncSim fsim(p);
    auto fr = fsim.run();
    OooConfig cfg;
    cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth = cfg.commitWidth =
        1;
    cfg.robSize = 8;
    cfg.iqSize = 4;
    cfg.maxLoads = 2;
    cfg.maxStores = 2;
    OooSim sim(p, cfg);
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(r.committed, fr.instructions);
    EXPECT_EQ(sim.console(), fsim.console());

    OooSim wide(p);
    auto rw = wide.run(10'000'000);
    EXPECT_GT(r.cycles, rw.cycles); // narrower must be slower
}

TEST(OooSim, WideMachineStillCorrect)
{
    Program p = mixedProgram();
    FuncSim fsim(p);
    fsim.run();
    OooConfig cfg;
    cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth = cfg.commitWidth =
        4;
    cfg.robSize = 128;
    cfg.iqSize = 64;
    OooSim sim(p, cfg);
    auto r = sim.run(10'000'000);
    ASSERT_EQ(r.status, OooSim::Status::Halted);
    EXPECT_EQ(sim.console(), fsim.console());
}

namespace {

/**
 * Mispredicts that resolve while the ROB is wrapped (head > tail): each
 * trip through the loop, a chain of FP divides blocks the head of a
 * 12-entry ROB while the younger work fills the remaining slots, and a
 * branch whose direction alternates every trip (so the 2-bit counter
 * always guesses wrong) resolves behind it and squashes. A trip
 * commits 15 or 21 instructions, so the divides land on a different
 * slot each trip and the squashes happen at many head/tail alignments.
 * On the original pipeline, 63 of the 84 squashes over the two widths
 * below happened with the ROB wrapped (head > tail) or full.
 */
Program
wrappedSquashProgram()
{
    AsmBuilder b("wrapsquash");
    b.dataDoubles("c", {3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.li(10, 40); // outer trips
    auto outer = b.newLabel();
    b.bind(outer);
    for (int i = 0; i < 8; ++i)
        b.addi(11 + (i % 4), 0, i);
    b.fdiv_d(2, 1, 1);
    b.fdiv_d(3, 2, 1);
    b.andi(6, 10, 1);
    auto taken = b.newLabel();
    b.beq(6, 0, taken); // alternates: the bimodal counter always misses
    for (int i = 0; i < 6; ++i)
        b.addi(20 + i, 20 + i, 1); // skipped on taken trips
    b.bind(taken);
    b.addi(7, 7, 1);
    b.addi(10, 10, -1);
    b.bne(10, 0, outer);
    b.printInt(7);
    b.halt();
    return b.build();
}

/** The timing fields a machine-shape case pins. */
std::string
shapeStats(const OooSim::Result &r)
{
    return std::to_string(r.cycles) + " " + std::to_string(r.committed) +
           " " + std::to_string(r.executed) + " " +
           std::to_string(r.squashedInstructions) + " " +
           std::to_string(r.branchMispredicts);
}

} // namespace

TEST(OooSim, MachineShapesAreCycleExact)
{
    // Non-default machine shapes run to the exact cycle, commit,
    // execute, squash and mispredict counts computed on the original
    // pipeline: a ROB of 8, 48 (not a power of two) and 128 (more than
    // one 64-bit mask word), a 4- and a 64-entry IQ, a 2-entry store
    // queue, and 1- and 4-wide machines. Architectural correctness
    // alone (Narrow/WideMachineStillCorrect) would not catch a walk
    // that visits an entry twice or in the wrong order.
    struct Shape
    {
        const char *name;
        void (*apply)(OooConfig &);
    };
    const Shape shapes[] = {
        {"rob8", [](OooConfig &c) { c.robSize = 8; }},
        {"rob48", [](OooConfig &c) { c.robSize = 48; }},
        {"rob128", [](OooConfig &c) { c.robSize = 128; }},
        {"iq4", [](OooConfig &c) { c.iqSize = 4; }},
        {"iq64", [](OooConfig &c) { c.iqSize = 64; }},
        {"stores2", [](OooConfig &c) { c.maxStores = 2; }},
        {"width1",
         [](OooConfig &c) {
             c.fetchWidth = c.renameWidth = c.issueWidth =
                 c.commitWidth = 1;
         }},
        {"width4",
         [](OooConfig &c) {
             c.fetchWidth = c.renameWidth = c.issueWidth =
                 c.commitWidth = 4;
         }},
    };
    const std::pair<const char *, Program> programs[] = {
        {"mixed", mixedProgram()},
        {"sobel", tea::workloads::buildWorkload("sobel", 1).program},
        {"k-means", tea::workloads::buildWorkload("k-means", 1).program},
    };
    // expected[shape][program]: "cycles committed executed squashed
    // mispredicts".
    const char *expected[8][3] = {
        // rob8
        {"180 105 106 19 5", "83506 24090 24090 12 27",
         "166918 100173 117828 23947 6625"},
        // rob48
        {"139 105 118 46 6", "73552 24090 24090 148 27",
         "136901 100173 171308 146394 8839"},
        // rob128
        {"139 105 118 48 6", "73552 24090 24090 146 27",
         "136838 100173 172836 150706 8850"},
        // iq4
        {"162 105 107 24 5", "77900 24090 24090 30 27",
         "155053 100173 118848 41454 6625"},
        // iq64
        {"139 105 115 37 6", "73552 24090 24090 9 27",
         "136838 100173 171979 148613 8846"},
        // stores2
        {"139 105 115 37 6", "73552 24090 24090 147 27",
         "138648 100173 155207 116767 7646"},
        // width1
        {"176 105 106 18 6", "75485 24090 24090 214 27",
         "169953 100173 126072 62701 6689"},
        // width4
        {"135 105 132 78 6", "73128 24090 24096 188 27",
         "126737 100173 233877 248939 8383"},
    };
    for (size_t s = 0; s < std::size(shapes); ++s) {
        OooConfig cfg;
        shapes[s].apply(cfg);
        for (size_t p = 0; p < std::size(programs); ++p) {
            OooSim sim(programs[p].second, cfg);
            auto r = sim.run(100'000'000);
            ASSERT_EQ(r.status, OooSim::Status::Halted)
                << shapes[s].name << " " << programs[p].first;
            EXPECT_EQ(shapeStats(r), expected[s][p])
                << shapes[s].name << " " << programs[p].first;
        }
    }
}

TEST(OooSim, MispredictSquashOnWrappedRobIsCycleExact)
{
    Program p = wrappedSquashProgram();
    FuncSim fsim(p);
    fsim.run();
    OooConfig cfg;
    cfg.robSize = 12;
    for (unsigned width : {1u, 2u}) {
        cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth =
            cfg.commitWidth = width;
        OooSim sim(p, cfg);
        auto r = sim.run(1'000'000);
        ASSERT_EQ(r.status, OooSim::Status::Halted);
        EXPECT_EQ(sim.console(), fsim.console());
        EXPECT_EQ(shapeStats(r), width == 1 ? "1311 726 726 41 42"
                                           : "1208 726 726 162 42")
            << width;
    }
}
