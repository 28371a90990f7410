#include <gtest/gtest.h>

#include "isa/asmbuilder.hh"
#include "sim/func_sim.hh"
#include "softfloat/softfloat.hh"

using namespace tea::isa;
using namespace tea::sim;

TEST(FuncSim, HaltsAndCounts)
{
    AsmBuilder b("t");
    b.li(5, 10);
    auto loop = b.here();
    b.addi(5, 5, -1);
    b.bne(5, 0, loop);
    b.halt();
    Program p = b.build();
    FuncSim sim(p);
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Halted);
    // 1 li + 10*(addi+bne) + halt = 22.
    EXPECT_EQ(r.instructions, 22u);
    EXPECT_EQ(sim.opCount(0, Op::ADDI), 10u);
    EXPECT_EQ(sim.opCount(0, Op::BNE), 10u);
}

TEST(FuncSim, LoadIntoX0IsDropped)
{
    // x0 reads 0 after a load into it, as on the OoO core, which gives
    // an x0 destination no register at all.
    AsmBuilder b("t");
    b.dataI64("word", {42});
    b.dataSpace("out", 8);
    b.la(5, "word");
    b.la(6, "out");
    b.ld(0, 5, 0);
    b.add(7, 0, 0);
    b.sd(7, 6, 0);
    b.halt();
    Program p = b.build();
    FuncSim sim(p);
    ASSERT_EQ(sim.run().status, FuncSim::Status::Halted);
    EXPECT_EQ(sim.memory().read(p.symbol("out"), 8), 0u);
}

TEST(FuncSim, TrapsOnUnmappedLoad)
{
    AsmBuilder b("t");
    b.li(5, 0x7f000000);
    b.ld(6, 5, 0);
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::MemFault);
}

TEST(FuncSim, TrapsOnProtectedStore)
{
    AsmBuilder b("t");
    b.li(5, 0x100);
    b.sd(0, 5, 0);
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::ProtectedAccess);
}

TEST(FuncSim, TrapsOnMisalignedAccess)
{
    AsmBuilder b("t");
    b.dataSpace("buf", 16);
    b.la(5, "buf");
    b.addi(5, 5, 3);
    b.ld(6, 5, 0);
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::Misaligned);
}

TEST(FuncSim, TrapsOnBadJump)
{
    AsmBuilder b("t");
    b.li(5, 0);
    b.jalr(1, 5, 0);
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::BadJump);
    EXPECT_EQ(sim.opCount(0, Op::JALR), 0u);
}

TEST(FuncSim, TrappingInstructionIsNotCountedOnOneCore)
{
    AsmBuilder b("t");
    b.addi(6, 0, 8);
    b.ld(7, 6, 0); // protected page
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::ProtectedAccess);
    EXPECT_EQ(r.trapCore, 0);
    // Only the retired addi counts; the trapping load does not.
    EXPECT_EQ(r.instructions, 1u);
    EXPECT_EQ(sim.instructions(0), 1u);
    EXPECT_EQ(sim.opCount(0, Op::ADDI), 1u);
    EXPECT_EQ(sim.opCount(0, Op::LD), 0u);
}

TEST(FuncSim, TrappingInstructionIsNotCountedOnTwoCores)
{
    // Core 0 spawns a worker and waits at a join; the worker retires
    // one addi, then traps on its load.
    AsmBuilder b("t");
    auto worker = b.newLabel();
    b.laCode(5, worker);
    b.spawn(5);
    b.join();
    b.halt();
    b.bind(worker);
    b.addi(6, 0, 8);
    b.ld(7, 6, 0); // protected page
    b.halt();
    FuncSim::Config cfg;
    cfg.cores = 2;
    FuncSim sim(b.build(), cfg);
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::ProtectedAccess);
    EXPECT_EQ(r.trapCore, 1);
    EXPECT_EQ(r.instructions, sim.instructions(0) + sim.instructions(1));
    EXPECT_EQ(sim.instructions(1), 1u);
    EXPECT_EQ(sim.opCount(1, Op::ADDI), 1u);
    EXPECT_EQ(sim.opCount(1, Op::LD), 0u);
    // The spawn retired; the join, retried while the worker ran, did
    // not.
    EXPECT_EQ(sim.opCount(0, Op::ECALL), 1u);
}

TEST(FuncSim, TrapsOnFpException)
{
    AsmBuilder b("t");
    b.dataDoubles("c", {1.0, 0.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fdiv_d(3, 1, 2); // 1/0
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Trapped);
    EXPECT_EQ(r.trap, TrapKind::FpException);
}

TEST(FuncSim, FpTrapsCanBeDisabled)
{
    AsmBuilder b("t");
    b.dataDoubles("c", {1.0, 0.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fdiv_d(3, 1, 2);
    b.printFp(3);
    b.halt();
    FuncSim::Config cfg;
    cfg.trapOnSevereFp = false;
    FuncSim sim(b.build(), cfg);
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::Halted);
    EXPECT_EQ(sim.console()[0], 0x7ff0000000000000ULL); // +inf
}

TEST(FuncSim, InstructionLimit)
{
    AsmBuilder b("t");
    auto loop = b.here();
    b.j(loop); // infinite
    b.halt();
    FuncSim::Config cfg;
    cfg.maxInstructions = 1000;
    FuncSim sim(b.build(), cfg);
    auto r = sim.run();
    EXPECT_EQ(r.status, FuncSim::Status::LimitReached);
    EXPECT_EQ(r.instructions, 1000u);
}

TEST(FuncSim, FpTraceCollection)
{
    AsmBuilder b("t");
    b.dataDoubles("c", {2.0, 3.0});
    b.la(5, "c");
    b.fld(1, 5, 0);
    b.fld(2, 5, 8);
    b.fmul_d(3, 1, 2);
    b.fadd_d(4, 3, 1);
    b.fcvt_l_d(6, 4);
    b.halt();
    FuncSim sim(b.build());
    std::vector<FpTraceEntry> trace;
    sim.setFpTrace(&trace);
    auto r = sim.run();
    ASSERT_EQ(r.status, FuncSim::Status::Halted);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].op, tea::fpu::FpuOp::MulD);
    EXPECT_EQ(trace[0].a, tea::sf::fromDouble(2.0));
    EXPECT_EQ(trace[0].b, tea::sf::fromDouble(3.0));
    EXPECT_EQ(trace[1].op, tea::fpu::FpuOp::AddD);
    EXPECT_EQ(trace[2].op, tea::fpu::FpuOp::F2ID);
    EXPECT_EQ(sim.fpArithCount(), 3u);
}

TEST(FuncSim, StoreForwardingThroughMemory)
{
    AsmBuilder b("t");
    b.dataSpace("buf", 64);
    b.la(5, "buf");
    b.li(6, 0xdeadbeef);
    b.sd(6, 5, 16);
    b.ld(7, 5, 16);
    b.printInt(7);
    b.sw(6, 5, 24);
    b.lw(8, 5, 24); // sign-extended 32-bit
    b.printInt(8);
    b.halt();
    FuncSim sim(b.build());
    auto r = sim.run();
    ASSERT_EQ(r.status, FuncSim::Status::Halted);
    EXPECT_EQ(sim.console()[0], 0xdeadbeefULL);
    EXPECT_EQ(sim.console()[1],
              static_cast<uint64_t>(
                  static_cast<int64_t>(static_cast<int32_t>(0xdeadbeef))));
}
