/**
 * The exact fast path (DESIGN.md §18) against the OoO core: whole run
 * records from executeOne (fast path where it applies) and simulateOne
 * (always the OoO core) must be identical, over every single-core
 * workload and model at the benchmark's sizes, and over hand-built
 * plans that drive each fallback rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/toolflow.hh"
#include "inject/campaign.hh"
#include "isa/asmbuilder.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sim/ooo_sim.hh"
#include "workloads/workloads.hh"

using namespace tea;
using inject::InjectionCampaign;

namespace {

using Record = InjectionCampaign::RunRecord;

bool
sameRecord(const Record &a, const Record &b)
{
    return a.outcome == b.outcome && a.injected == b.injected &&
           a.committed == b.committed && a.wrongPath == b.wrongPath &&
           a.attempts == b.attempts && a.fault == b.fault &&
           std::memcmp(&a.logWeight, &b.logWeight, sizeof a.logWeight) ==
               0 &&
           a.mcClass == b.mcClass;
}

std::string
describe(const Record &r)
{
    return std::string(inject::outcomeName(r.outcome)) +
           " injected=" + std::to_string(r.injected) +
           " committed=" + std::to_string(r.committed) +
           " wrongPath=" + std::to_string(r.wrongPath);
}

uint64_t
fastRuns()
{
    return obs::Registry::global()
        .counter(obs::metric::kInjectFastPathRuns)
        .value();
}

uint64_t
fallbacks(const char *reason)
{
    return obs::Registry::global()
        .counter(obs::metric::kInjectFastPathFallbacks,
                 std::string("reason=\"") + reason + "\"")
        .value();
}

/** A model that plans the same events for every run. */
class FixedPlan final : public models::ErrorModel
{
  public:
    explicit FixedPlan(std::vector<sim::InjectionEvent> events)
        : events_(std::move(events))
    {
    }
    models::ModelKind kind() const override
    {
        return models::ModelKind::DA;
    }
    std::string describe() const override { return "fixed"; }
    std::vector<sim::InjectionEvent>
    plan(const models::ProgramProfile &, Rng &) const override
    {
        return events_;
    }
    double expectedErrors(const models::ProgramProfile &) const override
    {
        return static_cast<double>(events_.size());
    }

  private:
    std::vector<sim::InjectionEvent> events_;
};

sim::InjectionEvent
anyDest(uint64_t index, uint64_t mask)
{
    sim::InjectionEvent e{};
    e.kind = sim::InjectionEvent::Kind::AnyDest;
    e.index = index;
    e.mask = mask;
    return e;
}

/** Static indices of the hand-built program's target instructions. */
struct Targets
{
    size_t base;  ///< addi x6: the next load's base
    size_t flag;  ///< addi x11: a branch operand
    size_t link;  ///< jal x1: the link a JALR returns through
    size_t value; ///< addi x12: only ever stored to the output
    size_t keep;  ///< addi x24: read on a golden wrong path
};

/**
 * A straight-line prefix (committed index == static index) holding
 * one instance of each kind of target, then a taken branch whose
 * first execution the bimodal predictor misses, so the instances after
 * it run on a golden wrong path first.
 */
workloads::Workload
handBuilt(Targets &t)
{
    isa::AsmBuilder b("fastpath");
    b.dataDoubles("vals", {1.0, 2.0});
    b.dataI64("words", {11, 22, 33});
    b.dataSpace("out", 64);
    b.la(5, "words");
    b.la(8, "vals");
    b.la(9, "out");
    b.fld(1, 8, 0);
    b.fld(2, 8, 8);
    t.base = b.numInstructions();
    b.addi(6, 5, 0);
    b.ld(7, 6, 8);
    t.flag = b.numInstructions();
    b.addi(11, 0, 1);
    auto skip = b.newLabel();
    b.beq(11, 0, skip);
    b.addi(12, 0, 3);
    b.bind(skip);
    b.fsub_d(3, 2, 1); // 1.0: the divisor below
    b.fdiv_d(4, 1, 3);
    t.value = b.numInstructions();
    b.addi(12, 12, 4);
    b.sd(12, 9, 8); // before the wrong path, which stores too
    t.keep = b.numInstructions();
    b.addi(24, 0, 7);
    auto func = b.newLabel();
    t.link = b.numInstructions();
    b.call(func);
    b.div(21, 7, 11); // long latency: the wrong path runs meanwhile
    auto target = b.newLabel();
    b.beq(21, 21, target);
    b.beq(24, 0, target); // a branch operand: a timed read
    b.addi(26, 9, 48);    // an address: not inert
    b.ld(27, 26, 0);
    b.addi(28, 0, 9); // read by nothing: inert
    b.bind(target);
    b.sd(7, 9, 0);
    b.fsd(4, 9, 16);
    b.sd(24, 9, 24);
    b.sd(21, 9, 32);
    b.sd(13, 9, 40);
    b.halt();
    b.bind(func);
    b.addi(13, 0, 5);
    b.ret();
    workloads::Workload w;
    w.name = "fastpath";
    w.program = b.build();
    w.outputSymbols = {"out"};
    return w;
}

/** Completion index of committed instance `index` in the AnyDest map. */
uint64_t
completionOf(const sim::GoldenTimeline &tl, uint64_t index)
{
    auto it = std::find(tl.anyDest.begin(), tl.anyDest.end(), index);
    EXPECT_NE(it, tl.anyDest.end()) << "instance " << index;
    return static_cast<uint64_t>(it - tl.anyDest.begin());
}

} // namespace

TEST(InjectFastPath, RecordsMatchTheOooCore)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "tea_fastpath_models";
    fs::remove_all(root);

    // The benchmark's grid sizes (perfbench/driver.cc).
    core::ToolflowOptions opt;
    opt.cacheDir = root.string();
    opt.threads = 2;
    opt.iaCountPerOp = 500;
    opt.waMaxOps = 2500;
    opt.daSampleOps = 2500;
    core::Toolflow tf(opt);
    constexpr uint64_t kRuns = 20;

    std::map<std::string, uint64_t> taken;
    for (double vr : opt.vrLevels) {
        auto da = tf.daModel(vr);
        auto ia = tf.iaModel(vr);
        for (const auto &name : workloads::workloadNames()) {
            const InjectionCampaign &camp = tf.campaign(name);
            auto wa = tf.waModel(name, vr);
            const models::ErrorModel *cell[] = {&da, &ia, &wa};
            for (const models::ErrorModel *model : cell) {
                // Pool threads share the campaign's golden data.
                std::vector<Record> fast(kRuns), ooo(kRuns);
                Rng base = Rng(opt.seed).split();
                uint64_t before = fastRuns();
                tf.pool().parallelFor(0, kRuns, [&](uint64_t i, unsigned) {
                    Rng a = base.fork(i), b = base.fork(i);
                    fast[i] = camp.executeOne(*model, a);
                    ooo[i] = camp.simulateOne(*model, b);
                });
                taken[name] += fastRuns() - before;
                for (uint64_t i = 0; i < kRuns; ++i)
                    EXPECT_TRUE(sameRecord(fast[i], ooo[i]))
                        << name << " " << model->describe() << " VR "
                        << vr << " run " << i << ": fast "
                        << describe(fast[i]) << " vs OoO "
                        << describe(ooo[i]);
            }
        }
    }
    // The fast path must really fire where value-only runs are common.
    for (const char *name : {"mg", "cg", "hotspot"})
        EXPECT_GT(taken[name], 0u) << name;
    fs::remove_all(root);

    // Hand-built plans, one per fallback rule and one the fast path
    // keeps.
    Targets t{};
    workloads::Workload w = handBuilt(t);
    InjectionCampaign camp(w);
    sim::GoldenTimeline tl;
    sim::OooSim golden(w.program);
    golden.recordTimeline(&tl);
    ASSERT_EQ(golden.run(~0ULL).status, sim::OooSim::Status::Halted);
    // Wrong-path completions whose value an issued instance used for
    // timing (a bare kWrongPath entry) and one whose value nothing read.
    using sim::GoldenTimeline;
    auto wrong = std::find(tl.anyDest.begin(), tl.anyDest.end(),
                           GoldenTimeline::kWrongPath);
    auto inert = std::find_if(tl.anyDest.begin(), tl.anyDest.end(),
                              [](uint64_t v) {
                                  return (v & GoldenTimeline::kInert) != 0;
                              });
    ASSERT_NE(wrong, tl.anyDest.end()) << "no timed wrong-path value";
    ASSERT_NE(inert, tl.anyDest.end()) << "no inert wrong-path value";
    auto wrongIndex = static_cast<uint64_t>(wrong - tl.anyDest.begin());
    auto inertIndex = static_cast<uint64_t>(inert - tl.anyDest.begin());

    sim::InjectionEvent divisor{};
    divisor.kind = sim::InjectionEvent::Kind::FpOp;
    divisor.op = fpu::FpuOp::SubD;
    divisor.index = 0;
    divisor.mask = 0x3FF0000000000000ULL; // 1.0 -> 0.0: div by zero

    struct Case
    {
        const char *what;
        sim::InjectionEvent event;
        const char *reason; ///< expected fallback; null = fast path
        inject::Outcome outcome = inject::Outcome::SDC; ///< fast path
        uint64_t wrongPath = 0; ///< fast path: squashed victims
    };
    const Case cases[] = {
        {"wrong-path instance", anyDest(wrongIndex, 1),
         "wrong_path_event"},
        {"branch operand", anyDest(completionOf(tl, t.flag), 1),
         "control"},
        {"JALR link", anyDest(completionOf(tl, t.link), 8), "control"},
        {"load base", anyDest(completionOf(tl, t.base), 8), "control"},
        {"severe FP", divisor, "trap"},
        {"wrong-path read", anyDest(completionOf(tl, t.keep), 2),
         "footprint"},
        {"value only", anyDest(completionOf(tl, t.value), 16), nullptr},
        {"inert wrong-path value", anyDest(inertIndex, 1), nullptr,
         inject::Outcome::Masked, 1},
    };
    for (const Case &c : cases) {
        FixedPlan model({c.event});
        uint64_t fastBefore = fastRuns();
        uint64_t reasonBefore = c.reason ? fallbacks(c.reason) : 0;
        Rng a(3), b(3);
        Record fast = camp.executeOne(model, a);
        Record ooo = camp.simulateOne(model, b);
        EXPECT_TRUE(sameRecord(fast, ooo))
            << c.what << ": fast " << describe(fast) << " vs OoO "
            << describe(ooo);
        if (c.reason) {
            EXPECT_EQ(fallbacks(c.reason) - reasonBefore, 1u) << c.what;
            EXPECT_EQ(fastRuns(), fastBefore) << c.what;
        } else {
            EXPECT_EQ(fastRuns() - fastBefore, 1u) << c.what;
            EXPECT_EQ(fast.outcome, c.outcome) << c.what;
            EXPECT_EQ(fast.wrongPath, c.wrongPath) << c.what;
            EXPECT_EQ(fast.injected, 1u) << c.what;
        }
    }
}
