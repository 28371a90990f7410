#include "sim/ooo_sim.hh"

#include <algorithm>

#include "sim/pipeline.hh"
#include "util/logging.hh"

namespace tea::sim {

InjectionPlan::InjectionPlan(const std::vector<InjectionEvent> &events)
{
    for (const auto &ev : events) {
        if (ev.kind == InjectionEvent::Kind::AnyDest)
            anyDest_.push_back({ev.index, ev.mask});
        else
            fpOp_[static_cast<size_t>(ev.op)].push_back(
                {ev.index, ev.mask});
    }
    auto cmp = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(anyDest_.begin(), anyDest_.end(), cmp);
    for (auto &v : fpOp_)
        std::sort(v.begin(), v.end(), cmp);
}

bool
InjectionPlan::empty() const
{
    if (!anyDest_.empty())
        return false;
    for (const auto &v : fpOp_)
        if (!v.empty())
            return false;
    return true;
}

size_t
InjectionPlan::totalEvents() const
{
    size_t n = anyDest_.size();
    for (const auto &v : fpOp_)
        n += v.size();
    return n;
}

namespace {

/**
 * Single-core port: one flat Memory behind a private L1, console
 * syscalls only. Reproduces the pre-refactor OooSim bit-for-bit.
 */
class FlatPort final : public CorePort
{
  public:
    FlatPort(Memory &mem, Console &console, const OooConfig &cfg)
        : mem_(mem), console_(console),
          cache_(cfg.l1Sets, cfg.l1Ways, cfg.l1LineBytes),
          latHit_(cfg.latCacheHit), latMiss_(cfg.latCacheMiss)
    {
    }

    LoadResult load(uint64_t addr, unsigned size) override
    {
        bool hit = cache_.access(addr, true);
        return {mem_.read(addr, size), hit ? latHit_ : latMiss_, 0};
    }

    void store(uint64_t addr, unsigned size, uint64_t value,
               uint32_t /*taint*/) override
    {
        mem_.write(addr, size, value);
        cache_.access(addr, true);
    }

    bool mapped(uint64_t addr, unsigned size,
                bool /*isStore*/) const override
    {
        return mem_.isMapped(addr, size);
    }

    Sys syscall(int func, uint64_t arg, TrapKind & /*trap*/) override
    {
        if (func == static_cast<int>(isa::Syscall::PrintInt) ||
            func == static_cast<int>(isa::Syscall::PrintFp))
            console_.push_back(arg);
        return Sys::Proceed;
    }

    const L1Cache &cache() const { return cache_; }

  private:
    Memory &mem_;
    Console &console_;
    L1Cache cache_;
    unsigned latHit_, latMiss_;
};

} // namespace

struct OooSim::Impl
{
    FlatPort port;
    CorePipeline pipe;

    Impl(const isa::Program &prog, const OooConfig &cfg,
         InjectionPlan plan, Memory &mem, Console &console)
        : port(mem, console, cfg),
          pipe(prog, cfg, std::move(plan), port, 0)
    {
    }
};

OooSim::OooSim(isa::Program prog, OooConfig cfg, InjectionPlan plan)
    : prog_(std::move(prog))
{
    mem_.loadProgram(prog_);
    impl_ = std::make_unique<Impl>(prog_, cfg, std::move(plan), mem_,
                                   console_);
}

OooSim::~OooSim() = default;

void
OooSim::recordTimeline(GoldenTimeline *tl)
{
    impl_->pipe.recordTimeline(tl);
}

OooSim::Result
OooSim::run(uint64_t maxCycles, const Watchdog *watchdog)
{
    CorePipeline &pipe = impl_->pipe;
    Result res{};
    res.status = Status::CycleLimit;
    res.trap = TrapKind::None;

    // ~4k cycles between polls keeps the steady_clock read off the
    // per-cycle path while still bounding a hung run to milliseconds
    // of overshoot.
    constexpr uint64_t kPollMask = 0xFFF;

    while (pipe.cycles() < maxCycles) {
        if (watchdog && (pipe.cycles() & kPollMask) == 0) {
            Watchdog::Stop stop = watchdog->poll();
            if (stop != Watchdog::Stop::None) {
                res.status = Status::Interrupted;
                res.stop = stop;
                break;
            }
        }
        TrapKind trap = TrapKind::None;
        auto step = pipe.step(trap);
        if (step == CorePipeline::Step::Halted) {
            res.status = Status::Halted;
            break;
        }
        if (step == CorePipeline::Step::Crashed) {
            res.status = Status::Crashed;
            res.trap = trap;
            break;
        }
    }

    if (res.status == Status::Halted)
        pipe.finishTimeline();
    res.cycles = pipe.cycles();
    res.committed = pipe.committed();
    res.executed = pipe.executed();
    res.injectionsApplied = pipe.injectionsApplied();
    res.injectionsOnWrongPath = pipe.injectionsOnWrongPath();
    res.branchMispredicts = pipe.branchMispredicts();
    res.cacheMisses = impl_->port.cache().misses;
    res.cacheAccesses = impl_->port.cache().accesses;
    res.squashedInstructions = pipe.squashedInstructions();
    return res;
}

} // namespace tea::sim
