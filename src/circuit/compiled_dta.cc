#include "circuit/compiled_dta.hh"

#include "util/logging.hh"
#include "util/simd.hh"

namespace tea::circuit {

namespace {

const DtaKernelTable &
activeKernels()
{
    simd::Isa isa = simd::activeIsa();
#if defined(TEA_SIMD_AVX512)
    if (isa == simd::Isa::Avx512)
        return dtaKernelsAvx512();
#endif
#if defined(TEA_SIMD_AVX2)
    if (isa == simd::Isa::Avx2)
        return dtaKernelsAvx2();
#endif
    (void)isa;
    return dtaKernelsPortable();
}

} // namespace

unsigned
CompiledDta::wordsFor(unsigned lanes)
{
    if (lanes <= 64)
        return 1;
    if (lanes <= 128)
        return 2;
    if (lanes <= 256)
        return 4;
    return 8;
}

CompiledDta::CompiledDta(const Netlist &nl, const DelayAnnotation &annot,
                         double delayScale)
    : nl_(nl), annot_(annot), delayScale_(delayScale)
{
}

bool
CompiledDta::prepare(double captureTimePs)
{
    if (compiledFor_ == captureTimePs)
        return false;
    prog_ = compileDtaProgram(nl_, annot_, delayScale_, captureTimePs);
    compiledFor_ = captureTimePs;
    // The arrival arena depends on the program; force a re-size (and
    // a re-fill of the shared clk-to-Q row) on the next batch.
    scratchW_ = 0;
    return true;
}

const WideBatch &
CompiledDta::runBatch(const std::vector<uint64_t> &prev,
                      const std::vector<uint64_t> &cur,
                      const std::vector<uint64_t> &golden,
                      double captureTimePs, unsigned lanes)
{
    panic_if(lanes == 0 || lanes > kMaxLanes,
             "CompiledDta: bad lane count %u", lanes);
    const unsigned W = wordsFor(lanes);
    const size_t nIn = nl_.numInputs();
    panic_if(prev.size() != nIn * W || cur.size() != nIn * W ||
                 golden.size() != nIn * W,
             "CompiledDta: bad input plane count");

    prepare(captureTimePs);

    const size_t nOut = nl_.flatOutputs().size();
    if (scratchW_ != W) {
        slots_.assign(size_t{prog_.numSlots} * 3 * W, 0);
        toggles_.assign(size_t{prog_.numToggleRows} * W, 0);
        // Word-major arena: one numArrivalRows x 64 slice per plane
        // word, so the timing pass stays cache-blocked per word.
        arrivals_.assign(size_t{prog_.numArrivalRows} * 64 * W, 0.0);
        const size_t wordArena = size_t{prog_.numArrivalRows} * 64;
        for (unsigned w = 0; w < W; ++w)
            for (unsigned l = 0; l < 64; ++l)
                arrivals_[w * wordArena + l] =
                    prog_.clkToQPs; // shared input row
        dirty_.resize(prog_.tnodes.size());
        laneMask_.resize(W);
        batch_.W = W;
        batch_.settled.resize(nOut * W);
        batch_.captured.resize(nOut * W);
        batch_.golden.resize(nOut * W);
        batch_.maxArrivalPs.resize(size_t{64} * W);
        scratchW_ = W;
    }
    for (unsigned w = 0; w < W; ++w) {
        unsigned lo = w * 64;
        laneMask_[w] = lanes >= lo + 64
                           ? ~0ULL
                           : (lanes <= lo ? 0
                                          : (1ULL << (lanes - lo)) - 1);
    }
    std::fill(batch_.maxArrivalPs.begin(), batch_.maxArrivalPs.end(),
              0.0);

    DtaBatchCtx ctx;
    ctx.W = W;
    ctx.prev = prev.data();
    ctx.cur = cur.data();
    ctx.golden = golden.data();
    ctx.slots = slots_.data();
    ctx.toggles = toggles_.data();
    ctx.arrivals = arrivals_.data();
    ctx.dirty = dirty_.data();
    ctx.laneMask = laneMask_.data();
    ctx.captured = batch_.captured.data();
    ctx.maxArr = batch_.maxArrivalPs.data();
    ctx.captureTimePs = captureTimePs;

    const DtaKernelTable &k = activeKernels();
    k.valueSweep(prog_, ctx);

    // Settled (new plane), golden, and the captured starting point.
    for (size_t o = 0; o < nOut; ++o) {
        const uint64_t *s =
            slots_.data() + size_t{prog_.outSlot[o]} * 3 * W;
        for (unsigned w = 0; w < W; ++w) {
            batch_.settled[o * W + w] = s[W + w];
            batch_.captured[o * W + w] = s[W + w];
            batch_.golden[o * W + w] = s[2 * W + w];
        }
    }

    k.timingPass(prog_, ctx);
    return batch_;
}

} // namespace tea::circuit
