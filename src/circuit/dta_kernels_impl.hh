/**
 * @file
 * Compiled-DTA kernel bodies, included once per ISA translation unit.
 * The including TU defines:
 *
 *   TEA_DTA_NS         namespace for this specialization
 *   TEA_DTA_ISA_LEVEL  0 = portable, 1 = AVX2, 2 = AVX-512
 *
 * and is compiled with the matching -m flags (see
 * src/circuit/CMakeLists.txt). Every level computes bit-identical
 * results: the value sweep is pure 64-bit boolean algebra, and the
 * dense timing path performs the same per-lane double max/add/compare
 * chain as the scalar loop — lanes are independent, the operations
 * are IEEE-exact, and a masked-out fanin contributes +0.0 exactly as
 * the scalar code's "skip" does (the running max starts at +0.0 and
 * arrivals are non-negative).
 */

#include <algorithm>
#include <cstdint>

#include "circuit/dta_program.hh"
#include "util/logging.hh"

#if TEA_DTA_ISA_LEVEL >= 1
#include <immintrin.h>
#endif

namespace tea::circuit {
namespace TEA_DTA_NS {
namespace {

// ---------------------------------------------------------------- value sweep

/**
 * Evaluate the straight-line value program over `W`-word planes. Each
 * slot holds three planes back to back (old, new, golden), so every
 * boolean op runs one loop over 3*W contiguous words — the compiler
 * vectorizes these with whatever this TU's -m flags allow.
 */
template <unsigned W>
void
sweepImpl(const DtaProgram &p, DtaBatchCtx &ctx)
{
    constexpr unsigned S = 3 * W; // words per slot
    uint64_t *const slots = ctx.slots;
    uint64_t *const toggles = ctx.toggles;
    const uint64_t *const lm = ctx.laneMask;
    ctx.dirtyCount = 0;

    for (const DtaInsn &in : p.insns) {
        uint64_t *const d = slots + size_t{in.dst} * S;
        switch (in.op) {
          case DtaOp::Input: {
            const uint64_t *pv = ctx.prev + size_t{in.a} * W;
            const uint64_t *cv = ctx.cur + size_t{in.a} * W;
            const uint64_t *gv = ctx.golden + size_t{in.a} * W;
            for (unsigned i = 0; i < W; ++i) {
                d[i] = pv[i];
                d[W + i] = cv[i];
                d[2 * W + i] = gv[i];
            }
            break;
          }
          case DtaOp::Const0:
            for (unsigned i = 0; i < S; ++i)
                d[i] = 0;
            break;
          case DtaOp::Const1:
            for (unsigned i = 0; i < S; ++i)
                d[i] = ~0ULL;
            break;
          case DtaOp::Copy:
            // dst aliases a by construction; only the toggle store
            // below does work.
            break;
          case DtaOp::Not: {
            const uint64_t *a = slots + size_t{in.a} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = ~a[i];
            break;
          }
          case DtaOp::And2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = a[i] & b[i];
            break;
          }
          case DtaOp::Or2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = a[i] | b[i];
            break;
          }
          case DtaOp::Xor2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = a[i] ^ b[i];
            break;
          }
          case DtaOp::Nand2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = ~(a[i] & b[i]);
            break;
          }
          case DtaOp::Nor2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = ~(a[i] | b[i]);
            break;
          }
          case DtaOp::Xnor2: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = ~(a[i] ^ b[i]);
            break;
          }
          case DtaOp::Mux2: {
            // Operands (sel=a, a0=b, b1=c): sel ? c : b.
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            const uint64_t *c = slots + size_t{in.c} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = (a[i] & c[i]) | (~a[i] & b[i]);
            break;
          }
          case DtaOp::Maj3: {
            const uint64_t *a = slots + size_t{in.a} * S;
            const uint64_t *b = slots + size_t{in.b} * S;
            const uint64_t *c = slots + size_t{in.c} * S;
            for (unsigned i = 0; i < S; ++i)
                d[i] = (a[i] & b[i]) | (a[i] & c[i]) | (b[i] & c[i]);
            break;
          }
        }
        if (in.trow != kDtaNone) {
            uint64_t *t = toggles + size_t{in.trow} * W;
            uint64_t any = 0;
            for (unsigned i = 0; i < W; ++i) {
                uint64_t tw = (d[i] ^ d[W + i]) & lm[i];
                t[i] = tw;
                any |= tw;
            }
            if (any && in.tnode != kDtaNone)
                ctx.dirty[ctx.dirtyCount++] = in.tnode;
        }
    }
}

// ---------------------------------------------------------------- timing pass

/**
 * Toggle density at which the branchless all-64-lane recurrence beats
 * the ctz walk for one word. The dense path touches every lane; the
 * sparse path pays per set bit.
 */
constexpr int kDenseCutoff = 2;

/**
 * Dense per-word recurrence: compute `worst + delay` for all 64 lanes
 * at once, masking each fanin's contribution by its toggle bits, then
 * prune `arr + remaining <= cap` lanes out of the toggle word. The
 * arrival row is stored unconditionally — lanes whose toggle bit is
 * clear (or was just pruned) get garbage, which is harmless because
 * every read of an arrival row is guarded by the matching toggle bit.
 * Templated on the fanin count so the per-group loop fully unrolls.
 */
template <unsigned NF>
inline uint64_t
denseWord(uint64_t t, const double *const *frow, const uint64_t *ftw,
          double *row, double d, double rem, double cap)
{
#if TEA_DTA_ISA_LEVEL >= 2
    const __m512d vd = _mm512_set1_pd(d);
    const __m512d vrem = _mm512_set1_pd(rem);
    const __m512d vcap = _mm512_set1_pd(cap);
    uint64_t keep = 0;
    for (unsigned g = 0; g < 8; ++g) {
        __m512d worst = _mm512_setzero_pd();
        for (unsigned i = 0; i < NF; ++i) {
            __mmask8 k = static_cast<__mmask8>(ftw[i] >> (8 * g));
            worst = _mm512_mask_max_pd(
                worst, k, worst, _mm512_loadu_pd(frow[i] + 8 * g));
        }
        __m512d arr = _mm512_add_pd(worst, vd);
        _mm512_storeu_pd(row + 8 * g, arr);
        __mmask8 k = _mm512_cmp_pd_mask(_mm512_add_pd(arr, vrem),
                                        vcap, _CMP_GT_OQ);
        keep |= uint64_t{k} << (8 * g);
    }
    return t & keep;
#elif TEA_DTA_ISA_LEVEL >= 1
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d vrem = _mm256_set1_pd(rem);
    const __m256d vcap = _mm256_set1_pd(cap);
    const __m256i base = _mm256_set_epi64x(8, 4, 2, 1);
    uint64_t keep = 0;
    for (unsigned g = 0; g < 16; ++g) {
        const __m256i vbit = _mm256_slli_epi64(base,
                                               static_cast<int>(4 * g));
        __m256d worst = _mm256_setzero_pd();
        for (unsigned i = 0; i < NF; ++i) {
            __m256i vt = _mm256_set1_epi64x(
                static_cast<long long>(ftw[i]));
            __m256d m = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_and_si256(vt, vbit), vbit));
            // Arrivals are non-negative, so masking to +0.0 and
            // taking the max equals the scalar "skip this fanin".
            __m256d v =
                _mm256_and_pd(_mm256_loadu_pd(frow[i] + 4 * g), m);
            worst = _mm256_max_pd(worst, v);
        }
        __m256d arr = _mm256_add_pd(worst, vd);
        _mm256_storeu_pd(row + 4 * g, arr);
        int k = _mm256_movemask_pd(_mm256_cmp_pd(
            _mm256_add_pd(arr, vrem), vcap, _CMP_GT_OQ));
        keep |= uint64_t(static_cast<unsigned>(k)) << (4 * g);
    }
    return t & keep;
#else
    double worst[64];
    for (unsigned l = 0; l < 64; ++l)
        worst[l] = 0.0;
    for (unsigned i = 0; i < NF; ++i) {
        const double *fr = frow[i];
        const uint64_t tw = ftw[i];
        for (unsigned l = 0; l < 64; ++l) {
            double v = (tw >> l) & 1 ? fr[l] : 0.0;
            worst[l] = std::max(worst[l], v);
        }
    }
    uint64_t keep = 0;
    for (unsigned l = 0; l < 64; ++l) {
        double arr = worst[l] + d;
        row[l] = arr;
        if (arr + rem > cap)
            keep |= 1ULL << l;
    }
    return t & keep;
#endif
}

/**
 * Timing recurrence over ONE 64-lane word of the batch. Word-major
 * processing keeps the working set — the word's arrival arena slice
 * (`arr`, numArrivalRows x 64 doubles) plus the toggle arena — cache
 * resident even for 512-lane batches, where a node-major walk would
 * stream an 8x larger arena through L3 once per node visit.
 *
 * The dirty list is in topological order (the value sweep visits
 * cells that way), so every fanin's arrival row and post-prune toggle
 * word are final before a node reads them.
 */
template <unsigned W>
inline void
timingWord(const DtaProgram &p, DtaBatchCtx &ctx, unsigned w,
           double *arr)
{
    const double cap = ctx.captureTimePs;
    uint64_t *const toggles = ctx.toggles;
    for (uint32_t di = 0; di < ctx.dirtyCount; ++di) {
        const DtaTimingNode &nd = p.tnodes[ctx.dirty[di]];
        uint64_t *const tp = &toggles[size_t{nd.trow} * W + w];
        uint64_t t = *tp;
        if (!t)
            continue;
        const DtaTimingFanin *const fans =
            p.tfanins.data() + nd.faninBegin;
        const unsigned nf = nd.faninCount;
        uint64_t ftw[3] = {0, 0, 0};
        uint64_t funion = 0;
        for (unsigned i = 0; i < nf; ++i) {
            ftw[i] = toggles[size_t{fans[i].trow} * W + w];
            funion |= ftw[i];
        }
        if (!nd.orphanLate) {
            // Lanes with no toggled fanin would compute
            // arr = 0 + delay and be pruned (delay + remaining <=
            // cap); clear them without touching the FP arena. This
            // is what collapses prune cascades to bitwise ops.
            t &= funion;
            *tp = t;
            if (!t)
                continue;
        }
        const double d = nd.delayPs;
        const double rem = nd.remainingPs;
        const double *frow[3] = {nullptr, nullptr, nullptr};
        for (unsigned i = 0; i < nf; ++i)
            frow[i] = arr + size_t{fans[i].arow} * 64;
        double *const row = arr + size_t{nd.arow} * 64;
        if (__builtin_popcountll(t) >= kDenseCutoff) {
            switch (nf) {
              case 0:
                t = denseWord<0>(t, frow, ftw, row, d, rem, cap);
                break;
              case 1:
                t = denseWord<1>(t, frow, ftw, row, d, rem, cap);
                break;
              case 2:
                t = denseWord<2>(t, frow, ftw, row, d, rem, cap);
                break;
              default:
                t = denseWord<3>(t, frow, ftw, row, d, rem, cap);
                break;
            }
            *tp = t;
        } else {
            while (t) {
                const unsigned l =
                    static_cast<unsigned>(__builtin_ctzll(t));
                const uint64_t bit = t & (~t + 1);
                t &= t - 1;
                double worst = 0.0;
                for (unsigned i = 0; i < nf; ++i)
                    if (ftw[i] & bit)
                        worst = std::max(worst, frow[i][l]);
                double a = worst + d;
                if (a + rem <= cap) {
                    *tp &= ~bit;
                    continue;
                }
                row[l] = a;
            }
        }
    }

    // Capture-edge pass: flip captured bits whose toggled output
    // arrives after the capture time, and accumulate per-lane worst
    // output arrivals (maxArr is zeroed by the caller).
    const double cap2 = ctx.captureTimePs;
    double *const ma = ctx.maxArr + 64 * w;
    for (const DtaTimingOut &o : p.touts) {
        uint64_t t = toggles[size_t{o.trow} * W + w];
        const double *const row = arr + size_t{o.arow} * 64;
        uint64_t *const capt = ctx.captured + size_t{o.outIdx} * W + w;
        while (t) {
            const unsigned l =
                static_cast<unsigned>(__builtin_ctzll(t));
            const uint64_t bit = t & (~t + 1);
            t &= t - 1;
            const double a = row[l];
            if (a > ma[l])
                ma[l] = a;
            if (a > cap2)
                *capt ^= bit;
        }
    }
}

template <unsigned W>
void
timingImpl(const DtaProgram &p, DtaBatchCtx &ctx)
{
    const size_t wordArena = size_t{p.numArrivalRows} * 64;
    for (unsigned w = 0; w < W; ++w)
        timingWord<W>(p, ctx, w, ctx.arrivals + w * wordArena);
}

void
valueSweep(const DtaProgram &p, DtaBatchCtx &ctx)
{
    switch (ctx.W) {
      case 1:
        sweepImpl<1>(p, ctx);
        break;
      case 2:
        sweepImpl<2>(p, ctx);
        break;
      case 4:
        sweepImpl<4>(p, ctx);
        break;
      case 8:
        sweepImpl<8>(p, ctx);
        break;
      default:
        panic("compiled DTA: unsupported plane width %u", ctx.W);
    }
}

void
timingPass(const DtaProgram &p, DtaBatchCtx &ctx)
{
    switch (ctx.W) {
      case 1:
        timingImpl<1>(p, ctx);
        break;
      case 2:
        timingImpl<2>(p, ctx);
        break;
      case 4:
        timingImpl<4>(p, ctx);
        break;
      case 8:
        timingImpl<8>(p, ctx);
        break;
      default:
        panic("compiled DTA: unsupported plane width %u", ctx.W);
    }
}

} // namespace

const DtaKernelTable &
kernels()
{
    static const DtaKernelTable table{&valueSweep, &timingPass};
    return table;
}

} // namespace TEA_DTA_NS
} // namespace tea::circuit
