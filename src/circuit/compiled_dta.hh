/**
 * @file
 * Compiled-netlist DTA engine: executes the specialized program
 * produced by compileDtaProgram (see dta_program.hh) over SIMD-wide
 * lane planes — up to 512 samples per batch, 64 per plane word.
 *
 * Relationship to the other engines:
 *  - LevelizedDta is the scalar oracle: one sample per run() call.
 *  - EventDrivenDta is the exact hazard-aware reference.
 *  - CompiledDta, the one batched engine, runs the levelized
 *    recurrences from a pre-lowered straight-line program (constants
 *    folded, copies propagated, dead cells dropped, timing fanins
 *    pre-filtered) on planes of 1..8 words, dispatched to portable /
 *    AVX2 / AVX-512 kernels at runtime (util/simd.hh). Results are
 *    bit-identical to LevelizedDta per lane at every width and every
 *    ISA level.
 *
 * Like the other engines an instance is bound to one netlist,
 * annotation, and delay scale, owns scratch, and is not thread-safe;
 * the returned batch references scratch valid until the next call.
 */

#ifndef TEA_CIRCUIT_COMPILED_DTA_HH
#define TEA_CIRCUIT_COMPILED_DTA_HH

#include <cstdint>
#include <vector>

#include "circuit/dta_program.hh"
#include "circuit/netlist.hh"

namespace tea::circuit {

/**
 * Result of one wide batch: `W` 64-bit words per flat output bit,
 * word-major per output (lane l lives in word l/64, bit l%64). Bits at
 * lane positions >= the batch's lane count are unspecified.
 */
struct WideBatch
{
    unsigned W = 1; ///< plane width in words
    std::vector<uint64_t> settled;  ///< numOuts x W
    std::vector<uint64_t> captured; ///< numOuts x W
    std::vector<uint64_t> golden;   ///< numOuts x W (zero-delay eval)
    /**
     * Worst dynamic arrival per lane (64 * W entries), over the
     * capture-risky cone: exact whenever it exceeds the capture time
     * (every faulty lane), else a lower bound that may be 0. The
     * cone is every cell on some static path longer than the capture
     * time; a dynamically late chain is itself such a path, so
     * restricting the timing pass to it changes no capture decision.
     */
    std::vector<double> maxArrivalPs;
};

class CompiledDta
{
  public:
    static constexpr unsigned kMaxLanes = 512;

    /** Plane width in words for a lane count: 1, 2, 4 or 8. */
    static unsigned wordsFor(unsigned lanes);

    CompiledDta(const Netlist &nl, const DelayAnnotation &annot,
                double delayScale = 1.0);

    /**
     * Lower the netlist for `captureTimePs` if not already compiled
     * for it. Idempotent; runBatch calls it implicitly. Public so the
     * fpu layer can time compilation (obs: tea_dta_compile_ms).
     * @return true when this call actually (re)compiled.
     */
    bool prepare(double captureTimePs);

    /** The lowered program, or nullptr before the first prepare(). */
    const DtaProgram *program() const
    {
        return compiledFor_ >= 0.0 ? &prog_ : nullptr;
    }

    /**
     * Simulate `lanes` transitions prev -> cur at once, including the
     * zero-delay golden evaluation of `cur` (the third plane of the
     * fused sweep — there is no separate evalBatch). Each input plane
     * vector holds wordsFor(lanes) words per primary input,
     * input-major.
     */
    const WideBatch &runBatch(const std::vector<uint64_t> &prev,
                              const std::vector<uint64_t> &cur,
                              const std::vector<uint64_t> &golden,
                              double captureTimePs, unsigned lanes);

    const Netlist &netlist() const { return nl_; }

  private:
    const Netlist &nl_;
    const DelayAnnotation &annot_;
    double delayScale_;
    double compiledFor_ = -1.0; ///< capture time of prog_, <0 = none
    DtaProgram prog_;
    // Scratch reused across calls (sized on first use per width).
    unsigned scratchW_ = 0;
    std::vector<uint64_t> slots_, toggles_, laneMask_;
    std::vector<double> arrivals_;
    std::vector<uint32_t> dirty_;
    WideBatch batch_;
};

} // namespace tea::circuit

#endif // TEA_CIRCUIT_COMPILED_DTA_HH
