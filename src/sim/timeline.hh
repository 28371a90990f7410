/**
 * @file
 * What a golden OoO run tells an injection run about its own timing.
 *
 * The OoO core's timing depends on values only through branch
 * outcomes, JALR targets, load/store addresses and traps; functional
 * unit latency depends on the opcode alone. So an injection run whose
 * corrupted values reach none of those, on any instance the core
 * executes, wrong-path ones included, executes the same instances in
 * the same cycles as the golden run. Checking that needs two facts
 * about the golden run, which `CorePipeline` records when handed a
 * `GoldenTimeline` (DESIGN.md §18):
 *
 *  - which instance each injection event hits. Events count executed
 *    instances in completion order per category; the timeline maps
 *    each completion index to the committed instance it was, or to the
 *    wrong-path instance it was, noting whether an instance that
 *    issued before the squash used its value (transitively) for a
 *    branch, a JALR target, an address or a store;
 *  - what each golden wrong path read: the registers and memory words
 *    whose values its instances used, keyed by the commit position of
 *    the instruction whose squash ended it.
 */

#ifndef TEA_SIM_TIMELINE_HH
#define TEA_SIM_TIMELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "fpu/fpu_types.hh"

namespace tea::sim {

struct GoldenTimeline
{
    /**
     * Map entries of completions that never committed: kWrongPath,
     * with kInert when no issued instance used the value for timing,
     * and the instance's serial number in the low bits (inert ones
     * only). A bare kWrongPath is never safe to inject into.
     */
    static constexpr uint64_t kWrongPath = 1ULL << 63;
    static constexpr uint64_t kInert = 1ULL << 62;
    static constexpr uint64_t kSerialMask = kInert - 1;

    /**
     * Per injection category, completion index -> committed
     * instruction index (0-based, program order) or a wrong-path
     * entry.
     */
    std::vector<uint64_t> anyDest;
    std::array<std::vector<uint64_t>, fpu::kNumFpuOps> fpOp;

    /** The reads of the wrong paths squashed at one commit position. */
    struct Footprint
    {
        /** Committed instructions when they ran: the state they saw. */
        uint64_t retired;
        uint32_t xregs; ///< integer registers read (bit r = x_r)
        uint32_t fregs; ///< FP registers read
        /** [wordBegin, wordEnd) of `words`. */
        uint32_t wordBegin, wordEnd;
    };
    /** Ascending in `retired`; one entry per position. */
    std::vector<Footprint> footprints;
    /** 8-byte-aligned memory words loaded by wrong-path instances. */
    std::vector<uint64_t> words;

    /** Instructions the golden run committed, HALT included. */
    uint64_t committed = 0;
};

} // namespace tea::sim

#endif // TEA_SIM_TIMELINE_HH
