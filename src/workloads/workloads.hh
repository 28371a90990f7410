/**
 * @file
 * The seven evaluated workloads (Table II), re-implemented for TRISC-64.
 *
 * Each factory builds a Program via the AsmBuilder DSL together with
 * host-generated synthetic inputs (seeded, deterministic) and the
 * classification metadata the paper's Table II lists: which memory
 * regions constitute the checked output ("Image Output", "Verification
 * checking", "Clustering", "File Output") — SDC detection compares
 * those regions plus the console against the golden run.
 *
 * Inputs are scaled down from the paper's (which run up to 35.5e9
 * instructions on gem5) so that thousands of injection runs complete on
 * one laptop core; the `scale` parameter grows them back when more
 * fidelity is wanted.
 */

#ifndef TEA_WORKLOADS_WORKLOADS_HH
#define TEA_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace tea::workloads {

struct Workload
{
    std::string name;
    isa::Program program;
    std::string inputDesc;      ///< Table II "Input" column
    std::string classification; ///< Table II "Classification Criteria"
    /** Symbols whose memory regions are compared against the golden. */
    std::vector<std::string> outputSymbols;
    /**
     * True for the "-mt" variants that use the spawn/join/barrier ABI
     * and the per-core control page; they run on the N-core
     * simulators (sim::FuncSim, mc::McSim) and trap on sim::OooSim.
     * The flag picks the core count, the timing simulator and the
     * McClass refinement, nothing else.
     */
    bool threaded = false;
};

/** True when `name` denotes a threaded ("-mt") workload variant. */
bool isThreadedWorkload(const std::string &name);

/** The seven benchmark names, in the paper's Table II order. */
const std::vector<std::string> &workloadNames();

/** True when buildWorkload knows `name` (the seven and the -mt ones). */
bool isKnownWorkload(const std::string &name);

/**
 * The largest scale at which every workload still encodes: mg's finest
 * grid row (256 * scale + 8 bytes) must fit a load's 14-bit offset.
 */
constexpr int kMaxScale = 31;

/**
 * Build a workload by name ("sobel", "cg", "k-means", "srad_v1",
 * "hotspot", "is", "mg"). The seed makes the synthetic input
 * deterministic; scale in [1, kMaxScale] enlarges the input.
 */
Workload buildWorkload(const std::string &name, uint64_t seed = 1,
                       int scale = 1);

// Individual builders (exposed for tests).
Workload buildSobel(uint64_t seed, int scale);
Workload buildCg(uint64_t seed, int scale);
Workload buildKmeans(uint64_t seed, int scale);
Workload buildSrad(uint64_t seed, int scale);
Workload buildHotspot(uint64_t seed, int scale);
Workload buildIs(uint64_t seed, int scale);
Workload buildMg(uint64_t seed, int scale);

// Multi-threaded (SPMD) variants; not part of the Table II seven, so
// they are buildable by name but absent from workloadNames().
Workload buildKmeansMt(uint64_t seed, int scale);
Workload buildHotspotMt(uint64_t seed, int scale);

} // namespace tea::workloads

#endif // TEA_WORKLOADS_WORKLOADS_HH
