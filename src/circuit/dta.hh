/**
 * @file
 * Dynamic timing analysis (DTA) engines.
 *
 * DTA answers the question gate-level simulation answers in the paper's
 * flow: given the datapath state left by the *previous* operation and
 * the inputs of the *current* one, which output bits have settled by the
 * capture time? Bits still in flight latch stale values — exactly the
 * paper's XOR-against-golden timing-error bitmask.
 *
 * Two scalar engines share one interface (circuit/compiled_dta.hh holds
 * the batched one):
 *  - EventDrivenDta: exact transport-delay event simulation; models
 *    glitch trains and per-bit waveforms. The reference engine.
 *  - LevelizedDta: one topological pass computing (old value, new value,
 *    last-arrival estimate) per net; ~1-2 orders of magnitude faster and
 *    hazard-blind. Campaign-scale model building uses this engine; the
 *    ablation bench quantifies its disagreement with the exact one.
 */

#ifndef TEA_CIRCUIT_DTA_HH
#define TEA_CIRCUIT_DTA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/celllib.hh"
#include "circuit/netlist.hh"

namespace tea::circuit {

/** Outcome of one input-transition simulation. */
struct DtaResult
{
    /** Final (settled) value of every output bit, flat bus order. */
    std::vector<bool> settled;
    /** Value latched at the capture time, flat bus order. */
    std::vector<bool> captured;
    /** Last transition time per output bit (0 for stable bits). */
    std::vector<double> lastTransitionPs;
    /** Max last-transition over all outputs: the dynamic path delay. */
    double maxArrivalPs = 0.0;
    /** Processed event count (exact engine only; 0 for levelized). */
    size_t events = 0;

    /** True if any output bit latched a wrong value. */
    bool anyError() const;
    /**
     * Error bitmask over the output bits (captured ^ settled). Panics
     * when the netlist has more than 64 flat outputs: a wider result
     * cannot be represented, and silently dropping the extra bits
     * would corrupt error statistics.
     */
    uint64_t errorMask64() const;
};

/**
 * Engine interface. An engine instance is bound to one netlist, one
 * delay annotation, and one voltage operating point (delayScale); it is
 * stateful (scratch buffers) and not thread-safe.
 */
class DtaEngine
{
  public:
    virtual ~DtaEngine() = default;

    /**
     * Simulate the input transition prev -> cur and capture outputs at
     * captureTimePs (typically clock period minus setup).
     */
    virtual DtaResult run(const std::vector<bool> &prev,
                          const std::vector<bool> &cur,
                          double captureTimePs) = 0;

    virtual const Netlist &netlist() const = 0;
};

/** Exact transport-delay event-driven simulator. */
class EventDrivenDta : public DtaEngine
{
  public:
    EventDrivenDta(const Netlist &nl, const DelayAnnotation &annot,
                   double delayScale = 1.0);

    DtaResult run(const std::vector<bool> &prev,
                  const std::vector<bool> &cur,
                  double captureTimePs) override;

    const Netlist &netlist() const override { return nl_; }

  private:
    const Netlist &nl_;
    std::vector<double> delays_; ///< pre-scaled per-cell delays
    double clkToQ_;
};

/** Fast one-pass last-arrival approximation. */
class LevelizedDta : public DtaEngine
{
  public:
    LevelizedDta(const Netlist &nl, const DelayAnnotation &annot,
                 double delayScale = 1.0);

    DtaResult run(const std::vector<bool> &prev,
                  const std::vector<bool> &cur,
                  double captureTimePs) override;

    const Netlist &netlist() const override { return nl_; }

  private:
    const Netlist &nl_;
    std::vector<double> delays_;
    double clkToQ_;
    // Scratch buffers reused across run() calls. Arrival accumulates
    // in double so it classifies capture-edge samples exactly like the
    // event-driven engine.
    std::vector<uint8_t> oldVal_, newVal_;
    std::vector<double> arrival_;
};

} // namespace tea::circuit

#endif // TEA_CIRCUIT_DTA_HH
