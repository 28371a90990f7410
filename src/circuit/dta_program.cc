#include "circuit/dta_program.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace tea::circuit {

namespace {

/**
 * Value references during folding: a cell id, or one of two virtual
 * constant cells appended after the real ones (so slot allocation can
 * treat constants uniformly).
 */
constexpr NetId kRefC0 = invalidNet - 2;
constexpr NetId kRefC1 = invalidNet - 1;

inline bool
isConstRef(NetId r)
{
    return r == kRefC0 || r == kRefC1;
}

/** Folded form of one cell. */
struct Folded
{
    enum class Kind : uint8_t
    {
        Ref, ///< value equals `ops[0]` (alias or constant)
        Op,  ///< compute `op` over `ops[0..nops)`
    };
    Kind kind = Kind::Ref;
    DtaOp op = DtaOp::Copy;
    NetId ops[3] = {invalidNet, invalidNet, invalidNet};
    uint8_t nops = 0;
};

Folded
refTo(NetId r)
{
    Folded f;
    f.kind = Folded::Kind::Ref;
    f.ops[0] = r;
    f.nops = 1;
    return f;
}

Folded
opOf(DtaOp op, NetId a, NetId b = invalidNet, NetId c = invalidNet)
{
    Folded f;
    f.kind = Folded::Kind::Op;
    f.op = op;
    f.ops[0] = a;
    f.ops[1] = b;
    f.ops[2] = c;
    f.nops = c != invalidNet ? 3 : (b != invalidNet ? 2 : 1);
    return f;
}

/**
 * Simplify one cell after substituting its fanins' value references.
 * Rules are pure boolean identities, so they hold for all three lane
 * planes (faulty-old, faulty-new, golden) at once and never change a
 * toggle plane — only how it is computed.
 */
Folded
foldCell(CellKind kind, NetId r0, NetId r1, NetId r2)
{
    auto c0 = [](NetId r) { return r == kRefC0; };
    auto c1 = [](NetId r) { return r == kRefC1; };
    switch (kind) {
      case CellKind::Buf:
        return refTo(r0);
      case CellKind::Not:
        if (c0(r0))
            return refTo(kRefC1);
        if (c1(r0))
            return refTo(kRefC0);
        return opOf(DtaOp::Not, r0);
      case CellKind::And2:
        if (c0(r0) || c0(r1))
            return refTo(kRefC0);
        if (c1(r0))
            return refTo(r1);
        if (c1(r1) || r0 == r1)
            return refTo(r0);
        return opOf(DtaOp::And2, r0, r1);
      case CellKind::Or2:
        if (c1(r0) || c1(r1))
            return refTo(kRefC1);
        if (c0(r0))
            return refTo(r1);
        if (c0(r1) || r0 == r1)
            return refTo(r0);
        return opOf(DtaOp::Or2, r0, r1);
      case CellKind::Xor2:
        if (isConstRef(r0) && isConstRef(r1))
            return refTo(r0 == r1 ? kRefC0 : kRefC1);
        if (c0(r0))
            return refTo(r1);
        if (c0(r1))
            return refTo(r0);
        if (c1(r0))
            return opOf(DtaOp::Not, r1);
        if (c1(r1))
            return opOf(DtaOp::Not, r0);
        if (r0 == r1)
            return refTo(kRefC0);
        return opOf(DtaOp::Xor2, r0, r1);
      case CellKind::Xnor2:
        if (isConstRef(r0) && isConstRef(r1))
            return refTo(r0 == r1 ? kRefC1 : kRefC0);
        if (c1(r0))
            return refTo(r1);
        if (c1(r1))
            return refTo(r0);
        if (c0(r0))
            return opOf(DtaOp::Not, r1);
        if (c0(r1))
            return opOf(DtaOp::Not, r0);
        if (r0 == r1)
            return refTo(kRefC1);
        return opOf(DtaOp::Xnor2, r0, r1);
      case CellKind::Nand2:
        if (c0(r0) || c0(r1))
            return refTo(kRefC1);
        if (c1(r0) && c1(r1))
            return refTo(kRefC0);
        if (c1(r0))
            return opOf(DtaOp::Not, r1);
        if (c1(r1) || r0 == r1)
            return opOf(DtaOp::Not, r0);
        return opOf(DtaOp::Nand2, r0, r1);
      case CellKind::Nor2:
        if (c1(r0) || c1(r1))
            return refTo(kRefC0);
        if (c0(r0) && c0(r1))
            return refTo(kRefC1);
        if (c0(r0))
            return opOf(DtaOp::Not, r1);
        if (c0(r1) || r0 == r1)
            return opOf(DtaOp::Not, r0);
        return opOf(DtaOp::Nor2, r0, r1);
      case CellKind::Mux2:
        // Operands (sel=r0, a0=r1, b1=r2): sel ? b1 : a0.
        if (c0(r0))
            return refTo(r1);
        if (c1(r0))
            return refTo(r2);
        if (r1 == r2)
            return refTo(r1);
        if (c0(r1) && c1(r2))
            return refTo(r0);
        if (c1(r1) && c0(r2))
            return opOf(DtaOp::Not, r0);
        if (c0(r1))
            return opOf(DtaOp::And2, r0, r2);
        if (c1(r2))
            return opOf(DtaOp::Or2, r0, r1);
        return opOf(DtaOp::Mux2, r0, r1, r2);
      case CellKind::Maj3:
        // Any equal pair dominates: maj(a, a, c) = a.
        if (r0 == r1 || r0 == r2)
            return refTo(r0);
        if (r1 == r2)
            return refTo(r1);
        // Opposite constants cancel: maj(0, 1, x) = x.
        if ((c0(r0) && c1(r1)) || (c1(r0) && c0(r1)))
            return refTo(r2);
        if ((c0(r0) && c1(r2)) || (c1(r0) && c0(r2)))
            return refTo(r1);
        if ((c0(r1) && c1(r2)) || (c1(r1) && c0(r2)))
            return refTo(r0);
        if (c0(r0))
            return opOf(DtaOp::And2, r1, r2);
        if (c0(r1))
            return opOf(DtaOp::And2, r0, r2);
        if (c0(r2))
            return opOf(DtaOp::And2, r0, r1);
        if (c1(r0))
            return opOf(DtaOp::Or2, r1, r2);
        if (c1(r1))
            return opOf(DtaOp::Or2, r0, r2);
        if (c1(r2))
            return opOf(DtaOp::Or2, r0, r1);
        return opOf(DtaOp::Maj3, r0, r1, r2);
      default:
        panic("foldCell: unexpected cell kind %d",
              static_cast<int>(kind));
    }
}

} // namespace

DtaProgram
compileDtaProgram(const Netlist &nl, const DelayAnnotation &annot,
                  double delayScale, double captureTimePs)
{
    const size_t n = nl.numCells();
    const auto &cells = nl.cells();
    const auto outs = nl.flatOutputs();

    DtaProgram p;
    p.cellsTotal = n;
    p.clkToQPs = annot.library().clkToQPs * delayScale;
    p.captureTimePs = captureTimePs;

    std::vector<double> delays = annot.delays();
    for (auto &d : delays)
        d *= delayScale;

    // ---- capture-risky cone + remaining static path ----------------
    // Forward/backward double recurrences over the pre-scaled delays:
    // a cell is risky when its longest static path through it exceeds
    // the capture time; `remaining` is its pruning constant.
    std::vector<double> staticArr(n, 0.0), remaining(n, 0.0);
    std::vector<uint8_t> risky(n, 0);
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        if (cell.kind == CellKind::Input) {
            staticArr[id] = p.clkToQPs;
            continue;
        }
        double worst = 0.0;
        unsigned ar = cellArity(cell.kind);
        for (unsigned i = 0; i < ar; ++i)
            worst = std::max(worst, staticArr[cell.fanin[i]]);
        staticArr[id] = worst + delays[id];
    }
    for (NetId id = static_cast<NetId>(n); id-- > 0;) {
        double through = remaining[id] + delays[id];
        unsigned ar = cellArity(cells[id].kind);
        for (unsigned i = 0; i < ar; ++i) {
            NetId fi = cells[id].fanin[i];
            remaining[fi] = std::max(remaining[fi], through);
        }
    }
    for (NetId id = 0; id < n; ++id) {
        risky[id] = staticArr[id] + remaining[id] > captureTimePs;
        p.riskyCells += risky[id];
    }

    // ---- value folding (constants, copies, identities) -------------
    std::vector<NetId> ref(n);    ///< value representative per cell
    std::vector<Folded> folded(n);
    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        switch (cell.kind) {
          case CellKind::Input:
            ref[id] = id;
            folded[id] = opOf(DtaOp::Input, id);
            break;
          case CellKind::Const0:
            ref[id] = kRefC0;
            break;
          case CellKind::Const1:
            ref[id] = kRefC1;
            break;
          default: {
            unsigned ar = cellArity(cell.kind);
            NetId r0 = ref[cell.fanin[0]];
            NetId r1 = ar > 1 ? ref[cell.fanin[1]] : invalidNet;
            NetId r2 = ar > 2 ? ref[cell.fanin[2]] : invalidNet;
            Folded f = foldCell(cell.kind, r0, r1, r2);
            folded[id] = f;
            ref[id] = f.kind == Folded::Kind::Ref ? f.ops[0] : id;
            if (f.kind == Folded::Kind::Ref ||
                cells[id].kind == CellKind::Buf)
                ++p.cellsFolded;
            break;
          }
        }
    }

    // ---- timing liveness -------------------------------------------
    // A cell's toggles matter only if they can be non-zero (risky and
    // not constant-valued) and can reach a flat output through risky
    // fanin edges. Cells outside this closure can never change a
    // captured bit; dropping them is pure savings.
    auto canToggle = [&](NetId id) {
        return risky[id] && !isConstRef(ref[id]);
    };
    std::vector<uint8_t> timingLive(n, 0);
    std::vector<NetId> stack;
    for (NetId net : outs) {
        if (canToggle(net) && !timingLive[net]) {
            timingLive[net] = 1;
            stack.push_back(net);
        }
    }
    while (!stack.empty()) {
        NetId id = stack.back();
        stack.pop_back();
        const Cell &cell = cells[id];
        if (cell.kind == CellKind::Input)
            continue;
        unsigned ar = cellArity(cell.kind);
        for (unsigned i = 0; i < ar; ++i) {
            NetId fi = cell.fanin[i];
            if (canToggle(fi) && !timingLive[fi]) {
                timingLive[fi] = 1;
                stack.push_back(fi);
            }
        }
    }

    // Toggle-arena and arrival rows, in topological order so the
    // dirty list the value sweep builds is visit-ordered.
    std::vector<uint32_t> trowOf(n, kDtaNone), arowOf(n, kDtaNone);
    uint32_t nextTrow = 0, nextArow = 1;
    for (NetId id = 0; id < n; ++id) {
        if (!timingLive[id])
            continue;
        trowOf[id] = nextTrow++;
        if (cells[id].kind != CellKind::Input)
            arowOf[id] = nextArow++;
    }
    p.numToggleRows = nextTrow;
    p.numArrivalRows = nextArow;

    // ---- value liveness (dead-code elimination) --------------------
    // Seeds: flat-output representatives plus the representative of
    // every timing-live cell (its toggle store reads that slot).
    std::vector<uint8_t> valueLive(n, 0);
    bool constNeeded[2] = {false, false};
    auto markRef = [&](NetId r) {
        if (r == kRefC0)
            constNeeded[0] = true;
        else if (r == kRefC1)
            constNeeded[1] = true;
        else
            valueLive[r] = 1;
    };
    for (NetId net : outs)
        markRef(ref[net]);
    for (NetId id = 0; id < n; ++id)
        if (timingLive[id])
            markRef(ref[id]);
    for (NetId id = static_cast<NetId>(n); id-- > 0;) {
        if (!valueLive[id])
            continue;
        const Folded &f = folded[id];
        if (f.kind == Folded::Kind::Op && f.op != DtaOp::Input)
            for (unsigned i = 0; i < f.nops; ++i)
                markRef(f.ops[i]);
    }

    // ---- emission ---------------------------------------------------
    // Pseudo-instructions keyed by cell id (constants get the two
    // virtual ids n and n+1); register allocation maps them to slots
    // in a second pass.
    struct PInsn
    {
        DtaOp op;
        NetId dst;
        NetId src[3] = {invalidNet, invalidNet, invalidNet};
        uint8_t nsrc = 0;
        uint32_t inputIdx = kDtaNone;
        uint32_t trow = kDtaNone;
        uint32_t tnode = kDtaNone;
    };
    const NetId vC0 = static_cast<NetId>(n);
    const NetId vC1 = static_cast<NetId>(n) + 1;
    auto slotKey = [&](NetId r) {
        return r == kRefC0 ? vC0 : (r == kRefC1 ? vC1 : r);
    };
    std::vector<PInsn> pins;
    pins.reserve(n / 2 + 2);
    if (constNeeded[0])
        pins.push_back(PInsn{DtaOp::Const0, vC0});
    if (constNeeded[1])
        pins.push_back(PInsn{DtaOp::Const1, vC1});

    for (NetId id = 0; id < n; ++id) {
        const Cell &cell = cells[id];
        const bool tl = timingLive[id] != 0;
        if (cell.kind == CellKind::Input) {
            if (!valueLive[id])
                continue;
            PInsn pi{DtaOp::Input, id};
            pi.inputIdx = id; // inputs are cells [0, numInputs)
            pi.trow = trowOf[id];
            pins.push_back(pi);
            continue;
        }
        if (!tl && !valueLive[id])
            continue;

        uint32_t tnode = kDtaNone;
        if (tl) {
            tnode = static_cast<uint32_t>(p.tnodes.size());
            DtaTimingNode nd;
            nd.delayPs = delays[id];
            nd.remainingPs = remaining[id];
            nd.trow = trowOf[id];
            nd.arow = arowOf[id];
            nd.orphanLate =
                delays[id] + remaining[id] > captureTimePs;
            nd.faninBegin = static_cast<uint32_t>(p.tfanins.size());
            unsigned ar = cellArity(cell.kind), nf = 0;
            for (unsigned i = 0; i < ar; ++i) {
                NetId fi = cell.fanin[i];
                if (!canToggle(fi))
                    continue; // toggle plane provably zero
                uint32_t arow = cells[fi].kind == CellKind::Input
                                    ? 0
                                    : arowOf[fi];
                p.tfanins.push_back(DtaTimingFanin{trowOf[fi], arow});
                ++nf;
            }
            nd.faninCount = nf;
            p.tnodes.push_back(nd);
        }

        const Folded &f = folded[id];
        if (f.kind == Folded::Kind::Op) {
            PInsn pi{f.op, id};
            pi.nsrc = f.nops;
            for (unsigned i = 0; i < f.nops; ++i)
                pi.src[i] = slotKey(f.ops[i]);
            pi.trow = tl ? trowOf[id] : kDtaNone;
            pi.tnode = tnode;
            pins.push_back(pi);
        } else {
            // Folded to an alias but still timing-live: materialize
            // only the toggle row, reading the representative's slot.
            panic_if(!tl, "dta codegen: dead alias emitted");
            NetId tgt = slotKey(ref[id]);
            PInsn pi{DtaOp::Copy, tgt};
            pi.src[0] = tgt;
            pi.nsrc = 1;
            pi.trow = trowOf[id];
            pi.tnode = tnode;
            pins.push_back(pi);
        }
    }
    p.cellsLive = pins.size();

    // ---- linear-scan slot allocation -------------------------------
    constexpr size_t kPinned = std::numeric_limits<size_t>::max();
    std::vector<size_t> lastUse(n + 2, 0);
    for (size_t i = 0; i < pins.size(); ++i) {
        lastUse[pins[i].dst] = i;
        for (unsigned s = 0; s < pins[i].nsrc; ++s)
            lastUse[pins[i].src[s]] = i;
    }
    for (NetId net : outs)
        lastUse[slotKey(ref[net])] = kPinned; // read after the sweep

    std::vector<uint32_t> slotOf(n + 2, kDtaNone);
    std::vector<uint32_t> freeSlots;
    uint32_t nextSlot = 0;
    p.insns.reserve(pins.size());
    for (size_t i = 0; i < pins.size(); ++i) {
        const PInsn &pi = pins[i];
        DtaInsn in;
        in.op = pi.op;
        in.trow = pi.trow;
        in.tnode = pi.tnode;
        if (pi.op == DtaOp::Input) {
            in.a = pi.inputIdx;
        } else {
            uint32_t srcSlot[3] = {kDtaNone, kDtaNone, kDtaNone};
            for (unsigned s = 0; s < pi.nsrc; ++s) {
                srcSlot[s] = slotOf[pi.src[s]];
                panic_if(srcSlot[s] == kDtaNone,
                         "dta codegen: operand slot unassigned");
            }
            in.a = srcSlot[0];
            in.b = srcSlot[1];
            in.c = srcSlot[2];
        }
        if (pi.op == DtaOp::Copy) {
            slotOf[pi.dst] = in.a; // alias: no fresh slot
        } else if (slotOf[pi.dst] == kDtaNone) {
            // Elementwise kernels read each operand word before the
            // matching destination store, so reusing an operand's
            // just-freed slot as the destination is safe.
            if (!freeSlots.empty()) {
                slotOf[pi.dst] = freeSlots.back();
                freeSlots.pop_back();
            } else {
                slotOf[pi.dst] = nextSlot++;
            }
        }
        in.dst = slotOf[pi.dst];
        p.insns.push_back(in);

        for (unsigned s = 0; s < pi.nsrc; ++s)
            if (lastUse[pi.src[s]] == i && pi.src[s] != pi.dst)
                freeSlots.push_back(slotOf[pi.src[s]]);
        if (lastUse[pi.dst] == i)
            freeSlots.push_back(slotOf[pi.dst]);
    }
    p.numSlots = nextSlot;

    // ---- outputs ----------------------------------------------------
    p.outSlot.resize(outs.size());
    for (size_t k = 0; k < outs.size(); ++k) {
        NetId net = outs[k];
        uint32_t slot = slotOf[slotKey(ref[net])];
        panic_if(slot == kDtaNone,
                 "dta codegen: output %zu has no value slot", k);
        p.outSlot[k] = slot;
        if (canToggle(net)) {
            uint32_t arow = cells[net].kind == CellKind::Input
                                ? 0
                                : arowOf[net];
            p.touts.push_back(DtaTimingOut{
                static_cast<uint32_t>(k), trowOf[net], arow});
        }
    }
    return p;
}

} // namespace tea::circuit
