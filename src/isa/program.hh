/**
 * @file
 * A loaded program image: decoded code, initialized data segments, and
 * the symbol table workload checkers use to locate input/output
 * buffers.
 */

#ifndef TEA_ISA_PROGRAM_HH
#define TEA_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace tea::isa {

/** Default memory map (see DESIGN.md "crash taxonomy"). */
constexpr uint64_t kProtectedTop = 0x1000;   ///< [0, 4K): kernel region
constexpr uint64_t kCodeBase = 0x1000;
constexpr uint64_t kDataBase = 0x100000;     ///< 1 MiB
constexpr uint64_t kStackTop = 0x4000000;    ///< 64 MiB
constexpr uint64_t kStackSize = 0x100000;    ///< 1 MiB mapped

/**
 * Multi-core control page: a read-only page below the data segment
 * that the N-core simulators (sim::FuncSim, mc::McSim) map per core,
 * so one SPMD program image can ask "who am I / how many of us are
 * there". Loads from it hit sim::OooSim as plain unmapped memory —
 * single-core programs simply never touch it.
 */
constexpr uint64_t kMcCtrlBase = 0xF0000;
constexpr uint64_t kMcCtrlSize = 0x1000;
constexpr uint64_t kMcCtrlCoreId = kMcCtrlBase + 0;   ///< this core's id
constexpr uint64_t kMcCtrlNumCores = kMcCtrlBase + 8; ///< core count

/** Per-core stack carve used by the spawn ABI (cores fit in 1 MiB). */
constexpr uint64_t kMcStackBytes = 0x10000; ///< 64 KiB per core
constexpr unsigned kMcMaxCores = 8;

struct Program
{
    std::string name;
    std::vector<Instruction> code; ///< at kCodeBase, 4 bytes each
    struct DataSegment
    {
        uint64_t addr;
        std::vector<uint8_t> bytes;
    };
    std::vector<DataSegment> data;
    std::map<std::string, uint64_t> symbols;
    /** Byte sizes of named symbols (for checkers reading buffers). */
    std::map<std::string, uint64_t> symbolSizes;
    uint64_t entryIndex = 0;

    /** Address of a named symbol; fatal() if absent. */
    uint64_t symbol(const std::string &name) const;
    /** Size in bytes of a named symbol; fatal() if absent. */
    uint64_t symbolSize(const std::string &name) const;
    /** Highest data address used (exclusive). */
    uint64_t dataEnd() const;
};

} // namespace tea::isa

#endif // TEA_ISA_PROGRAM_HH
