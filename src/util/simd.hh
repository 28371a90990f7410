/**
 * @file
 * Runtime SIMD instruction-set selection for the wide DTA planes.
 *
 * The compiled DTA engine ships the same plane-sweep kernels three
 * times: a portable uint64 build, an AVX2 build, and an AVX-512 build
 * (translation units compiled with the matching -m flags when the
 * CMake option TEA_SIMD is on and the compiler supports them). This
 * header is the xsimd-style façade that picks which build runs:
 *
 *  - compiledIsas() says which levels were compiled in (a build-time
 *    fact: the TEA_SIMD_AVX2 / TEA_SIMD_AVX512 definitions).
 *  - detectedIsa() is the best level the *CPU* supports among those,
 *    probed once via __builtin_cpu_supports.
 *  - activeIsa() is what kernels must dispatch on: the detected level,
 *    unless overridden by REPRO_SIMD={portable,avx2,avx512} or by
 *    setActiveIsa() (tests force the portable fallback this way and
 *    assert campaign outputs are identical).
 *
 * Every level computes bit-identical results — the lanes are
 * independent 64-bit words and independent doubles, so vector width
 * never changes a value. The switch is purely about throughput.
 */

#ifndef TEA_UTIL_SIMD_HH
#define TEA_UTIL_SIMD_HH

namespace tea::simd {

/** Instruction-set levels the DTA kernels are specialized for. */
enum class Isa : int
{
    Portable = 0, ///< plain uint64 SWAR, always available
    Avx2 = 1,     ///< 256-bit planes
    Avx512 = 2,   ///< 512-bit planes + masked lane recurrence
};

/** Human-readable level name ("portable", "avx2", "avx512"). */
const char *isaName(Isa isa);

/** Best level compiled into this binary (build-time constant). */
Isa bestCompiledIsa();

/** True when the level was compiled in (TEA_SIMD build option). */
bool isaCompiled(Isa isa);

/** Best compiled level this CPU can execute, probed once. */
Isa detectedIsa();

/**
 * The level kernels dispatch on: detectedIsa() unless REPRO_SIMD or
 * setActiveIsa() overrides it. An override above what the build or
 * CPU supports is clamped down with a warn — a typo can slow a run
 * down but never crash or change its results.
 */
Isa activeIsa();

/**
 * Force the dispatch level (tests / benches). Clamped like the env
 * override. Passing the current level is a no-op; engines re-resolve
 * their kernel tables on the next batch, so flipping mid-run is safe.
 */
void setActiveIsa(Isa isa);

/** Drop overrides and re-read REPRO_SIMD / CPUID on next activeIsa(). */
void resetActiveIsa();

} // namespace tea::simd

#endif // TEA_UTIL_SIMD_HH
