/**
 * @file
 * Strict parsing of numbers, environment knobs and `key value` lines.
 *
 * Every integer setting — REPRO_* knobs, tea-daemon flags, fleet-plan
 * fields — is read by the one parseNumber rule: the whole text is one
 * decimal integer, or a hexadecimal one with a `0x` prefix. There is
 * no octal: `010` is ten.
 */

#ifndef TEA_UTIL_ENV_HH
#define TEA_UTIL_ENV_HH

#include <cstdint>
#include <map>
#include <string>

namespace tea {

/**
 * Parse all of `text` as one number: a decimal or 0x-hex integer (a
 * '-' sign only for int64_t) or a finite double (strtod syntax).
 * False, `out` untouched, on an empty string, leading blanks,
 * trailing characters or overflow.
 */
bool parseNumber(const char *text, int64_t &out);
bool parseNumber(const char *text, uint64_t &out);
bool parseNumber(const char *text, double &out);

/**
 * Read environment variable `name` with parseNumber. False, `out`
 * untouched, when the variable is unset or malformed; a malformed
 * value also warns. Callers keep their default on false.
 */
template <typename T> bool envNumber(const char *name, T &out);
inline bool envI64(const char *n, int64_t &o) { return envNumber(n, o); }
inline bool envU64(const char *n, uint64_t &o) { return envNumber(n, o); }

/** An inclusive integer range a setting must lie in. */
struct IntRange
{
    int64_t lo, hi;

    bool contains(int64_t v) const { return v >= lo && v <= hi; }
};

/** envI64, then clamp into `range` (warning when it was outside). */
bool envClamped(const char *name, IntRange range, int64_t &out);

/**
 * Parse `key value` lines into a map (first key wins). The value is
 * the rest of the line after the first space and may be empty.
 */
std::map<std::string, std::string> parseKv(const std::string &body);

} // namespace tea

#endif // TEA_UTIL_ENV_HH
