/**
 * @file
 * Strict parsing of integer environment knobs.
 */

#ifndef TEA_UTIL_ENV_HH
#define TEA_UTIL_ENV_HH

#include <cstdint>

namespace tea {

/**
 * Read environment variable `name` as a base-10 int64. Returns false,
 * leaving `out` untouched, when the variable is unset or malformed
 * (empty, trailing characters, out of range); a malformed value also
 * warns. Callers keep their default on false.
 */
bool envI64(const char *name, int64_t &out);

} // namespace tea

#endif // TEA_UTIL_ENV_HH
