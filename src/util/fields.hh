/**
 * @file
 * One text form for struct fields named by member pointer: the
 * campaign option table and the result record are formatted and
 * parsed here, and environment knobs are read and range-checked here.
 */

#ifndef TEA_UTIL_FIELDS_HH
#define TEA_UTIL_FIELDS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>

#include "util/env.hh"
#include "util/logging.hh"

namespace tea {

/** A pointer to one scalar field of struct S. */
template <typename S>
using FieldMember =
    std::variant<int S::*, unsigned S::*, int64_t S::*, uint64_t S::*,
                 bool S::*, double S::*, std::string S::*>;

/** An open upper (or, negated, lower) bound of a field range. */
inline constexpr double kNoLimit = std::numeric_limits<double>::max();

/** Decimal integers, 0/1, %.17g doubles, text. */
template <typename S>
std::string
formatField(const FieldMember<S> &member, const S &s)
{
    return std::visit(
        [&](auto m) -> std::string {
            using T = std::decay_t<decltype(s.*m)>;
            if constexpr (std::is_same_v<T, std::string>) {
                return s.*m;
            } else if constexpr (std::is_floating_point_v<T>) {
                char buf[40];
                std::snprintf(buf, sizeof(buf), "%.17g", s.*m);
                return buf;
            } else {
                return std::to_string(+(s.*m));
            }
        },
        member);
}

enum class FieldParse
{
    Ok,
    Malformed,  ///< not a value of the field's type
    OutOfRange, ///< a number outside [lo, hi]
};

/**
 * Parse `text` (parseNumber syntax) into the field, range-checked in
 * [lo, hi] before narrowing; text has no range. Anything but Ok leaves
 * `s` unchanged, except that `clamp` stores an out-of-range number
 * clamped.
 */
template <typename S>
FieldParse
parseField(const FieldMember<S> &member, const std::string &text, S &s,
           double lo, double hi, bool clamp = false)
{
    return std::visit(
        [&](auto m) {
            using T = std::decay_t<decltype(s.*m)>;
            if constexpr (std::is_same_v<T, std::string>) {
                s.*m = text;
                return FieldParse::Ok;
            } else {
                using Wide = std::conditional_t<
                    std::is_floating_point_v<T>, double,
                    std::conditional_t<std::is_signed_v<T>, int64_t,
                                       uint64_t>>;
                Wide v;
                if (!parseNumber(text.c_str(), v) ||
                    (std::is_same_v<T, bool> && v > 1))
                    return FieldParse::Malformed;
                if (v >= lo && v <= hi) {
                    s.*m = static_cast<T>(v);
                    return FieldParse::Ok;
                }
                if (clamp)
                    s.*m = static_cast<T>(v < lo ? lo : hi);
                return FieldParse::OutOfRange;
            }
        },
        member);
}

/**
 * Read environment variable `name` into the field with parseField. A
 * malformed value warns and is ignored; an out-of-range one warns and
 * is clamped (`clamp`) or ignored. True when the field was set.
 */
template <typename S>
bool
envField(const char *name, const FieldMember<S> &member, S &s, double lo,
         double hi, bool clamp)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    switch (parseField(member, text, s, lo, hi, clamp)) {
      case FieldParse::Ok:
        return true;
      case FieldParse::Malformed:
        warn("ignoring malformed %s='%s'", name, text);
        return false;
      case FieldParse::OutOfRange:
        warn("%s=%s is out of range; %s %s", name, text,
             clamp ? "clamped to" : "keeping",
             formatField(member, s).c_str());
        return clamp;
    }
    return false;
}

} // namespace tea

#endif // TEA_UTIL_FIELDS_HH
