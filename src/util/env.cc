#include "util/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/fields.hh"

namespace tea {

namespace {

/**
 * Run strtoll/strtoull/strtod-like `conv` over all of `text`: base 16
 * after an (optionally signed) 0x, else base 10.
 */
template <typename T, typename Conv>
bool
parseWhole(const char *text, T &out, Conv conv)
{
    const char *p = text + (*text == '-' || *text == '+');
    int base = p[0] == '0' && (p[1] == 'x' || p[1] == 'X') ? 16 : 10;
    errno = 0;
    char *end = nullptr;
    T v = conv(text, &end, base);
    if (errno != 0 || end == text || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    out = v;
    return true;
}

/** envField over a lone number, clamped into [lo, hi]. */
template <typename T>
bool
envKnob(const char *name, T &out, double lo, double hi)
{
    struct Knob
    {
        T v;
    } knob{out};
    if (!envField<Knob>(name, &Knob::v, knob, lo, hi, true))
        return false;
    out = knob.v;
    return true;
}

} // namespace

template <typename T>
bool
envNumber(const char *name, T &out)
{
    return envKnob(name, out, -kNoLimit, kNoLimit);
}
template bool envNumber(const char *, int64_t &);
template bool envNumber(const char *, uint64_t &);

bool
parseNumber(const char *text, int64_t &out)
{
    return parseWhole(text, out, [](const char *s, char **e, int b) {
        return static_cast<int64_t>(std::strtoll(s, e, b));
    });
}

bool
parseNumber(const char *text, uint64_t &out)
{
    return text[0] != '-' &&
           parseWhole(text, out, [](const char *s, char **e, int b) {
               return static_cast<uint64_t>(std::strtoull(s, e, b));
           });
}

bool
parseNumber(const char *text, double &out)
{
    double v;
    if (!parseWhole(text, v, [](const char *s, char **e, int) {
            return std::strtod(s, e);
        }) ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
envClamped(const char *name, IntRange range, int64_t &out)
{
    return envKnob(name, out, static_cast<double>(range.lo),
                   static_cast<double>(range.hi));
}

std::map<std::string, std::string>
parseKv(const std::string &body)
{
    std::map<std::string, std::string> kv;
    std::istringstream in(body);
    for (std::string line; std::getline(in, line);) {
        if (line.empty())
            continue;
        size_t sp = line.find(' ');
        kv.emplace(line.substr(0, sp),
                   sp == std::string::npos ? "" : line.substr(sp + 1));
    }
    return kv;
}

} // namespace tea
