#include "util/env.hh"

#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace tea {

bool
envI64(const char *name, int64_t &out)
{
    const char *v = std::getenv(name);
    if (!v)
        return false;
    char *end = nullptr;
    errno = 0;
    long long parsed = std::strtoll(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0') {
        warn("ignoring malformed %s='%s'", name, v);
        return false;
    }
    out = parsed;
    return true;
}

} // namespace tea
