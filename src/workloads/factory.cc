#include "workloads/workloads.hh"

#include "util/logging.hh"

namespace tea::workloads {

bool
isThreadedWorkload(const std::string &name)
{
    static const std::string suffix = "-mt";
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sobel", "cg", "k-means", "srad_v1", "hotspot", "is", "mg",
    };
    return names;
}

namespace {

/** Every buildable workload: the Table II seven, then the -mt ones. */
const std::pair<const char *, Workload (*)(uint64_t, int)> kBuilders[] = {
    {"sobel", buildSobel},     {"cg", buildCg},
    {"k-means", buildKmeans},  {"srad_v1", buildSrad},
    {"hotspot", buildHotspot}, {"is", buildIs},
    {"mg", buildMg},           {"k-means-mt", buildKmeansMt},
    {"hotspot-mt", buildHotspotMt},
};

} // namespace

bool
isKnownWorkload(const std::string &name)
{
    for (const auto &[known, build] : kBuilders)
        if (name == known)
            return true;
    return false;
}

Workload
buildWorkload(const std::string &name, uint64_t seed, int scale)
{
    fatal_if(scale < 1 || scale > kMaxScale,
             "workload scale must be in [1, %d]", kMaxScale);
    for (const auto &[known, build] : kBuilders)
        if (name == known)
            return build(seed, scale);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace tea::workloads
