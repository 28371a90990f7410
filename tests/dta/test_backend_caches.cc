/**
 * Backend identity at the toolflow level (ctest label tier1dta): the
 * cache files a reduced-size model development writes — IA, DA and
 * the WA model of every workload at both VR levels — are
 * byte-identical whether campaigns run on the levelized oracle or on
 * the compiled engine with per-unit batching.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "circuit/compiled_dta.hh"
#include "core/toolflow.hh"
#include "workloads/workloads.hh"

using namespace tea;

TEST(DtaBackendCaches, IdenticalAcrossBackends)
{
    // Reduced-size IA, WA (all 7 workloads) and DA characterizations
    // at both VR levels: every cache file the compiled backend writes
    // must be byte-identical to the levelized oracle's.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "tea_dta_backend_caches";
    fs::remove_all(root);

    auto develop = [&](circuit::DtaBackend backend) {
        core::ToolflowOptions opt;
        opt.cacheDir = (root / circuit::dtaBackendName(backend)).string();
        opt.threads = 2;
        opt.iaCountPerOp = 40;
        opt.waMaxOps = 700;
        opt.daSampleOps = 700;
        opt.dtaBackend = backend;
        core::Toolflow tf(opt);
        for (double vr : opt.vrLevels) {
            tf.iaStats(vr);
            for (const auto &w : workloads::workloadNames())
                tf.waStats(w, vr);
            tf.daErrorRatio(vr);
        }
        std::map<std::string, std::string> files;
        for (const auto &e : fs::directory_iterator(opt.cacheDir)) {
            std::ifstream in(e.path(), std::ios::binary);
            files[e.path().filename().string()].assign(
                std::istreambuf_iterator<char>(in), {});
        }
        return files;
    };

    auto oracle = develop(circuit::DtaBackend::Levelized);
    auto compiled = develop(circuit::DtaBackend::Compiled);
    // IA + DA + 7 WA models, per VR level.
    EXPECT_EQ(oracle.size(), 2 * (2 + workloads::workloadNames().size()));
    ASSERT_EQ(compiled.size(), oracle.size());
    for (const auto &[name, bytes] : oracle) {
        ASSERT_TRUE(compiled.count(name)) << name;
        EXPECT_TRUE(compiled[name] == bytes) << name;
    }
    fs::remove_all(root);
}
