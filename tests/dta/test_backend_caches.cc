/**
 * Engine identity at the toolflow level (ctest label tier1dta): the
 * cache files a reduced-size model development writes — IA, DA and
 * the WA model of every workload at both VR levels — are
 * byte-identical to the same campaigns run at `lanes = 1`, where every
 * op goes through the scalar LevelizedDta oracle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "core/toolflow.hh"
#include "models/error_models.hh"
#include "workloads/workloads.hh"

using namespace tea;

namespace {

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

} // namespace

TEST(DtaBackendCaches, IdenticalAcrossBackends)
{
    // Reduced-size IA, WA (all 7 workloads) and DA characterizations
    // at both VR levels: every cache file the default toolflow writes
    // (compiled engine, per-unit batches of up to 512 ops) must be
    // byte-identical to the levelized oracle's statistics.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "tea_dta_oracle_caches";
    fs::remove_all(root);

    core::ToolflowOptions opt;
    opt.threads = 2;
    opt.iaCountPerOp = 40;
    opt.waMaxOps = 700;
    opt.daSampleOps = 700;
    opt.cacheDir.clear();

    // Compiled side: the toolflow's own characterizations and caches.
    core::ToolflowOptions copt = opt;
    copt.cacheDir = (root / "compiled").string();
    core::Toolflow compiledTf(copt);
    for (double vr : opt.vrLevels) {
        compiledTf.iaStats(vr);
        for (const auto &w : workloads::workloadNames())
            compiledTf.waStats(w, vr);
        compiledTf.daErrorRatio(vr);
    }
    std::map<std::string, std::string> compiled;
    for (const auto &e : fs::directory_iterator(copt.cacheDir))
        compiled[e.path().filename().string()] = readFile(e.path());

    // Oracle side: the same campaigns and seeds at lanes = 1, saved
    // under each cache file's "<tag>_vr<NN>" stem.
    core::Toolflow oracleTf(opt);
    fpu::FpuCore &core = oracleTf.fpuCore();
    ThreadPool *pool = &oracleTf.pool();
    const fs::path oracleDir = root / "levelized";
    fs::create_directories(oracleDir);
    std::map<std::string, std::string> oracle;
    auto save = [&](const std::string &tag, double vr,
                    const timing::CampaignStats &stats) {
        char vrBuf[16];
        std::snprintf(vrBuf, sizeof(vrBuf), "_vr%02d_",
                      static_cast<int>(vr * 100 + 0.5));
        const std::string stem = tag + vrBuf;
        const fs::path p = oracleDir / (stem + "stats");
        ASSERT_TRUE(models::saveCampaignStats(p.string(), stats)) << stem;
        oracle[stem] = readFile(p);
    };
    for (double vr : opt.vrLevels) {
        const size_t point = oracleTf.pointFor(vr);
        Rng rng(opt.seed ^ 0x1a1a1aULL);
        save(core::Toolflow::cacheTag("ia", "rnd", opt.iaCountPerOp), vr,
             timing::runRandomCampaign(core, point, opt.iaCountPerOp, rng,
                                       pool, nullptr, 1));
        timing::CampaignStats da;
        const uint64_t per =
            opt.daSampleOps / workloads::workloadNames().size();
        for (const auto &w : workloads::workloadNames()) {
            save(core::Toolflow::cacheTag("wa", w, opt.waMaxOps), vr,
                 timing::runTraceCampaign(core, point, oracleTf.trace(w),
                                          opt.waMaxOps, pool, nullptr,
                                          1));
            da.merge(timing::runTraceCampaign(
                core, point, oracleTf.trace(w), per, pool, nullptr, 1));
        }
        save(core::Toolflow::cacheTag("da", "all", opt.daSampleOps), vr,
             da);
    }

    // IA + DA + 7 WA models, per VR level.
    EXPECT_EQ(oracle.size(), 2 * (2 + workloads::workloadNames().size()));
    ASSERT_EQ(compiled.size(), oracle.size());
    for (const auto &[stem, bytes] : oracle) {
        // The compiled file is "<stem>s<seed>_p<rev>.stats".
        auto it = compiled.lower_bound(stem);
        ASSERT_TRUE(it != compiled.end() && it->first.rfind(stem, 0) == 0)
            << stem;
        EXPECT_TRUE(it->second == bytes) << it->first;
    }
    fs::remove_all(root);
}
