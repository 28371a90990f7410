#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.hh"

using tea::envI64;

namespace {

constexpr const char *kVar = "TEA_TEST_ENV_I64";

} // namespace

TEST(EnvI64, UnsetKeepsDefault)
{
    ::unsetenv(kVar);
    int64_t v = 7;
    EXPECT_FALSE(envI64(kVar, v));
    EXPECT_EQ(v, 7);
}

TEST(EnvI64, ParsesBaseTen)
{
    int64_t v = 7;
    ::setenv(kVar, "-42", 1);
    EXPECT_TRUE(envI64(kVar, v));
    EXPECT_EQ(v, -42);
    ::setenv(kVar, "010", 1); // decimal, not octal
    EXPECT_TRUE(envI64(kVar, v));
    EXPECT_EQ(v, 10);
    ::unsetenv(kVar);
}

TEST(EnvI64, MalformedValueKeepsDefault)
{
    for (const char *bad : {"", "12x", "0x10", "abc", "4 ",
                            "99999999999999999999"}) {
        ::setenv(kVar, bad, 1);
        int64_t v = 7;
        EXPECT_FALSE(envI64(kVar, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7) << "'" << bad << "'";
    }
    ::unsetenv(kVar);
}
