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
    for (const char *bad : {"", "12x", "abc", "4 ",
                            "99999999999999999999"}) {
        ::setenv(kVar, bad, 1);
        int64_t v = 7;
        EXPECT_FALSE(envI64(kVar, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7) << "'" << bad << "'";
    }
    // Hex with a 0x prefix is the one other accepted syntax.
    ::setenv(kVar, "0x10", 1);
    int64_t v = 7;
    EXPECT_TRUE(envI64(kVar, v));
    EXPECT_EQ(v, 16);
    ::unsetenv(kVar);
}

TEST(ParseNumber, DecimalOrHexNeverOctal)
{
    int64_t i = 0;
    uint64_t u = 0;
    EXPECT_TRUE(tea::parseNumber("010", i));
    EXPECT_EQ(i, 10);
    EXPECT_TRUE(tea::parseNumber("-0x10", i));
    EXPECT_EQ(i, -16);
    EXPECT_TRUE(tea::parseNumber("0X1f", u));
    EXPECT_EQ(u, 31u);
    EXPECT_TRUE(tea::parseNumber("18446744073709551615", u));
    EXPECT_EQ(u, UINT64_MAX);
    for (const char *bad : {"", " 4", "4 ", "0x", "0xg", "08x", "1e3",
                            "18446744073709551616"}) {
        EXPECT_FALSE(tea::parseNumber(bad, i)) << "'" << bad << "'";
        EXPECT_FALSE(tea::parseNumber(bad, u)) << "'" << bad << "'";
    }
    EXPECT_FALSE(tea::parseNumber("-1", u));
    EXPECT_EQ(u, UINT64_MAX) << "a rejected parse leaves out untouched";

    double d = 0;
    EXPECT_TRUE(tea::parseNumber("0.2000000000000001", d));
    EXPECT_EQ(d, 0.2000000000000001);
    for (const char *bad : {"", " 1", "1.5x", "inf", "nan", "1e999"})
        EXPECT_FALSE(tea::parseNumber(bad, d)) << "'" << bad << "'";
}

TEST(EnvClamped, ClampsIntoTheRange)
{
    tea::IntRange range{1, 64};
    int64_t v = 7;
    ::setenv(kVar, "0x100", 1);
    EXPECT_TRUE(tea::envClamped(kVar, range, v));
    EXPECT_EQ(v, 64);
    ::setenv(kVar, "-3", 1);
    EXPECT_TRUE(tea::envClamped(kVar, range, v));
    EXPECT_EQ(v, 1);
    ::setenv(kVar, "12", 1);
    EXPECT_TRUE(tea::envClamped(kVar, range, v));
    EXPECT_EQ(v, 12);
    ::setenv(kVar, "junk", 1);
    EXPECT_FALSE(tea::envClamped(kVar, range, v));
    EXPECT_EQ(v, 12);
    ::unsetenv(kVar);
}

TEST(ParseKv, FirstKeyWinsAndValuesMayBeEmpty)
{
    auto kv = tea::parseKv("a 1\n\nb two words\nc\na 2\n");
    ASSERT_EQ(kv.size(), 3u);
    EXPECT_EQ(kv["a"], "1");
    EXPECT_EQ(kv["b"], "two words");
    EXPECT_EQ(kv["c"], "");
}
