/**
 * Tests for the leveled logging sinks.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

using namespace tea;

TEST(Logging, QuietSilencesEverySink)
{
    // setQuiet(true) must gate the status sinks too, not only warnings.
    setQuiet(true);
    EXPECT_TRUE(quiet());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    inform("status %d", 1);
    logInfo("status %d", 2);
    warn("warning %d", 3);
    logWarn("warning %d", 4);
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    setQuiet(false);
    EXPECT_FALSE(quiet());
    EXPECT_EQ(out, "");
    EXPECT_EQ(err, "");
}
