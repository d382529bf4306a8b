/**
 * @file
 * Tests for the chaos-profile layer: built-in registry resolution,
 * key=value file parsing with file:line diagnostics, validation, and
 * the determinism contract — the poison draw is a stateless hash and
 * the rendered injection schedule is byte-identical per
 * (profile, seed).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "fault/chaos_profile.hh"

namespace nuat {
namespace {

/** Write @p body to a temp file; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &body)
        : path_(std::string(::testing::TempDir()) +
                "chaos_profile_test.conf")
    {
        std::ofstream out(path_);
        out << body;
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(ChaosProfile, BuiltinsResolveAndValidate)
{
    const std::vector<std::string> names = chaosProfileNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        const ChaosProfile *p = findChaosProfile(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name, name);
        EXPECT_TRUE(p->any()) << name << " injects nothing";
        p->validate();
        // resolve must return the same profile by value.
        const ChaosProfile r = resolveChaosProfile(name);
        EXPECT_EQ(r.name, p->name);
        EXPECT_EQ(r.burstLen, p->burstLen);
        EXPECT_EQ(r.poisonFraction, p->poisonFraction);
        EXPECT_EQ(r.stalls.size(), p->stalls.size());
    }
    EXPECT_EQ(findChaosProfile("no-such-profile"), nullptr);
}

TEST(ChaosProfile, StormStallCoversAllThreeHazards)
{
    const ChaosProfile *p = findChaosProfile("storm-stall");
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->burstLen, 0u);
    EXPECT_GT(p->burstGap, 0u);
    EXPECT_GT(p->poisonFraction, 0.0);
    ASSERT_EQ(p->stalls.size(), 1u);
    EXPECT_EQ(p->stalls[0].shard, 0u);
}

TEST(ChaosProfile, FileRoundTrips)
{
    const TempFile f("# a comment\n"
                     "burst_len = 16\n"
                     "burst_gap = 64\n"
                     "poison_fraction = 0.25\n"
                     "stall = 1 500 2000\n"
                     "stall = 1 9000 100\n");
    const ChaosProfile p = loadChaosProfileFile(f.path());
    EXPECT_EQ(p.burstLen, 16u);
    EXPECT_EQ(p.burstGap, 64u);
    EXPECT_DOUBLE_EQ(p.poisonFraction, 0.25);
    ASSERT_EQ(p.stalls.size(), 2u);
    EXPECT_EQ(p.stalls[0].shard, 1u);
    EXPECT_EQ(p.stalls[0].atStep, 500u);
    EXPECT_EQ(p.stalls[0].forSteps, 2000u);
    EXPECT_EQ(p.stalls[1].atStep, 9000u);
}

TEST(ChaosProfile, MalformedFileDiagnosticsCarryLine)
{
    setPanicThrows(true);

    {
        const TempFile f("burst_len = 16\nbogus line\n");
        try {
            loadChaosProfileFile(f.path());
            FAIL() << "malformed line accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(":2:"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        const TempFile f("poison_fraction = banana\n");
        try {
            loadChaosProfileFile(f.path());
            FAIL() << "garbage value accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(":1:"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        const TempFile f("no_such_key = 1\n");
        EXPECT_THROW(loadChaosProfileFile(f.path()),
                     std::runtime_error);
    }
    // Numbers follow the command-line rules: digits only, no wrap,
    // and the value must fit its field (a stall's shard is unsigned).
    for (const char *bad :
         {"burst_len = -1\nburst_gap = 10\n", "stall = 0 10 20 junk\n",
          "stall = 4294967296 10 20\n", "poison_fraction = nan\n"}) {
        const TempFile f(bad);
        try {
            loadChaosProfileFile(f.path());
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(f.path() + ":1:"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(loadChaosProfileFile("/nonexistent/chaos.conf"),
                 std::runtime_error);

    setPanicThrows(false);
}

TEST(ChaosProfile, ValidateRejectsBadParameters)
{
    setPanicThrows(true);

    ChaosProfile p;
    p.poisonFraction = 1.5;
    EXPECT_THROW(p.validate(), std::logic_error);

    p = ChaosProfile{};
    p.burstLen = 8; // gap missing: open-loop pushing
    EXPECT_THROW(p.validate(), std::logic_error);

    p = ChaosProfile{};
    p.stalls = {{0, 100, 0}}; // zero-length stall
    EXPECT_THROW(p.validate(), std::logic_error);

    p = ChaosProfile{};
    p.stalls = {{0, 500, 10}, {0, 100, 10}}; // out of order
    EXPECT_THROW(p.validate(), std::logic_error);

    setPanicThrows(false);
}

TEST(ChaosProfile, PoisonDrawIsStatelessAndSeedSensitive)
{
    const ChaosProfile *p = findChaosProfile("poison");
    ASSERT_NE(p, nullptr);

    // Pure function: same coordinates agree regardless of call order.
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_EQ(chaosPoisons(*p, 42, 1, i),
                  chaosPoisons(*p, 42, 1, i));

    // The draw must actually depend on seed and producer: count
    // poisoned indices and require the sets to differ somewhere.
    unsigned diffSeed = 0;
    unsigned diffProducer = 0;
    unsigned hits = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const bool base = chaosPoisons(*p, 42, 1, i);
        hits += base ? 1u : 0u;
        diffSeed += base != chaosPoisons(*p, 43, 1, i) ? 1u : 0u;
        diffProducer += base != chaosPoisons(*p, 42, 2, i) ? 1u : 0u;
    }
    EXPECT_GT(diffSeed, 0u);
    EXPECT_GT(diffProducer, 0u);
    // ~5% of 4000 draws; loose bounds, just not degenerate.
    EXPECT_GT(hits, 50u);
    EXPECT_LT(hits, 800u);

    // A zero fraction never poisons.
    ChaosProfile none;
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(chaosPoisons(none, 42, 0, i));
}

TEST(ChaosProfile, ScheduleFingerprintIsByteIdentical)
{
    const ChaosProfile *p = findChaosProfile("storm-stall");
    ASSERT_NE(p, nullptr);
    const std::string a = chaosScheduleFingerprint(*p, 7, 2, 512);
    const std::string b = chaosScheduleFingerprint(*p, 7, 2, 512);
    EXPECT_EQ(a, b);
    // Different seed => different poison rows in the rendering.
    const std::string c = chaosScheduleFingerprint(*p, 8, 2, 512);
    EXPECT_NE(a, c);
    // The schedule section names the stall and the burst pacing.
    EXPECT_NE(a.find("stall 0 @20000"), std::string::npos);
    EXPECT_NE(a.find("burst 512/4096"), std::string::npos);
}

} // namespace
} // namespace nuat
