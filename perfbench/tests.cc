/**
 * @file
 * Unit tests for the benchmark driver's own arithmetic and checks:
 * span self time, the statistics digest and its reference lookup,
 * the timing wrapper, and the seeded rosters against the registry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include <unistd.h>

#include "baselines/baselines.hh"
#include "digest.hh"
#include "rosters.hh"
#include "spans.hh"
#include "trace/mix_counter.hh"
#include "tracefile/capture.hh"
#include "workloads/registry.hh"

using namespace wcrt;
using namespace wcrt::perfbench;

namespace {

Span
span(const char *name, int64_t start, int64_t end, int64_t parent,
     int64_t task = -1)
{
    return {name, start, end, parent, task};
}

std::string
fileBytes(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

std::string
capture(const WorkloadPtr &w, const std::filesystem::path &p)
{
    captureTrace(*w, p.string(), 0.01);
    return fileBytes(p);
}

class TempDir
{
  public:
    TempDir()
        : dir(std::filesystem::temp_directory_path() /
              ("perfbench-test-" + std::to_string(::getpid())))
    {
        std::filesystem::create_directories(dir);
    }
    ~TempDir() { std::filesystem::remove_all(dir); }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::filesystem::path dir;
};

} // namespace

TEST(SelfTime, ParallelChildrenCountOnce)
{
    // Two overlapping children on different threads cover [10, 60].
    std::vector<Span> spans = {
        span("bench.pass", 0, 100, -1),
        span("tracefile.replay", 10, 40, 0, 0),
        span("tracefile.replay", 30, 60, 0, 1),
    };
    auto t = selfTimes(spans);
    EXPECT_DOUBLE_EQ(t["bench.pass"].totalNs, 100);
    EXPECT_DOUBLE_EQ(t["bench.pass"].selfNs, 50);
    EXPECT_DOUBLE_EQ(t["tracefile.replay"].totalNs, 60);
    EXPECT_DOUBLE_EQ(t["tracefile.replay"].selfNs, 60);
}

TEST(SelfTime, NestedAndClippedChildren)
{
    std::vector<Span> spans = {
        span("bench.pass", 0, 100, -1),
        span("tracefile.replay", 10, 40, 0, 0),
        span("sim.cpu", 15, 25, 1, 0),
        span("sim.cpu", 20, 30, 1, 0),   // overlaps the first batch
        span("tracefile.replay", 40, 70, 0, 1),
        span("sim.cpu", 60, 90, 4, 1),   // runs past its parent
        span("sim.cpu", 80, 85, 0, 1),   // disjoint, starts later
    };
    auto t = selfTimes(spans);
    // Root: children cover [10, 70] and [80, 85].
    EXPECT_DOUBLE_EQ(t["bench.pass"].selfNs, 100 - 60 - 5);
    // First replay: batches cover [15, 30]; second: clipped [60, 70].
    EXPECT_DOUBLE_EQ(t["tracefile.replay"].selfNs, (30 - 15) + (30 - 10));
    EXPECT_DOUBLE_EQ(t["sim.cpu"].selfNs, 10 + 10 + 30 + 5);
    EXPECT_DOUBLE_EQ(t["sim.cpu"].totalNs, 55);
}

TEST(SelfTime, LeafSpanSelfEqualsDuration)
{
    auto t = selfTimes({span("workloads.emit", 5, 12, -1, 3)});
    EXPECT_DOUBLE_EQ(t["workloads.emit"].selfNs, 7);
    EXPECT_TRUE(selfTimes({}).empty());
}

TEST(SpanLog, RecordsParentsTasksAndOrder)
{
    SpanLog log;
    int64_t root = log.begin("bench.pass", -1, -1);
    {
        ScopedSpan child(log, "core.analyzer", root, 4);
        EXPECT_EQ(child.id(), 1);
    }
    log.end(root);
    auto spans = log.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, root);
    EXPECT_EQ(spans[1].task, 4);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_LE(spans[1].endNs, spans[0].endNs);
    std::ostringstream out;
    log.write(out);
    EXPECT_NE(out.str().find("core.analyzer"), std::string::npos);
}

TEST(TimedSink, ForwardsEveryOpAndSpansEachBlock)
{
    std::vector<MicroOp> ops(5000);
    for (size_t i = 0; i < ops.size(); ++i)
        ops[i].kind = i % 3 ? OpKind::Load : OpKind::IntAlu;
    MixCounter plain;
    plain.consumeOps(ops.data(), ops.size());

    MixCounter inner;
    SpanLog log;
    TimedSink timed(inner, log, "trace.mix", -1, 0);
    timed.consumeOps(ops.data(), ops.size());
    EXPECT_EQ(timed.ops(), ops.size());
    EXPECT_EQ(inner.total(), plain.total());
    EXPECT_EQ(inner.count(OpKind::Load), plain.count(OpKind::Load));
    EXPECT_EQ(log.spans().size(), 2u);  // 4096 + 904 ops
}

TEST(Digest, ExactTextRoundTrips)
{
    double v = 0.1 + 0.2;
    EXPECT_EQ(std::strtod(exactText(v).c_str(), nullptr), v);
    EXPECT_NE(exactText(v), exactText(0.3));
}

TEST(Digest, ReferenceMatchesAndPerturbedOutputFails)
{
    auto build = [](double mpki) {
        Digest d;
        d.add("H-Read.m0", mpki);
        d.add("H-Read.instructions", uint64_t{123456});
        d.add("cluster0.representative", std::string("H-Read"));
        return d;
    };
    Digest good = build(12.5);
    std::string reference = "# workload seed digest\n\n"
                            "mix 7 " + good.hex() + "\n";

    EXPECT_EQ(checkDigest(reference, "mix", 7, good.hex()),
              DigestCheck::Match);
    EXPECT_TRUE(digestAccepted(DigestCheck::Match, 7));

    // One ulp on one statistic changes the digest and fails the check.
    Digest perturbed = build(std::nextafter(12.5, 13.0));
    EXPECT_NE(perturbed.hex(), good.hex());
    EXPECT_EQ(checkDigest(reference, "mix", 7, perturbed.hex()),
              DigestCheck::Mismatch);
    EXPECT_FALSE(digestAccepted(DigestCheck::Mismatch, 7));

    // Other seeds and workloads have no reference.
    EXPECT_EQ(checkDigest(reference, "mix", 8, good.hex()),
              DigestCheck::NoReference);
    EXPECT_EQ(checkDigest(reference, "mrc", 7, good.hex()),
              DigestCheck::NoReference);
}

TEST(Digest, DefaultSeedWithoutReferenceFails)
{
    // A missing or garbled line at the default seed must not pass.
    for (std::string reference : {std::string(""),
                                  std::string("# mix 7 00000000000000ff\n"),
                                  std::string("mix 7\n"),
                                  std::string("mrc 7 00000000000000ff\n")}) {
        DigestCheck c = checkDigest(reference, "mix", kReferenceSeed,
                                    "00000000000000ff");
        EXPECT_EQ(c, DigestCheck::NoReference) << reference;
        EXPECT_FALSE(digestAccepted(c, kReferenceSeed)) << reference;
    }
    // Other seeds have no stored digest and pass on their invariants.
    EXPECT_TRUE(digestAccepted(DigestCheck::NoReference, 8));
    EXPECT_FALSE(digestAccepted(DigestCheck::Mismatch, 8));
}

TEST(Digest, ShippedReferenceCoversEveryWorkload)
{
    std::ifstream in(PERFBENCH_REFERENCE_FILE);
    ASSERT_TRUE(in) << PERFBENCH_REFERENCE_FILE;
    std::string reference((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    for (const char *w : {"reduce77", "mrc", "mix"})
        EXPECT_NE(checkDigest(reference, w, kReferenceSeed,
                              "not-a-digest"),
                  DigestCheck::NoReference)
            << w;
}

TEST(Rosters, NamesFollowTheRegistry)
{
    auto full = fullRoster77(7);
    ASSERT_EQ(full.size(), fullRoster().size());
    for (size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(full[i].name, fullRoster()[i].name);

    auto reps = representatives17(7);
    ASSERT_EQ(reps.size(), representativeWorkloads().size());
    for (size_t i = 0; i < reps.size(); ++i)
        EXPECT_EQ(reps[i].name, representativeWorkloads()[i].name);

    auto mrc = mrcRoster(7);
    ASSERT_EQ(mrc.size(), 6u);
    EXPECT_EQ(mrc.back().name, "PARSEC-like");
}

TEST(Rosters, SeedSevenCapturesTheRegistryTraces)
{
    TempDir tmp;
    auto check = [&](const SeededEntry &seeded,
                     const std::function<WorkloadPtr(double)> &registry) {
        std::string a = capture(seeded.make(0.01), tmp.dir / "a.wtrace");
        std::string b = capture(registry(0.01), tmp.dir / "b.wtrace");
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, b) << seeded.name;
    };
    auto full = fullRoster77(7);
    for (size_t i = 0; i < full.size(); ++i)
        check(full[i], fullRoster()[i].make);
    auto reps = representatives17(7);
    for (size_t i = 0; i < reps.size(); ++i)
        check(reps[i], representativeWorkloads()[i].make);
    auto mrc = mrcRoster(7);
    for (const auto &e : mrc) {
        if (e.name == "PARSEC-like")
            check(e, baselineSuite(BaselineSuite::Parsec).front().make);
        else
            check(e, findWorkload(e.name).make);
    }
}

TEST(Rosters, OtherSeedsChangeTheInputs)
{
    TempDir tmp;
    for (const char *name : {"S-WordCount", "S-Kmeans", "H-Read",
                             "I-SelectQuery"}) {
        const SeededEntry *seven = nullptr;
        const SeededEntry *other = nullptr;
        auto a = representatives17(7);
        auto b = representatives17(11);
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].name == name) {
                seven = &a[i];
                other = &b[i];
            }
        }
        ASSERT_TRUE(seven && other) << name;
        EXPECT_NE(capture(seven->make(0.01), tmp.dir / "a.wtrace"),
                  capture(other->make(0.01), tmp.dir / "b.wtrace"))
            << name;
    }
}
