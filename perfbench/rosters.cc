#include "rosters.hh"

#include <memory>
#include <utility>

#include "baselines/baselines.hh"
#include "base/logging.hh"
#include "workloads/ml_workloads.hh"
#include "workloads/query_workloads.hh"
#include "workloads/service_workloads.hh"
#include "workloads/text_workloads.hh"

namespace wcrt::perfbench {

namespace {

using TA = TextAlgorithm;
using MA = MlAlgorithm;
using QK = QueryKind;
using SK = StackKind;

// The four constructors mirror registry.cc's helpers of the same name,
// with the dataset seed passed through instead of pinned.

SeededEntry
text(const std::string &name, TA algo, SK stack, uint64_t seed,
     double factor = 1.0, CorpusChoice corpus = CorpusChoice::Wikipedia)
{
    return {name, [=](double scale) -> WorkloadPtr {
                return std::make_unique<TextWorkload>(
                    algo, stack, scale * factor, seed, corpus);
            }};
}

SeededEntry
ml(const std::string &name, MA algo, SK stack, uint64_t seed)
{
    return {name, [=](double scale) -> WorkloadPtr {
                return std::make_unique<MlWorkload>(algo, stack, scale,
                                                    seed);
            }};
}

SeededEntry
sql(const std::string &name, QK q, SK stack, uint64_t seed)
{
    return {name, [=](double scale) -> WorkloadPtr {
                return std::make_unique<QueryWorkload>(q, stack, scale,
                                                       seed);
            }};
}

SeededEntry
service(const std::string &name, uint64_t seed, double factor = 1.0)
{
    return {name, [=](double scale) -> WorkloadPtr {
                return std::make_unique<HBaseReadWorkload>(
                    scale * factor, seed);
            }};
}

} // namespace

std::vector<SeededEntry>
fullRoster77(uint64_t seed)
{
    const std::pair<TA, const char *> algos[] = {
        {TA::WordCount, "WordCount"},
        {TA::Grep, "Grep"},
        {TA::Sort, "Sort"},
        {TA::InvertedIndex, "Index"},
    };
    const std::pair<SK, const char *> stacks[] = {
        {SK::Hadoop, "H"},
        {SK::Spark, "S"},
        {SK::Mpi, "M"},
    };
    const std::pair<CorpusChoice, const char *> corpora[] = {
        {CorpusChoice::Wikipedia, "wiki"},
        {CorpusChoice::AmazonReviews, "amazon"},
    };
    std::vector<SeededEntry> v;
    for (auto [algo, aname] : algos)
        for (auto [stack, sname] : stacks)
            for (auto [corpus, cname] : corpora)
                v.push_back(text(std::string(sname) + "-" + aname + "@" +
                                     cname,
                                 algo, stack, seed, 1.0, corpus));

    for (auto algo : {TA::WordCount, TA::Sort}) {
        const char *aname = algo == TA::WordCount ? "WordCount" : "Sort";
        for (auto [stack, sname] : stacks)
            for (auto [corpus, cname] : corpora)
                v.push_back(text(std::string(sname) + "-" + aname + "@" +
                                     cname + "-half",
                                 algo, stack, seed, 0.5, corpus));
    }

    const std::pair<QK, const char *> queries[] = {
        {QK::SelectQuery, "SelectQuery"},
        {QK::Project, "Project"},
        {QK::OrderBy, "OrderBy"},
        {QK::Difference, "Difference"},
        {QK::Aggregation, "Aggregation"},
        {QK::Join, "Join"},
        {QK::TpcdsQ3, "TPC-DS-query3"},
        {QK::TpcdsQ8, "TPC-DS-query8"},
        {QK::TpcdsQ10, "TPC-DS-query10"},
    };
    const std::pair<SK, const char *> sql_stacks[] = {
        {SK::Hive, "H"},
        {SK::Shark, "S"},
        {SK::Impala, "I"},
    };
    for (auto [q, qname] : queries)
        for (auto [stack, sname] : sql_stacks)
            v.push_back(sql(std::string(sname) + "-" + qname, q, stack,
                            seed));

    const std::pair<MA, const char *> mls[] = {
        {MA::KMeans, "Kmeans"},
        {MA::PageRank, "PageRank"},
        {MA::NaiveBayes, "NaiveBayes"},
        {MA::ConnectedComponents, "ConnComp"},
    };
    for (auto [algo, aname] : mls)
        for (auto [stack, sname] : stacks)
            v.push_back(ml(std::string(sname) + "-" + aname, algo, stack,
                           seed));

    v.push_back(service("H-Read", seed, 1.0));
    v.push_back(service("H-Read-half", seed, 0.5));

    if (v.size() != 77)
        wcrt_panic("roster has ", v.size(), " entries, expected 77");
    return v;
}

std::vector<SeededEntry>
representatives17(uint64_t seed)
{
    return {
        service("H-Read", seed),
        sql("H-Difference", QK::Difference, SK::Hive, seed),
        sql("I-SelectQuery", QK::SelectQuery, SK::Impala, seed),
        sql("H-TPC-DS-query3", QK::TpcdsQ3, SK::Hive, seed),
        text("S-WordCount", TA::WordCount, SK::Spark, seed),
        sql("I-OrderBy", QK::OrderBy, SK::Impala, seed),
        text("H-Grep", TA::Grep, SK::Hadoop, seed),
        sql("S-TPC-DS-query10", QK::TpcdsQ10, SK::Shark, seed),
        sql("S-Project", QK::Project, SK::Shark, seed),
        sql("S-OrderBy", QK::OrderBy, SK::Shark, seed),
        ml("S-Kmeans", MA::KMeans, SK::Spark, seed),
        sql("S-TPC-DS-query8", QK::TpcdsQ8, SK::Shark, seed),
        ml("S-PageRank", MA::PageRank, SK::Spark, seed),
        text("S-Grep", TA::Grep, SK::Spark, seed),
        text("H-WordCount", TA::WordCount, SK::Hadoop, seed),
        ml("H-NaiveBayes", MA::NaiveBayes, SK::Hadoop, seed),
        text("S-Sort", TA::Sort, SK::Spark, seed),
    };
}

std::vector<SeededEntry>
mrcRoster(uint64_t seed)
{
    std::vector<SeededEntry> v = {
        sql("H-Difference", QK::Difference, SK::Hive, seed),
        sql("H-TPC-DS-query3", QK::TpcdsQ3, SK::Hive, seed),
        text("H-Grep", TA::Grep, SK::Hadoop, seed),
        text("H-WordCount", TA::WordCount, SK::Hadoop, seed),
        ml("H-NaiveBayes", MA::NaiveBayes, SK::Hadoop, seed),
    };
    for (const auto &b : baselineSuite(BaselineSuite::Parsec))
        v.push_back({b.name, b.make});
    return v;
}

} // namespace wcrt::perfbench
