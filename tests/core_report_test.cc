#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace kgfd {
namespace {

DiscoveredFact MakeFact(EntityId s, RelationId r, EntityId o, double rank) {
  DiscoveredFact f;
  f.triple = {s, r, o};
  f.rank = rank;
  return f;
}

TEST(SummarizeByRelationTest, EmptyInput) {
  EXPECT_TRUE(SummarizeByRelation({}).empty());
}

TEST(SummarizeByRelationTest, GroupsAndAggregates) {
  const std::vector<DiscoveredFact> facts = {
      MakeFact(0, 1, 2, 2.0), MakeFact(1, 1, 3, 4.0),
      MakeFact(2, 0, 4, 1.0)};
  const auto summaries = SummarizeByRelation(facts);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].relation, 0u);
  EXPECT_EQ(summaries[0].num_facts, 1u);
  EXPECT_DOUBLE_EQ(summaries[0].best_rank, 1.0);
  EXPECT_DOUBLE_EQ(summaries[0].mrr, 1.0);
  EXPECT_EQ(summaries[1].relation, 1u);
  EXPECT_EQ(summaries[1].num_facts, 2u);
  EXPECT_DOUBLE_EQ(summaries[1].best_rank, 2.0);
  EXPECT_DOUBLE_EQ(summaries[1].mean_rank, 3.0);
  EXPECT_DOUBLE_EQ(summaries[1].mrr, (0.5 + 0.25) / 2.0);
}

TEST(FactsTsvTest, RoundTripsWithNames) {
  Vocabulary entities;
  Vocabulary relations;
  entities.AddOrGet("alice");
  entities.AddOrGet("bob");
  relations.AddOrGet("knows");
  const std::vector<DiscoveredFact> facts = {MakeFact(0, 0, 1, 3.5),
                                             MakeFact(1, 0, 0, 12.0)};
  const std::string path = ::testing::TempDir() + "/kgfd_facts_test.tsv";
  ASSERT_TRUE(WriteFactsTsv(path, facts, entities, relations).ok());

  Vocabulary e2, r2;
  auto loaded = ReadFactsTsv(path, &e2, &r2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(e2.Name(loaded.value()[0].triple.subject).value(), "alice");
  EXPECT_EQ(r2.Name(loaded.value()[0].triple.relation).value(), "knows");
  EXPECT_DOUBLE_EQ(loaded.value()[0].rank, 3.5);
  EXPECT_DOUBLE_EQ(loaded.value()[1].rank, 12.0);
  std::remove(path.c_str());
}

TEST(FactsTsvTest, ReadRejectsMalformedRows) {
  const std::string path = ::testing::TempDir() + "/kgfd_bad_facts.tsv";
  {
    std::ofstream out(path);
    out << "a\tr\tb\n";  // missing rank column
  }
  Vocabulary e, r;
  EXPECT_FALSE(ReadFactsTsv(path, &e, &r).ok());
  std::remove(path.c_str());
}

TEST(FactsTsvTest, MissingFileIsIoError) {
  Vocabulary e, r;
  EXPECT_FALSE(ReadFactsTsv("/no/such/facts.tsv", &e, &r).ok());
}

}  // namespace
}  // namespace kgfd
