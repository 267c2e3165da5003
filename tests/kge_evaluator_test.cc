#include "kge/evaluator.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "kge/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

TEST(MetricsFromRanksTest, EmptyIsZeroed) {
  const LinkPredictionMetrics m = MetricsFromRanks({});
  EXPECT_EQ(m.num_ranks, 0u);
  EXPECT_EQ(m.mrr, 0.0);
}

TEST(MetricsFromRanksTest, HandComputed) {
  const LinkPredictionMetrics m = MetricsFromRanks({1.0, 2.0, 4.0, 20.0});
  EXPECT_EQ(m.num_ranks, 4u);
  EXPECT_NEAR(m.mrr, (1.0 + 0.5 + 0.25 + 0.05) / 4.0, 1e-12);
  EXPECT_NEAR(m.mean_rank, 27.0 / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 0.25);
  EXPECT_DOUBLE_EQ(m.hits_at_3, 0.5);
  EXPECT_DOUBLE_EQ(m.hits_at_10, 0.75);
}

TEST(RankAgainstScoresTest, TopScoreIsRankOne) {
  EXPECT_DOUBLE_EQ(RankAgainstScores({5.0, 1.0, 2.0}, 0, nullptr), 1.0);
}

TEST(RankAgainstScoresTest, WorstScoreIsLastRank) {
  EXPECT_DOUBLE_EQ(RankAgainstScores({5.0, 1.0, 2.0}, 1, nullptr), 3.0);
}

TEST(RankAgainstScoresTest, TiesGetMidRank) {
  // Target tied with one other: rank = 1 + 0 greater + 1 tie / 2 = 1.5.
  EXPECT_DOUBLE_EQ(RankAgainstScores({3.0, 3.0, 1.0}, 0, nullptr), 1.5);
  // All equal among 4: rank = 1 + 3/2 = 2.5.
  EXPECT_DOUBLE_EQ(RankAgainstScores({2.0, 2.0, 2.0, 2.0}, 2, nullptr), 2.5);
}

TEST(RankAgainstScoresTest, ExclusionRemovesCompetitors) {
  std::vector<char> excluded = {1, 0, 0};
  // Entity 0 (score 5) is filtered out, so target 2 only competes with 1.
  EXPECT_DOUBLE_EQ(RankAgainstScores({5.0, 1.0, 2.0}, 2, &excluded), 1.0);
}

TEST(RankAgainstScoresTest, TargetNeverCompetesWithItself) {
  EXPECT_DOUBLE_EQ(RankAgainstScores({7.0}, 0, nullptr), 1.0);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RankAgainstScoresTest, NanTargetRanksLast) {
  // Every finite competitor beats a NaN target: rank = 1 + 3 greater.
  EXPECT_DOUBLE_EQ(RankAgainstScores({1.0, kNaN, -2.0, 0.5}, 1, nullptr),
                   4.0);
  // Alone, a NaN target is still rank 1.
  EXPECT_DOUBLE_EQ(RankAgainstScores({kNaN}, 0, nullptr), 1.0);
}

TEST(RankAgainstScoresTest, NanTargetTiesOtherNans) {
  // 1 finite greater + 2 NaN ties: rank = 1 + 1 + 2/2 = 3.
  EXPECT_DOUBLE_EQ(RankAgainstScores({kNaN, 3.0, kNaN, kNaN}, 0, nullptr),
                   3.0);
}

TEST(RankAgainstScoresTest, NanCompetitorsNeverBeatTarget) {
  EXPECT_DOUBLE_EQ(RankAgainstScores({kNaN, -5.0, kNaN}, 1, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(RankAgainstScores({kNaN, -5.0, 0.0, kNaN}, 1, nullptr),
                   2.0);
}

TEST(RankAgainstScoresTest, InfinitiesOrderAndTie) {
  const std::vector<double> scores = {kInf, 0.0, -kInf, kInf, kNaN};
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 0, nullptr), 1.5);
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 1, nullptr), 3.0);
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 2, nullptr), 4.0);
  // A NaN target is beaten by -Inf too.
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 4, nullptr), 5.0);
}

TEST(RankAgainstScoresTest, NanTargetRespectsExclusion) {
  const std::vector<double> scores = {2.0, kNaN, kNaN, -1.0, 4.0};
  // Excluding entity 0 (finite) and entity 2 (NaN) leaves 2 finite
  // competitors: rank = 1 + 2.
  std::vector<char> excluded = {1, 0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 1, &excluded), 3.0);
  // Nothing excluded: 3 greater + 1 NaN tie = 4.5.
  EXPECT_DOUBLE_EQ(RankAgainstScores(scores, 1, nullptr), 4.5);
}

/// A deterministic stub model whose score is a fixed function of ids, for
/// exact rank assertions without training.
class StubModel : public Model {
 public:
  StubModel(size_t entities, size_t relations)
      : entities_(entities), relations_(relations), dummy_(1, 1) {}

  ModelKind kind() const override { return ModelKind::kDistMult; }
  size_t num_entities() const override { return entities_; }
  size_t num_relations() const override { return relations_; }
  size_t embedding_dim() const override { return 1; }

  double Score(const Triple& t) const override {
    // Higher object id scores higher; subject shifts the scale.
    return static_cast<double>(t.object) -
           0.01 * static_cast<double>(t.subject);
  }
  void ScoreObjects(EntityId s, RelationId r,
                    std::vector<double>* out) const override {
    out->resize(entities_);
    for (EntityId o = 0; o < entities_; ++o) (*out)[o] = Score({s, r, o});
  }
  void ScoreSubjects(RelationId r, EntityId o,
                     std::vector<double>* out) const override {
    out->resize(entities_);
    for (EntityId s = 0; s < entities_; ++s) (*out)[s] = Score({s, r, o});
  }
  void AccumulateScoreGradient(const Triple&, double,
                               GradientBatch*) override {}
  std::vector<NamedTensor> Parameters() override {
    return {{"dummy", &dummy_}};
  }
  void InitParameters(Rng*) override {}

 private:
  size_t entities_;
  size_t relations_;
  Tensor dummy_;
};

TEST(EvaluateLinkPredictionTest, RawRanksMatchStubOrdering) {
  Dataset d("stub", 5, 1);
  ASSERT_TRUE(d.train().AddAll({{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 0, 0},
                                {4, 0, 1}})
                  .ok());
  ASSERT_TRUE(d.test().Add({1, 0, 4}).ok());
  StubModel model(5, 1);
  EvalConfig config;
  config.filtered = false;
  auto metrics = EvaluateLinkPrediction(model, d, d.test(), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // Object side: object 4 has the top score among 5 => rank 1.
  // Subject side: score decreases with subject id, subject 1 is second
  // best => rank 2. MRR = (1 + 0.5) / 2.
  EXPECT_NEAR(metrics.value().mrr, 0.75, 1e-9);
  EXPECT_EQ(metrics.value().num_ranks, 2u);
}

TEST(EvaluateLinkPredictionTest, FilteredProtocolImprovesRank) {
  Dataset d("stub", 5, 1);
  // (1, 0, 4) is the test triple; (1, 0, 3) is a known train triple whose
  // object would otherwise compete... but scores increase with object id,
  // so instead plant (1, 0, 4)'s competitor: nothing outranks 4. Use
  // subject side: subject 0 outranks subject 1; make (0, 0, 4) known so the
  // filtered protocol removes it.
  ASSERT_TRUE(d.train().AddAll({{0, 0, 4}, {1, 0, 2}, {2, 0, 3}, {3, 0, 0},
                                {4, 0, 1}})
                  .ok());
  ASSERT_TRUE(d.test().Add({1, 0, 4}).ok());
  StubModel model(5, 1);
  EvalConfig raw;
  raw.filtered = false;
  EvalConfig filtered;
  filtered.filtered = true;
  auto m_raw = EvaluateLinkPrediction(model, d, d.test(), raw);
  auto m_filtered = EvaluateLinkPrediction(model, d, d.test(), filtered);
  ASSERT_TRUE(m_raw.ok() && m_filtered.ok());
  EXPECT_GT(m_filtered.value().mrr, m_raw.value().mrr);
}

TEST(EvaluateLinkPredictionTest, RejectsMismatchedModel) {
  Dataset d("stub", 5, 1);
  StubModel model(7, 1);
  EXPECT_FALSE(EvaluateLinkPrediction(model, d, d.test()).ok());
}

TEST(EvaluateLinkPredictionTest, ShapeContractMatchesDiscovery) {
  // ValidateModelShape is shared with DiscoverFacts: entities must match
  // exactly; the model may know extra relations (superset vocabulary) but
  // never fewer than the dataset.
  Dataset d("stub", 5, 2);
  ASSERT_TRUE(d.train().Add({0, 0, 1}).ok());
  ASSERT_TRUE(d.test().Add({1, 1, 2}).ok());
  StubModel extra_relations(5, 4);
  EXPECT_TRUE(
      EvaluateLinkPrediction(extra_relations, d, d.test()).ok());
  EXPECT_TRUE(
      EvaluateByPopularity(extra_relations, d, d.test(), 2, {}).ok());
  StubModel fewer_relations(5, 1);
  EXPECT_FALSE(
      EvaluateLinkPrediction(fewer_relations, d, d.test()).ok());
  StubModel fewer_entities(4, 2);
  EXPECT_FALSE(
      EvaluateLinkPrediction(fewer_entities, d, d.test()).ok());
  StubModel extra_entities(6, 2);
  EXPECT_FALSE(
      EvaluateLinkPrediction(extra_entities, d, d.test()).ok());
}

TEST(EvaluateLinkPredictionTest, ParallelMatchesSerial) {
  Dataset d("stub", 30, 2);
  for (EntityId e = 0; e + 1 < 30; ++e) {
    ASSERT_TRUE(d.train().Add({e, e % 2u, e + 1u}).ok());
  }
  for (EntityId e = 0; e < 10; ++e) {
    ASSERT_TRUE(d.test().Add({e, (e + 1u) % 2u, (e + 5u) % 29u}).ok());
  }
  StubModel model(30, 2);
  auto serial = EvaluateLinkPrediction(model, d, d.test());
  ThreadPool pool(4);
  auto parallel =
      EvaluateLinkPrediction(model, d, d.test(), EvalConfig(), &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial.value().mrr, parallel.value().mrr);
  EXPECT_EQ(serial.value().mean_rank, parallel.value().mean_rank);
  EXPECT_EQ(serial.value().num_ranks, parallel.value().num_ranks);
}

TEST(RankTripleTest, StubRanksBothSides) {
  TripleStore train(4, 1);
  ASSERT_TRUE(train.AddAll({{0, 0, 1}, {1, 0, 2}}).ok());
  StubModel model(4, 1);
  // Candidate (2, 0, 3): object 3 is top => object_rank 1.
  // Subjects scored by -0.01*s: subject 2 is third best => rank 3.
  const SideRanks ranks = RankTriple(model, {2, 0, 3}, train, false);
  EXPECT_DOUBLE_EQ(ranks.object_rank, 1.0);
  EXPECT_DOUBLE_EQ(ranks.subject_rank, 3.0);
}

TEST(RankTripleTest, FilteringExcludesKnownCompetitors) {
  TripleStore train(4, 1);
  // (0, 0, 3) known: for candidate (0, 0, 2), object 3 outranks object 2
  // raw, but is excluded under filtering.
  ASSERT_TRUE(train.AddAll({{0, 0, 3}, {1, 0, 0}}).ok());
  StubModel model(4, 1);
  const SideRanks raw = RankTriple(model, {0, 0, 2}, train, false);
  const SideRanks filtered = RankTriple(model, {0, 0, 2}, train, true);
  EXPECT_DOUBLE_EQ(raw.object_rank, 2.0);
  EXPECT_DOUBLE_EQ(filtered.object_rank, 1.0);
}

}  // namespace
}  // namespace kgfd
