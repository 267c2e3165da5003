#include "core/discovery_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/discovery.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "obs/metrics.h"

namespace kgfd {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "cache";
    c.num_entities = 50;
    c.num_relations = 4;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 31;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 10;
    TrainerConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 5;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

TEST(DiscoveryCacheTest, WeightsComputedOnceAndShared) {
  const Fixture& f = SharedFixture();
  MetricsRegistry metrics;
  DiscoveryCache cache(&metrics);

  auto first = cache.GetOrComputeWeights(SamplingStrategy::kEntityFrequency,
                                         f.dataset.train());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrComputeWeights(SamplingStrategy::kEntityFrequency,
                                          f.dataset.train());
  ASSERT_TRUE(second.ok());
  // Pointer equality: the second call must serve the SAME entry, not an
  // equal recomputation.
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.num_weight_entries(), 1u);
  EXPECT_EQ(cache.weights_hits(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsHitsCounter)->value(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsMissesCounter)->value(), 1u);

  // A different strategy is a distinct entry.
  auto other = cache.GetOrComputeWeights(SamplingStrategy::kUniformRandom,
                                         f.dataset.train());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value().get(), first.value().get());
  EXPECT_EQ(cache.num_weight_entries(), 2u);
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].triple, &b[i].triple, sizeof(Triple)) != 0 ||
        std::memcmp(&a[i].rank, &b[i].rank, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(DiscoveryCacheTest, WarmCacheRunIsBitIdenticalToColdRun) {
  // The serving contract: a second job over the same (model, KG) served
  // from a warm cache must produce bit-identical facts — cached weights and
  // samplers are the exact ones a cold run builds.
  const Fixture& f = SharedFixture();
  DiscoveryOptions options;
  options.top_n = 25;
  options.max_candidates = 60;
  options.seed = 77;

  const auto cold = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(cold.ok());

  MetricsRegistry metrics;
  DiscoveryCache cache(&metrics);
  options.metrics = &metrics;
  options.shared_cache = &cache;
  const auto warming = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(warming.ok());
  EXPECT_TRUE(SameFacts(warming.value().facts, cold.value().facts));
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsHitsCounter)->value(), 0u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsMissesCounter)->value(), 1u);

  const auto warm = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(SameFacts(warm.value().facts, cold.value().facts));
  // The warm run's weights were cache-served: one hit, no new miss.
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsHitsCounter)->value(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsMissesCounter)->value(), 1u);
}

}  // namespace
}  // namespace kgfd
