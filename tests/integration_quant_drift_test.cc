#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "kgfd.h"

namespace kgfd {
namespace {

// End-to-end drift contract for quantized storage: discovery on a
// quantized checkpoint must stay close to discovery on the float model
// it came from. "Close" is pinned numerically IN THE REPO (the constants
// below), so a quantization change that degrades downstream rankings
// fails here instead of surfacing as a quietly worse experiment. The
// float mmap backend, by contrast, is held to byte-identity: it stores
// the same floats, so the discovery TSV may not move at all.

/// Quantization changes scores, so ranks may shuffle — but int8 keeps
/// ~2.4 significant digits per row range, which empirically holds MRR
/// within a few points and the discovered fact set mostly intact. int16
/// has 256x the resolution; visible drift there means a bug, not noise.
constexpr double kMaxMrrDriftInt8 = 0.05;
constexpr double kMinFactJaccardInt8 = 0.60;
constexpr double kMaxMrrDriftInt16 = 0.005;
constexpr double kMinFactJaccardInt16 = 0.90;

DiscoveryOptions DriftOptions() {
  DiscoveryOptions o;
  o.top_n = 40;
  o.max_candidates = 80;
  o.strategy = SamplingStrategy::kEntityFrequency;
  o.seed = 20240807;
  return o;
}

/// %.17g: byte equality of the rendering == bit equality of the ranks.
std::string RenderFacts(const DiscoveryResult& result) {
  std::ostringstream out;
  char buffer[128];
  for (const DiscoveredFact& f : result.facts) {
    std::snprintf(buffer, sizeof(buffer), "%u\t%u\t%u\t%.17g\t%.17g\t%.17g\n",
                  f.triple.subject, f.triple.relation, f.triple.object,
                  f.rank, f.subject_rank, f.object_rank);
    out << buffer;
  }
  return out.str();
}

double FactJaccard(const DiscoveryResult& a, const DiscoveryResult& b) {
  std::set<uint64_t> sa, sb, both;
  for (const auto& f : a.facts) sa.insert(PackTriple(f.triple));
  for (const auto& f : b.facts) sb.insert(PackTriple(f.triple));
  for (uint64_t t : sa) {
    if (sb.count(t) != 0) both.insert(t);
  }
  const size_t uni = sa.size() + sb.size() - both.size();
  return uni == 0 ? 1.0 : static_cast<double>(both.size()) / uni;
}

class QuantDriftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig c;
    c.name = "quant_drift";
    c.num_entities = 48;
    c.num_relations = 5;
    c.num_train = 420;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 4321;
    dataset_ = std::make_unique<Dataset>(
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("synth"));
    ModelConfig mc;
    mc.num_entities = dataset_->num_entities();
    mc.num_relations = dataset_->num_relations();
    mc.embedding_dim = 12;
    TrainerConfig tc;
    tc.epochs = 6;
    tc.batch_size = 64;
    tc.loss = LossKind::kMarginRanking;
    tc.optimizer.learning_rate = 0.05;
    tc.seed = 99;
    auto model = TrainModel(ModelKind::kTransE, mc, dataset_->train(), tc);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    // ctest runs each test as its own process, concurrently under -j, so
    // scratch checkpoints are keyed by test name + pid: a shared path let
    // one test's TearDown delete the file another test was loading.
    tag_ = std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           "_" + std::to_string(::getpid());
    float_path_ = ::testing::TempDir() + "/kgfd_drift_float_" + tag_ + ".bin";
    ASSERT_TRUE(SaveModel(model.value().get(), mc, float_path_).ok());
  }
  void TearDown() override { std::remove(float_path_.c_str()); }

  Result<std::unique_ptr<Model>> Load(const std::string& path,
                                      EmbeddingBackend backend) {
    CheckpointLoadOptions o;
    o.backend = backend;
    o.verify_mapped_payload = backend == EmbeddingBackend::kMmap;
    return LoadModel(path, o);
  }

  /// Quantizes the float checkpoint to `dtype` and runs discovery and link
  /// prediction on it (ram backend).
  struct QuantRun {
    DiscoveryResult facts;
    double mrr = 0.0;
  };
  QuantRun RunQuantized(EmbeddingDtype dtype) {
    const std::string qpath = ::testing::TempDir() + "/kgfd_drift_" +
                              EmbeddingDtypeName(dtype) + "_" + tag_ + ".bin";
    auto loaded =
        LoadModelWithConfig(float_path_, CheckpointLoadOptions());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(SaveQuantizedModel(loaded.value().model.get(),
                                   loaded.value().config, dtype, qpath)
                    .ok());
    auto model = Load(qpath, EmbeddingBackend::kRam);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    QuantRun run;
    run.facts = std::move(DiscoverFacts(*model.value(), dataset_->train(),
                                        DriftOptions()))
                    .ValueOrDie("discover");
    run.mrr = std::move(EvaluateLinkPrediction(*model.value(), *dataset_,
                                               dataset_->test()))
                  .ValueOrDie("eval")
                  .mrr;
    std::remove(qpath.c_str());
    return run;
  }

  std::unique_ptr<Dataset> dataset_;
  std::string tag_;
  std::string float_path_;
};

TEST_F(QuantDriftTest, MmapFloatDiscoveryIsByteIdenticalToRam) {
  auto ram = Load(float_path_, EmbeddingBackend::kRam);
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  auto mmap = Load(float_path_, EmbeddingBackend::kMmap);
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  auto ram_facts =
      DiscoverFacts(*ram.value(), dataset_->train(), DriftOptions());
  auto mmap_facts =
      DiscoverFacts(*mmap.value(), dataset_->train(), DriftOptions());
  ASSERT_TRUE(ram_facts.ok() && mmap_facts.ok());
  ASSERT_GT(ram_facts.value().facts.size(), 0u);
  // Same floats, same kernels — the storage backend may not leak into
  // results even at the last bit.
  EXPECT_EQ(RenderFacts(ram_facts.value()), RenderFacts(mmap_facts.value()));
}

TEST_F(QuantDriftTest, QuantizedDriftWithinPinnedThresholds) {
  auto float_model = Load(float_path_, EmbeddingBackend::kRam);
  ASSERT_TRUE(float_model.ok());
  auto float_facts = DiscoverFacts(*float_model.value(), dataset_->train(),
                                   DriftOptions());
  ASSERT_TRUE(float_facts.ok()) << float_facts.status().ToString();
  ASSERT_GT(float_facts.value().facts.size(), 0u);
  const double float_mrr =
      std::move(EvaluateLinkPrediction(*float_model.value(), *dataset_,
                                       dataset_->test()))
          .ValueOrDie("eval")
          .mrr;
  ASSERT_GT(float_mrr, 0.0);

  const QuantRun int8_run = RunQuantized(EmbeddingDtype::kInt8);
  const double int8_drift = std::fabs(int8_run.mrr - float_mrr);
  const double int8_jaccard = FactJaccard(float_facts.value(), int8_run.facts);
  EXPECT_LE(int8_drift, kMaxMrrDriftInt8)
      << "int8 MRR " << int8_run.mrr << " vs float " << float_mrr;
  EXPECT_GE(int8_jaccard, kMinFactJaccardInt8);

  const QuantRun int16_run = RunQuantized(EmbeddingDtype::kInt16);
  const double int16_drift = std::fabs(int16_run.mrr - float_mrr);
  const double int16_jaccard =
      FactJaccard(float_facts.value(), int16_run.facts);
  EXPECT_LE(int16_drift, kMaxMrrDriftInt16)
      << "int16 MRR " << int16_run.mrr << " vs float " << float_mrr;
  EXPECT_GE(int16_jaccard, kMinFactJaccardInt16);

  // int16 should never be less faithful than int8 end to end.
  EXPECT_LE(int16_drift, int8_drift + 1e-12);

  std::printf("drift: float_mrr=%.6f int8_mrr=%.6f (jaccard %.3f) "
              "int16_mrr=%.6f (jaccard %.3f)\n",
              float_mrr, int8_run.mrr, int8_jaccard, int16_run.mrr,
              int16_jaccard);
}

TEST_F(QuantDriftTest, QuantizedMmapDiscoveryMatchesQuantizedRam) {
  const std::string qpath =
      ::testing::TempDir() + "/kgfd_drift_mmap_int8_" + tag_ + ".bin";
  auto loaded = LoadModelWithConfig(float_path_, CheckpointLoadOptions());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveQuantizedModel(loaded.value().model.get(),
                                 loaded.value().config,
                                 EmbeddingDtype::kInt8, qpath)
                  .ok());
  auto ram = Load(qpath, EmbeddingBackend::kRam);
  auto mmap = Load(qpath, EmbeddingBackend::kMmap);
  ASSERT_TRUE(ram.ok() && mmap.ok());
  auto ram_facts =
      DiscoverFacts(*ram.value(), dataset_->train(), DriftOptions());
  auto mmap_facts =
      DiscoverFacts(*mmap.value(), dataset_->train(), DriftOptions());
  ASSERT_TRUE(ram_facts.ok() && mmap_facts.ok());
  EXPECT_EQ(RenderFacts(ram_facts.value()), RenderFacts(mmap_facts.value()));
  std::remove(qpath.c_str());
}

}  // namespace
}  // namespace kgfd
