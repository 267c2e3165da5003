#include "core/job.h"

#include <gtest/gtest.h>

#include <string>

#include "util/config_file.h"

namespace kgfd {
namespace {

// ---------------------------------------------------------------- config

TEST(ConfigFileTest, ParsesKeyValuePairs) {
  auto config = ConfigFile::Parse("a.b = 1\nc = hello\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().GetString("c", ""), "hello");
  auto v = config.value().GetInt("a.b", 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 1);
}

TEST(ConfigFileTest, CommentsAndBlanksIgnored) {
  auto config = ConfigFile::Parse(
      "# full comment\n\n  key = value  # trailing comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().GetString("key", ""), "value");
  EXPECT_EQ(config.value().entries().size(), 1u);
}

TEST(ConfigFileTest, RejectsMalformedLines) {
  EXPECT_FALSE(ConfigFile::Parse("just a line without equals\n").ok());
  EXPECT_FALSE(ConfigFile::Parse("= value\n").ok());
}

TEST(ConfigFileTest, RejectsDuplicateKeys) {
  EXPECT_FALSE(ConfigFile::Parse("k = 1\nk = 2\n").ok());
}

TEST(ConfigFileTest, TypedGettersValidate) {
  auto config = ConfigFile::Parse(
      "int = 42\nfloat = 2.5\nflag = true\nbad = xyz\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().GetInt("int", 0).value(), 42);
  EXPECT_DOUBLE_EQ(config.value().GetDouble("float", 0.0).value(), 2.5);
  EXPECT_TRUE(config.value().GetBool("flag", false).value());
  EXPECT_FALSE(config.value().GetInt("bad", 0).ok());
  EXPECT_FALSE(config.value().GetBool("bad", false).ok());
}

TEST(ConfigFileTest, PositiveSizeRejectsZeroAndNegatives) {
  auto config = ConfigFile::Parse("zero = 0\nneg = -1\nok = 3\nbad = x\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(GetPositiveSize(config.value(), "ok", 1).value(), 3u);
  EXPECT_EQ(GetPositiveSize(config.value(), "missing", 9).value(), 9u);
  // -1 must not wrap to SIZE_MAX through the size_t cast.
  auto neg = GetPositiveSize(config.value(), "neg", 1);
  ASSERT_FALSE(neg.ok());
  EXPECT_EQ(neg.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(neg.status().message().find("neg"), std::string::npos);
  EXPECT_FALSE(GetPositiveSize(config.value(), "zero", 1).ok());
  EXPECT_FALSE(GetPositiveSize(config.value(), "bad", 1).ok());
  EXPECT_FALSE(ToPositiveSize("--dim", -1).ok());
  EXPECT_FALSE(ToPositiveSize("--dim", 0).ok());
  EXPECT_EQ(ToPositiveSize("--dim", 16).value(), 16u);
}

TEST(ConfigFileTest, DefaultsForMissingKeys) {
  auto config = ConfigFile::Parse("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().GetInt("nope", 7).value(), 7);
  EXPECT_EQ(config.value().GetString("nope", "d"), "d");
}

TEST(ConfigFileTest, TracksUnconsumedKeys) {
  auto config = ConfigFile::Parse("used = 1\nunused = 2\n");
  ASSERT_TRUE(config.ok());
  (void)config.value().GetInt("used", 0);
  const auto unconsumed = config.value().UnconsumedKeys();
  ASSERT_EQ(unconsumed.size(), 1u);
  EXPECT_EQ(unconsumed[0], "unused");
}

TEST(ConfigFileTest, LoadMissingFileIsIoError) {
  EXPECT_FALSE(ConfigFile::Load("/no/such/file.conf").ok());
}

// ------------------------------------------------------------------- job

TEST(JobSpecTest, DefaultsFromEmptyConfig) {
  auto config = ConfigFile::Parse("");
  ASSERT_TRUE(config.ok());
  auto spec = JobSpec::FromConfig(config.value());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().dataset_preset, "FB15K-237");
  EXPECT_EQ(spec.value().model, ModelKind::kTransE);
  EXPECT_EQ(spec.value().trainer.loss, LossKind::kMarginRanking);
  EXPECT_TRUE(spec.value().run_eval);
  EXPECT_TRUE(spec.value().run_discovery);
}

TEST(JobSpecTest, ParsesFullConfig) {
  auto config = ConfigFile::Parse(
      "dataset.preset = WN18RR\n"
      "dataset.scale = 200\n"
      "model.type = ComplEx\n"
      "model.dim = 16\n"
      "train.epochs = 3\n"
      "train.lr = 0.1\n"
      "train.loss = softplus\n"
      "train.mode = 1vsAll\n"
      "train.bernoulli = true\n"
      "discovery.strategy = CLUSTERING_TRIANGLES\n"
      "discovery.top_n = 40\n"
      "discovery.max_candidates = 80\n"
      "discovery.type_filter = true\n"
      "seed = 9\n");
  ASSERT_TRUE(config.ok());
  auto spec = JobSpec::FromConfig(config.value());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().dataset_preset, "WN18RR");
  EXPECT_EQ(spec.value().model, ModelKind::kComplEx);
  EXPECT_EQ(spec.value().embedding_dim, 16u);
  EXPECT_EQ(spec.value().trainer.training_mode, TrainingMode::k1vsAll);
  EXPECT_EQ(spec.value().trainer.corruption_scheme,
            CorruptionScheme::kBernoulli);
  EXPECT_EQ(spec.value().discovery.strategy,
            SamplingStrategy::kClusteringTriangles);
  EXPECT_EQ(spec.value().discovery.top_n, 40u);
  EXPECT_TRUE(spec.value().discovery.type_filter);
  EXPECT_EQ(spec.value().seed, 9u);
}

TEST(JobSpecTest, RejectsUnknownKeys) {
  auto config = ConfigFile::Parse("model.typ = TransE\n");  // typo
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(JobSpec::FromConfig(config.value()).ok());
}

TEST(JobSpecTest, RejectsBadEnumValues) {
  auto bad_model = ConfigFile::Parse("model.type = GPT\n");
  ASSERT_TRUE(bad_model.ok());
  EXPECT_FALSE(JobSpec::FromConfig(bad_model.value()).ok());
  auto bad_mode = ConfigFile::Parse("train.mode = all_vs_all\n");
  ASSERT_TRUE(bad_mode.ok());
  EXPECT_FALSE(JobSpec::FromConfig(bad_mode.value()).ok());
}

TEST(JobSpecTest, RejectsNonPositiveCounts) {
  // Each of these keys is a count: -1 used to wrap to SIZE_MAX and 0 to
  // an empty model/run.
  for (const char* key :
       {"model.dim", "train.epochs", "train.batch_size", "train.negatives",
        "discovery.top_n", "discovery.max_candidates",
        "discovery.adaptive_rounds",
        "discovery.max_candidate_memory_bytes"}) {
    for (const char* value : {"-1", "0"}) {
      auto config =
          ConfigFile::Parse(std::string(key) + " = " + value + "\n");
      ASSERT_TRUE(config.ok());
      auto spec = JobSpec::FromConfig(config.value());
      EXPECT_FALSE(spec.ok()) << key << " = " << value;
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
          << key << " = " << value;
    }
  }
}

TEST(JobRunTest, RejectsUnknownPreset) {
  JobSpec spec;
  spec.dataset_preset = "NOT_A_DATASET";
  EXPECT_FALSE(RunJob(spec).ok());
}

TEST(JobRunTest, FullPipelineRuns) {
  auto config = ConfigFile::Parse(
      "dataset.preset = WN18RR\n"
      "dataset.scale = 250\n"
      "model.type = DistMult\n"
      "model.dim = 8\n"
      "train.epochs = 2\n"
      "train.loss = softplus\n"
      "discovery.top_n = 30\n"
      "discovery.max_candidates = 50\n");
  ASSERT_TRUE(config.ok());
  auto spec = JobSpec::FromConfig(config.value());
  ASSERT_TRUE(spec.ok());
  auto result = RunJob(spec.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().dataset_name, "WN18RR");
  ASSERT_NE(result.value().model, nullptr);
  EXPECT_GT(result.value().test_metrics.num_ranks, 0u);
  EXPECT_GT(result.value().discovery.stats.num_candidates, 0u);
}

TEST(JobRunTest, EvalAndDiscoveryCanBeDisabled) {
  auto config = ConfigFile::Parse(
      "dataset.preset = WN18RR\n"
      "dataset.scale = 250\n"
      "model.dim = 8\n"
      "train.epochs = 1\n"
      "eval.enabled = false\n"
      "discovery.enabled = false\n");
  ASSERT_TRUE(config.ok());
  auto spec = JobSpec::FromConfig(config.value());
  ASSERT_TRUE(spec.ok());
  auto result = RunJob(spec.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().test_metrics.num_ranks, 0u);
  EXPECT_EQ(result.value().discovery.stats.num_candidates, 0u);
}

TEST(JobRunTest, DeterministicUnderSeed) {
  JobSpec spec;
  spec.dataset_preset = "WN18RR";
  spec.dataset_scale = 250;
  spec.embedding_dim = 8;
  spec.trainer.epochs = 2;
  spec.trainer.loss = LossKind::kSoftplus;
  spec.discovery.top_n = 30;
  spec.discovery.max_candidates = 50;
  auto a = RunJob(spec);
  auto b = RunJob(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().test_metrics.mrr, b.value().test_metrics.mrr);
  ASSERT_EQ(a.value().discovery.facts.size(),
            b.value().discovery.facts.size());
}

}  // namespace
}  // namespace kgfd
