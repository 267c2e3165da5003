/// kgfd command-line tool: the full paper workflow over on-disk datasets.
///
///   kgfd_cli generate --preset FB15K-237 --scale 100 --out data/fb/
///   kgfd_cli train    --data data/fb/ --model TransE --dim 32
///                     --epochs 25 --checkpoint model.bin
///   kgfd_cli eval     --data data/fb/ --checkpoint model.bin
///   kgfd_cli discover --data data/fb/ --checkpoint model.bin
///                     --strategy ENTITY_FREQUENCY --top_n 500
///                     --max_candidates 500 --out facts.tsv
///
/// Datasets are LibKGE-style directories (train.txt / valid.txt /
/// test.txt, tab-separated names). Checkpoints are kgfd binary model
/// files; discovered facts are written as TSV with a rank column.
///
/// Shutdown semantics: every long-running command accepts
/// --deadline_s SECONDS and installs a SIGINT/SIGTERM handler that
/// requests cooperative cancellation. A stopped run still flushes its
/// partial outputs (facts TSV, resume manifest, --metrics_out) and then
/// exits 130 (cancelled / Ctrl-C) or 124 (deadline exceeded).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "kgfd.h"
#include "util/config_file.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: kgfd_cli <generate|train|tune|eval|discover|run> [--flags]\n"
      "  run:      --config FILE   # declarative job (see core/job.h)\n"
      "  generate: --preset NAME --scale N --out DIR [--seed N]\n"
      "  train:    --data DIR --model NAME --checkpoint FILE\n"
      "            [--dim N] [--epochs N] [--lr X] [--loss NAME]\n"
      "            [--batch N] [--negatives N] [--seed N]\n"
      "  tune:     --data DIR --model NAME --checkpoint FILE\n"
      "            [--dims A,B,..] [--lrs A,B,..] [--epochs N]\n"
      "  eval:     --data DIR --checkpoint FILE [--raw] [--buckets N]\n"
      "  discover: --data DIR --checkpoint FILE [--strategy NAME]\n"
      "            [--top_n N] [--max_candidates N] [--out FILE]\n"
      "            [--type_filter] [--seed N] [--resume MANIFEST]\n"
      "            [--adaptive_rounds N] [--adaptive_exploration X]\n"
      "    --strategy values: %s\n"
      "    (default: env KGFD_DEFAULT_STRATEGY, else ENTITY_FREQUENCY;\n"
      "    ADAPTIVE schedules the budget across the comparative\n"
      "    strategies + MODEL_SCORE with a per-relation UCB1 bandit)\n"
      "  train/eval/discover/run also accept --metrics_out FILE to dump\n"
      "  the run's metrics registry (counters/gauges/histograms) as JSON\n"
      "  and --deadline_s SECONDS to stop gracefully after a wall-clock\n"
      "  budget (exit 124); Ctrl-C / SIGTERM also stop gracefully (exit\n"
      "  130), flushing partial facts, manifests and metrics first\n"
      "  every command accepts --failpoints 'site=spec;...' (or env\n"
      "  KGFD_FAILPOINTS) to arm fault-injection sites; see TESTING.md\n"
      "  eval/discover/run accept --embedding_backend ram|mmap (or env\n"
      "  KGFD_EMBEDDING_BACKEND) to pick checkpoint storage: mmap maps\n"
      "  the entity table zero-copy instead of copying it into RAM\n",
      // Derived from AllSamplingStrategies() so the help text can never
      // drift from what SamplingStrategyFromName accepts.
      SamplingStrategyNameList().c_str());
}

/// Writes the registry as JSON when --metrics_out is set.
void MaybeWriteMetrics(const Flags& flags, const MetricsRegistry& registry) {
  const std::string path = flags.GetString("metrics_out", "");
  if (path.empty()) return;
  WriteMetricsJsonFile(registry, path).AbortIfNotOk("write metrics");
  std::printf("metrics written to %s\n", path.c_str());
}

/// Process-wide token flipped by the SIGINT/SIGTERM handler (installed
/// once in main); CancelContexts built by MakeCancelContext borrow it.
CancellationToken& GlobalCancelToken() {
  static CancellationToken token;
  return token;
}

/// Builds the command's stop context: the signal-driven token plus an
/// optional --deadline_s wall-clock budget.
CancelContext MakeCancelContext(const Flags& flags) {
  const double deadline_s = flags.GetDouble("deadline_s", 0.0);
  return CancelContext(&GlobalCancelToken(),
                       deadline_s > 0.0 ? Deadline::After(deadline_s)
                                        : Deadline());
}

/// Exit code for a cooperatively stopped run: 130 mirrors the shell's
/// 128+SIGINT convention, 124 mirrors timeout(1).
int StopExitCode(StoppedReason reason) {
  return reason == StoppedReason::kDeadline ? 124 : 130;
}

/// When `status` is a cooperative-stop status (Cancelled /
/// DeadlineExceeded), prints why and stores the matching exit code,
/// letting the caller flush partial outputs before exiting. Any other
/// error aborts with `what`, and OK returns false.
bool StoppedEarly(const Status& status, const char* what, int* exit_code) {
  if (status.code() == StatusCode::kCancelled ||
      status.code() == StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr, "%s stopped early: %s\n", what,
                 status.ToString().c_str());
    *exit_code = StopExitCode(status.code() == StatusCode::kDeadlineExceeded
                                  ? StoppedReason::kDeadline
                                  : StoppedReason::kCancelled);
    return true;
  }
  status.AbortIfNotOk(what);
  return false;
}

/// Reads a count flag that must be strictly positive; -1 would otherwise
/// wrap to SIZE_MAX through the size_t cast.
size_t PositiveFlag(const Flags& flags, const std::string& name,
                    size_t default_value) {
  Result<size_t> value = ToPositiveSize(
      "--" + name,
      flags.GetInt(name, static_cast<int64_t>(default_value)));
  value.status().AbortIfNotOk("flag");
  return value.value();
}

Result<Dataset> LoadData(const Flags& flags) {
  const std::string dir = flags.GetString("data", "");
  if (dir.empty()) return Status::InvalidArgument("--data is required");
  return LoadDatasetDir(dir, dir);
}

int Generate(const Flags& flags) {
  const std::string preset = flags.GetString("preset", "FB15K-237");
  const double scale = flags.GetDouble("scale", 100.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out directory is required\n");
    return 1;
  }
  SyntheticConfig config;
  bool found = false;
  for (const SyntheticConfig& c : AllDatasetConfigs(scale, seed)) {
    if (c.name == preset) {
      config = c;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr,
                 "unknown preset '%s' (FB15K-237, WN18RR, YAGO3-10, "
                 "CoDEx-L)\n",
                 preset.c_str());
    return 1;
  }
  auto dataset = GenerateSyntheticDataset(config);
  dataset.status().AbortIfNotOk("generate");
  // Synthetic data uses dense ids; give them stable names for the TSV.
  Dataset& d = dataset.value();
  for (size_t e = 0; e < d.num_entities(); ++e) {
    d.entity_vocab().AddOrGet("e" + std::to_string(e));
  }
  for (size_t r = 0; r < d.num_relations(); ++r) {
    d.relation_vocab().AddOrGet("r" + std::to_string(r));
  }
  SaveDatasetDir(d, out).AbortIfNotOk("save dataset");
  std::printf("wrote %s (%zu/%zu/%zu triples, %zu entities, %zu "
              "relations) to %s\n",
              preset.c_str(), d.train().size(), d.valid().size(),
              d.test().size(), d.num_entities(), d.num_relations(),
              out.c_str());
  return 0;
}

int Train(const Flags& flags) {
  auto dataset = LoadData(flags);
  dataset.status().AbortIfNotOk("load dataset");
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint output path is required\n");
    return 1;
  }
  auto kind = ModelKindFromName(flags.GetString("model", "TransE"));
  kind.status().AbortIfNotOk("model name");

  ModelConfig model_config;
  model_config.num_entities = dataset.value().num_entities();
  model_config.num_relations = dataset.value().num_relations();
  model_config.embedding_dim = PositiveFlag(flags, "dim", 32);

  TrainerConfig trainer_config;
  trainer_config.epochs = PositiveFlag(flags, "epochs", 25);
  trainer_config.batch_size = PositiveFlag(flags, "batch", 128);
  trainer_config.negatives_per_positive = PositiveFlag(flags, "negatives", 2);
  trainer_config.optimizer.learning_rate = flags.GetDouble("lr", 0.03);
  trainer_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  trainer_config.log_every_epochs = 5;
  auto loss = LossKindFromName(flags.GetString(
      "loss", kind.value() == ModelKind::kTransE ? "margin_ranking"
                                                 : "softplus"));
  loss.status().AbortIfNotOk("loss name");
  trainer_config.loss = loss.value();

  MetricsRegistry registry;
  trainer_config.metrics = &registry;
  const CancelContext cancel = MakeCancelContext(flags);
  trainer_config.cancel = cancel;
  auto model = TrainModel(kind.value(), model_config,
                          dataset.value().train(), trainer_config);
  model.status().AbortIfNotOk("train");
  // A cooperative stop still yields a usable model (the trainer keeps the
  // parameters from the last finished batch), so save it either way.
  SaveModel(model.value().get(), model_config, checkpoint)
      .AbortIfNotOk("save checkpoint");
  const StoppedReason stopped = cancel.StopReason();
  if (stopped != StoppedReason::kNone) {
    std::fprintf(stderr,
                 "training stopped early (%s); checkpoint holds the "
                 "partially trained model\n",
                 StoppedReasonName(stopped));
  }
  std::printf("trained %s (%zu parameters) -> %s\n",
              model.value()->name().c_str(),
              model.value()->NumParameters(), checkpoint.c_str());
  MaybeWriteMetrics(flags, registry);
  return stopped == StoppedReason::kNone ? 0 : StopExitCode(stopped);
}

int Tune(const Flags& flags) {
  auto dataset = LoadData(flags);
  dataset.status().AbortIfNotOk("load dataset");
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint output path is required\n");
    return 1;
  }
  auto kind = ModelKindFromName(flags.GetString("model", "TransE"));
  kind.status().AbortIfNotOk("model name");

  ModelConfig model_config;
  model_config.num_entities = dataset.value().num_entities();
  model_config.num_relations = dataset.value().num_relations();
  model_config.embedding_dim = 32;
  TrainerConfig trainer_config;
  trainer_config.epochs = PositiveFlag(flags, "epochs", 10);
  trainer_config.loss = kind.value() == ModelKind::kTransE
                            ? LossKind::kMarginRanking
                            : LossKind::kSoftplus;
  trainer_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  GridSearchSpace space;
  for (const std::string& v :
       Split(flags.GetString("dims", "16,32"), ',')) {
    space.embedding_dims.push_back(
        static_cast<size_t>(std::strtoll(v.c_str(), nullptr, 10)));
  }
  for (const std::string& v :
       Split(flags.GetString("lrs", "0.01,0.05"), ',')) {
    space.learning_rates.push_back(std::strtod(v.c_str(), nullptr));
  }

  auto result = RunGridSearch(kind.value(), dataset.value(), model_config,
                              trainer_config, space);
  result.status().AbortIfNotOk("grid search");
  Table table({"dim", "lr", "loss", "valid_MRR", "train_s"});
  for (const GridTrial& trial : result.value().trials) {
    table.AddRow({Table::Fmt(trial.model_config.embedding_dim),
                  Table::Fmt(trial.trainer_config.optimizer.learning_rate,
                             3),
                  LossKindName(trial.trainer_config.loss),
                  Table::Fmt(trial.valid_mrr, 4),
                  Table::Fmt(trial.train_seconds, 2)});
  }
  std::printf("%s", table.ToAscii().c_str());
  const GridTrial& best = result.value().best();
  std::printf("best: dim=%zu lr=%.3f (valid MRR %.4f)\n",
              best.model_config.embedding_dim,
              best.trainer_config.optimizer.learning_rate, best.valid_mrr);
  SaveModel(result.value().best_model.get(), best.model_config, checkpoint)
      .AbortIfNotOk("save checkpoint");
  std::printf("best model -> %s\n", checkpoint.c_str());
  return 0;
}

int Eval(const Flags& flags) {
  auto dataset = LoadData(flags);
  dataset.status().AbortIfNotOk("load dataset");
  auto model = LoadModel(flags.GetString("checkpoint", ""));
  model.status().AbortIfNotOk("load checkpoint");
  MetricsRegistry registry;
  EvalConfig config;
  config.filtered = !flags.GetBool("raw", false);
  config.metrics = &registry;
  config.cancel = MakeCancelContext(flags);
  ThreadPool pool;
  pool.AttachMetrics(&registry);
  auto metrics = EvaluateLinkPrediction(*model.value(), dataset.value(),
                                        dataset.value().test(), config,
                                        &pool);
  int exit_code = 0;
  if (StoppedEarly(metrics.status(), "evaluation", &exit_code)) {
    // Partial metrics would be misleading, so evaluation reports nothing —
    // but the registry (timings, counters so far) is still flushed.
    MaybeWriteMetrics(flags, registry);
    return exit_code;
  }
  Table table({"metric", "value"});
  table.AddRow({"protocol", config.filtered ? "filtered" : "raw"});
  table.AddRow({"MRR", Table::Fmt(metrics.value().mrr, 4)});
  table.AddRow({"MR", Table::Fmt(metrics.value().mean_rank, 1)});
  table.AddRow({"Hits@1", Table::Fmt(metrics.value().hits_at_1, 4)});
  table.AddRow({"Hits@3", Table::Fmt(metrics.value().hits_at_3, 4)});
  table.AddRow({"Hits@10", Table::Fmt(metrics.value().hits_at_10, 4)});
  table.AddRow({"ranks", Table::Fmt(metrics.value().num_ranks)});
  std::printf("%s", table.ToAscii().c_str());

  // --buckets <= 1 (including negatives) means no stratified table.
  const int64_t buckets_flag = flags.GetInt("buckets", 0);
  const size_t buckets =
      buckets_flag > 1 ? static_cast<size_t>(buckets_flag) : 0;
  if (buckets > 1) {
    auto stratified = EvaluateByPopularity(
        *model.value(), dataset.value(), dataset.value().test(), buckets,
        config);
    if (StoppedEarly(stratified.status(), "stratified evaluation",
                     &exit_code)) {
      MaybeWriteMetrics(flags, registry);
      return exit_code;
    }
    Table strat({"popularity bucket", "max degree", "MRR", "Hits@10",
                 "ranks"});
    for (size_t b = 0; b < buckets; ++b) {
      const LinkPredictionMetrics& m = stratified.value().buckets[b];
      strat.AddRow({"#" + std::to_string(b),
                    Table::Fmt(size_t{
                        stratified.value().bucket_max_degree[b]}),
                    Table::Fmt(m.mrr, 4), Table::Fmt(m.hits_at_10, 4),
                    Table::Fmt(m.num_ranks)});
    }
    std::printf("\nby predicted-entity popularity:\n%s",
                strat.ToAscii().c_str());
  }
  MaybeWriteMetrics(flags, registry);
  return 0;
}

int Discover(const Flags& flags) {
  auto dataset = LoadData(flags);
  dataset.status().AbortIfNotOk("load dataset");
  auto model = LoadModel(flags.GetString("checkpoint", ""));
  model.status().AbortIfNotOk("load checkpoint");

  DiscoveryOptions options;
  auto strategy = SamplingStrategyFromName(flags.GetString(
      "strategy", SamplingStrategyName(DefaultSamplingStrategy())));
  strategy.status().AbortIfNotOk("strategy name");
  options.strategy = strategy.value();
  options.top_n = PositiveFlag(flags, "top_n", 500);
  options.max_candidates = PositiveFlag(flags, "max_candidates", 500);
  options.type_filter = flags.GetBool("type_filter", false);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 123));
  options.adaptive_rounds =
      PositiveFlag(flags, "adaptive_rounds", options.adaptive_rounds);
  options.adaptive_exploration =
      flags.GetDouble("adaptive_exploration", options.adaptive_exploration);
  options.cancel = MakeCancelContext(flags);

  MetricsRegistry registry;
  options.metrics = &registry;
  ThreadPool pool;
  pool.AttachMetrics(&registry);
  const std::string manifest = flags.GetString("resume", "");
  Result<DiscoveryResult> result = [&]() {
    if (manifest.empty()) {
      return DiscoverFacts(*model.value(), dataset.value().train(), options,
                           &pool);
    }
    ResumeOptions resume;
    resume.manifest_path = manifest;
    return DiscoverFactsResumable(*model.value(), dataset.value().train(),
                                  options, resume, &pool);
  }();
  result.status().AbortIfNotOk("discover");
  if (!manifest.empty()) {
    std::printf("resume manifest: %s\n", manifest.c_str());
  }
  const StoppedReason stopped = result.value().stopped_reason;
  if (stopped != StoppedReason::kNone) {
    std::fprintf(stderr,
                 "discovery stopped early (%s): %zu of %zu relations "
                 "completed before the stop%s\n",
                 StoppedReasonName(stopped),
                 result.value().stats.num_relations_processed,
                 result.value().stats.num_relations_processed +
                     result.value().stats.num_relations_skipped,
                 manifest.empty()
                     ? ""
                     : "; rerun with the same --resume manifest to finish");
  }
  std::printf("discovered %zu facts from %zu candidates in %.2fs "
              "(MRR=%.4f, %.0f facts/hour, long-tail share %.3f)\n",
              result.value().stats.num_facts,
              result.value().stats.num_candidates,
              result.value().stats.total_seconds,
              DiscoveryMrr(result.value().facts),
              result.value().stats.FactsPerHour(),
              LongTailShare(result.value().facts,
                            dataset.value().train()));

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    // WriteFactsTsv is the single source of the facts byte format — the
    // HTTP server's GET /jobs/<id>/facts emits the identical bytes.
    WriteFactsTsv(out, result.value().facts, dataset.value().entity_vocab(),
                  dataset.value().relation_vocab())
        .AbortIfNotOk("write facts");
    std::printf("facts written to %s\n", out.c_str());
  }
  MaybeWriteMetrics(flags, registry);
  return stopped == StoppedReason::kNone ? 0 : StopExitCode(stopped);
}

int Run(const Flags& flags) {
  const std::string path = flags.GetString("config", "");
  if (path.empty()) {
    std::fprintf(stderr, "--config FILE is required\n");
    return 1;
  }
  auto config = ConfigFile::Load(path);
  config.status().AbortIfNotOk("load config");
  auto spec = JobSpec::FromConfig(config.value());
  spec.status().AbortIfNotOk("parse job spec");
  MetricsRegistry registry;
  spec.value().metrics = &registry;
  spec.value().cancel = MakeCancelContext(flags);
  auto result = RunJob(spec.value());
  int exit_code = 0;
  if (StoppedEarly(result.status(), "job", &exit_code)) {
    MaybeWriteMetrics(flags, registry);
    return exit_code;
  }

  std::printf("job complete: %s, %s, %zu parameters\n",
              result.value().dataset_name.c_str(),
              ModelKindName(spec.value().model),
              result.value().model->NumParameters());
  if (spec.value().run_eval) {
    std::printf("test: MRR=%.4f Hits@10=%.4f MR=%.1f\n",
                result.value().test_metrics.mrr,
                result.value().test_metrics.hits_at_10,
                result.value().test_metrics.mean_rank);
  }
  StoppedReason stopped = StoppedReason::kNone;
  if (spec.value().run_discovery) {
    const DiscoveryResult& d = result.value().discovery;
    stopped = d.stopped_reason;
    if (stopped != StoppedReason::kNone) {
      std::fprintf(stderr, "job discovery phase stopped early (%s)\n",
                   StoppedReasonName(stopped));
    }
    std::printf("discovery: %zu facts, MRR=%.4f, %.2fs, %.0f facts/hour\n",
                d.stats.num_facts, DiscoveryMrr(d.facts),
                d.stats.total_seconds, d.stats.FactsPerHour());
  }
  MaybeWriteMetrics(flags, registry);
  return stopped == StoppedReason::kNone ? 0 : StopExitCode(stopped);
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) {
  if (argc < 2) {
    kgfd::PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  auto flags = kgfd::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    kgfd::PrintUsage();
    return 1;
  }
  // Ctrl-C / SIGTERM request cooperative cancellation: in-flight work
  // stops at its next checkpoint, partial outputs are flushed, and the
  // command exits 130 (124 when a --deadline_s budget expired instead).
  kgfd::InstallSignalCancellation(&kgfd::GlobalCancelToken());
  // A typo'd kernel backend should be a clean startup error, not an abort
  // mid-scoring the first time a kernel dispatches.
  const kgfd::Status backend = kgfd::kernels::ValidateKernelBackendEnv();
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.ToString().c_str());
    return 1;
  }
  // --embedding_backend ram|mmap overrides KGFD_EMBEDDING_BACKEND; the
  // flag is exported to the environment so every LoadModel call site
  // (including config-driven `run` jobs) resolves the same backend.
  const std::string embedding_backend =
      flags.value().GetString("embedding_backend", "");
  if (!embedding_backend.empty()) {
    setenv("KGFD_EMBEDDING_BACKEND", embedding_backend.c_str(), 1);
  }
  const kgfd::Status storage = kgfd::ValidateEmbeddingBackendEnv();
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.ToString().c_str());
    return 1;
  }
  // Same early-validation treatment for KGFD_DEFAULT_STRATEGY: a typo must
  // not silently fall back to ENTITY_FREQUENCY.
  const kgfd::Status default_strategy = kgfd::ValidateDefaultStrategyEnv();
  if (!default_strategy.ok()) {
    std::fprintf(stderr, "%s\n", default_strategy.ToString().c_str());
    return 1;
  }
  const std::string failpoints =
      flags.value().GetString("failpoints", "");
  if (!failpoints.empty()) {
    kgfd::FailPoints::Instance()
        .EnableFromSpec(failpoints)
        .AbortIfNotOk("parse --failpoints");
  }
  if (command == "generate") return kgfd::Generate(flags.value());
  if (command == "train") return kgfd::Train(flags.value());
  if (command == "tune") return kgfd::Tune(flags.value());
  if (command == "eval") return kgfd::Eval(flags.value());
  if (command == "discover") return kgfd::Discover(flags.value());
  if (command == "run") return kgfd::Run(flags.value());
  kgfd::PrintUsage();
  return 1;
}
