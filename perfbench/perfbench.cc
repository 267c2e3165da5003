/// kgfd_perfbench: the end-to-end benchmark of kgfd (see README.md).
///
///   kgfd_perfbench --workload discover-dense --seed 1 --seconds 24
///       --trace 0 --work_dir DIR --server PATH/kgfd_server [--size tiny]
///
/// Set-up writes a fixed FB15K-237-like synthetic KG and a ComplEx
/// checkpoint trained on it to files the measured code loads; --seed drives
/// every sampling seed (discovery sweeps, served jobs). The program then
/// runs one workload for about --seconds, checks every output after the
/// timed phase, and prints one JSON object as the last line of stdout:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// --trace 0 reports the end-to-end metrics; --trace 1 reports the
/// per-layer metrics, timed from outside the library by replaying
/// Algorithm 1 through its public functions (in-process workloads) or by
/// timing the HTTP calls and reading /metrics (serve workload). Metrics a
/// workload does not exercise read 0 in the traced output.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "adaptive/score_sketch.h"
#include "core/discovery.h"
#include "core/discovery_cache.h"
#include "core/report.h"
#include "core/side_score_cache.h"
#include "core/strategy.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/evaluator.h"
#include "kge/kernels.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/job_journal.h"
#include "server/job_manager.h"
#include "util/alias_sampler.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef KGFD_BENCH_BUILD_TYPE
#define KGFD_BENCH_BUILD_TYPE "unknown"
#endif

namespace kgfd {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Workers of every pool the benchmark creates (in-process sweeps and the
/// server's --threads).
constexpr size_t kPoolThreads = 3;

// ---------------------------------------------------------------------------
// Metric table. Order and units match BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"facts_per_hour", "1/h"},
    {"job_latency_p50_s", "s"},
    {"eval_ranks_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"ok_rate", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"strategy.weights_s", "s"},
    {"strategy.weights_calls", "count"},
    {"discovery.generate_s", "s"},
    {"discovery.candidates", "count"},
    {"discovery.generate_accept_ratio", "ratio"},
    {"score.precompute_s", "s"},
    {"score.entries", "count"},
    {"score.candidates_per_key", "ratio"},
    {"kernels.computed_bytes", "B"},
    {"rank.s", "s"},
    {"rank.calls", "count"},
    {"rank.entities_scanned", "count"},
    {"pool.speedup", "ratio"},
    {"host.nproc", "count"},
    {"host.pool_oversubscribed", "count"},
    {"discovery.weights.seconds", "s"},
    {"discovery.generation.seconds", "s"},
    {"discovery.ranking.seconds", "s"},
    {"threadpool.tasks.helped", "count"},
    {"kg.generate_s", "s"},
    {"kge.train_s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.load_s", "s"},
    {"kg.load_dataset_s", "s"},
    {"adaptive.sketch_s", "s"},
    {"shared_cache.hit_ratio", "ratio"},
    {"shared_cache.computed_bytes", "B"},
    {"server.queue_wait_s", "s"},
    {"server.job_run_s", "s"},
    {"server.queue_depth_max", "count"},
    {"server.model_cache.hits", "count"},
    {"server.rss_growth_mb", "MB"},
    {"http.status_p50_ms", "ms"},
    {"http.status_p99_ms", "ms"},
    {"http.status_samples", "count"},
    {"http.submit_ms", "ms"},
    {"http.facts_ms", "ms"},
    {"http.facts_bytes", "B"},
    {"journal.records", "count"},
    {"journal.append_us", "us"},
    {"journal.bytes", "B"},
    {"serve.generator_late_ms", "ms"},
    {"job.latency_samples", "count"},
    {"eval.ranks_per_s_samples", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Operation counts plus measured metric values. Check() is called from the
/// serve workload's load and poll threads, hence the lock.
class Report {
 public:
  void Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_logged_++ < 20) {
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
      }
    }
  }
  void Set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = value;
  }

  /// The result line; an end-to-end metric the workload never measured is
  /// a failed operation (it prints as 0).
  std::string Json(bool trace) {
    std::map<std::string, double> values;
    {
      std::lock_guard<std::mutex> lock(mu_);
      values = values_;
    }
    for (const MetricDef& def : kEndToEnd) {
      if (std::string(def.name) == "ok_rate") continue;
      Check(values.count(def.name) > 0,
            std::string("end-to-end metric measured: ") + def.name);
    }
    std::lock_guard<std::mutex> lock(mu_);
    values["ok_rate"] =
        1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef& def) {
      const auto it = values.find(def.name);
      const double v = it == values.end() ? 0.0 : it->second;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
      out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
          << buf << ", \"unit\": \"" << def.unit << "\"}";
      first = false;
    };
    if (trace) {
      for (const MetricDef& def : kPerLayer) emit(def);
    } else {
      for (const MetricDef& def : kEndToEnd) emit(def);
    }
    out << "}}";
    return out.str();
  }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int failures_logged_ = 0;
  std::map<std::string, double> values_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// A `Vm...:` field of /proc/<pid>/status in MB (0 if unreadable).
double ProcStatusMb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                         : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host record.

size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Prints the host line every result carries and flags a pool with more
/// workers than the host has cores (a parallel speed-up measured there is
/// meaningless).
void RecordHost(Report* report) {
  const size_t nproc = OnlineCpus();
  const unsigned hw = std::thread::hardware_concurrency();
  const bool oversubscribed = kPoolThreads > nproc;
  std::printf(
      "host: {\"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"kernel_backend\": \"%s\", \"build_type\": \"%s\", "
      "\"pool_threads\": %zu, \"pool_oversubscribed\": %s}\n",
      nproc, hw, kernels::ActiveKernelName(), KGFD_BENCH_BUILD_TYPE,
      kPoolThreads, oversubscribed ? "true" : "false");
  if (oversubscribed) {
    std::fprintf(stderr,
                 "perfbench: WARNING pool of %zu workers on %zu cores; "
                 "pool.speedup and facts_per_hour are not comparable\n",
                 kPoolThreads, nproc);
  }
  report->Set("host.nproc", static_cast<double>(nproc));
  report->Set("host.pool_oversubscribed", oversubscribed ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// Sizes and inputs.

struct Sizes {
  double scale = 10.0;  ///< FB15K-237 preset divisor
  size_t dim = 64;
  size_t epochs = 5;
  size_t dense_max_candidates = 2000;
  size_t sparse_max_candidates = 100;
  size_t serve_max_candidates = 125;
  /// The ADAPTIVE job plays every arm in bandit rounds, so it costs several
  /// times an ENTITY_FREQUENCY job of the same size.
  size_t adaptive_max_candidates = 25;
  size_t top_n = 100;
  size_t setup_repeats = 5;
};

Sizes SizesFor(const std::string& size) {
  Sizes s;
  if (size == "tiny") {
    s.scale = 100.0;
    s.dim = 16;
    s.epochs = 1;
    s.dense_max_candidates = 200;
    s.sparse_max_candidates = 50;
    s.serve_max_candidates = 10;
    s.adaptive_max_candidates = 10;
    s.setup_repeats = 1;
  }
  return s;
}

struct Paths {
  std::string data_dir;
  std::string model;
  std::string quantized_model;
};

/// Everything set-up produces, loaded the way the measured code loads it.
struct Inputs {
  Dataset dataset{"bench", 0, 0};
  std::unique_ptr<Model> model;
  std::unique_ptr<Model> quantized_model;  ///< serve workload only
};

struct SetupTimes {
  double generate = 0, load_dataset = 0, train = 0, save = 0, load = 0,
         server_start = 0;
  double Total() const {
    return generate + load_dataset + train + save + load + server_start;
  }
};

/// Seeds of the KG generator and of training. The graph and the model are
/// held fixed: across generator and training seeds facts/hour moves by
/// about 10%, which would drown the changes the benchmark is meant to see,
/// so --seed varies the sampling seeds only.
constexpr uint64_t kKgSeed = 42;
constexpr uint64_t kTrainSeed = 7;

/// Generates the KG, writes it, loads it back, trains ComplEx on the loaded
/// train split (so entity ids match what the server loads), saves the
/// checkpoint (and an int8 copy when `quantized`) and loads it.
Status BuildInputs(const Sizes& sizes, const Paths& paths,
                   bool quantized, Inputs* inputs, SetupTimes* times) {
  auto t = Clock::now();
  KGFD_ASSIGN_OR_RETURN(
      Dataset generated,
      GenerateSyntheticDataset(Fb15k237Config(sizes.scale, kKgSeed)));
  fs::create_directories(paths.data_dir);
  KGFD_RETURN_NOT_OK(SaveDatasetDir(generated, paths.data_dir));
  times->generate = SecondsSince(t);

  t = Clock::now();
  KGFD_ASSIGN_OR_RETURN(inputs->dataset,
                        LoadDatasetDir(paths.data_dir, "bench"));
  times->load_dataset = SecondsSince(t);

  t = Clock::now();
  ModelConfig model_config;
  model_config.num_entities = inputs->dataset.num_entities();
  model_config.num_relations = inputs->dataset.num_relations();
  model_config.embedding_dim = sizes.dim;
  TrainerConfig trainer_config;
  trainer_config.epochs = sizes.epochs;
  trainer_config.loss = LossKind::kSoftplus;
  trainer_config.seed = kTrainSeed;
  KGFD_ASSIGN_OR_RETURN(std::unique_ptr<Model> trained,
                        TrainModel(ModelKind::kComplEx, model_config,
                                   inputs->dataset.train(), trainer_config));
  times->train = SecondsSince(t);

  t = Clock::now();
  KGFD_RETURN_NOT_OK(SaveModel(trained.get(), model_config, paths.model));
  if (quantized) {
    KGFD_RETURN_NOT_OK(SaveQuantizedModel(trained.get(), model_config,
                                          EmbeddingDtype::kInt8,
                                          paths.quantized_model));
  }
  times->save = SecondsSince(t);

  t = Clock::now();
  KGFD_ASSIGN_OR_RETURN(inputs->model, LoadModel(paths.model));
  if (quantized) {
    KGFD_ASSIGN_OR_RETURN(inputs->quantized_model,
                          LoadModel(paths.quantized_model));
  }
  times->load = SecondsSince(t);
  return Status::OK();
}

/// Reports the set-up median and its parts (each part's own median).
void ReportSetup(const std::vector<SetupTimes>& runs, Report* report) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : runs) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& s : runs) totals.push_back(s.Total());
  report->Set("setup_s", Median(totals));
  report->Set("kg.generate_s", median_of(&SetupTimes::generate));
  report->Set("kg.load_dataset_s", median_of(&SetupTimes::load_dataset));
  report->Set("kge.train_s", median_of(&SetupTimes::train));
  report->Set("checkpoint.save_s", median_of(&SetupTimes::save));
  report->Set("checkpoint.load_s", median_of(&SetupTimes::load));
}

// ---------------------------------------------------------------------------
// Outside replay of Algorithm 1.

/// Layer times and counts of one replayed sweep.
struct LayerTrace {
  double weights_s = 0, generate_s = 0, precompute_s = 0, rank_s = 0;
  size_t weights_calls = 0;
  size_t pairs_tried = 0;
  size_t candidates = 0;
  size_t entries = 0;
  size_t rank_calls = 0;
  double LayerSum() const {
    return weights_s + generate_s + precompute_s + rank_s;
  }
};

/// Algorithm 1 rebuilt from the library's public layers —
/// ComputeStrategyWeights + AliasSampler::Build, AliasSampler::Sample +
/// TripleStore::Contains, SideScoreCache::Precompute{Objects,Subjects},
/// RankAgainstScores — serially, with a timer around each layer. It is the
/// counting reference DiscoverFacts must match bit for bit. Covers the
/// faithful fixed graph strategies (weights per relation) with mean rank
/// aggregation and no type filter.
Result<std::vector<DiscoveredFact>> ReplayDiscovery(
    const Model& model, const TripleStore& kg, const DiscoveryOptions& o,
    LayerTrace* trace) {
  if (o.strategy == SamplingStrategy::kAdaptive ||
      o.strategy == SamplingStrategy::kModelScore || o.type_filter ||
      o.rank_aggregation != RankAggregation::kMean || o.cache_weights ||
      o.shared_cache != nullptr) {
    return Status::InvalidArgument(
        "replay covers the faithful fixed graph strategies only");
  }
  std::vector<RelationId> relations = o.relations;
  if (relations.empty()) relations = kg.UsedRelations();
  const size_t sample_size =
      static_cast<size_t>(std::sqrt(static_cast<double>(o.max_candidates))) +
      10;

  std::vector<DiscoveredFact> facts;
  for (const RelationId r : relations) {
    Rng rng(o.seed ^
            (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(r) + 1)));

    auto t = Clock::now();
    KGFD_ASSIGN_OR_RETURN(const StrategyWeights weights,
                          ComputeStrategyWeights(o.strategy, kg));
    KGFD_ASSIGN_OR_RETURN(const AliasSampler subject_sampler,
                          AliasSampler::Build(weights.subject_weights));
    KGFD_ASSIGN_OR_RETURN(const AliasSampler object_sampler,
                          AliasSampler::Build(weights.object_weights));
    trace->weights_s += SecondsSince(t);
    ++trace->weights_calls;

    t = Clock::now();
    std::vector<Triple> candidates;
    std::unordered_set<uint64_t> seen;
    for (size_t it = 0;
         it < o.max_iterations && candidates.size() < o.max_candidates;
         ++it) {
      std::vector<EntityId> s_samples(sample_size);
      std::vector<EntityId> o_samples(sample_size);
      for (size_t i = 0; i < sample_size; ++i) {
        s_samples[i] = weights.subject_pool[subject_sampler.Sample(&rng)];
        o_samples[i] = weights.object_pool[object_sampler.Sample(&rng)];
      }
      for (const EntityId s : s_samples) {
        if (candidates.size() >= o.max_candidates) break;
        for (const EntityId obj : o_samples) {
          if (candidates.size() >= o.max_candidates) break;
          ++trace->pairs_tried;
          const Triple triple{s, r, obj};
          if (kg.Contains(triple)) continue;
          if (!seen.insert(PackTriple(triple)).second) continue;
          candidates.push_back(triple);
        }
      }
    }
    trace->candidates += candidates.size();
    trace->generate_s += SecondsSince(t);

    t = Clock::now();
    std::vector<SideScoreCache::Key> subject_keys;
    std::vector<SideScoreCache::Key> object_keys;
    std::unordered_set<EntityId> seen_subjects;
    std::unordered_set<EntityId> seen_objects;
    for (const Triple& c : candidates) {
      if (seen_subjects.insert(c.subject).second) {
        subject_keys.emplace_back(c.subject, r);
      }
      if (seen_objects.insert(c.object).second) {
        object_keys.emplace_back(c.object, r);
      }
    }
    SideScoreCache cache;
    trace->entries += cache.PrecomputeObjects(model, kg, subject_keys,
                                              o.filtered_ranking, nullptr);
    trace->entries += cache.PrecomputeSubjects(model, kg, object_keys,
                                               o.filtered_ranking, nullptr);
    trace->precompute_s += SecondsSince(t);

    t = Clock::now();
    for (const Triple& c : candidates) {
      const SideScoreCache::Entry* objects = cache.FindObjects(c.subject, r);
      const SideScoreCache::Entry* subjects = cache.FindSubjects(r, c.object);
      const double object_rank =
          RankAgainstScores(objects->scores, c.object, &objects->excluded);
      const double subject_rank =
          RankAgainstScores(subjects->scores, c.subject, &subjects->excluded);
      trace->rank_calls += 2;
      const double rank = 0.5 * (subject_rank + object_rank);
      if (rank <= static_cast<double>(o.top_n)) {
        facts.push_back({c, rank, subject_rank, object_rank});
      }
    }
    trace->rank_s += SecondsSince(t);
  }
  return facts;
}

/// Triples and all three ranks equal bit for bit, in the same order.
bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].triple == b[i].triple) ||
        std::bit_cast<uint64_t>(a[i].rank) !=
            std::bit_cast<uint64_t>(b[i].rank) ||
        std::bit_cast<uint64_t>(a[i].subject_rank) !=
            std::bit_cast<uint64_t>(b[i].subject_rank) ||
        std::bit_cast<uint64_t>(a[i].object_rank) !=
            std::bit_cast<uint64_t>(b[i].object_rank)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// In-process discovery workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string server;
  Sizes sizes;
};

/// Share of --seconds spent on repeated filtered link prediction over the
/// test split.
constexpr double kEvalShare = 0.15;

/// Repeated filtered link prediction over the test split on a pool. The
/// discovery workloads interleave it with their sweeps, so both metrics
/// sample the same stretch of machine time.
class EvalProbe {
 public:
  EvalProbe(const Inputs& inputs, ThreadPool* pool)
      : inputs_(inputs), pool_(pool) {}

  /// Evaluates back to back until `seconds` have passed (at least once).
  Status RunFor(double seconds) {
    EvalConfig config;
    config.filtered = true;
    const auto start = Clock::now();
    do {
      const auto t = Clock::now();
      KGFD_ASSIGN_OR_RETURN(
          LinkPredictionMetrics m,
          EvaluateLinkPrediction(*inputs_.model, inputs_.dataset,
                                 inputs_.dataset.test(), config, pool_));
      rate_.push_back(static_cast<double>(m.num_ranks) / SecondsSince(t));
      results_.push_back(m);
    } while (SecondsSince(start) < seconds);
    return Status::OK();
  }

  /// Reports the median ranks/s and checks that every repeat agrees.
  void Finish(Report* report) const {
    report->Set("eval_ranks_per_s", Median(rate_));
    report->Set("eval.ranks_per_s_samples", static_cast<double>(rate_.size()));
    for (const LinkPredictionMetrics& m : results_) {
      report->Check(m.num_ranks == 2 * inputs_.dataset.test().size() &&
                        std::bit_cast<uint64_t>(m.mrr) ==
                            std::bit_cast<uint64_t>(results_[0].mrr),
                    "repeated link-prediction evaluation agrees");
    }
  }

 private:
  const Inputs& inputs_;
  ThreadPool* pool_;
  std::vector<double> rate_;
  std::vector<LinkPredictionMetrics> results_;
};

double HistogramSum(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

Status RunDiscoveryWorkload(const Args& args, Report* report) {
  const bool dense = args.workload == "discover-dense";
  const Sizes& sizes = args.sizes;
  const Paths paths{args.work_dir + "/data", args.work_dir + "/model.bin", ""};

  Inputs inputs;
  std::vector<SetupTimes> setups(sizes.setup_repeats);
  for (SetupTimes& setup : setups) {
    KGFD_RETURN_NOT_OK(BuildInputs(sizes, paths,
                                   /*quantized=*/false, &inputs, &setup));
  }
  ReportSetup(setups, report);
  const Model& model = *inputs.model;
  const TripleStore& kg = inputs.dataset.train();

  DiscoveryOptions options;
  options.strategy = dense ? SamplingStrategy::kEntityFrequency
                           : SamplingStrategy::kClusteringTriangles;
  options.max_candidates =
      dense ? sizes.dense_max_candidates : sizes.sparse_max_candidates;
  options.top_n = sizes.top_n;
  options.cache_weights = false;
  options.seed = args.seed;

  ThreadPool pool(kPoolThreads);
  MetricsRegistry registry;
  DiscoveryOptions timed_options = options;
  if (args.trace) {
    pool.AttachMetrics(&registry);
    timed_options.metrics = &registry;
  }

  // Warm-up: page in the model and let the allocator settle. Its facts are
  // the ones every later sweep is checked against.
  KGFD_ASSIGN_OR_RETURN(const DiscoveryResult warm_up,
                        DiscoverFacts(model, kg, options, &pool));

  // Timed phase: pooled sweeps, each followed by link prediction for its
  // share of the time.
  EvalProbe eval(inputs, &pool);
  std::vector<double> sweep_s;
  std::vector<double> sweep_facts_per_hour;
  std::vector<bool> sweep_matches;  // compared outside the sweep timer
  const auto sweeps_start = Clock::now();
  do {
    const auto t = Clock::now();
    KGFD_ASSIGN_OR_RETURN(DiscoveryResult result,
                          DiscoverFacts(model, kg, timed_options, &pool));
    const double wall = SecondsSince(t);
    sweep_s.push_back(wall);
    sweep_facts_per_hour.push_back(
        static_cast<double>(result.facts.size()) * 3600.0 / wall);
    sweep_matches.push_back(SameFacts(result.facts, warm_up.facts));
    KGFD_RETURN_NOT_OK(eval.RunFor(wall * kEvalShare / (1.0 - kEvalShare)));
  } while (SecondsSince(sweeps_start) < args.seconds || sweep_s.size() < 3);
  eval.Finish(report);
  report->Set("peak_rss_mb", ProcStatusMb(0, "VmHWM"));
  report->Set("facts_per_hour", Median(sweep_facts_per_hour));
  report->Set("job_latency_p50_s", Median(sweep_s));
  report->Set("job.latency_samples", static_cast<double>(sweep_s.size()));
  std::printf("sweeps (s):");
  for (const double wall : sweep_s) std::printf(" %.3f", wall);
  std::printf("\n");

  // Verification, untimed: serial sweep, outside replay, repeat agreement.
  // The traced run times the two one after the other (their walls feed
  // pool.speedup and trace.*); otherwise they run side by side.
  LayerTrace layers;
  double replay_s = 0;
  Result<std::vector<DiscoveredFact>> replayed(Status::Internal("not run"));
  auto replay = [&] {
    const auto t = Clock::now();
    replayed = ReplayDiscovery(model, kg, options, &layers);
    replay_s = SecondsSince(t);
  };
  std::thread replay_thread;
  if (!args.trace) replay_thread = std::thread(replay);
  const auto t = Clock::now();
  auto serial_or = DiscoverFacts(model, kg, options, nullptr);
  const double serial_s = SecondsSince(t);
  if (args.trace) {
    replay();
  } else {
    replay_thread.join();
  }
  KGFD_RETURN_NOT_OK(serial_or.status());
  KGFD_RETURN_NOT_OK(replayed.status());
  const DiscoveryResult& serial = serial_or.value();

  report->Check(!serial.facts.empty(), "serial sweep found facts");
  report->Check(SameFacts(replayed.value(), serial.facts),
                "outside replay facts == serial DiscoverFacts facts");
  report->Check(SameFacts(warm_up.facts, serial.facts),
                "pooled sweep facts == serial DiscoverFacts facts");
  for (size_t i = 0; i < sweep_matches.size(); ++i) {
    report->Check(sweep_matches[i], "timed pooled sweep " +
                                        std::to_string(i) +
                                        " facts == first pooled sweep");
  }

  // Per-layer figures (printed only with --trace 1).
  const double entities = static_cast<double>(kg.num_entities());
  report->Set("strategy.weights_s", layers.weights_s);
  report->Set("strategy.weights_calls",
              static_cast<double>(layers.weights_calls));
  report->Set("discovery.generate_s", layers.generate_s);
  report->Set("discovery.candidates", static_cast<double>(layers.candidates));
  report->Set("discovery.generate_accept_ratio",
              layers.pairs_tried == 0
                  ? 0.0
                  : static_cast<double>(layers.candidates) /
                        static_cast<double>(layers.pairs_tried));
  report->Set("score.precompute_s", layers.precompute_s);
  report->Set("score.entries", static_cast<double>(layers.entries));
  report->Set("score.candidates_per_key",
              layers.entries == 0
                  ? 0.0
                  : 2.0 * static_cast<double>(layers.candidates) /
                        static_cast<double>(layers.entries));
  // Computed, not measured: every entry is one scoring pass reading the
  // whole float entity table.
  report->Set("kernels.computed_bytes",
              static_cast<double>(layers.entries) * entities *
                  static_cast<double>(sizes.dim) * sizeof(float));
  report->Set("rank.s", layers.rank_s);
  report->Set("rank.calls", static_cast<double>(layers.rank_calls));
  report->Set("rank.entities_scanned",
              static_cast<double>(layers.rank_calls) * entities);
  report->Set("pool.speedup", serial_s / Median(sweep_s));
  report->Set("trace.coverage", layers.LayerSum() / serial_s);
  report->Set("trace.overhead_ratio", replay_s / serial_s);
  if (args.trace) {
    const MetricsSnapshot snap = registry.Snapshot();
    const double sweeps = static_cast<double>(sweep_s.size());
    report->Set("discovery.weights.seconds",
                HistogramSum(snap, kDiscoveryWeightsSpan) / sweeps);
    report->Set("discovery.generation.seconds",
                HistogramSum(snap, kDiscoveryGenerationSpan) / sweeps);
    report->Set("discovery.ranking.seconds",
                HistogramSum(snap, kDiscoveryRankingSpan) / sweeps);
    const auto helped = snap.counters.find(kThreadPoolTasksHelped);
    report->Set("threadpool.tasks.helped",
                helped == snap.counters.end()
                    ? 0.0
                    : static_cast<double>(helped->second) / sweeps);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serve workload: a real kgfd_server over loopback.

/// A kgfd_server child process; the destructor stops it and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary, const std::string& work_dir) {
    const std::string log = work_dir + ".log";
    const std::string threads = std::to_string(kPoolThreads);
    std::vector<std::string> argv_s = {binary,    "--port",     "0",
                                       "--bind",  "127.0.0.1",  "--work_dir",
                                       work_dir,  "--threads",  threads};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = 0;
      return Status::IoError("spawn " + binary + ": " + std::strerror(rc));
    }
    // The server prints "kgfd_server listening on ADDR:PORT" once bound.
    const auto start = Clock::now();
    while (SecondsSince(start) < 30.0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find("listening on ");
        const size_t colon = line.rfind(':');
        if (at == std::string::npos || colon == std::string::npos) continue;
        // A line still being written may lack its port yet.
        const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
        if (port > 0 && port <= 65535) {
          port_ = static_cast<uint16_t>(port);
          return Status::OK();
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        return Status::Internal("kgfd_server exited at start; see " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::DeadlineExceeded("kgfd_server did not start");
  }

  /// SIGTERM (graceful drain), then SIGKILL if it has not exited in 30 s.
  void Stop() {
    if (pid_ == 0) return;
    kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (SecondsSince(start) > 30.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = 0;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = 0;
  uint16_t port_ = 0;
};

/// One scheduled submission of the serve workload.
struct ServeJob {
  bool cancel = false;  ///< DELETEd right after it is submitted
  std::string config;
  bool quantized = false;
  double due = 0;  ///< seconds after the schedule start
  // Set by the load thread.
  bool submitted = false;
  std::string id;
  double sent_at = 0;
  // Set by the poller.
  bool terminal = false;
  std::string state;
  double terminal_at = 0;
  double runtime_s = 0;
  std::string facts;
};

/// Submissions of the serve workload, due at even intervals over --seconds:
/// about half of the server's service rate, so a slower host stretches job
/// latency without tipping the open loop into a growing queue. Many short
/// jobs rather than a few long ones: the latency median then rests on about
/// twenty like jobs, and the few unlike ones (first, ADAPTIVE, int8) cannot
/// become the median.
constexpr size_t kServeJobs = 24;
constexpr size_t kAdaptiveJob = 5;
constexpr size_t kQuantizedJob = 11;
constexpr size_t kCancelledBehind = 17;  ///< the cancelled job's neighbour

/// The fixed job mix: ENTITY_FREQUENCY jobs with distinct seeds on model A
/// (so they share side-score keys), one ADAPTIVE job, one job on the int8
/// copy of A (a second fingerprint, quantized kernels), and one job
/// cancelled while queued, submitted right behind the job due with it.
std::vector<ServeJob> ServeSchedule(const Args& args, const Paths& paths) {
  const Sizes& sizes = args.sizes;
  const double interval = args.seconds / static_cast<double>(kServeJobs);
  const std::string data = fs::absolute(paths.data_dir).string();
  auto discover = [&](const std::string& strategy, const std::string& model,
                      uint64_t seed, size_t max_candidates) {
    return "data.dir = " + data + "\nmodel.checkpoint = " +
           fs::absolute(model).string() + "\ndiscovery.strategy = " +
           strategy + "\ndiscovery.max_candidates = " +
           std::to_string(max_candidates) +
           "\ndiscovery.seed = " + std::to_string(seed) + "\n";
  };
  const size_t mc = sizes.serve_max_candidates;
  std::vector<ServeJob> jobs;
  for (size_t i = 0; i < kServeJobs; ++i) {
    const uint64_t seed = args.seed * 1000 + i;
    ServeJob job;
    job.due = static_cast<double>(i) * interval;
    if (i == kAdaptiveJob) {
      job.config = discover("ADAPTIVE", paths.model, seed,
                            sizes.adaptive_max_candidates);
    } else if (i == kQuantizedJob) {
      job.config =
          discover("ENTITY_FREQUENCY", paths.quantized_model, seed, mc);
      job.quantized = true;
    } else {
      job.config = discover("ENTITY_FREQUENCY", paths.model, seed, mc);
    }
    jobs.push_back(job);
    if (i == kCancelledBehind) {
      ServeJob cancel;
      cancel.cancel = true;
      cancel.due = job.due;
      cancel.config = discover("ENTITY_FREQUENCY", paths.model, seed + 500, mc);
      jobs.push_back(cancel);
    }
  }
  return jobs;
}

std::string FieldValue(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = key + " = ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return "";
}

bool IsTerminalState(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "deadline" ||
         state == "failed" || state == "failed_poisoned";
}

/// Reads one counter from the /metrics text export (`counter NAME V`), or
/// from Prometheus exposition (`NAME_WITH_UNDERSCORES V`). -1 when absent.
double MetricsValue(const std::string& text, const std::string& name) {
  std::string prom = name;
  std::replace(prom.begin(), prom.end(), '.', '_');
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::vector<std::string> w;
    for (std::string word; words >> word;) w.push_back(word);
    if (w.size() == 3 && w[0] == "counter" && w[1] == name) {
      return std::strtod(w[2].c_str(), nullptr);
    }
    if (w.size() == 2 && w[0] == prom) {
      return std::strtod(w[1].c_str(), nullptr);
    }
  }
  return -1.0;
}

Status RunServeWorkload(const Args& args, Report* report) {
  const Sizes& sizes = args.sizes;
  const Paths paths{args.work_dir + "/data", args.work_dir + "/model.bin",
                    args.work_dir + "/model_q8.bin"};

  // Set-up, repeated: inputs plus a fresh server; all but the last server
  // are stopped again.
  Inputs inputs;
  ServerProcess server;
  std::vector<SetupTimes> setups(sizes.setup_repeats);
  for (size_t i = 0; i < setups.size(); ++i) {
    KGFD_RETURN_NOT_OK(BuildInputs(sizes, paths,
                                   /*quantized=*/true, &inputs, &setups[i]));
    server.Stop();
    const auto t = Clock::now();
    KGFD_RETURN_NOT_OK(server.Start(
        args.server, args.work_dir + "/jobs" + std::to_string(i)));
    setups[i].server_start = SecondsSince(t);
  }
  ReportSetup(setups, report);
  const std::string jobs_dir =
      args.work_dir + "/jobs" + std::to_string(setups.size() - 1);
  const uint16_t port = server.port();
  const std::string host = "127.0.0.1";

  std::vector<ServeJob> jobs = ServeSchedule(args, paths);
  std::mutex mu;  // guards `jobs` between the load thread and the poller
  std::atomic<bool> load_done{false};
  std::vector<double> status_ms, submit_ms, facts_ms, late_ms;
  double facts_bytes = 0;
  double rss_after_first = -1, rss_after_last = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(100);
  const double give_up_s = args.seconds + 60.0;

  // Closed-loop poller: GET /jobs/<id> for every unfinished job, back to
  // back with a 2 ms think time; fetch the facts once a job is terminal.
  std::thread poller([&] {
    size_t next = 0;
    while (SecondsSince(t0) < give_up_s) {
      std::vector<std::pair<size_t, std::string>> open;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = 0; i < jobs.size(); ++i) {
          if (jobs[i].submitted && !jobs[i].terminal && !jobs[i].id.empty()) {
            open.emplace_back(i, jobs[i].id);
          }
        }
      }
      if (open.empty()) {
        if (load_done.load()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const auto [index, id] = open[next++ % open.size()];
      auto t = Clock::now();
      const auto got = HttpGet(host, port, "/jobs/" + id);
      const double ms = SecondsSince(t) * 1e3;
      const bool ok = got.ok() && got.value().status_code == 200;
      report->Check(ok, "GET /jobs/" + id);
      if (ok) {
        status_ms.push_back(ms);
        const std::string state = FieldValue(got.value().body, "state");
        if (IsTerminalState(state)) {
          const double now = SecondsSince(t0);
          const double run_s = std::strtod(
              FieldValue(got.value().body, "runtime_seconds").c_str(),
              nullptr);
          const double rss = ProcStatusMb(server.pid(), "VmRSS");
          std::string facts;
          if (state == "done") {
            t = Clock::now();
            const auto body = HttpGet(host, port, "/jobs/" + id + "/facts");
            const bool facts_ok =
                body.ok() && body.value().status_code == 200;
            report->Check(facts_ok, "GET /jobs/" + id + "/facts");
            if (facts_ok) {
              facts_ms.push_back(SecondsSince(t) * 1e3);
              facts = body.value().body;
              facts_bytes += static_cast<double>(facts.size());
              if (rss_after_first < 0) rss_after_first = rss;
              rss_after_last = rss;
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          ServeJob& job = jobs[index];
          job.terminal = true;
          job.state = state;
          job.terminal_at = now;
          job.runtime_s = run_s;
          job.facts = std::move(facts);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Open-loop load: each job is sent when due, whatever the server's state.
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(jobs[i].due)));
    const double sent_at = SecondsSince(t0);
    late_ms.push_back((sent_at - jobs[i].due) * 1e3);
    const auto t = Clock::now();
    const auto posted = HttpFetch(host, port, "POST", "/jobs", jobs[i].config);
    const bool ok = posted.ok() && posted.value().status_code == 200;
    report->Check(ok, "POST /jobs #" + std::to_string(i));
    if (!ok) continue;
    submit_ms.push_back(SecondsSince(t) * 1e3);
    std::string id = posted.value().body;
    while (!id.empty() && std::isspace(static_cast<unsigned char>(id.back()))) {
      id.pop_back();
    }
    if (jobs[i].cancel) {
      const auto deleted = HttpFetch(host, port, "DELETE", "/jobs/" + id);
      report->Check(deleted.ok() && deleted.value().status_code == 200,
                    "DELETE /jobs/" + id);
    }
    std::lock_guard<std::mutex> lock(mu);
    jobs[i].submitted = true;
    jobs[i].id = id;
    jobs[i].sent_at = sent_at;
  }
  load_done.store(true);
  poller.join();

  const auto metrics_page = HttpGet(host, port, "/metrics");
  const bool metrics_ok =
      metrics_page.ok() && metrics_page.value().status_code == 200;
  report->Check(metrics_ok, "GET /metrics");
  const std::string metrics_text = metrics_ok ? metrics_page.value().body : "";
  report->Set("peak_rss_mb", ProcStatusMb(server.pid(), "VmHWM"));
  server.Stop();

  // The server has no evaluation endpoint: link prediction runs in this
  // process on the served checkpoint, as in the discovery workloads.
  ThreadPool pool(kPoolThreads);
  EvalProbe eval(inputs, &pool);
  KGFD_RETURN_NOT_OK(eval.RunFor(kEvalShare * args.seconds));
  eval.Finish(report);

  // End-to-end figures.
  std::vector<double> latency, queue_wait, run_s;
  double facts_total = 0, discover_run_s = 0;
  for (const ServeJob& job : jobs) {
    if (job.cancel || job.state != "done") continue;
    latency.push_back(job.terminal_at - job.due);
    queue_wait.push_back(
        std::max(0.0, job.terminal_at - job.sent_at - job.runtime_s));
    run_s.push_back(job.runtime_s);
    discover_run_s += job.runtime_s;
    facts_total += static_cast<double>(
        std::count(job.facts.begin(), job.facts.end(), '\n'));
  }
  report->Set("job_latency_p50_s", Median(latency));
  report->Set("job.latency_samples", static_cast<double>(latency.size()));
  if (discover_run_s > 0) {
    report->Set("facts_per_hour", facts_total * 3600.0 / discover_run_s);
  }
  std::printf("samples: jobs=%zu status_polls=%zu\n", latency.size(),
              status_ms.size());
  for (const ServeJob& job : jobs) {
    std::printf("job %s: %s due=%.3f sent=%.3f terminal=%.3f run=%.3f\n",
                job.id.c_str(), job.state.c_str(), job.due, job.sent_at,
                job.terminal_at, job.runtime_s);
  }

  // Per-layer figures.
  const double hits = MetricsValue(metrics_text, kSharedScoresHitsCounter);
  const double misses = MetricsValue(metrics_text, kSharedScoresMissesCounter);
  if (hits >= 0 && misses >= 0 && hits + misses > 0) {
    report->Set("shared_cache.hit_ratio", hits / (hits + misses));
    // Computed, not measured: an entry holds one double score and one
    // exclusion byte per entity.
    report->Set("shared_cache.computed_bytes",
                misses * static_cast<double>(inputs.dataset.num_entities()) *
                    (sizeof(double) + sizeof(char)));
  }
  report->Set("server.model_cache.hits",
              std::max(0.0, MetricsValue(metrics_text,
                                         kServerModelCacheHitsCounter)));
  report->Set("journal.records",
              std::max(0.0, MetricsValue(metrics_text,
                                         kServerJournalRecordsCounter)));
  report->Set("server.queue_wait_s", Median(queue_wait));
  report->Set("server.job_run_s", Median(run_s));
  report->Set("server.rss_growth_mb",
              rss_after_first < 0 ? 0.0 : rss_after_last - rss_after_first);
  report->Set("http.status_p50_ms", Median(status_ms));
  report->Set("http.status_p99_ms", Percentile(status_ms, 0.99));
  report->Set("http.status_samples", static_cast<double>(status_ms.size()));
  report->Set("http.submit_ms", Median(submit_ms));
  report->Set("http.facts_ms", Median(facts_ms));
  report->Set("http.facts_bytes", facts_bytes);
  report->Set("serve.generator_late_ms",
              *std::max_element(late_ms.begin(), late_ms.end()));
  // Queue depth seen by each arrival: jobs sent before it and not yet
  // started (start = terminal - runtime).
  double depth_max = 0;
  for (const ServeJob& arrival : jobs) {
    double depth = 0;
    for (const ServeJob& job : jobs) {
      if (job.cancel || !job.terminal) continue;
      const double started = job.terminal_at - job.runtime_s;
      if (job.sent_at < arrival.sent_at && started > arrival.sent_at) ++depth;
    }
    depth_max = std::max(depth_max, depth);
  }
  report->Set("server.queue_depth_max", depth_max);

  // Journal: replay the server's record sequence through Append in a
  // scratch directory, timing each append.
  JobJournal::ReplayResult served;
  const auto served_journal =
      JobJournal::Open(jobs_dir, JobJournal::Options(), &served);
  report->Check(served_journal.ok() && !served.records.empty(),
                "server journal replays");
  if (served_journal.ok()) {
    const std::string replay_dir = args.work_dir + "/journal_replay";
    fs::create_directories(replay_dir);
    JobJournal::ReplayResult unused;
    KGFD_ASSIGN_OR_RETURN(
        std::unique_ptr<JobJournal> journal,
        JobJournal::Open(replay_dir, JobJournal::Options(), &unused));
    std::vector<double> append_us;
    for (const JournalRecord& record : served.records) {
      const auto t = Clock::now();
      report->Check(journal->Append(record).ok(), "journal append");
      append_us.push_back(SecondsSince(t) * 1e6);
    }
    report->Set("journal.append_us", Median(append_us));
    report->Set("journal.bytes", static_cast<double>(journal->bytes()));
  }
  if (args.trace) {
    const auto t = Clock::now();
    const auto sketch =
        ComputeModelScoreWeights(*inputs.model, inputs.dataset.train());
    report->Set("adaptive.sketch_s", SecondsSince(t));
    report->Check(sketch.ok(), "model-score sketch");
  }

  // Verification, untimed: every finished discover job's facts are
  // byte-identical to an in-process DiscoverFacts run with the same
  // options and checkpoint; the cancelled job ended cancelled.
  for (const ServeJob& job : jobs) {
    if (!job.submitted) continue;
    if (job.cancel) {
      report->Check(job.state == "cancelled",
                    "job " + job.id + " cancelled while queued (state " +
                        job.state + ")");
      continue;
    }
    report->Check(job.state == "done",
                  "job " + job.id + " done (state " + job.state + ")");
    if (job.state != "done") continue;
    const auto request = JobRequest::Parse(job.config);
    report->Check(request.ok(), "parse job config");
    if (!request.ok()) continue;
    const Model& model =
        job.quantized ? *inputs.quantized_model : *inputs.model;
    const auto local = DiscoverFacts(model, inputs.dataset.train(),
                                     request.value().discovery, &pool);
    report->Check(local.ok() &&
                      FormatFactsTsv(local.value().facts,
                                     inputs.dataset.entity_vocab(),
                                     inputs.dataset.relation_vocab()) ==
                          job.facts,
                  "job " + job.id +
                      " facts == FormatFactsTsv(in-process DiscoverFacts)");
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = flags_or.value();
  Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 10.0);
  args.trace = flags.GetInt("trace", 0) != 0;
  args.work_dir = flags.GetString("work_dir", "");
  args.server = flags.GetString("server", "");
  args.sizes = SizesFor(flags.GetString("size", "full"));
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "--work_dir and a positive --seconds are required\n");
    return 2;
  }
  fs::create_directories(args.work_dir);

  Report report;
  RecordHost(&report);
  Status status;
  if (args.workload == "discover-dense" ||
      args.workload == "discover-faithful-sparse") {
    status = RunDiscoveryWorkload(args, &report);
  } else if (args.workload == "serve-mixed") {
    status = RunServeWorkload(args, &report);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.Json(args.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) { return kgfd::Main(argc, argv); }
