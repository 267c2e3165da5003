#ifndef KGFD_CORE_DISCOVERY_CACHE_H_
#define KGFD_CORE_DISCOVERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/strategy.h"
#include "kg/triple_store.h"
#include "util/alias_sampler.h"
#include "util/status.h"

namespace kgfd {

class Counter;
class MetricsRegistry;
class Model;

/// Metric names recorded when a DiscoveryCache is constructed with a
/// registry. Weight hits count relations served from a cached strategy
/// computation.
inline constexpr char kSharedWeightsHitsCounter[] =
    "discovery.shared_weights.hits";
inline constexpr char kSharedWeightsMissesCounter[] =
    "discovery.shared_weights.misses";
/// Side-score entries served from / absent in a cross-run score store.
/// No such store exists (every run scores its own keys), so these counters
/// are no longer recorded; the names stay because perfbench/perfbench.cc
/// reads them.
inline constexpr char kSharedScoresHitsCounter[] =
    "discovery.shared_scores.hits";
inline constexpr char kSharedScoresMissesCounter[] =
    "discovery.shared_scores.misses";
/// Model-score sketch (MODEL_SCORE strategy) served from / absent in the
/// cache. A hit skips the whole probe-pass precompute.
inline constexpr char kSketchHitsCounter[] = "discovery.sketch.hits";
inline constexpr char kSketchMissesCounter[] = "discovery.sketch.misses";

/// Cross-run cache of the reusable sampling state of DiscoverFacts:
/// strategy weights — ComputeStrategyWeights output, or the MODEL_SCORE
/// sketch, plus the built alias samplers — keyed by strategy.
///
/// Weights are deterministic functions of (model, KG), so serving them from
/// cache leaves discovered facts bit-identical to a cold run — the
/// discovery server relies on this to keep HTTP job output byte-identical
/// to kgfd_cli while amortizing work across requests. Side scores are not
/// cached here: each run precomputes its own keys into a run-local
/// SideScoreCache, so a long-lived cache holds O(strategies x |E|) and
/// server memory stays bounded by the running job.
///
/// An instance is only valid for a FIXED (model, KG) pair. The owner (the
/// server's job manager) keys instances by the model/KG fingerprint of
/// core/resume.h (HashModelParameters + graph shape) and must never share
/// one across fingerprints; DiscoverFacts trusts the pairing.
///
/// All methods are thread-safe; entries are immutable once computed, so
/// returned shared_ptrs stay valid without holding any lock.
class DiscoveryCache {
 public:
  /// When `metrics` is non-null, hit/miss counters (names above) are
  /// recorded there for the lifetime of the cache.
  explicit DiscoveryCache(MetricsRegistry* metrics = nullptr);

  /// One strategy's sampling state, computed once and shared by every
  /// relation of every run that uses the strategy.
  struct WeightsEntry {
    StrategyWeights weights;
    AliasSampler subject_sampler;
    AliasSampler object_sampler;
  };

  /// Returns the cached entry for `strategy`, computing it with
  /// ComputeWeightsEntry on first use. Concurrent callers for the same
  /// strategy serialize on the first computation and then share one entry.
  /// MODEL_SCORE hits and misses are counted as discovery.sketch.*, every
  /// other strategy as discovery.shared_weights.*. The MODEL_SCORE sketch
  /// depends on `model` — exactly the pair this instance is keyed by
  /// (HashModelParameters ⊕ KG fingerprint), so one instance never mixes
  /// sketches of two models.
  Result<std::shared_ptr<const WeightsEntry>> GetOrComputeWeights(
      SamplingStrategy strategy, const Model& model, const TripleStore& kg);

  size_t num_weight_entries() const;
  uint64_t weights_hits() const { return weights_hits_n_; }

 private:
  mutable std::mutex mu_;
  std::unordered_map<int, std::shared_ptr<const WeightsEntry>> weights_;

  Counter* weights_hits_ = nullptr;
  Counter* weights_misses_ = nullptr;
  Counter* sketch_hits_ = nullptr;
  Counter* sketch_misses_ = nullptr;
  std::atomic<uint64_t> weights_hits_n_{0};
};

/// Algorithm 1 line 7 for any strategy: ComputeStrategyWeights output, or
/// the MODEL_SCORE sketch (adaptive/score_sketch.h, one probe-pass sweep
/// through the batch kernels), plus both alias samplers.
Result<DiscoveryCache::WeightsEntry> ComputeWeightsEntry(
    SamplingStrategy strategy, const Model& model, const TripleStore& kg);

}  // namespace kgfd

#endif  // KGFD_CORE_DISCOVERY_CACHE_H_
