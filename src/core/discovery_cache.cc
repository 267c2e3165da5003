#include "core/discovery_cache.h"

#include "adaptive/score_sketch.h"
#include "obs/metrics.h"

namespace kgfd {

DiscoveryCache::DiscoveryCache(MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    weights_hits_ = metrics->GetCounter(kSharedWeightsHitsCounter);
    weights_misses_ = metrics->GetCounter(kSharedWeightsMissesCounter);
    sketch_hits_ = metrics->GetCounter(kSketchHitsCounter);
    sketch_misses_ = metrics->GetCounter(kSketchMissesCounter);
  }
}

Result<std::shared_ptr<const DiscoveryCache::WeightsEntry>>
DiscoveryCache::GetOrComputeWeights(SamplingStrategy strategy,
                                    const Model& model,
                                    const TripleStore& kg) {
  const bool sketch = strategy == SamplingStrategy::kModelScore;
  Counter* hits = sketch ? sketch_hits_ : weights_hits_;
  Counter* misses = sketch ? sketch_misses_ : weights_misses_;
  const int key = static_cast<int>(strategy);
  // Computed under the lock: concurrent relations requesting the same
  // strategy serialize on the first computation instead of racing N copies
  // of an expensive metric sweep (the sketch's probe sweep most of all),
  // and every later caller is a pure lookup.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = weights_.find(key);
  if (it != weights_.end()) {
    weights_hits_n_.fetch_add(1, std::memory_order_relaxed);
    if (hits != nullptr) hits->Increment();
    return it->second;
  }
  if (misses != nullptr) misses->Increment();
  KGFD_ASSIGN_OR_RETURN(WeightsEntry entry,
                        ComputeWeightsEntry(strategy, model, kg));
  auto shared = std::make_shared<const WeightsEntry>(std::move(entry));
  weights_.emplace(key, shared);
  return shared;
}

Result<DiscoveryCache::WeightsEntry> ComputeWeightsEntry(
    SamplingStrategy strategy, const Model& model, const TripleStore& kg) {
  DiscoveryCache::WeightsEntry entry;
  KGFD_ASSIGN_OR_RETURN(entry.weights,
                        strategy == SamplingStrategy::kModelScore
                            ? ComputeModelScoreWeights(model, kg)
                            : ComputeStrategyWeights(strategy, kg));
  KGFD_ASSIGN_OR_RETURN(entry.subject_sampler,
                        AliasSampler::Build(entry.weights.subject_weights));
  KGFD_ASSIGN_OR_RETURN(entry.object_sampler,
                        AliasSampler::Build(entry.weights.object_weights));
  return entry;
}

size_t DiscoveryCache::num_weight_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weights_.size();
}

}  // namespace kgfd
