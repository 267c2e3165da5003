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
                                    const TripleStore& kg) {
  const int key = static_cast<int>(strategy);
  // Computed under the lock: concurrent relations requesting the same
  // strategy serialize on the first computation instead of racing N copies
  // of an expensive metric sweep, and every later caller is a pure lookup.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = weights_.find(key);
  if (it != weights_.end()) {
    weights_hits_n_.fetch_add(1, std::memory_order_relaxed);
    if (weights_hits_ != nullptr) weights_hits_->Increment();
    return it->second;
  }
  if (weights_misses_ != nullptr) weights_misses_->Increment();
  auto entry = std::make_shared<WeightsEntry>();
  KGFD_ASSIGN_OR_RETURN(entry->weights, ComputeStrategyWeights(strategy, kg));
  KGFD_ASSIGN_OR_RETURN(entry->subject_sampler,
                        AliasSampler::Build(entry->weights.subject_weights));
  KGFD_ASSIGN_OR_RETURN(entry->object_sampler,
                        AliasSampler::Build(entry->weights.object_weights));
  std::shared_ptr<const WeightsEntry> shared = std::move(entry);
  weights_.emplace(key, shared);
  return shared;
}

Result<std::shared_ptr<const DiscoveryCache::WeightsEntry>>
DiscoveryCache::GetOrComputeModelScoreWeights(const Model& model,
                                              const TripleStore& kg) {
  const int key = static_cast<int>(SamplingStrategy::kModelScore);
  // Same serialization rationale as GetOrComputeWeights — the sketch's probe
  // sweep is by far the most expensive weights computation, so racing copies
  // would be the worst case, not just wasteful.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = weights_.find(key);
  if (it != weights_.end()) {
    weights_hits_n_.fetch_add(1, std::memory_order_relaxed);
    if (sketch_hits_ != nullptr) sketch_hits_->Increment();
    return it->second;
  }
  if (sketch_misses_ != nullptr) sketch_misses_->Increment();
  auto entry = std::make_shared<WeightsEntry>();
  KGFD_ASSIGN_OR_RETURN(entry->weights, ComputeModelScoreWeights(model, kg));
  KGFD_ASSIGN_OR_RETURN(entry->subject_sampler,
                        AliasSampler::Build(entry->weights.subject_weights));
  KGFD_ASSIGN_OR_RETURN(entry->object_sampler,
                        AliasSampler::Build(entry->weights.object_weights));
  std::shared_ptr<const WeightsEntry> shared = std::move(entry);
  weights_.emplace(key, shared);
  return shared;
}

size_t DiscoveryCache::num_weight_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weights_.size();
}

}  // namespace kgfd
