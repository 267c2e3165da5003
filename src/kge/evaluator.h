#ifndef KGFD_KGE_EVALUATOR_H_
#define KGFD_KGE_EVALUATOR_H_

#include <vector>

#include "kg/dataset.h"
#include "kge/model.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace kgfd {

/// Aggregate link-prediction metrics over a set of ranks.
struct LinkPredictionMetrics {
  double mrr = 0.0;
  double mean_rank = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_3 = 0.0;
  double hits_at_10 = 0.0;
  size_t num_ranks = 0;
};

/// Folds a list of (possibly fractional, mid-tie) ranks into metrics.
LinkPredictionMetrics MetricsFromRanks(const std::vector<double>& ranks);

/// Mid-tie rank of `scores[target]` among the non-excluded entries:
///   rank = 1 + |greater| + |ties| / 2.
/// `excluded[i] != 0` removes entry i from the corruption pool (the target
/// itself is never counted as its own corruption). This is the tie handling
/// of LibKGE ("rank mean"). NaN scores rank last: a NaN competitor never
/// beats or ties a non-NaN target, and a NaN target is beaten by every
/// non-NaN competitor (±Inf included) and ties the other NaNs.
double RankAgainstScores(const std::vector<double>& scores, size_t target,
                         const std::vector<char>* excluded);

class MetricsRegistry;

/// Metric names EvaluateLinkPrediction populates when EvalConfig::metrics
/// is set (see src/obs/).
inline constexpr char kEvalSpan[] = "eval.link_prediction.seconds";
inline constexpr char kEvalTriplesCounter[] = "eval.triples.ranked";
inline constexpr char kEvalThroughputGauge[] = "eval.ranks_per_sec";

struct EvalConfig {
  /// Filtered protocol (Bordes et al.): corruptions that are known true
  /// triples (in any split) are excluded from the ranking pool.
  bool filtered = true;
  /// When set, evaluation latency, triples-ranked counters and a scoring
  /// throughput gauge are recorded here (metric names above).
  MetricsRegistry* metrics = nullptr;
  /// Cooperative stop signal, observed between ranked triples. Unlike
  /// discovery, a stopped evaluation returns an *error* (Cancelled /
  /// DeadlineExceeded) rather than partial metrics — metrics over an
  /// arbitrary prefix of the split would be silently misleading.
  CancelContext cancel;
};

class ThreadPool;

/// Both-side link-prediction evaluation of `split` (typically the test
/// split): each triple is ranked against all object corruptions and all
/// subject corruptions; both ranks enter the metrics. Scoring is read-only
/// on the model, so a non-null `pool` parallelizes over the split's triples
/// with identical (deterministic) results.
Result<LinkPredictionMetrics> EvaluateLinkPrediction(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    const EvalConfig& config = EvalConfig(), ThreadPool* pool = nullptr);

/// Metrics split by the popularity (undirected training-graph degree) of
/// the predicted entity — the popularity-aware evaluation the paper's §6
/// points to (Mohamed et al. 2020): aggregate MRR hides that models do
/// well on hub entities and poorly on the long tail.
struct StratifiedMetrics {
  /// One entry per bucket, ordered least to most popular.
  std::vector<LinkPredictionMetrics> buckets;
  /// Inclusive upper degree edge of each bucket.
  std::vector<uint64_t> bucket_max_degree;
};

/// Both-side evaluation of `split` with each rank attributed to the degree
/// bucket of the entity being predicted (the target of the corrupted
/// side). Buckets are degree quantiles over entities that occur in train.
Result<StratifiedMetrics> EvaluateByPopularity(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    size_t num_buckets, const EvalConfig& config = EvalConfig());

/// Per-triple side ranks, for callers that need the raw ranks (the fact
/// discovery pipeline, rank-distribution tests).
struct SideRanks {
  double subject_rank = 0.0;
  double object_rank = 0.0;
};

/// Ranks one triple against its corruptions on both sides. `known` supplies
/// the filter sets (pass the training store for discovery, or the whole
/// dataset's splits for test evaluation via `extra_known`).
SideRanks RankTriple(const Model& model, const Triple& t,
                     const TripleStore& known, bool filtered);

}  // namespace kgfd

#endif  // KGFD_KGE_EVALUATOR_H_
