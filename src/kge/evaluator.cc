#include "kge/evaluator.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace kgfd {

LinkPredictionMetrics MetricsFromRanks(const std::vector<double>& ranks) {
  LinkPredictionMetrics m;
  m.num_ranks = ranks.size();
  if (ranks.empty()) return m;
  for (double rank : ranks) {
    m.mrr += 1.0 / rank;
    m.mean_rank += rank;
    if (rank <= 1.0) m.hits_at_1 += 1.0;
    if (rank <= 3.0) m.hits_at_3 += 1.0;
    if (rank <= 10.0) m.hits_at_10 += 1.0;
  }
  const double n = static_cast<double>(ranks.size());
  m.mrr /= n;
  m.mean_rank /= n;
  m.hits_at_1 /= n;
  m.hits_at_3 /= n;
  m.hits_at_10 /= n;
  return m;
}

double RankAgainstScores(const std::vector<double>& scores, size_t target,
                         const std::vector<char>* excluded) {
  const double target_score = scores[target];
  size_t greater = 0;
  size_t ties = 0;
  if (std::isnan(target_score)) {
    // A NaN target ranks last: every competitor beats it except other
    // NaNs, which tie. Kept out of the loop below, where NaN compares false
    // both ways and a NaN target would otherwise rank 1.
    for (size_t i = 0; i < scores.size(); ++i) {
      if (i == target) continue;
      if (excluded != nullptr && (*excluded)[i] != 0) continue;
      if (std::isnan(scores[i])) {
        ++ties;
      } else {
        ++greater;
      }
    }
    return 1.0 + static_cast<double>(greater) +
           static_cast<double>(ties) / 2.0;
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i == target) continue;
    if (excluded != nullptr && (*excluded)[i] != 0) continue;
    if (scores[i] > target_score) {
      ++greater;
    } else if (scores[i] == target_score) {
      ++ties;
    }
  }
  return 1.0 + static_cast<double>(greater) +
         static_cast<double>(ties) / 2.0;
}

namespace {

/// Marks entities that form known-true corruptions of (s, r, ?) across the
/// provided stores.
void MarkKnownObjects(const std::vector<const TripleStore*>& stores,
                      EntityId s, RelationId r, std::vector<char>* excluded) {
  for (const TripleStore* store : stores) {
    for (EntityId o : store->ObjectsOf(s, r)) (*excluded)[o] = 1;
  }
}

void MarkKnownSubjects(const std::vector<const TripleStore*>& stores,
                       RelationId r, EntityId o,
                       std::vector<char>* excluded) {
  for (const TripleStore* store : stores) {
    for (EntityId s : store->SubjectsOf(r, o)) (*excluded)[s] = 1;
  }
}

}  // namespace

Result<LinkPredictionMetrics> EvaluateLinkPrediction(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    const EvalConfig& config, ThreadPool* pool) {
  KGFD_RETURN_NOT_OK(ValidateModelShape(model, dataset.num_entities(),
                                        dataset.num_relations()));
  const std::vector<const TripleStore*> stores = {
      &dataset.train(), &dataset.valid(), &dataset.test()};
  ScopedSpan span(config.metrics, kEvalSpan);
  // Fixed slots per triple keep the result independent of scheduling.
  std::vector<double> ranks(split.size() * 2, 0.0);
  const std::vector<Triple>& triples = split.triples();
  // Triples per batch-scoring call. Small on purpose: each query needs a
  // num_entities-sized score vector, so the working set stays a few
  // hundred KB per thread while still amortizing the kernel's row loads
  // over several queries.
  constexpr size_t kEvalBatch = 8;
  ParallelFor(
      pool, triples.size(),
      [&](size_t begin, size_t end) {
        // Reused across sub-blocks: the score vectors hold their
        // num_entities capacity after the first batch call.
        std::vector<std::vector<double>> scores(kEvalBatch);
        std::vector<char> excluded;
        SideQuery queries[kEvalBatch];
        std::vector<double>* outs[kEvalBatch];
        for (size_t block = begin; block < end; block += kEvalBatch) {
          // Per-sub-block cancellation probe; the whole evaluation errors
          // out below, so abandoning this chunk's remaining slots is safe.
          if (config.cancel.StopReason() != StoppedReason::kNone) return;
          const size_t n = std::min(kEvalBatch, end - block);
          // Object side.
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            queries[j] = SideQuery{t.subject, t.relation};
            outs[j] = &scores[j];
          }
          model.ScoreObjectsBatch(queries, n, outs);
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            excluded.assign(scores[j].size(), 0);
            if (config.filtered) {
              MarkKnownObjects(stores, t.subject, t.relation, &excluded);
            }
            ranks[2 * (block + j)] =
                RankAgainstScores(scores[j], t.object, &excluded);
          }
          // Subject side.
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            queries[j] = SideQuery{t.object, t.relation};
          }
          model.ScoreSubjectsBatch(queries, n, outs);
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            excluded.assign(scores[j].size(), 0);
            if (config.filtered) {
              MarkKnownSubjects(stores, t.relation, t.object, &excluded);
            }
            ranks[2 * (block + j) + 1] =
                RankAgainstScores(scores[j], t.subject, &excluded);
          }
        }
      },
      &config.cancel, kEvalBatch);
  KGFD_RETURN_NOT_OK(config.cancel.Check("link-prediction evaluation"));
  const double elapsed = span.Stop();
  if (config.metrics != nullptr) {
    config.metrics->GetCounter(kEvalTriplesCounter)
        ->Increment(triples.size());
    if (elapsed > 0.0) {
      config.metrics->GetGauge(kEvalThroughputGauge)
          ->Set(static_cast<double>(ranks.size()) / elapsed);
    }
  }
  return MetricsFromRanks(ranks);
}

Result<StratifiedMetrics> EvaluateByPopularity(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    size_t num_buckets, const EvalConfig& config) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("need at least one bucket");
  }
  KGFD_RETURN_NOT_OK(ValidateModelShape(model, dataset.num_entities(),
                                        dataset.num_relations()));
  // Undirected degree per entity over the training triples.
  std::vector<uint64_t> degree(dataset.num_entities(), 0);
  for (const Triple& t : dataset.train().triples()) {
    ++degree[t.subject];
    ++degree[t.object];
  }
  // Quantile bucket edges over entities occurring in train.
  std::vector<uint64_t> present;
  for (uint64_t d : degree) {
    if (d > 0) present.push_back(d);
  }
  if (present.empty()) {
    return Status::FailedPrecondition("empty training graph");
  }
  std::sort(present.begin(), present.end());
  StratifiedMetrics result;
  result.bucket_max_degree.resize(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    const size_t idx = std::min(
        present.size() - 1, (b + 1) * present.size() / num_buckets);
    result.bucket_max_degree[b] =
        b + 1 == num_buckets ? present.back() : present[idx];
  }
  auto bucket_of = [&](EntityId e) {
    const uint64_t d = degree[e];
    for (size_t b = 0; b < num_buckets; ++b) {
      if (d <= result.bucket_max_degree[b]) return b;
    }
    return num_buckets - 1;
  };

  std::vector<std::vector<double>> ranks(num_buckets);
  const std::vector<const TripleStore*> stores = {
      &dataset.train(), &dataset.valid(), &dataset.test()};
  std::vector<double> scores;
  std::vector<char> excluded;
  for (const Triple& t : split.triples()) {
    KGFD_RETURN_NOT_OK(config.cancel.Check("popularity evaluation"));
    model.ScoreObjects(t.subject, t.relation, &scores);
    excluded.assign(scores.size(), 0);
    if (config.filtered) {
      MarkKnownObjects(stores, t.subject, t.relation, &excluded);
    }
    ranks[bucket_of(t.object)].push_back(
        RankAgainstScores(scores, t.object, &excluded));
    model.ScoreSubjects(t.relation, t.object, &scores);
    excluded.assign(scores.size(), 0);
    if (config.filtered) {
      MarkKnownSubjects(stores, t.relation, t.object, &excluded);
    }
    ranks[bucket_of(t.subject)].push_back(
        RankAgainstScores(scores, t.subject, &excluded));
  }
  result.buckets.reserve(num_buckets);
  for (const std::vector<double>& bucket_ranks : ranks) {
    result.buckets.push_back(MetricsFromRanks(bucket_ranks));
  }
  return result;
}

SideRanks RankTriple(const Model& model, const Triple& t,
                     const TripleStore& known, bool filtered) {
  SideRanks out;
  std::vector<double> scores;
  std::vector<char> excluded;

  model.ScoreObjects(t.subject, t.relation, &scores);
  excluded.assign(scores.size(), 0);
  if (filtered) {
    for (EntityId o : known.ObjectsOf(t.subject, t.relation)) {
      excluded[o] = 1;
    }
    excluded[t.object] = 0;  // never filter the target itself
  }
  out.object_rank = RankAgainstScores(scores, t.object, &excluded);

  model.ScoreSubjects(t.relation, t.object, &scores);
  excluded.assign(scores.size(), 0);
  if (filtered) {
    for (EntityId s : known.SubjectsOf(t.relation, t.object)) {
      excluded[s] = 1;
    }
    excluded[t.subject] = 0;
  }
  out.subject_rank = RankAgainstScores(scores, t.subject, &excluded);
  return out;
}

}  // namespace kgfd
