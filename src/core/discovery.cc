#include "core/discovery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "adaptive/scheduler.h"
#include "core/discovery_cache.h"
#include "core/side_score_cache.h"
#include "core/type_filter.h"
#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kge/evaluator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/alias_sampler.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgfd {

double DiscoveryMrr(const std::vector<DiscoveredFact>& facts) {
  if (facts.empty()) return 0.0;
  double sum = 0.0;
  for (const DiscoveredFact& f : facts) sum += 1.0 / f.rank;
  return sum / static_cast<double>(facts.size());
}

double LongTailShare(const std::vector<DiscoveredFact>& facts,
                     const TripleStore& kg, double quantile) {
  if (facts.empty()) return 0.0;
  const Adjacency adj = Adjacency::FromTripleStore(kg);
  std::vector<uint64_t> degrees = Degrees(adj);
  std::vector<uint64_t> connected;
  connected.reserve(degrees.size());
  for (uint64_t d : degrees) {
    if (d > 0) connected.push_back(d);
  }
  if (connected.empty()) return 0.0;
  std::sort(connected.begin(), connected.end());
  const size_t idx = std::min(
      connected.size() - 1,
      static_cast<size_t>(quantile *
                          static_cast<double>(connected.size() - 1)));
  const uint64_t threshold = connected[idx];
  size_t touching = 0;
  for (const DiscoveredFact& f : facts) {
    if (degrees[f.triple.subject] <= threshold ||
        degrees[f.triple.object] <= threshold) {
      ++touching;
    }
  }
  return static_cast<double>(touching) / static_cast<double>(facts.size());
}

namespace {

/// Algorithm 1 line 4: mesh-grid side length.
size_t MeshGridSampleSize(size_t max_candidates) {
  return static_cast<size_t>(
             std::sqrt(static_cast<double>(max_candidates))) +
         10;
}

double Aggregate(RankAggregation agg, double subject_rank,
                 double object_rank) {
  switch (agg) {
    case RankAggregation::kMean:
      return 0.5 * (subject_rank + object_rank);
    case RankAggregation::kMin:
      return std::min(subject_rank, object_rank);
    case RankAggregation::kMax:
      return std::max(subject_rank, object_rank);
  }
  return 0.5 * (subject_rank + object_rank);
}

// The phases of one round of Algorithm 1's relation loop, after line 7
// (ComputeWeightsEntry): Generate → ScoreSides → Rank → Accept.

/// Lines 8-13: sample mesh-grid subject/object pools from `arm`, skip known
/// (line 12), type-inadmissible and already-seen triples, until `quota`
/// candidates or `max_iterations` draws. `seen` spans every round of the
/// relation, so a round only ever yields triples no earlier round yielded.
/// The output is a pure function of the RNG stream and `seen`, never of
/// ranking results, which lets resume replay a round by regenerating it.
std::vector<Triple> Generate(const DiscoveryCache::WeightsEntry& arm,
                             RelationId r, size_t quota,
                             size_t max_iterations, const TripleStore& kg,
                             const RelationTypeFilter* type_filter, Rng* rng,
                             std::unordered_set<uint64_t>* seen) {
  const size_t sample_size = MeshGridSampleSize(quota);
  std::vector<EntityId> s_samples(sample_size);
  std::vector<EntityId> o_samples(sample_size);
  std::vector<Triple> candidates;
  for (size_t iteration = 0;
       iteration < max_iterations && candidates.size() < quota;
       ++iteration) {
    for (size_t i = 0; i < sample_size; ++i) {
      s_samples[i] = arm.weights.subject_pool[arm.subject_sampler.Sample(rng)];
      o_samples[i] = arm.weights.object_pool[arm.object_sampler.Sample(rng)];
    }
    for (EntityId s : s_samples) {
      if (candidates.size() >= quota) break;
      for (EntityId o : o_samples) {
        if (candidates.size() >= quota) break;
        const Triple t{s, r, o};
        if (kg.Contains(t)) continue;
        if (type_filter != nullptr && !type_filter->Admissible(t)) continue;
        if (!seen->insert(PackTriple(t)).second) continue;
        candidates.push_back(t);
      }
    }
  }
  // Defensive clamp: the break conditions above already stop at `quota`,
  // but the downstream rank-slot allocation sizes off this list, so enforce
  // the invariant here too rather than trust loop structure at a distance.
  if (candidates.size() > quota) candidates.resize(quota);
  return candidates;
}

/// A round's candidates grouped by one side-score key: key g is the entity
/// `entities[g]`, and its candidates are `order[starts[g], starts[g + 1])`,
/// in candidate order.
struct KeyGroups {
  std::vector<EntityId> entities;
  std::vector<uint32_t> order;
  std::vector<size_t> starts;
};

/// Groups `candidates` by their subject (object-side keys (s, r)) or by
/// their object (subject-side keys (r, o)), as `side` selects.
KeyGroups GroupByEntity(const std::vector<Triple>& candidates,
                        EntityId Triple::*side) {
  KeyGroups groups;
  groups.order.resize(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    groups.order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(groups.order.begin(), groups.order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return candidates[a].*side < candidates[b].*side;
                   });
  for (size_t i = 0; i < groups.order.size(); ++i) {
    const EntityId e = candidates[groups.order[i]].*side;
    if (groups.entities.empty() || groups.entities.back() != e) {
      groups.entities.push_back(e);
      groups.starts.push_back(i);
    }
  }
  groups.starts.push_back(groups.order.size());
  return groups;
}

/// Precomputes the side scores a round's candidates rank against: one
/// ScoreObjects pass per object-side key (s, r) and one ScoreSubjects pass
/// per subject-side key (r, o), skipping entries `cache` holds from earlier
/// rounds. Returns the number of entries it scored, i.e. the lookups that
/// miss.
size_t ScoreSides(const Model& model, const TripleStore& kg, RelationId r,
                  const KeyGroups& by_subject, const KeyGroups& by_object,
                  bool filtered, ThreadPool* pool,
                  const CancelContext* cancel, SideScoreCache* cache) {
  std::vector<SideScoreCache::Key> subject_keys;  // (s, r): object scores
  std::vector<SideScoreCache::Key> object_keys;   // (o, r): subject scores
  for (EntityId s : by_subject.entities) {
    if (cache->FindObjects(s, r) == nullptr) subject_keys.emplace_back(s, r);
  }
  for (EntityId o : by_object.entities) {
    if (cache->FindSubjects(r, o) == nullptr) object_keys.emplace_back(o, r);
  }
  cache->PrecomputeObjects(model, kg, subject_keys, filtered, pool, cancel);
  cache->PrecomputeSubjects(model, kg, object_keys, filtered, pool, cancel);
  return subject_keys.size() + object_keys.size();
}

/// Side-score keys per ParallelFor grain. A few keys, not kQueryBlock: a
/// key holds ~sqrt(max_candidates) candidates, so a relation has only
/// ~2 sqrt(max_candidates) keys to spread over the pool.
constexpr size_t kRankKeyGrain = 4;

/// Lines 14-15, first half: each candidate's rank against its object-side
/// and subject-side corruptions. The candidates sharing a side-score key
/// (s, r) or (r, o) rank together in one pass over that entry
/// (RankTargetsAgainstScores), so the pool fans out over the keys of both
/// sides (nested inside the relation loop, which TaskGroup-scoped waiting
/// makes safe). Ranks land in fixed per-candidate slots, so they are
/// identical for every thread count. `stop` is the cheap in-loop probe,
/// taken once per key; once it fires, slots may be left unfilled and the
/// caller abandons the relation.
template <typename StopProbe>
void Rank(const SideScoreCache& cache, RelationId r,
          const std::vector<Triple>& candidates, const KeyGroups& by_subject,
          const KeyGroups& by_object, ThreadPool* pool,
          const CancelContext* cancel, const StopProbe& stop,
          std::vector<double>* subject_ranks,
          std::vector<double>* object_ranks) {
  subject_ranks->resize(candidates.size());
  object_ranks->resize(candidates.size());
  // Object-side keys (s, r) rank objects; subject-side keys (r, o) rank
  // subjects.
  const size_t num_object_side = by_subject.entities.size();
  ParallelFor(
      pool, num_object_side + by_object.entities.size(),
      [&](size_t begin, size_t end) {
        std::vector<EntityId> targets;
        std::vector<double> ranks;
        for (size_t key = begin; key < end; ++key) {
          if (stop()) return;
          const bool object_side = key < num_object_side;
          const KeyGroups& groups = object_side ? by_subject : by_object;
          const size_t g = object_side ? key : key - num_object_side;
          const uint32_t* members = groups.order.data() + groups.starts[g];
          const size_t k = groups.starts[g + 1] - groups.starts[g];
          const SideScoreCache::Entry* entry =
              object_side ? cache.FindObjects(groups.entities[g], r)
                          : cache.FindSubjects(r, groups.entities[g]);
          targets.resize(k);
          for (size_t j = 0; j < k; ++j) {
            const Triple& t = candidates[members[j]];
            targets[j] = object_side ? t.object : t.subject;
          }
          ranks.resize(k);
          RankTargetsAgainstScores(entry->scores, &entry->excluded,
                                   targets.data(), k, ranks.data());
          double* const slots =
              (object_side ? object_ranks : subject_ranks)->data();
          for (size_t j = 0; j < k; ++j) slots[members[j]] = ranks[j];
        }
      },
      cancel, kRankKeyGrain);
}

/// Lines 14-15, second half: appends the candidates whose aggregated rank
/// is <= top_n to `facts`, in candidate order.
void Accept(const std::vector<Triple>& candidates,
            const std::vector<double>& subject_ranks,
            const std::vector<double>& object_ranks,
            RankAggregation aggregation, size_t top_n,
            std::vector<DiscoveredFact>* facts) {
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double rank =
        Aggregate(aggregation, subject_ranks[i], object_ranks[i]);
    if (rank <= static_cast<double>(top_n)) {
      DiscoveredFact fact;
      fact.triple = candidates[i];
      fact.rank = rank;
      fact.subject_rank = subject_ranks[i];
      fact.object_rank = object_ranks[i];
      facts->push_back(fact);
    }
  }
}

}  // namespace

Status ValidateDiscoveryOptions(const DiscoveryOptions& options,
                                const TripleStore& kg) {
  if (options.max_candidates == 0 || options.top_n == 0) {
    return Status::InvalidArgument("top_n and max_candidates must be > 0");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be > 0");
  }
  if (options.strategy == SamplingStrategy::kAdaptive) {
    if (options.adaptive_rounds == 0) {
      return Status::InvalidArgument(
          "adaptive_rounds must be > 0 for strategy=ADAPTIVE");
    }
    // Negated >= so a NaN (never >= 0) is rejected instead of silently
    // poisoning every UCB comparison.
    if (!(options.adaptive_exploration >= 0.0)) {
      return Status::InvalidArgument(
          "adaptive_exploration must be >= 0 for strategy=ADAPTIVE");
    }
  }
  for (RelationId r : options.relations) {
    if (r >= kg.num_relations()) {
      return Status::OutOfRange("relation id out of range");
    }
  }

  // Guard the mesh-grid against absurd max_candidates before anything is
  // allocated: estimate the per-relation transient footprint (sample
  // vectors, candidate list, dedup hash set, rank slots) in double
  // arithmetic so the estimate itself cannot overflow size_t.
  //
  // ~48 bytes/candidate of unordered_set node + bucket overhead on top of
  // the 8-byte packed key is a deliberate overestimate.
  const size_t sample_size = MeshGridSampleSize(options.max_candidates);
  const double estimated_bytes =
      2.0 * static_cast<double>(sample_size) * sizeof(EntityId) +
      static_cast<double>(options.max_candidates) *
          (sizeof(Triple) + 2 * sizeof(double) + 56.0);
  if (estimated_bytes >
      static_cast<double>(options.max_candidate_memory_bytes)) {
    return Status::InvalidArgument(
        "max_candidates=" + std::to_string(options.max_candidates) +
        " needs ~" + std::to_string(static_cast<uint64_t>(estimated_bytes)) +
        " bytes of per-relation candidate state, over the "
        "max_candidate_memory_bytes cap of " +
        std::to_string(options.max_candidate_memory_bytes) +
        "; lower max_candidates or raise the cap");
  }
  return Status::OK();
}

Result<DiscoveryResult> DiscoverFacts(const Model& model,
                                      const TripleStore& kg,
                                      const DiscoveryOptions& options,
                                      ThreadPool* pool) {
  KGFD_RETURN_NOT_OK(ValidateDiscoveryOptions(options, kg));
  KGFD_RETURN_NOT_OK(
      ValidateModelShape(model, kg.num_entities(), kg.num_relations()));

  // Algorithm 1 line 3: default to every relation present in the KG.
  std::vector<RelationId> relations = options.relations;
  if (relations.empty()) relations = kg.UsedRelations();

  WallTimer total_timer;
  MetricsRegistry* const metrics = options.metrics;
  // Resolve counters once so worker threads only pay an atomic increment.
  Counter* candidates_counter = nullptr;
  Counter* facts_counter = nullptr;
  Counter* cache_hits_counter = nullptr;
  Counter* cache_misses_counter = nullptr;
  Counter* relations_counter = nullptr;
  if (metrics != nullptr) {
    candidates_counter = metrics->GetCounter(kDiscoveryCandidatesCounter);
    facts_counter = metrics->GetCounter(kDiscoveryFactsCounter);
    cache_hits_counter = metrics->GetCounter(kDiscoveryScoreCacheHits);
    cache_misses_counter = metrics->GetCounter(kDiscoveryScoreCacheMisses);
    relations_counter = metrics->GetCounter(kDiscoveryRelationsCounter);
  }

  // --- Cooperative stop machinery -----------------------------------------
  // All stop sources (external token, deadline, the discovery.cancel
  // failpoint) funnel into one internal token: the first observer records
  // the reason + metrics, and every nested ParallelFor watches the internal
  // token, so one observation stops the whole sweep within a chunk.
  CancellationToken stop_token;
  std::atomic<int> stop_reason{static_cast<int>(StoppedReason::kNone)};
  const CancelContext run_cancel(&stop_token);

  auto observe_stop = [&](StoppedReason reason) {
    int expected = static_cast<int>(StoppedReason::kNone);
    if (stop_reason.compare_exchange_strong(expected,
                                            static_cast<int>(reason))) {
      if (metrics != nullptr) {
        metrics->GetCounter(kCancelRequestedCounter)->Increment();
        // Signal-to-observation latency; only meaningful for an external
        // token (deadline/failpoint stops have no request timestamp).
        const CancellationToken* ext = options.cancel.token();
        metrics->GetHistogram(kCancelObservedSecondsHist)
            ->Observe(ext != nullptr ? ext->SecondsSinceRequest() : 0.0);
      }
    }
    stop_token.RequestCancel();
  };

  // Cheap in-loop probe: internal token (already-observed stop) plus the
  // external token/deadline. No failpoint evaluation, so arming
  // discovery.cancel with a skip count stays deterministic — only the
  // coarse checkpoints below consume hits.
  auto fine_stop = [&]() -> bool {
    if (stop_token.IsCancelled()) return true;
    const StoppedReason r = options.cancel.StopReason();
    if (r != StoppedReason::kNone) {
      observe_stop(r);
      return true;
    }
    return false;
  };

  // Coarse checkpoint (relation start, between phases): everything
  // fine_stop sees plus the discovery.cancel failpoint, which simulates a
  // stop request — Cancelled or DeadlineExceeded specs map onto the
  // matching reason; any other injected code reads as a cancellation.
  auto checkpoint_stop = [&]() -> bool {
    if (fine_stop()) return true;
    const Status injected =
        FailPoints::Instance().Evaluate(kFailPointDiscoveryCancel);
    if (!injected.ok()) {
      observe_stop(injected.code() == StatusCode::kDeadlineExceeded
                       ? StoppedReason::kDeadline
                       : StoppedReason::kCancelled);
      return true;
    }
    return false;
  };

  const bool adaptive = options.strategy == SamplingStrategy::kAdaptive;
  const bool model_score = options.strategy == SamplingStrategy::kModelScore;

  // Line 7: compute_weights(strategy) — one WeightsEntry per arm: the six
  // AdaptiveArmStrategies() under ADAPTIVE, otherwise the one strategy.
  using ArmSet =
      std::vector<std::shared_ptr<const DiscoveryCache::WeightsEntry>>;
  const std::vector<SamplingStrategy> arm_strategies =
      adaptive ? AdaptiveArmStrategies()
               : std::vector<SamplingStrategy>{options.strategy};
  auto compute_weights = [&](double* seconds) -> Result<ArmSet> {
    ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
    ArmSet arms;
    for (SamplingStrategy s : arm_strategies) {
      if (options.shared_cache != nullptr) {
        KGFD_ASSIGN_OR_RETURN(
            auto shared, options.shared_cache->GetOrComputeWeights(s, model, kg));
        arms.push_back(std::move(shared));
      } else {
        KGFD_ASSIGN_OR_RETURN(DiscoveryCache::WeightsEntry owned,
                              ComputeWeightsEntry(s, model, kg));
        arms.push_back(std::make_shared<const DiscoveryCache::WeightsEntry>(
            std::move(owned)));
      }
    }
    *seconds = weight_span.Stop();
    return arms;
  };

  // The paper recomputes weights inside the relation loop; they are hoisted
  // out of it for the weight-caching ablation, for a shared DiscoveryCache
  // (which already guarantees one computation per strategy across runs, so
  // a per-relation recompute would only repeat a cache lookup), for
  // MODEL_SCORE (its sketch depends only on (model, KG), so a recompute
  // would repeat the probe sweep for identical weights) and for ADAPTIVE
  // (the bandit may grant any arm any round, and recomputing six arms per
  // relation would multiply the most expensive sweeps for identical output).
  const bool hoist_weights = adaptive || options.cache_weights ||
                             options.shared_cache != nullptr || model_score;
  ArmSet hoisted_arms;
  double hoisted_weight_seconds = 0.0;
  if (hoist_weights) {
    KGFD_ASSIGN_OR_RETURN(hoisted_arms,
                          compute_weights(&hoisted_weight_seconds));
  }

  std::unique_ptr<RelationTypeFilter> type_filter;
  if (options.type_filter) {
    type_filter = std::make_unique<RelationTypeFilter>(kg);
  }

  // Per-relation outcomes with fixed slots so a thread pool can fill them
  // in any order; each relation draws from its own seed-derived RNG streams,
  // making the output identical whether the loop runs serially or
  // in parallel.
  struct RelationOutcome {
    std::vector<DiscoveredFact> facts;
    size_t num_candidates = 0;
    double generation_seconds = 0.0;
    double evaluation_seconds = 0.0;
    double weight_seconds = 0.0;
    Status status;
    /// Set only when process_relation ran the relation to the end. A stopped
    /// sweep treats unfinished relations as all-or-nothing: they contribute
    /// no facts, no stats phases and no completion callback, so resuming
    /// later regenerates their facts bit-identically from their own RNG
    /// streams.
    bool completed = false;
  };
  std::vector<RelationOutcome> outcomes(relations.size());

  // Algorithm 1's relation loop, one routine for every strategy. The
  // relation's candidate budget is played out as a schedule of round plans,
  // each running Generate → ScoreSides → Rank → Accept with one arm's
  // weights:
  //  - a fixed strategy is the single plan {round 0, arm 0, quota
  //    max_candidates} on the relation's own RNG stream;
  //  - ADAPTIVE takes its plans from a per-relation BanditScheduler, draws
  //    each round from a round-specific stream (so a replayed prefix leaves
  //    later rounds' streams untouched) and reports accepted facts per
  //    candidate back. Rounds, not relations, are its checkpoint unit: each
  //    finished live round fires on_round_complete, and a resumed run
  //    replays the recorded rounds through the scheduler (verifying the arm
  //    sequence) before playing the rest live.
  // The SideScoreCache and the candidate dedup set live for the whole
  // relation, so no (entity, relation) pair is scored twice and no triple
  // is a candidate twice.
  //
  // Stop checkpoints (each evaluates the discovery.cancel failpoint once):
  // the relation boundary, then per live round the round boundary (for a
  // fixed strategy: post-weights), post-generation and pre-ranking.
  // Replayed rounds evaluate none.
  auto process_relation = [&](size_t index) {
    const RelationId r = relations[index];
    RelationOutcome& out = outcomes[index];
    if (checkpoint_stop()) return;  // relation-boundary checkpoint
    // Fault-injection seam: a per-relation failure (simulated I/O error,
    // OOM, ...) aborts this relation only; completed relations keep their
    // outcomes, which the resume layer has already persisted.
    out.status = FailPoints::Instance().Evaluate(kFailPointDiscoveryRelation);
    if (!out.status.ok()) return;
    const uint64_t relation_seed =
        options.seed ^
        (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(r) + 1));

    ArmSet relation_arms;
    const ArmSet* arms = &hoisted_arms;
    if (!hoist_weights) {
      auto arms_or = compute_weights(&out.weight_seconds);
      if (!arms_or.ok()) {
        out.status = arms_or.status();
        return;
      }
      relation_arms = std::move(arms_or).value();
      arms = &relation_arms;
    }

    std::optional<BanditScheduler> scheduler;
    const std::vector<AdaptiveRoundRecord>* restored = nullptr;
    if (adaptive) {
      BanditOptions bandit_options;
      bandit_options.rounds = options.adaptive_rounds;
      bandit_options.exploration = options.adaptive_exploration;
      bandit_options.seed = relation_seed;
      bandit_options.total_budget = options.max_candidates;
      bandit_options.metrics = metrics;
      scheduler.emplace(arm_strategies, bandit_options);
      if (options.adaptive_resume != nullptr) {
        auto it = options.adaptive_resume->rounds.find(r);
        if (it != options.adaptive_resume->rounds.end()) {
          restored = &it->second;
        }
      }
    }

    SideScoreCache score_cache;
    std::unordered_set<uint64_t> candidate_seen;
    size_t scored_candidates = 0;  // candidates ranked by live rounds
    size_t scored_entries = 0;     // side-score entries those rounds computed
    std::vector<double> subject_ranks;
    std::vector<double> object_ranks;
    for (size_t round = 0; adaptive ? !scheduler->Done() : round == 0;
         ++round) {
      const BanditScheduler::RoundPlan plan =
          adaptive ? scheduler->NextRound()
                   : BanditScheduler::RoundPlan{0, 0, options.max_candidates};
      Rng rng(adaptive
                  ? relation_seed ^ (0xD1B54A32D192ED03ULL *
                                     (static_cast<uint64_t>(plan.round) + 1))
                  : relation_seed);
      auto generate = [&] {
        return Generate(*(*arms)[plan.arm], r, plan.quota,
                        options.max_iterations, kg, type_filter.get(), &rng,
                        &candidate_seen);
      };

      if (restored != nullptr && plan.round < restored->size()) {
        // Replay: feed the recorded outcome back so the scheduler re-derives
        // the original allocation sequence, and merge the recorded facts
        // without re-ranking anything. A manifest whose recorded arm diverges
        // from the re-derived one was written by a different configuration
        // than CheckManifestCompatible admitted — refuse rather than splice
        // two different schedules.
        const AdaptiveRoundRecord& rec = (*restored)[plan.round];
        const std::string arm_name =
            SamplingStrategyName(arm_strategies[plan.arm]);
        if (rec.arm != arm_name) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded arm " +
              rec.arm + " but the scheduler re-derived " + arm_name +
              "; the manifest does not match this run");
          return;
        }
        // Regenerate (never re-rank) the replayed round's candidates so the
        // dedup set evolves exactly as in the original run; later live
        // rounds then draw the same fresh candidates they would have drawn
        // uninterrupted. A count mismatch means the manifest was produced
        // under different generation inputs than this run.
        const size_t regenerated = generate().size();
        if (regenerated != rec.num_candidates) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded " +
              std::to_string(rec.num_candidates) +
              " candidates but regeneration produced " +
              std::to_string(regenerated) +
              "; the manifest does not match this run");
          return;
        }
        scheduler->Report(plan, rec.num_candidates, rec.facts.size(),
                          /*ranking_seconds=*/0.0);
        out.facts.insert(out.facts.end(), rec.facts.begin(),
                         rec.facts.end());
        out.num_candidates += rec.num_candidates;
        continue;  // replayed rounds never re-fire on_round_complete
      }

      if (checkpoint_stop()) return;  // round-boundary checkpoint

      ScopedSpan generation_span(metrics, kDiscoveryGenerationSpan);
      const std::vector<Triple> candidates = generate();
      out.num_candidates += candidates.size();
      scored_candidates += candidates.size();
      out.generation_seconds += generation_span.Stop();

      if (checkpoint_stop()) return;  // post-generation checkpoint

      // The ranking span holds two disjoint sub-spans: side-score scoring,
      // then rank counting + acceptance.
      ScopedSpan ranking_span(metrics, kDiscoveryRankingSpan);
      ScopedSpan score_span(metrics, kDiscoveryScoreSpan);
      const KeyGroups by_subject = GroupByEntity(candidates, &Triple::subject);
      const KeyGroups by_object = GroupByEntity(candidates, &Triple::object);
      scored_entries += ScoreSides(model, kg, r, by_subject, by_object,
                                   options.filtered_ranking, pool, &run_cancel,
                                   &score_cache);
      score_span.Stop();
      // Pre-ranking checkpoint; also covers a stop during precompute, whose
      // partially-built cache must never be dereferenced below.
      if (checkpoint_stop()) return;
      ScopedSpan rank_span(metrics, kDiscoveryRankSpan);
      Rank(score_cache, r, candidates, by_subject, by_object, pool,
           &run_cancel, fine_stop, &subject_ranks, &object_ranks);
      // A stop observed any time during ranking may have left rank slots
      // unfilled — abandon the whole relation rather than emit partial facts.
      if (fine_stop()) return;
      const size_t first_fact = out.facts.size();
      Accept(candidates, subject_ranks, object_ranks, options.rank_aggregation,
             options.top_n, &out.facts);
      rank_span.Stop();
      const double ranking_seconds = ranking_span.Stop();
      out.evaluation_seconds += ranking_seconds;

      if (!adaptive) continue;
      scheduler->Report(plan, candidates.size(),
                        out.facts.size() - first_fact, ranking_seconds);
      if (options.on_round_complete) {
        AdaptiveRoundCompletion completion;
        completion.relation = r;
        completion.index = index;
        completion.record.round = plan.round;
        completion.record.arm = SamplingStrategyName(arm_strategies[plan.arm]);
        completion.record.num_candidates = candidates.size();
        completion.record.facts.assign(out.facts.begin() + first_fact,
                                       out.facts.end());
        options.on_round_complete(std::move(completion));
      }
    }

    if (metrics != nullptr) {
      candidates_counter->Increment(out.num_candidates);
      facts_counter->Increment(out.facts.size());
      // Every scored candidate does one lookup per side; the first toucher
      // of each distinct entry is the miss that paid for the scoring pass.
      // Derived arithmetically so the numbers match the serial path exactly
      // regardless of how the parallel precompute was scheduled. Replayed
      // rounds scored nothing in this run and count neither.
      cache_misses_counter->Increment(scored_entries);
      cache_hits_counter->Increment(2 * scored_candidates - scored_entries);
      relations_counter->Increment();
    }

    out.completed = true;
    if (options.on_relation_complete) {
      RelationCompletion completion;
      completion.relation = r;
      completion.index = index;
      completion.num_candidates = out.num_candidates;
      completion.facts = out.facts;  // copy: `out` still feeds the result
      options.on_relation_complete(std::move(completion));
    }
  };

  ParallelFor(
      pool, relations.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) process_relation(i);
      },
      &run_cancel);
  const auto final_reason =
      static_cast<StoppedReason>(stop_reason.load(std::memory_order_acquire));

  DiscoveryResult result;
  result.stopped_reason = final_reason;
  // Hoisted weight time belongs to the weight phase only.
  result.stats.weight_seconds = hoisted_weight_seconds;
  for (RelationOutcome& out : outcomes) {
    KGFD_RETURN_NOT_OK(out.status);
    // Unfinished relations on a stopped sweep — whether their checkpoint
    // bailed or their index was never claimed by the cancelled ParallelFor
    // — are uniformly "skipped".
    if (!out.completed) {
      ++result.stats.num_relations_skipped;
      continue;
    }
    result.facts.insert(result.facts.end(), out.facts.begin(),
                        out.facts.end());
    result.stats.num_candidates += out.num_candidates;
    result.stats.generation_seconds += out.generation_seconds;
    result.stats.evaluation_seconds += out.evaluation_seconds;
    result.stats.weight_seconds += out.weight_seconds;
    ++result.stats.num_relations_processed;
  }
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  result.stats.num_facts = result.facts.size();
  return result;
}

}  // namespace kgfd
