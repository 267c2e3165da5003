#include "core/discovery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "adaptive/scheduler.h"
#include "adaptive/score_sketch.h"
#include "core/discovery_cache.h"
#include "core/side_score_cache.h"
#include "core/type_filter.h"
#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kge/evaluator.h"
#include "kge/kernels.h"
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

  const size_t sample_size = MeshGridSampleSize(options.max_candidates);

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

  // Optional weight-caching ablation: hoist line 7 out of the loop. A
  // shared DiscoveryCache hoists as well — it already guarantees one
  // computation per strategy across runs, so the recompute-per-relation
  // semantics of cache_weights=false would only repeat a cache lookup.
  // MODEL_SCORE always hoists: its sketch depends only on (model, KG), so a
  // per-relation recompute would repeat the probe sweep for identical
  // weights. ADAPTIVE hoists its whole arm set below for the same reason.
  const bool hoist_weights = options.cache_weights ||
                             options.shared_cache != nullptr || model_score;
  StrategyWeights hoisted_weights;
  AliasSampler hoisted_subject_sampler;
  AliasSampler hoisted_object_sampler;
  // Keeps the cache entry alive for the whole sweep when the pointers below
  // alias into it.
  std::shared_ptr<const DiscoveryCache::WeightsEntry> shared_weights;
  const StrategyWeights* hoisted_weights_ptr = &hoisted_weights;
  const AliasSampler* hoisted_subject_ptr = &hoisted_subject_sampler;
  const AliasSampler* hoisted_object_ptr = &hoisted_object_sampler;
  double hoisted_weight_seconds = 0.0;
  if (!adaptive && options.shared_cache != nullptr) {
    ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
    KGFD_ASSIGN_OR_RETURN(
        shared_weights,
        model_score
            ? options.shared_cache->GetOrComputeModelScoreWeights(model, kg)
            : options.shared_cache->GetOrComputeWeights(options.strategy, kg));
    hoisted_weights_ptr = &shared_weights->weights;
    hoisted_subject_ptr = &shared_weights->subject_sampler;
    hoisted_object_ptr = &shared_weights->object_sampler;
    hoisted_weight_seconds = weight_span.Stop();
  } else if (!adaptive && (options.cache_weights || model_score)) {
    ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
    KGFD_ASSIGN_OR_RETURN(hoisted_weights,
                          model_score
                              ? ComputeModelScoreWeights(model, kg)
                              : ComputeStrategyWeights(options.strategy, kg));
    KGFD_ASSIGN_OR_RETURN(hoisted_subject_sampler,
                          AliasSampler::Build(hoisted_weights.subject_weights));
    KGFD_ASSIGN_OR_RETURN(hoisted_object_sampler,
                          AliasSampler::Build(hoisted_weights.object_weights));
    hoisted_weight_seconds = weight_span.Stop();
  }

  // ADAPTIVE: precompute every arm's weights + samplers once per sweep. The
  // bandit may grant any arm any round, so all six must exist before the
  // relation loop starts; per-relation recomputes (faithful mode) would
  // multiply the most expensive metric sweeps by the relation count for
  // byte-identical results. Pointers are bound in a second loop because
  // push_back would otherwise move `owned` out from under them.
  struct ArmState {
    std::shared_ptr<const DiscoveryCache::WeightsEntry> shared;
    DiscoveryCache::WeightsEntry owned;
    const StrategyWeights* weights = nullptr;
    const AliasSampler* subject_sampler = nullptr;
    const AliasSampler* object_sampler = nullptr;
  };
  const std::vector<SamplingStrategy> arm_strategies =
      adaptive ? AdaptiveArmStrategies() : std::vector<SamplingStrategy>{};
  std::vector<ArmState> arms(arm_strategies.size());
  if (adaptive) {
    ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
    for (size_t a = 0; a < arm_strategies.size(); ++a) {
      const SamplingStrategy s = arm_strategies[a];
      ArmState& arm = arms[a];
      if (options.shared_cache != nullptr) {
        KGFD_ASSIGN_OR_RETURN(
            arm.shared,
            s == SamplingStrategy::kModelScore
                ? options.shared_cache->GetOrComputeModelScoreWeights(model,
                                                                      kg)
                : options.shared_cache->GetOrComputeWeights(s, kg));
      } else {
        KGFD_ASSIGN_OR_RETURN(arm.owned.weights,
                              s == SamplingStrategy::kModelScore
                                  ? ComputeModelScoreWeights(model, kg)
                                  : ComputeStrategyWeights(s, kg));
        KGFD_ASSIGN_OR_RETURN(
            arm.owned.subject_sampler,
            AliasSampler::Build(arm.owned.weights.subject_weights));
        KGFD_ASSIGN_OR_RETURN(
            arm.owned.object_sampler,
            AliasSampler::Build(arm.owned.weights.object_weights));
      }
    }
    for (ArmState& arm : arms) {
      const DiscoveryCache::WeightsEntry& entry =
          arm.shared != nullptr ? *arm.shared : arm.owned;
      arm.weights = &entry.weights;
      arm.subject_sampler = &entry.subject_sampler;
      arm.object_sampler = &entry.object_sampler;
    }
    hoisted_weight_seconds = weight_span.Stop();
  }

  std::unique_ptr<RelationTypeFilter> type_filter;
  if (options.type_filter) {
    type_filter = std::make_unique<RelationTypeFilter>(kg);
  }

  // Per-relation outcomes with fixed slots so a thread pool can fill them
  // in any order; each relation draws from its own seed-derived RNG stream,
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

  auto process_relation = [&](size_t index) {
    const RelationId r = relations[index];
    RelationOutcome& out = outcomes[index];
    if (checkpoint_stop()) return;  // relation-boundary checkpoint
    // Fault-injection seam: a per-relation failure (simulated I/O error,
    // OOM, ...) aborts this relation only; completed relations keep their
    // outcomes, which the resume layer has already persisted.
    out.status = FailPoints::Instance().Evaluate(kFailPointDiscoveryRelation);
    if (!out.status.ok()) return;
    Rng rng(options.seed ^ (0x9E3779B97F4A7C15ULL *
                            (static_cast<uint64_t>(r) + 1)));

    // Line 7: compute_weights(strategy) — inside the loop, as published
    // (unless the caching ablation hoisted it above). Timed as its own
    // phase, disjoint from generation.
    const StrategyWeights* weights = hoisted_weights_ptr;
    const AliasSampler* subject_sampler = hoisted_subject_ptr;
    const AliasSampler* object_sampler = hoisted_object_ptr;
    StrategyWeights local_weights;
    AliasSampler local_subject_sampler;
    AliasSampler local_object_sampler;
    if (!hoist_weights) {
      ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
      auto weights_or = ComputeStrategyWeights(options.strategy, kg);
      if (!weights_or.ok()) {
        out.status = weights_or.status();
        return;
      }
      local_weights = std::move(weights_or).value();
      auto subject_or = AliasSampler::Build(local_weights.subject_weights);
      auto object_or = AliasSampler::Build(local_weights.object_weights);
      if (!subject_or.ok() || !object_or.ok()) {
        out.status = subject_or.ok() ? object_or.status()
                                     : subject_or.status();
        return;
      }
      local_subject_sampler = std::move(subject_or).value();
      local_object_sampler = std::move(object_or).value();
      out.weight_seconds = weight_span.Stop();
      weights = &local_weights;
      subject_sampler = &local_subject_sampler;
      object_sampler = &local_object_sampler;
    }

    if (checkpoint_stop()) return;  // post-weights checkpoint

    // Lines 8-13: sample, mesh-grid, filter seen, until enough candidates.
    ScopedSpan generation_span(metrics, kDiscoveryGenerationSpan);
    std::vector<Triple> local_facts;
    std::unordered_set<uint64_t> local_seen;
    for (size_t iteration = 0;
         iteration < options.max_iterations &&
         local_facts.size() < options.max_candidates;
         ++iteration) {
      std::vector<EntityId> s_samples(sample_size);
      std::vector<EntityId> o_samples(sample_size);
      for (size_t i = 0; i < sample_size; ++i) {
        s_samples[i] = weights->subject_pool[subject_sampler->Sample(&rng)];
        o_samples[i] = weights->object_pool[object_sampler->Sample(&rng)];
      }
      for (EntityId s : s_samples) {
        if (local_facts.size() >= options.max_candidates) break;
        for (EntityId o : o_samples) {
          if (local_facts.size() >= options.max_candidates) break;
          const Triple t{s, r, o};
          if (kg.Contains(t)) continue;  // line 12: filter seen triples
          if (type_filter != nullptr && !type_filter->Admissible(t)) {
            continue;
          }
          if (!local_seen.insert(PackTriple(t)).second) continue;
          local_facts.push_back(t);
        }
      }
    }
    // Defensive clamp: the break conditions above already stop at
    // max_candidates, but the downstream rank-slot allocation sizes off this
    // list, so enforce the invariant here too rather than trust loop
    // structure at a distance.
    if (local_facts.size() > options.max_candidates) {
      local_facts.resize(options.max_candidates);
    }
    out.num_candidates = local_facts.size();
    out.generation_seconds = generation_span.Stop();

    if (checkpoint_stop()) return;  // post-generation checkpoint

    // Lines 14-15: rank candidates against corruptions, keep rank <= top_n.
    // The dominant phase: one ScoreObjects/ScoreSubjects pass per distinct
    // (s, r) / (r, o) pair, each O(num_entities * dim). Both the scoring
    // passes and the per-candidate rank computations are independent, so
    // they fan out over `pool` (nested inside the per-relation loop, which
    // TaskGroup-scoped waiting makes safe). Ranks land in fixed
    // per-candidate slots and the top_n filter runs serially in candidate
    // order, so the facts are bit-identical for every thread count.
    ScopedSpan ranking_span(metrics, kDiscoveryRankingSpan);
    const size_t n_cand = local_facts.size();
    std::vector<SideScoreCache::Key> subject_keys;  // (s, r): object scores
    std::vector<SideScoreCache::Key> object_keys;   // (o, r): subject scores
    {
      std::unordered_set<EntityId> seen_subjects;
      std::unordered_set<EntityId> seen_objects;
      for (const Triple& t : local_facts) {
        if (seen_subjects.insert(t.subject).second) {
          subject_keys.emplace_back(t.subject, r);
        }
        if (seen_objects.insert(t.object).second) {
          object_keys.emplace_back(t.object, r);
        }
      }
    }
    SideScoreCache score_cache;
    score_cache.PrecomputeObjects(model, kg, subject_keys,
                                  options.filtered_ranking, pool,
                                  &run_cancel);
    score_cache.PrecomputeSubjects(model, kg, object_keys,
                                   options.filtered_ranking, pool,
                                   &run_cancel);
    // Pre-ranking checkpoint; also covers a stop during precompute, whose
    // partially-built cache must never be dereferenced below.
    if (checkpoint_stop()) return;
    std::vector<double> subject_ranks(n_cand);
    std::vector<double> object_ranks(n_cand);
    ParallelFor(
        pool, n_cand,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            // Per-ranking-chunk granularity on the pool comes from
            // ParallelFor's claim loop; this probe bounds the *serial*
            // path (one body call covering all candidates) too. The
            // relation is abandoned below, so bailing mid-chunk is safe.
            if ((i & 63u) == 0 && fine_stop()) return;
            const Triple& t = local_facts[i];
            const SideScoreCache::Entry* obj_entry =
                score_cache.FindObjects(t.subject, r);
            object_ranks[i] = RankAgainstScores(obj_entry->scores, t.object,
                                                &obj_entry->excluded);
            const SideScoreCache::Entry* subj_entry =
                score_cache.FindSubjects(r, t.object);
            subject_ranks[i] = RankAgainstScores(subj_entry->scores,
                                                 t.subject,
                                                 &subj_entry->excluded);
          }
        },
        // Kernel-block granularity: chunks sized in kQueryBlock multiples
        // keep the per-chunk claim/dispatch overhead amortized over at
        // least 64 candidates (per-candidate slivers were the PR2
        // ranking_speedup regression) and line up with the cancel probe's
        // 64-candidate stride above.
        &run_cancel, kernels::kQueryBlock);
    // A stop observed any time during ranking may have left rank slots
    // unfilled — abandon the whole relation rather than emit partial facts.
    if (fine_stop()) return;
    for (size_t i = 0; i < n_cand; ++i) {
      const double rank = Aggregate(options.rank_aggregation,
                                    subject_ranks[i], object_ranks[i]);
      if (rank <= static_cast<double>(options.top_n)) {
        DiscoveredFact fact;
        fact.triple = local_facts[i];
        fact.rank = rank;
        fact.subject_rank = subject_ranks[i];
        fact.object_rank = object_ranks[i];
        out.facts.push_back(fact);
      }
    }
    out.evaluation_seconds = ranking_span.Stop();

    if (metrics != nullptr) {
      candidates_counter->Increment(out.num_candidates);
      facts_counter->Increment(out.facts.size());
      // Every candidate does one lookup per side; the first toucher of each
      // distinct entry is the miss that paid for the scoring pass. Derived
      // arithmetically so the numbers match the serial path exactly
      // regardless of how the parallel precompute was scheduled.
      const size_t unique_entries = subject_keys.size() + object_keys.size();
      cache_misses_counter->Increment(unique_entries);
      cache_hits_counter->Increment(2 * n_cand - unique_entries);
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

  // ADAPTIVE: the same relation contract (all-or-nothing outcome slot, own
  // seed-derived RNG streams, bit-identical across thread counts), but the
  // candidate budget is played out in bandit rounds. Each round samples with
  // the granted arm's weights from a round-specific RNG stream, ranks only
  // its own candidates, and feeds accepted-facts-per-candidate back into the
  // scheduler; the relation's SideScoreCache persists across rounds so
  // repeated (entity, relation) pairs never re-score. Rounds — not
  // relations — are the checkpoint unit: each finished live round fires
  // on_round_complete, and a resumed run replays the recorded rounds
  // through the scheduler (verifying the arm sequence) before playing the
  // rest live.
  auto process_relation_adaptive = [&](size_t index) {
    const RelationId r = relations[index];
    RelationOutcome& out = outcomes[index];
    if (checkpoint_stop()) return;  // relation-boundary checkpoint
    out.status = FailPoints::Instance().Evaluate(kFailPointDiscoveryRelation);
    if (!out.status.ok()) return;

    const uint64_t relation_seed =
        options.seed ^
        (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(r) + 1));

    BanditOptions bandit_options;
    bandit_options.rounds = options.adaptive_rounds;
    bandit_options.exploration = options.adaptive_exploration;
    bandit_options.seed = relation_seed;
    bandit_options.total_budget = options.max_candidates;
    bandit_options.metrics = metrics;
    BanditScheduler scheduler(arm_strategies, bandit_options);

    const std::vector<AdaptiveRoundRecord>* restored = nullptr;
    if (options.adaptive_resume != nullptr) {
      auto it = options.adaptive_resume->rounds.find(r);
      if (it != options.adaptive_resume->rounds.end()) restored = &it->second;
    }

    SideScoreCache score_cache;  // shared by every round of this relation
    std::unordered_set<uint64_t> fact_seen;  // cross-round dedup, first wins
    size_t live_candidates = 0;   // candidates scored by live rounds
    size_t unique_entries = 0;    // first-touch score entries, live rounds

    // Candidate generation for one round. Deduplicates against every earlier
    // round of this relation — the same whole-relation contract as the fixed
    // path — so repeat draws from a favored arm keep producing fresh
    // candidates instead of burning quota on triples an earlier round
    // already ranked. The output (and the dedup set's evolution) is a pure
    // function of (seed, relation, arm sequence), never of ranking results,
    // which lets a resumed run rebuild the exact set state by regenerating
    // replayed rounds without re-scoring them.
    std::unordered_set<uint64_t> candidate_seen;
    auto generate_round = [&](const BanditScheduler::RoundPlan& plan) {
      Rng round_rng(relation_seed ^
                    (0xD1B54A32D192ED03ULL *
                     (static_cast<uint64_t>(plan.round) + 1)));
      const size_t round_sample = MeshGridSampleSize(plan.quota);
      std::vector<Triple> round_candidates;
      for (size_t iteration = 0;
           iteration < options.max_iterations &&
           round_candidates.size() < plan.quota;
           ++iteration) {
        std::vector<EntityId> s_samples(round_sample);
        std::vector<EntityId> o_samples(round_sample);
        const ArmState& arm = arms[plan.arm];
        for (size_t i = 0; i < round_sample; ++i) {
          s_samples[i] =
              arm.weights
                  ->subject_pool[arm.subject_sampler->Sample(&round_rng)];
          o_samples[i] =
              arm.weights->object_pool[arm.object_sampler->Sample(&round_rng)];
        }
        for (EntityId s : s_samples) {
          if (round_candidates.size() >= plan.quota) break;
          for (EntityId o : o_samples) {
            if (round_candidates.size() >= plan.quota) break;
            const Triple t{s, r, o};
            if (kg.Contains(t)) continue;
            if (type_filter != nullptr && !type_filter->Admissible(t)) {
              continue;
            }
            if (!candidate_seen.insert(PackTriple(t)).second) continue;
            round_candidates.push_back(t);
          }
        }
      }
      if (round_candidates.size() > plan.quota) {
        round_candidates.resize(plan.quota);
      }
      return round_candidates;
    };

    while (!scheduler.Done()) {
      const BanditScheduler::RoundPlan plan = scheduler.NextRound();
      const SamplingStrategy arm_strategy = arm_strategies[plan.arm];

      if (restored != nullptr && plan.round < restored->size()) {
        // Replay: feed the recorded outcome back so the scheduler re-derives
        // the original allocation sequence, and merge the recorded facts
        // without re-ranking anything. A manifest whose recorded arm diverges
        // from the re-derived one was written by a different configuration
        // than CheckManifestCompatible admitted — refuse rather than splice
        // two different schedules.
        const AdaptiveRoundRecord& rec = (*restored)[plan.round];
        if (rec.arm != SamplingStrategyName(arm_strategy)) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded arm " +
              rec.arm + " but the scheduler re-derived " +
              SamplingStrategyName(arm_strategy) +
              "; the manifest does not match this run");
          return;
        }
        // Regenerate (never re-rank) the replayed round's candidates so the
        // cross-round dedup set evolves exactly as in the original run;
        // later live rounds then draw the same fresh candidates they would
        // have drawn uninterrupted. A count mismatch means the manifest was
        // produced under different generation inputs than this run.
        const std::vector<Triple> replayed = generate_round(plan);
        if (replayed.size() != rec.num_candidates) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded " +
              std::to_string(rec.num_candidates) +
              " candidates but regeneration produced " +
              std::to_string(replayed.size()) +
              "; the manifest does not match this run");
          return;
        }
        scheduler.Report(plan, rec.num_candidates, rec.facts.size(),
                         /*ranking_seconds=*/0.0);
        for (const DiscoveredFact& fact : rec.facts) {
          if (fact_seen.insert(PackTriple(fact.triple)).second) {
            out.facts.push_back(fact);
          }
        }
        out.num_candidates += rec.num_candidates;
        continue;  // replayed rounds never re-fire on_round_complete
      }

      if (checkpoint_stop()) return;  // round-boundary checkpoint

      // Generation, scoped to this round's quota. The round RNG stream is a
      // pure function of (seed, relation, round), so a replayed prefix
      // leaves later rounds' streams untouched.
      ScopedSpan generation_span(metrics, kDiscoveryGenerationSpan);
      const std::vector<Triple> round_candidates = generate_round(plan);
      out.num_candidates += round_candidates.size();
      live_candidates += round_candidates.size();
      out.generation_seconds += generation_span.Stop();

      if (checkpoint_stop()) return;  // post-generation checkpoint

      // Ranking: identical mechanics to the fixed-strategy path, restricted
      // to this round's candidates. Only keys the relation cache has never
      // seen are precomputed.
      ScopedSpan ranking_span(metrics, kDiscoveryRankingSpan);
      const size_t n_cand = round_candidates.size();
      std::vector<SideScoreCache::Key> need_subject_keys;
      std::vector<SideScoreCache::Key> need_object_keys;
      {
        std::unordered_set<EntityId> seen_subjects;
        std::unordered_set<EntityId> seen_objects;
        for (const Triple& t : round_candidates) {
          if (seen_subjects.insert(t.subject).second &&
              score_cache.FindObjects(t.subject, r) == nullptr) {
            need_subject_keys.emplace_back(t.subject, r);
          }
          if (seen_objects.insert(t.object).second &&
              score_cache.FindSubjects(r, t.object) == nullptr) {
            need_object_keys.emplace_back(t.object, r);
          }
        }
      }
      unique_entries += need_subject_keys.size() + need_object_keys.size();
      score_cache.PrecomputeObjects(model, kg, need_subject_keys,
                                    options.filtered_ranking, pool,
                                    &run_cancel);
      score_cache.PrecomputeSubjects(model, kg, need_object_keys,
                                     options.filtered_ranking, pool,
                                     &run_cancel);
      if (checkpoint_stop()) return;  // pre-ranking / post-precompute
      std::vector<double> subject_ranks(n_cand);
      std::vector<double> object_ranks(n_cand);
      ParallelFor(
          pool, n_cand,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              if ((i & 63u) == 0 && fine_stop()) return;
              const Triple& t = round_candidates[i];
              const SideScoreCache::Entry* obj_entry =
                  score_cache.FindObjects(t.subject, r);
              object_ranks[i] = RankAgainstScores(obj_entry->scores, t.object,
                                                  &obj_entry->excluded);
              const SideScoreCache::Entry* subj_entry =
                  score_cache.FindSubjects(r, t.object);
              subject_ranks[i] = RankAgainstScores(subj_entry->scores,
                                                   t.subject,
                                                   &subj_entry->excluded);
            }
          },
          &run_cancel, kernels::kQueryBlock);
      if (fine_stop()) return;  // rank slots may be partially filled
      std::vector<DiscoveredFact> round_facts;
      for (size_t i = 0; i < n_cand; ++i) {
        const double rank = Aggregate(options.rank_aggregation,
                                      subject_ranks[i], object_ranks[i]);
        if (rank <= static_cast<double>(options.top_n)) {
          DiscoveredFact fact;
          fact.triple = round_candidates[i];
          fact.rank = rank;
          fact.subject_rank = subject_ranks[i];
          fact.object_rank = object_ranks[i];
          round_facts.push_back(fact);
        }
      }
      const double ranking_seconds = ranking_span.Stop();
      out.evaluation_seconds += ranking_seconds;

      scheduler.Report(plan, round_candidates.size(), round_facts.size(),
                       ranking_seconds);
      for (const DiscoveredFact& fact : round_facts) {
        if (fact_seen.insert(PackTriple(fact.triple)).second) {
          out.facts.push_back(fact);
        }
      }

      if (options.on_round_complete) {
        AdaptiveRoundCompletion completion;
        completion.relation = r;
        completion.index = index;
        completion.record.round = plan.round;
        completion.record.arm = SamplingStrategyName(arm_strategy);
        completion.record.num_candidates = round_candidates.size();
        completion.record.facts = std::move(round_facts);
        options.on_round_complete(std::move(completion));
      }
    }

    if (metrics != nullptr) {
      candidates_counter->Increment(out.num_candidates);
      facts_counter->Increment(out.facts.size());
      // Same derived arithmetic as the fixed path, over the live rounds
      // only (replayed rounds did no scoring in this run).
      cache_misses_counter->Increment(unique_entries);
      cache_hits_counter->Increment(2 * live_candidates - unique_entries);
      relations_counter->Increment();
    }

    out.completed = true;
    if (options.on_relation_complete) {
      RelationCompletion completion;
      completion.relation = r;
      completion.index = index;
      completion.num_candidates = out.num_candidates;
      completion.facts = out.facts;
      options.on_relation_complete(std::move(completion));
    }
  };

  ParallelFor(
      pool, relations.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (adaptive) {
            process_relation_adaptive(i);
          } else {
            process_relation(i);
          }
        }
      },
      &run_cancel);
  const auto final_reason =
      static_cast<StoppedReason>(stop_reason.load(std::memory_order_acquire));

  DiscoveryResult result;
  result.stopped_reason = final_reason;
  // Hoisted weight time belongs to the weight phase only; seeding
  // generation_seconds with it (as this code once did) double-counted it.
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
