/// Rank-layer microbench: per-key batched ranking (RankTargetsAgainstScores,
/// one pass over a side-score entry for all of its candidates) against the
/// per-candidate counting loop it replaced in discovery (one
/// RankAgainstScores scan per candidate), on synthetic side-score entries.
///
/// Sweeps candidates per key {1, 8, 40, 200} at |E| = 1454 (the
/// FB15K-237-like scale-10 KG) and |E| = 14541 (full FB15K-237 size).
/// Scores are rounded to two decimals, so targets tie each other and their
/// competitors, and 2% of each entry is excluded (the filtered protocol).
/// Every batched rank is compared with the counting rank bit for bit.
///
/// Writes a JSON record (default BENCH_rank.json) for tools/perf_gate.py:
///   {"bench": "rank", "exact": true, "hardware_concurrency": N,
///    "cells": [{"entities": E, "per_key": k, "count_us_per_key": ..,
///               "batched_us_per_key": .., "speedup": ..}, ...]}
///
/// Usage: bench_rank [--trials N] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kge/evaluator.h"
#include "util/flags.h"
#include "util/rng.h"

namespace kgfd {
namespace {

/// One side-score entry and the candidates that share its key.
struct Key {
  std::vector<double> scores;
  std::vector<char> excluded;
  std::vector<EntityId> targets;
};

std::vector<Key> MakeKeys(size_t entities, size_t per_key, size_t num_keys,
                          Rng* rng) {
  std::vector<Key> keys(num_keys);
  std::vector<EntityId> ids(entities);
  for (size_t i = 0; i < entities; ++i) ids[i] = static_cast<EntityId>(i);
  for (Key& key : keys) {
    key.scores.resize(entities);
    key.excluded.resize(entities);
    for (size_t i = 0; i < entities; ++i) {
      key.scores[i] = std::round(rng->Normal(0.0, 3.0) * 100.0) / 100.0;
      key.excluded[i] = rng->Bernoulli(0.02) ? 1 : 0;
    }
    rng->Shuffle(&ids);
    key.targets.assign(ids.begin(), ids.begin() + per_key);
  }
  return keys;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Cell {
  size_t entities = 0;
  size_t per_key = 0;
  double count_us_per_key = 0.0;
  double batched_us_per_key = 0.0;
  double speedup = 0.0;
  bool exact = true;
};

/// Times both routines over the same keys in `trials` alternating pairs and
/// keeps the median of each side.
Cell Measure(size_t entities, size_t per_key, size_t trials, Rng* rng) {
  // About 4M competitor comparisons per counting trial: a few ms, long
  // enough to time, short enough for CI.
  const size_t num_keys =
      std::max<size_t>(4, 4000000 / (entities * per_key));
  const std::vector<Key> keys = MakeKeys(entities, per_key, num_keys, rng);
  std::vector<double> counted(per_key);
  std::vector<double> batched(per_key);
  std::vector<double> count_s;
  std::vector<double> batched_s;
  Cell cell;
  cell.entities = entities;
  cell.per_key = per_key;
  double sink = 0.0;
  using Clock = std::chrono::steady_clock;
  for (size_t trial = 0; trial < trials; ++trial) {
    auto t = Clock::now();
    for (const Key& key : keys) {
      for (size_t j = 0; j < per_key; ++j) {
        counted[j] =
            RankAgainstScores(key.scores, key.targets[j], &key.excluded);
      }
      sink += counted[0];
    }
    count_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
    t = Clock::now();
    for (const Key& key : keys) {
      RankTargetsAgainstScores(key.scores, &key.excluded, key.targets.data(),
                               per_key, batched.data());
      sink += batched[0];
    }
    batched_s.push_back(
        std::chrono::duration<double>(Clock::now() - t).count());
  }
  // Exactness, untimed: every key, every target, bit for bit.
  for (const Key& key : keys) {
    RankTargetsAgainstScores(key.scores, &key.excluded, key.targets.data(),
                             per_key, batched.data());
    for (size_t j = 0; j < per_key; ++j) {
      const double want =
          RankAgainstScores(key.scores, key.targets[j], &key.excluded);
      if (std::memcmp(&want, &batched[j], sizeof(double)) != 0) {
        cell.exact = false;
      }
    }
  }
  if (sink == -1.0) std::printf(" ");  // keeps the timed loops alive
  const double keys_d = static_cast<double>(num_keys);
  cell.count_us_per_key = Median(count_s) / keys_d * 1e6;
  cell.batched_us_per_key = Median(batched_s) / keys_d * 1e6;
  cell.speedup = cell.batched_us_per_key > 0.0
                     ? cell.count_us_per_key / cell.batched_us_per_key
                     : 0.0;
  return cell;
}

int Run(int argc, char** argv) {
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const size_t trials = static_cast<size_t>(flags.GetInt("trials", 15));
  const std::string out_path = flags.GetString("out", "BENCH_rank.json");

  Rng rng(1454);
  std::vector<Cell> cells;
  bool exact = true;
  std::printf("rank: per-key batched vs per-candidate counting\n");
  for (size_t entities : {size_t{1454}, size_t{14541}}) {
    for (size_t per_key : {size_t{1}, size_t{8}, size_t{40}, size_t{200}}) {
      const Cell cell = Measure(entities, per_key, trials, &rng);
      exact = exact && cell.exact;
      std::printf(
          "  |E| %5zu  %3zu/key  counting %9.2f us/key  batched %9.2f "
          "us/key  %5.2fx  %s\n",
          cell.entities, cell.per_key, cell.count_us_per_key,
          cell.batched_us_per_key, cell.speedup,
          cell.exact ? "exact" : "MISMATCH");
      cells.push_back(cell);
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"rank\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"trials\": %zu,\n"
               "  \"exact\": %s,\n"
               "  \"cells\": [\n",
               std::thread::hardware_concurrency(), trials,
               exact ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"entities\": %zu, \"per_key\": %zu, "
                 "\"count_us_per_key\": %.3f, \"batched_us_per_key\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 c.entities, c.per_key, c.count_us_per_key,
                 c.batched_us_per_key, c.speedup,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return exact ? 0 : 2;
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) { return kgfd::Run(argc, argv); }
