#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json perf-trajectory records.

Compares the current run's BENCH_pr6.json (batch-kernel scoring
throughput), BENCH_pr2.json (parallel ranking speedup), BENCH_pr8.json
(storage backends), BENCH_pr9.json (adaptive sampling) and
BENCH_rank.json (per-key batched ranking) against the committed baselines
in bench/baselines/, and fails (exit 1) on:

  * a >``--tolerance`` (default 20%) drop in batch scoring throughput for
    any model, or in parallel-ranking candidate throughput, or in pr8
    float/int8 ranking throughput, or in pr9 adaptive facts/hour;
  * ``batch_speedup`` below ``--min-batch-speedup`` (default 5.0) for any
    model — the machine-independent contract of the batch kernels;
  * ``ranking_speedup`` below ``--min-ranking-speedup`` (default 1.0);
  * ``cold_start_speedup`` below ``--min-mmap-speedup`` (default 10.0) —
    an mmap load that reads the whole file has lost its reason to exist;
  * ``int8_ranking_ratio`` below ``--min-int8-ratio`` (default 1.0) —
    quantized ranking may never be slower than float;
  * ``adaptive_vs_best_fixed`` below ``--min-adaptive-ratio`` (default
    0.9) — a scheduler that pays more than 10% of the best fixed
    strategy's facts/hour for not knowing the best arm up front has lost
    its reason to exist;
  * ``sketch_fraction`` above ``--max-sketch-fraction`` (default 0.10) —
    the model-score sketch is sold as a cheap precompute;
  * ``vs_entity_frequency`` below ``--min-sketch-quality`` (default 1.0)
    — the sketch must beat the frequency heuristic it replaces on
    accepted facts per candidate;
  * ``scores_match`` / ``facts_identical`` / ``mmap_scores_identical``
    false — a kernel that got fast by going wrong is a correctness bug,
    not a perf win;
  * BENCH_rank.json (per-key batched ranking against the per-candidate
    counting loop): ``exact`` false, a cell's ``speedup`` below its
    per-key floor in ``RANK_FLOORS`` (3.0 at 40 candidates per key, 1.0 at
    8, 0.95 at 1), or a baseline cell missing from the run.

Absolute-throughput comparisons are hardware-sensitive, so they are only
enforced when the run is comparable to the baseline: same
``kernel_backend`` for pr6, same ``hardware_concurrency`` for pr2. The
ranking-speedup floor is skipped (with a warning) when the host has fewer
cores than the bench's thread count — an oversubscribed machine cannot
measure parallel speedup. Ratio checks are never skipped.

Usage (CI):
  python3 tools/perf_gate.py \
    --pr6 BENCH_pr6.json --pr6-baseline bench/baselines/BENCH_pr6.json \
    --pr2 BENCH_pr2.json --pr2-baseline bench/baselines/BENCH_pr2.json \
    --pr8 BENCH_pr8.json --pr8-baseline bench/baselines/BENCH_pr8.json \
    --pr9 BENCH_pr9.json --pr9-baseline bench/baselines/BENCH_pr9.json \
    --rank BENCH_rank.json --rank-baseline bench/baselines/BENCH_rank.json \
    --summary perf_trend.md

Self-check (run by ctest as perf_gate_selftest):
  python3 tools/perf_gate.py --self-test
"""

import argparse
import copy
import json
import sys

# Machine-independent speed-up floors per candidates-per-key cell of
# BENCH_rank.json. At 1 per key the batched routine calls the counting loop
# itself, so that cell times one function twice: its floor sits 5% below
# 1.0 to catch a per-key dispatch cost without failing on timer noise.
RANK_FLOORS = {40: 3.0, 8: 1.0, 1: 0.95}


class Gate:
    def __init__(self, tolerance, min_batch_speedup, min_ranking_speedup,
                 min_mmap_speedup=10.0, min_int8_ratio=1.0,
                 min_adaptive_ratio=0.9, max_sketch_fraction=0.10,
                 min_sketch_quality=1.0):
        self.tolerance = tolerance
        self.min_batch_speedup = min_batch_speedup
        self.min_ranking_speedup = min_ranking_speedup
        self.min_mmap_speedup = min_mmap_speedup
        self.min_int8_ratio = min_int8_ratio
        self.min_adaptive_ratio = min_adaptive_ratio
        self.max_sketch_fraction = max_sketch_fraction
        self.min_sketch_quality = min_sketch_quality
        self.rows = []  # (check, baseline, current, delta, verdict)
        self.failures = []
        self.warnings = []

    def _record(self, check, baseline, current, delta, ok, skipped=False):
        verdict = "SKIP" if skipped else ("ok" if ok else "FAIL")
        self.rows.append((check, baseline, current, delta, verdict))
        if not skipped and not ok:
            self.failures.append(check)

    def check_flag(self, name, value):
        self._record(name, "true", str(value).lower(), "-", bool(value))

    def check_floor(self, name, value, floor, skipped=False):
        self._record(name, f">= {floor:g}", f"{value:.3f}", "-",
                     value >= floor, skipped=skipped)

    def check_ceiling(self, name, value, ceiling, skipped=False):
        self._record(name, f"<= {ceiling:g}", f"{value:.3f}", "-",
                     value <= ceiling, skipped=skipped)

    def check_throughput(self, name, baseline, current, comparable):
        delta = (current - baseline) / baseline if baseline > 0 else 0.0
        ok = current >= baseline * (1.0 - self.tolerance)
        self._record(name, f"{baseline:.2f}", f"{current:.2f}",
                     f"{delta:+.1%}", ok, skipped=not comparable)

    def require(self, record, keys, label):
        """Missing fields fail the gate instead of raising KeyError mid-run
        or (worse) silently skipping the checks that needed them."""
        missing = [k for k in keys if k not in record]
        for k in missing:
            self.failures.append(f"{label}: record is missing '{k}'")
        return not missing

    def gate_pr6(self, current, baseline):
        self.check_flag("pr6.scores_match", current.get("scores_match"))
        comparable = current.get("kernel_backend") == baseline.get(
            "kernel_backend")
        if not comparable:
            self.warnings.append(
                "pr6: kernel_backend differs from baseline "
                f"({current.get('kernel_backend')} vs "
                f"{baseline.get('kernel_backend')}); absolute throughput "
                "not compared")
        models = current.get("models", {})
        if not models:
            # An empty record would otherwise sail through the loop below —
            # a truncated bench run must fail loudly, not vacuously pass.
            self.failures.append(
                "pr6: no models in record (empty/truncated bench output?)")
            return
        for model, stats in models.items():
            if not self.require(stats,
                                ["batch_speedup", "batch_mscores_per_s"],
                                f"pr6.{model}"):
                continue
            self.check_floor(f"pr6.{model}.batch_speedup",
                             stats["batch_speedup"], self.min_batch_speedup)
            base_stats = baseline.get("models", {}).get(model)
            if base_stats is None:
                self.failures.append(f"pr6.{model}: missing from baseline")
                continue
            self.check_throughput(f"pr6.{model}.batch_mscores_per_s",
                                  base_stats["batch_mscores_per_s"],
                                  stats["batch_mscores_per_s"], comparable)

    def gate_pr2(self, current, baseline):
        self.check_flag("pr2.facts_identical", current.get("facts_identical"))
        required = ["ranking_speedup", "num_candidates",
                    "parallel_ranking_seconds"]
        if not (self.require(current, required, "pr2") and
                self.require(baseline, required, "pr2 baseline")):
            return
        cores = current.get("hardware_concurrency", 0)
        threads = current.get("threads", 0)
        undersized = cores < threads
        if undersized:
            self.warnings.append(
                f"pr2: host has {cores} cores for a {threads}-thread bench; "
                "ranking_speedup floor not enforced")
        self.check_floor("pr2.ranking_speedup", current["ranking_speedup"],
                         self.min_ranking_speedup, skipped=undersized)
        comparable = (not undersized and
                      cores == baseline.get("hardware_concurrency"))
        base_tput = (baseline["num_candidates"] /
                     baseline["parallel_ranking_seconds"])
        cur_tput = (current["num_candidates"] /
                    current["parallel_ranking_seconds"])
        self.check_throughput("pr2.candidates_per_s", base_tput, cur_tput,
                              comparable)

    def gate_pr8(self, current, baseline):
        self.check_flag("pr8.mmap_scores_identical",
                        current.get("mmap_scores_identical"))
        cold = current.get("cold_start", {})
        rank = current.get("ranking", {})
        if not (self.require(cold, ["cold_start_speedup"], "pr8.cold_start")
                and self.require(rank, ["float_mscores_per_s",
                                        "int8_mscores_per_s",
                                        "int8_ranking_ratio"],
                                 "pr8.ranking")):
            return
        # Machine-independent ratios: always enforced. The mmap load
        # validates O(header) bytes while ram reads and copies the file,
        # so the speedup scales with checkpoint size; 10x is far below
        # what any healthy run measures on the default 15 MiB checkpoint.
        self.check_floor("pr8.cold_start_speedup",
                         cold["cold_start_speedup"], self.min_mmap_speedup)
        self.check_floor("pr8.int8_ranking_ratio",
                         rank["int8_ranking_ratio"], self.min_int8_ratio)
        comparable = current.get("kernel_backend") == baseline.get(
            "kernel_backend")
        if not comparable:
            self.warnings.append(
                "pr8: kernel_backend differs from baseline "
                f"({current.get('kernel_backend')} vs "
                f"{baseline.get('kernel_backend')}); absolute throughput "
                "not compared")
        base_rank = baseline.get("ranking", {})
        for key in ("float_mscores_per_s", "int8_mscores_per_s"):
            if key not in base_rank:
                self.failures.append(f"pr8.{key}: missing from baseline")
                continue
            self.check_throughput(f"pr8.{key}", base_rank[key], rank[key],
                                  comparable)

    def gate_pr9(self, current, baseline):
        adaptive = current.get("adaptive", {})
        sketch = current.get("model_score", {})
        self.check_flag("pr9.adaptive.facts_identical",
                        adaptive.get("facts_identical"))
        self.check_flag("pr9.model_score.facts_identical",
                        sketch.get("facts_identical"))
        if not (self.require(adaptive,
                             ["adaptive_vs_best_fixed", "facts_per_hour"],
                             "pr9.adaptive") and
                self.require(sketch,
                             ["sketch_fraction", "vs_entity_frequency"],
                             "pr9.model_score")):
            return
        # Machine-independent ratios: always enforced. Both sides of each
        # ratio come from the same interleaved bench invocation, so host
        # speed cancels out.
        self.check_floor("pr9.adaptive_vs_best_fixed",
                         adaptive["adaptive_vs_best_fixed"],
                         self.min_adaptive_ratio)
        self.check_ceiling("pr9.sketch_fraction", sketch["sketch_fraction"],
                           self.max_sketch_fraction)
        self.check_floor("pr9.model_score_vs_entity_frequency",
                         sketch["vs_entity_frequency"],
                         self.min_sketch_quality)
        comparable = current.get("kernel_backend") == baseline.get(
            "kernel_backend")
        if not comparable:
            self.warnings.append(
                "pr9: kernel_backend differs from baseline "
                f"({current.get('kernel_backend')} vs "
                f"{baseline.get('kernel_backend')}); absolute throughput "
                "not compared")
        base_adaptive = baseline.get("adaptive", {})
        if "facts_per_hour" not in base_adaptive:
            self.failures.append(
                "pr9.adaptive.facts_per_hour: missing from baseline")
            return
        self.check_throughput("pr9.adaptive.facts_per_hour",
                              base_adaptive["facts_per_hour"],
                              adaptive["facts_per_hour"], comparable)

    def gate_rank(self, current, baseline):
        self.check_flag("rank.exact", current.get("exact"))
        cells = {(c.get("entities"), c.get("per_key")): c
                 for c in current.get("cells", [])}
        wanted = [(c.get("entities"), c.get("per_key"))
                  for c in baseline.get("cells", [])]
        if not wanted:
            self.failures.append("rank: baseline has no cells")
        for entities, per_key in wanted:
            label = f"rank.E{entities}.k{per_key}"
            cell = cells.get((entities, per_key))
            if cell is None:
                # A shrunk sweep must fail, not pass on the cells it kept.
                self.failures.append(f"{label}: missing from the run")
                continue
            if not self.require(cell, ["speedup"], label):
                continue
            floor = RANK_FLOORS.get(per_key)
            if floor is not None:
                self.check_floor(f"{label}.speedup", cell["speedup"], floor)

    def summary_markdown(self):
        lines = ["# Perf trend", "",
                 "| check | baseline / floor | current | delta | verdict |",
                 "|---|---|---|---|---|"]
        for check, baseline, current, delta, verdict in self.rows:
            lines.append(
                f"| {check} | {baseline} | {current} | {delta} | {verdict} |")
        if self.warnings:
            lines.append("")
            lines.append("Warnings:")
            lines.extend(f"- {w}" for w in self.warnings)
        lines.append("")
        lines.append("**" + ("FAIL" if self.failures else "PASS") + "**")
        return "\n".join(lines) + "\n"

    def report(self):
        for check, baseline, current, delta, verdict in self.rows:
            print(f"  {verdict:4s}  {check}: baseline {baseline}, "
                  f"current {current} ({delta})")
        for w in self.warnings:
            print(f"  warn  {w}")
        if self.failures:
            print(f"perf gate: FAIL ({len(self.failures)} check(s)):")
            for f in self.failures:
                print(f"  - {f}")
            print("If this regression is intended (or the baseline is from "
                  "different hardware), regenerate bench/baselines/ from a "
                  "green run's artifacts — see README.")
        else:
            print("perf gate: PASS")
        return 1 if self.failures else 0


def load(path):
    """Loads a bench record, turning unusable input into a clean failure
    (an empty or truncated file must never read as 'nothing to check')."""
    try:
        with open(path) as f:
            record = json.load(f)
    except OSError as e:
        sys.exit(f"perf gate: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"perf gate: {path} is not valid JSON ({e}); "
                 "was the bench run truncated?")
    if not isinstance(record, dict) or not record:
        sys.exit(f"perf gate: {path} holds no bench record "
                 "(empty or non-object JSON)")
    return record


def self_test():
    pr6 = {
        "kernel_backend": "avx2",
        "scores_match": True,
        "models": {
            "TransE": {"batch_mscores_per_s": 50.0, "batch_speedup": 7.0},
            "DistMult": {"batch_mscores_per_s": 70.0, "batch_speedup": 9.0},
        },
    }
    pr2 = {
        "facts_identical": True,
        "threads": 4,
        "hardware_concurrency": 4,
        "num_candidates": 6000,
        "parallel_ranking_seconds": 0.05,
        "ranking_speedup": 2.0,
    }
    pr8 = {
        "kernel_backend": "avx2",
        "mmap_scores_identical": True,
        "cold_start": {"cold_start_speedup": 100.0},
        "ranking": {"float_mscores_per_s": 60.0,
                    "int8_mscores_per_s": 65.0,
                    "int8_ranking_ratio": 1.08},
    }
    pr9 = {
        "kernel_backend": "avx2",
        "adaptive": {"facts_identical": True,
                     "facts_per_hour": 100.0e6,
                     "adaptive_vs_best_fixed": 0.95},
        "model_score": {"facts_identical": True,
                        "sketch_fraction": 0.02,
                        "vs_entity_frequency": 1.3},
    }

    rank = {
        "exact": True,
        "cells": [{"entities": e, "per_key": k, "speedup": sp}
                  for e in (1454, 14541)
                  for k, sp in ((1, 1.0), (8, 4.0), (40, 12.0),
                                (200, 30.0))],
    }

    def run_rank(current, baseline=rank):
        g = Gate(tolerance=0.20, min_batch_speedup=5.0,
                 min_ranking_speedup=1.0)
        g.gate_rank(current, baseline)
        return g

    def with_speedup(per_key, speedup):
        r = copy.deepcopy(rank)
        for c in r["cells"]:
            if c["per_key"] == per_key and c["entities"] == 1454:
                c["speedup"] = speedup
        return r

    # The sample rank record passes.
    assert not run_rank(rank).failures, run_rank(rank).failures

    # Inexact batched ranks fail however fast they are.
    wrong_rank = copy.deepcopy(rank)
    wrong_rank["exact"] = False
    g = run_rank(wrong_rank)
    assert any("rank.exact" in f for f in g.failures), g.failures

    # Below 3x at 40 per key fails; below 1x at 8 per key fails.
    g = run_rank(with_speedup(40, 2.5))
    assert any("rank.E1454.k40" in f for f in g.failures), g.failures
    g = run_rank(with_speedup(8, 0.9))
    assert any("rank.E1454.k8" in f for f in g.failures), g.failures

    # At 1 per key both sides are the counting loop: timer noise passes, a
    # real dispatch cost does not.
    assert not run_rank(with_speedup(1, 0.98)).failures
    g = run_rank(with_speedup(1, 0.9))
    assert any("rank.E1454.k1" in f for f in g.failures), g.failures

    # A run that dropped a cell of the baseline's sweep fails.
    shrunk = copy.deepcopy(rank)
    shrunk["cells"] = [c for c in shrunk["cells"] if c["entities"] == 1454]
    g = run_rank(shrunk)
    assert any("E14541" in f and "missing" in f for f in g.failures), \
        g.failures

    # A cell without its speedup fails with a named key.
    gutted_rank = copy.deepcopy(rank)
    del gutted_rank["cells"][2]["speedup"]
    g = run_rank(gutted_rank)
    assert any("speedup" in f and "missing" in f for f in g.failures), \
        g.failures

    def run(cur6, base6, cur2, base2, cur8=None, base8=None,
            cur9=None, base9=None):
        g = Gate(tolerance=0.20, min_batch_speedup=5.0,
                 min_ranking_speedup=1.0)
        g.gate_pr6(cur6, base6)
        g.gate_pr2(cur2, base2)
        g.gate_pr8(cur8 if cur8 is not None else pr8,
                   base8 if base8 is not None else pr8)
        g.gate_pr9(cur9 if cur9 is not None else pr9,
                   base9 if base9 is not None else pr9)
        return g

    # Identical current and baseline passes.
    assert not run(pr6, pr6, pr2, pr2).failures, "equal run must pass"

    # A 30% batch-throughput drop fails.
    slow = copy.deepcopy(pr6)
    slow["models"]["TransE"]["batch_mscores_per_s"] = 35.0
    g = run(slow, pr6, pr2, pr2)
    assert any("batch_mscores_per_s" in f for f in g.failures), g.failures

    # A 10% drop is inside tolerance.
    mild = copy.deepcopy(pr6)
    mild["models"]["TransE"]["batch_mscores_per_s"] = 45.0
    assert not run(mild, pr6, pr2, pr2).failures

    # Batch speedup below the 5x floor fails even with a matching baseline.
    weak = copy.deepcopy(pr6)
    weak["models"]["TransE"]["batch_speedup"] = 3.0
    g = run(weak, weak, pr2, pr2)
    assert any("batch_speedup" in f for f in g.failures), g.failures

    # Ranking speedup < 1.0 fails on an adequately-sized host...
    serial_loss = copy.deepcopy(pr2)
    serial_loss["ranking_speedup"] = 0.9
    g = run(pr6, pr6, serial_loss, pr2)
    assert any("ranking_speedup" in f for f in g.failures), g.failures

    # ...but is only a warning when the host is oversubscribed.
    tiny_host = copy.deepcopy(serial_loss)
    tiny_host["hardware_concurrency"] = 1
    g = run(pr6, pr6, tiny_host, pr2)
    assert not g.failures, g.failures
    assert any("cores" in w for w in g.warnings), g.warnings

    # Wrong results are a hard failure regardless of speed.
    wrong = copy.deepcopy(pr6)
    wrong["scores_match"] = False
    assert run(wrong, pr6, pr2, pr2).failures

    # Backend mismatch skips absolute comparison but keeps ratio floors.
    other = copy.deepcopy(pr6)
    other["kernel_backend"] = "portable"
    other["models"]["TransE"]["batch_mscores_per_s"] = 10.0
    g = run(other, pr6, pr2, pr2)
    assert not g.failures, g.failures

    # An empty models map is a hard failure, never a vacuous pass.
    hollow = copy.deepcopy(pr6)
    hollow["models"] = {}
    g = run(hollow, pr6, pr2, pr2)
    assert any("no models" in f for f in g.failures), g.failures

    # Missing per-model fields fail with a named key, not a KeyError.
    gutted = copy.deepcopy(pr6)
    del gutted["models"]["TransE"]["batch_speedup"]
    g = run(gutted, pr6, pr2, pr2)
    assert any("batch_speedup" in f and "missing" in f
               for f in g.failures), g.failures

    # Missing pr2 fields likewise fail cleanly.
    stripped = copy.deepcopy(pr2)
    del stripped["ranking_speedup"]
    g = run(pr6, pr6, stripped, pr2)
    assert any("ranking_speedup" in f and "missing" in f
               for f in g.failures), g.failures

    # load() refuses empty and malformed files with a clean exit message.
    import tempfile, os
    for content in ("", "{not json", "[]", "{}"):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(content)
            path = f.name
        try:
            load(path)
            raise AssertionError(f"load() accepted {content!r}")
        except SystemExit as e:
            assert "perf gate:" in str(e.code), e.code
        finally:
            os.unlink(path)

    # An mmap load no faster than ram fails the pr8 floor.
    slow_mmap = copy.deepcopy(pr8)
    slow_mmap["cold_start"]["cold_start_speedup"] = 1.2
    g = run(pr6, pr6, pr2, pr2, slow_mmap, pr8)
    assert any("cold_start_speedup" in f for f in g.failures), g.failures

    # int8 ranking slower than float fails even against its own baseline.
    slow_int8 = copy.deepcopy(pr8)
    slow_int8["ranking"]["int8_ranking_ratio"] = 0.8
    g = run(pr6, pr6, pr2, pr2, slow_int8, slow_int8)
    assert any("int8_ranking_ratio" in f for f in g.failures), g.failures

    # mmap/ram score divergence is a hard failure regardless of speed.
    diverged = copy.deepcopy(pr8)
    diverged["mmap_scores_identical"] = False
    g = run(pr6, pr6, pr2, pr2, diverged, pr8)
    assert any("mmap_scores_identical" in f for f in g.failures), g.failures

    # A 30% ranking-throughput drop vs baseline fails...
    pr8_slow = copy.deepcopy(pr8)
    pr8_slow["ranking"]["float_mscores_per_s"] = 40.0
    pr8_slow["ranking"]["int8_mscores_per_s"] = 43.2
    g = run(pr6, pr6, pr2, pr2, pr8_slow, pr8)
    assert any("float_mscores_per_s" in f for f in g.failures), g.failures

    # ...unless the kernel backend differs (ratios still enforced).
    pr8_portable = copy.deepcopy(pr8_slow)
    pr8_portable["kernel_backend"] = "portable"
    g = run(pr6, pr6, pr2, pr2, pr8_portable, pr8)
    assert not g.failures, g.failures
    assert any("pr8" in w for w in g.warnings), g.warnings

    # Gutted pr8 records fail with a named key, not a KeyError.
    hollow8 = copy.deepcopy(pr8)
    del hollow8["cold_start"]["cold_start_speedup"]
    g = run(pr6, pr6, pr2, pr2, hollow8, pr8)
    assert any("cold_start_speedup" in f and "missing" in f
               for f in g.failures), g.failures

    # An adaptive sweep below 0.9x the best fixed strategy fails even
    # against its own baseline.
    lagging = copy.deepcopy(pr9)
    lagging["adaptive"]["adaptive_vs_best_fixed"] = 0.8
    g = run(pr6, pr6, pr2, pr2, cur9=lagging, base9=lagging)
    assert any("adaptive_vs_best_fixed" in f for f in g.failures), g.failures

    # A sketch precompute above 10% of the run's time fails.
    pricey = copy.deepcopy(pr9)
    pricey["model_score"]["sketch_fraction"] = 0.25
    g = run(pr6, pr6, pr2, pr2, cur9=pricey, base9=pricey)
    assert any("sketch_fraction" in f for f in g.failures), g.failures

    # A sketch that loses to the frequency heuristic it replaces fails.
    beaten = copy.deepcopy(pr9)
    beaten["model_score"]["vs_entity_frequency"] = 0.9
    g = run(pr6, pr6, pr2, pr2, cur9=beaten, base9=beaten)
    assert any("model_score_vs_entity_frequency" in f
               for f in g.failures), g.failures

    # Thread-count or resume divergence is a hard failure despite speed.
    forked = copy.deepcopy(pr9)
    forked["adaptive"]["facts_identical"] = False
    g = run(pr6, pr6, pr2, pr2, cur9=forked, base9=pr9)
    assert any("adaptive.facts_identical" in f for f in g.failures), \
        g.failures

    # A 30% adaptive facts/hour drop vs baseline fails...
    pr9_slow = copy.deepcopy(pr9)
    pr9_slow["adaptive"]["facts_per_hour"] = 70.0e6
    g = run(pr6, pr6, pr2, pr2, cur9=pr9_slow, base9=pr9)
    assert any("facts_per_hour" in f for f in g.failures), g.failures

    # ...unless the kernel backend differs (ratios still enforced).
    pr9_portable = copy.deepcopy(pr9_slow)
    pr9_portable["kernel_backend"] = "portable"
    g = run(pr6, pr6, pr2, pr2, cur9=pr9_portable, base9=pr9)
    assert not g.failures, g.failures
    assert any("pr9" in w for w in g.warnings), g.warnings

    # Gutted pr9 records fail with a named key, not a KeyError.
    hollow9 = copy.deepcopy(pr9)
    del hollow9["adaptive"]["adaptive_vs_best_fixed"]
    g = run(pr6, pr6, pr2, pr2, cur9=hollow9, base9=pr9)
    assert any("adaptive_vs_best_fixed" in f and "missing" in f
               for f in g.failures), g.failures

    # A baseline without adaptive throughput fails rather than skipping.
    bald9 = copy.deepcopy(pr9)
    del bald9["adaptive"]["facts_per_hour"]
    g = run(pr6, pr6, pr2, pr2, cur9=pr9, base9=bald9)
    assert any("missing from baseline" in f for f in g.failures), g.failures

    # Markdown summary renders every check row.
    g = run(pr6, pr6, pr2, pr2)
    md = g.summary_markdown()
    assert "pr6.TransE.batch_speedup" in md and "PASS" in md
    assert "pr8.cold_start_speedup" in md
    assert "pr9.adaptive_vs_best_fixed" in md
    assert "pr9.sketch_fraction" in md

    print("perf_gate self-test: all checks behave as specified")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr6")
    parser.add_argument("--pr6-baseline")
    parser.add_argument("--pr2")
    parser.add_argument("--pr2-baseline")
    parser.add_argument("--pr8")
    parser.add_argument("--pr8-baseline")
    parser.add_argument("--pr9")
    parser.add_argument("--pr9-baseline")
    parser.add_argument("--rank")
    parser.add_argument("--rank-baseline")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--min-batch-speedup", type=float, default=5.0)
    parser.add_argument("--min-ranking-speedup", type=float, default=1.0)
    parser.add_argument("--min-mmap-speedup", type=float, default=10.0)
    parser.add_argument("--min-int8-ratio", type=float, default=1.0)
    parser.add_argument("--min-adaptive-ratio", type=float, default=0.9)
    parser.add_argument("--max-sketch-fraction", type=float, default=0.10)
    parser.add_argument("--min-sketch-quality", type=float, default=1.0)
    parser.add_argument("--summary", help="write a markdown trend summary")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    gate = Gate(args.tolerance, args.min_batch_speedup,
                args.min_ranking_speedup, args.min_mmap_speedup,
                args.min_int8_ratio, args.min_adaptive_ratio,
                args.max_sketch_fraction, args.min_sketch_quality)
    if args.pr6:
        gate.gate_pr6(load(args.pr6), load(args.pr6_baseline))
    if args.pr2:
        gate.gate_pr2(load(args.pr2), load(args.pr2_baseline))
    if args.pr8:
        gate.gate_pr8(load(args.pr8), load(args.pr8_baseline))
    if args.pr9:
        gate.gate_pr9(load(args.pr9), load(args.pr9_baseline))
    if args.rank:
        gate.gate_rank(load(args.rank), load(args.rank_baseline))
    if not (args.pr6 or args.pr2 or args.pr8 or args.pr9 or args.rank):
        parser.error(
            "nothing to gate: pass --pr6, --pr2, --pr8, --pr9 and/or --rank")
    if args.summary:
        with open(args.summary, "w") as f:
            f.write(gate.summary_markdown())
    return gate.report()


if __name__ == "__main__":
    sys.exit(main())
