#!/usr/bin/env python3
"""Paired evaluation statistics of two source trees, for changes that move values.

    python3 scripts/drift_stats.py --parent old/src --change src --seeds 0-59

Runs synth-alloc, then chain-preconds -> discover -> train -> evaluate, on
each pipeline seed at ``pipeline_digests``' pinned config, once per tree, each
stage in a fresh interpreter that imports the package from that tree.
synth-alloc reads no other stage's output, so it runs first and a seed that
discover rejects still has its synthetic result. It prints, for each tree,
the seeds a stage rejected, by stage and exit code; for each policy, the mean
success over the seeds that pass on both trees, the paired difference
change - parent with its standard error over seeds and the number of seeds
whose success moved; the same for ``learned-recovery - no-recovery``; the
same for the final failure value, the last ``fv`` of ``train``'s
``rounds.csv``; and, for each tree, value-UCL against round-robin on the
synthetic task sets: the mean final FV of each, their paired difference
UCL - RR with its standard error, and the number of task sets on which UCL
ends higher. The FVs are reported, not gated: a change to REPS or to the
allocator moves them before it moves any success rate.

The change passes, and the script exits 0, when all of these hold:
  - its rejected seeds are the parent's or a subset of them;
  - every policy's paired difference is 0 or within 2 standard errors;
  - ``learned-recovery - no-recovery`` has not fallen by more than 2
    standard errors.
Otherwise it exits 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pipeline_digests  # noqa: E402

STAGES = pipeline_digests.STAGES
EVALUATION = os.path.join("runs", "evaluate", "all", "evaluation.csv")
ROUNDS = os.path.join("runs", "train", "{seed}", "rounds.csv")
SYNTHETIC = os.path.join("runs", "synth-alloc", "summary", "synth_fv.csv")
GAP = ("learned-recovery", "no-recovery")
GAP_NAME = " - ".join(GAP)
N_SE = 2.0


def read_success(path: str) -> dict[str, float]:
    """Policy -> success rate from an ``evaluation.csv``, in file order."""
    with open(path, newline="") as fh:
        return {row["policy"]: float(row["success_rate"]) for row in csv.DictReader(fh)}


def read_final_fv(path: str) -> float:
    """The failure value after the last allocation round of a ``rounds.csv``."""
    with open(path, newline="") as fh:
        return float(list(csv.DictReader(fh))[-1]["fv"])


def read_synthetic(path: str) -> tuple[float, float]:
    """The UCL and round-robin final FVs of a one-seed ``synth_fv.csv``."""
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return float(row["ucl_final_fv"]), float(row["rr_final_fv"])


def run_tree(src: str, seeds) -> tuple[dict, dict, dict, dict]:
    """Each seed's policy success rates and final FV, its synthetic (UCL, RR)
    final FVs, and each rejected seed's failing stage and exit code."""
    success, final_fv, synthetic, rejected = {}, {}, {}, {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:
            failed = pipeline_digests.run_seed(src, seed, work)
            if failed is None or failed[0] != STAGES[0]:
                synthetic[seed] = read_synthetic(os.path.join(work, SYNTHETIC))
            if failed is None:
                success[seed] = read_success(os.path.join(work, EVALUATION))
                final_fv[seed] = read_final_fv(os.path.join(work, ROUNDS.format(seed=seed)))
            else:
                rejected[seed] = failed
    return success, final_fv, synthetic, rejected


def paired(parent: list[float], change: list[float]) -> dict[str, float]:
    """Means, the mean paired difference change - parent, its standard error
    over seeds (nan below two seeds), the number of seeds and how many moved."""
    diffs = [c - p for p, c in zip(parent, change)]
    n = len(diffs)
    return {
        "parent": statistics.fmean(parent),
        "change": statistics.fmean(change),
        "delta": statistics.fmean(diffs),
        "se": statistics.stdev(diffs) / math.sqrt(n) if n > 1 else math.nan,
        "n": n,
        "moved": sum(d != 0.0 for d in diffs),
    }


def compare(parent_success: dict, change_success: dict) -> dict[str, dict[str, float]]:
    """``paired`` statistics per policy, then for the learned-recovery gap,
    over the seeds that pass on both trees."""
    seeds = sorted(set(parent_success) & set(change_success))
    policies = list(parent_success[seeds[0]]) if seeds else []
    columns = {
        tree: {policy: [success[s][policy] for s in seeds] for policy in policies}
        for tree, success in (("parent", parent_success), ("change", change_success))
    }
    for col in columns.values():
        if all(name in col for name in GAP):
            col[GAP_NAME] = [a - b for a, b in zip(col[GAP[0]], col[GAP[1]])]
    return {name: paired(columns["parent"][name], columns["change"][name]) for name in columns["parent"]}


def compare_final_fv(parent_fv: dict, change_fv: dict) -> dict[str, float] | None:
    """``paired`` statistics of the final FV over the seeds that pass on both
    trees, or None if there are none."""
    seeds = sorted(set(parent_fv) & set(change_fv))
    return paired([parent_fv[s] for s in seeds], [change_fv[s] for s in seeds]) if seeds else None


def ucl_against_rr(synthetic: dict) -> dict[str, float] | None:
    """``paired`` statistics of one tree's synthetic final FVs, round-robin as
    the parent column and UCL as the change, with ``wins``, the number of
    seeds on which UCL ends higher; None without seeds."""
    if not synthetic:
        return None
    ucl, rr = zip(*synthetic.values())
    return {**paired(rr, ucl), "wins": sum(u > r for u, r in zip(ucl, rr))}


def checks(rejected_parent: dict, rejected_change: dict, stats: dict) -> list[tuple[str, bool]]:
    """The gate's three checks, each with whether it holds."""
    gap = stats.get(GAP_NAME)
    policies = [name for name in stats if name != GAP_NAME]
    return [
        ("rejected seeds equal or fewer", set(rejected_change) <= set(rejected_parent)),
        (
            f"every policy: delta = 0 or |delta| <= {N_SE:g} se",
            bool(policies) and all(
                stats[p]["delta"] == 0.0 or abs(stats[p]["delta"]) <= N_SE * stats[p]["se"]
                for p in policies
            ),
        ),
        (
            f"{GAP_NAME}: not fallen by more than {N_SE:g} se",
            gap is not None and (gap["delta"] == 0.0 or gap["delta"] >= -N_SE * gap["se"]),
        ),
    ]


def _row(name: str, s: dict[str, float], count: str = "moved") -> str:
    return f"{name:36}{s['parent']:9.4f}{s['change']:9.4f}{s['delta']:+10.4f}{s['se']:9.4f}{s[count]:7d}"


def report(
    trees: dict[str, tuple[str, dict]],
    stats: dict,
    final_fv: dict | None,
    synthetic: dict[str, dict | None],
    gate: list[tuple[str, bool]],
) -> list[str]:
    lines = []
    for tree, (src, rejected) in trees.items():
        lines.append(f"{tree} {src}: {len(rejected)} rejected seeds")
        for failed in sorted(set(rejected.values())):
            seeds = " ".join(str(seed) for seed in sorted(rejected) if rejected[seed] == failed)
            lines.append(f"  {failed[0]} exit {failed[1]}: {seeds}")
    n = next(iter(stats.values()))["n"] if stats else 0
    lines.append(f"mean success over the {n} seeds that pass on both trees:")
    lines.append(f"{'':36}{'parent':>9}{'change':>9}{'delta':>10}{'se':>9}{'moved':>7}")
    lines.extend(_row(name, s) for name, s in stats.items())
    if final_fv is not None:
        lines.append(f"mean final FV over the {final_fv['n']} seeds that pass on both trees (not gated):")
        lines.append(_row("final FV", final_fv))
    for tree, s in synthetic.items():
        if s is not None:
            lines.append(f"{tree}: synthetic final FV over {s['n']} task sets (not gated):")
            lines.append(f"{'':36}{'rr':>9}{'ucl':>9}{'ucl - rr':>10}{'se':>9}{'wins':>7}")
            lines.append(_row("ucl against rr", s, "wins"))
    lines.extend(f"{'pass' if ok else 'FAIL'}: {what}" for what, ok in gate)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="recovery_forge source tree before the change")
    parser.add_argument("--change", required=True, help="recovery_forge source tree after the change")
    parser.add_argument("--seeds", required=True, help="pipeline seeds: A-B or A,B,...")
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not pipeline_digests.has_package(src):
            parser.error(f"no recovery_forge package under {src}")
    seeds = pipeline_digests.parse_seeds(args.seeds)
    parent_success, parent_fv, parent_synthetic, parent_rejected = run_tree(args.parent, seeds)
    change_success, change_fv, change_synthetic, change_rejected = run_tree(args.change, seeds)
    stats = compare(parent_success, change_success)
    gate = checks(parent_rejected, change_rejected, stats)
    trees = {"parent": (args.parent, parent_rejected), "change": (args.change, change_rejected)}
    synthetic = {"parent": ucl_against_rr(parent_synthetic), "change": ucl_against_rr(change_synthetic)}
    print("\n".join(report(trees, stats, compare_final_fv(parent_fv, change_fv), synthetic, gate)))
    return 0 if all(ok for _, ok in gate) else 1


if __name__ == "__main__":
    sys.exit(main())
