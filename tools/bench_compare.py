"""Paired benchmark runs of two git revisions, alternating, with null pairs.

    python3 tools/bench_compare.py --base REV [--change REV] --workload W \\
        [--pairs N] [--seconds S] [--out F] [--repo PATH]

Checks out each revision twice, as fresh detached git worktrees in a
temporary directory, and runs each checkout's own ``bench/run.py`` (which
imports that checkout's ``src/``).  Pair i runs the base's checkout i mod 2
and the change's checkout i mod 2, the base first on even pairs and the
change first on odd ones.  Two null pairs follow: the base's two checkouts
against each other, in both orders, so the spread of one revision against
itself shows beside the comparison.  ``--change`` defaults to HEAD.

Prints a markdown table, one row per end-to-end metric: the base's median
with its quartiles, the change's median, the change of the median (Δ), how
many pairs the change won (better in the direction BENCHMARK.json declares)
and the two null pairs' Δ.  ``--out`` writes the same data, and every run's
metrics, as JSON.  The worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(checkout: Path, workload: str, seconds: float) -> dict:
    """The end-to-end metric values of one `bench/run.py` run in `checkout`;
    RuntimeError if it fails or reports an incorrect run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"]:
        raise RuntimeError(f"incorrect bench run in {checkout}: {lines[-1][:500]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (the one value thrice)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], nulls: list[tuple[dict, dict]],
              better: dict[str, str]) -> list[dict]:
    """One row per metric of the (base, change) `pairs`, with the Δ of each
    (first, second) null pair."""
    rows = []
    for name in pairs[0][0]:
        sign = 1 if better.get(name, "lower") == "lower" else -1
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        q1, median, q3 = quartiles(base)
        changed = statistics.median(change)
        rows.append({
            "metric": name, "base_median": median, "base_q1": q1, "base_q3": q3,
            "change_median": changed, "delta": changed / median - 1 if median else 0.0,
            "won": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
            "null_deltas": [s[name] / f[name] - 1 if f[name] else 0.0 for f, s in nulls],
        })
    return rows


def table(workload: str, rows: list[dict]) -> str:
    lines = ["| workload | metric | base median (quartiles) | change median | Δ "
             "| pairs won | null Δ |", "|---|---|---|---|---|---|---|"]
    for r in rows:
        nulls = "/".join(f"{d:+.1%}" for d in r["null_deltas"])
        lines.append(
            f"| {workload} | `{r['metric']}` | {r['base_median']:.4g} "
            f"({r['base_q1']:.4g}–{r['base_q3']:.4g}) | {r['change_median']:.4g} "
            f"| {r['delta']:+.1%} | {r['won']}/{r['pairs']} | {nulls} |")
    return "\n".join(lines)


def compare(repo: Path, base: str, change: str, workload: str, pairs: int,
            seconds: float, log=print) -> dict:
    base_rev, change_rev = (_git(repo, "rev-parse", "--verify", f"{r}^{{commit}}")
                            for r in (base, change))
    better = {m["name"]: m["better"] for m in
              json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench_compare_"))
    checkouts = {side: [tmp / f"{side}{k}" for k in (0, 1)] for side in ("base", "change")}
    try:
        for side, rev in (("base", base_rev), ("change", change_rev)):
            for path in checkouts[side]:
                _git(repo, "worktree", "add", "--detach", "--quiet", str(path), rev)
        runs = []
        for i in range(pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: run_bench(checkouts[side][i % 2], workload, seconds) for side in order}
            runs.append((got["base"], got["change"]))
            log(f"pair {i + 1}/{pairs} ({order[0]} first): wall_s base "
                f"{got['base'].get('wall_s')} change {got['change'].get('wall_s')}")
        nulls = []
        for first, second in ((0, 1), (1, 0)):
            nulls.append(tuple(run_bench(checkouts["base"][k], workload, seconds)
                               for k in (first, second)))
            log(f"null pair base{first} against base{second} done")
    finally:
        for paths in checkouts.values():
            for path in paths:
                if path.exists():
                    subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                    str(path)], capture_output=True)
        subprocess.run(["git", "-C", str(repo), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return {"base": base_rev, "change": change_rev, "workload": workload,
            "pairs": pairs, "seconds": seconds,
            "rows": summarize(runs, nulls, better),
            "runs": [{"base": b, "change": c} for b, c in runs],
            "null_runs": [{"first": f, "second": s} for f, s in nulls]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change")
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "sweep", "abmaps", "tables"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--out", type=Path, help="write the rows and runs as JSON")
    parser.add_argument("--repo", type=Path, default=ROOT, help="git repository to check out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    report = compare(args.repo.resolve(), args.base, args.change, args.workload,
                     args.pairs, args.seconds, log=lambda s: print(s, file=sys.stderr))
    print(table(args.workload, report["rows"]))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
