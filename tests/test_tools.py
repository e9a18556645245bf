"""tools/code_lines.py, the code-line count that CI reports, and
tools/bench_compare.py, the paired benchmark driver."""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402
import code_lines  # noqa: E402

needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="needs a git checkout")


def test_blank_comment_and_docstring_lines_are_not_code():
    text = ('"""Module.\n\nMore."""\n\n# a comment\nclass A:\n    """One line."""\n'
            '    def f(self):\n        """Two\n        lines."""\n'
            '        return "not a docstring"  # a trailing comment\n')
    assert code_lines.code_lines(text) == 3


@needs_git
def test_a_revision_is_read_through_git(capsys):
    at_head = code_lines.sources("HEAD")
    assert "src/skewbracoid/__init__.py" in at_head
    assert all(name.startswith("src/skewbracoid/") and name.endswith(".py")
               for name in at_head)
    assert code_lines.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(at_head) + 1
    assert int(lines[-1].split()[0]) == sum(map(code_lines.code_lines, at_head.values()))


@needs_git
def test_bench_compare_runs_head_against_head(tmp_path, monkeypatch, capsys):
    """One pair and the two null pairs on a clone, whose worktrees are gone
    afterwards: a row per end-to-end metric, in the table and in --out."""
    clone = tmp_path / "repo"
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(clone)], check=True)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "compare.json"
    assert bench_compare.main(["--base", "HEAD", "--pairs", "1", "--seconds", "0.5",
                               "--workload", "abmaps", "--repo", str(clone),
                               "--out", str(out)]) == 0
    metrics = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| workload | metric | base median (quartiles)")
    assert [line.split("|")[2].strip() for line in lines[2:]] == [f"`{m}`" for m in metrics]
    report = json.loads(out.read_text())
    assert report["base"] == report["change"] and report["pairs"] == 1
    assert [r["metric"] for r in report["rows"]] == metrics
    for r in report["rows"]:
        assert r["base_q1"] == r["base_median"] == r["base_q3"] > 0
        assert r["won"] in (0, 1) and len(r["null_deltas"]) == 2
    assert len(report["runs"]) == 1 and len(report["null_runs"]) == 2
    worktrees = subprocess.run(["git", "-C", str(clone), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    assert len(worktrees.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["compare.json", "repo"]


def test_bench_compare_summary_counts_wins_in_the_declared_direction():
    pairs = [({"wall_s": 1.0, "n": 5}, {"wall_s": 0.9, "n": 6}),
             ({"wall_s": 1.2, "n": 5}, {"wall_s": 1.3, "n": 4}),
             ({"wall_s": 1.1, "n": 5}, {"wall_s": 1.0, "n": 6})]
    nulls = [({"wall_s": 1.0, "n": 5}, {"wall_s": 1.1, "n": 5})] * 2
    wall, n = bench_compare.summarize(pairs, nulls, {"wall_s": "lower", "n": "higher"})
    assert (wall["base_q1"], wall["base_median"], wall["base_q3"]) == pytest.approx((1.05, 1.1, 1.15))
    assert wall["change_median"] == 1.0 and wall["won"] == 2
    assert wall["delta"] == pytest.approx(1.0 / 1.1 - 1)
    assert wall["null_deltas"] == pytest.approx([0.1, 0.1])
    assert n["won"] == 2 and n["delta"] == pytest.approx(0.2)
