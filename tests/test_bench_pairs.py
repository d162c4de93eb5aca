"""`tools/bench_pairs.py --label`: the BENCH_<label>.json record, built from made-up runs (no perfbench run), and its commits."""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import bench_pairs
finally:
    sys.path.remove(str(TOOLS))


def runs(values, env):
    """Pairs of run records whose metric `name` reads parent, change = values[name][i]."""
    return [{side: {"metrics": {name: {"value": pairs[i][j], "unit": "s"} for name, pairs in values.items()},
                    **({} if env is None else {"env": f"env side={side}"})}
             for j, side in enumerate(("parent", "change"))}
            for i in range(len(next(iter(values.values()))))]


def test_two_records_have_the_same_keys(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "commit", lambda root: f"commit of {root.name}")
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    workload = argparse.Namespace(fresh=False, workload="operator_algebra", seed=6050, cpu_set={0})
    fresh = argparse.Namespace(fresh=True, workload=None, seed=20020206, cpu_set=None)
    first = bench_pairs.bench_record(workload, sides, runs({"run_s": [(2.0, 1.0), (3.0, 1.5), (2.5, 2.6)]}, "env"))
    second = bench_pairs.bench_record(fresh, sides, runs({"fvps a": [(1.0, 1.0)], "fvps b": [(0.0, 1.0)]}, None))
    assert first.keys() == second.keys()
    assert {frozenset(m) for m in first["metrics"].values()} == {frozenset(m) for m in second["metrics"].values()}
    assert first["commits"] == {"parent": "commit of parent", "change": "commit of change"}
    assert first["env"] == {"parent": "env side=parent", "change": "env side=change"}
    assert first["metrics"]["run_s"] == {"unit": "s", "parent_median": 2.5, "parent_quartiles": [2.0, 3.0],
                                         "change_median": 1.5, "move": -0.4, "change_won": 2}
    assert second["metrics"]["fvps b"]["move"] is None


def test_dirty_commit_names_the_diff_it_ran(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                              capture_output=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "NOTES").write_text("a\n")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    parent = git("rev-parse", "HEAD").decode().strip()
    assert bench_pairs.commit(tmp_path) == parent
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    ran = bench_pairs.commit(tmp_path)
    (tmp_path / "NOTES").write_text("b\n")  # outside the code a run imports
    assert bench_pairs.commit(tmp_path) == ran
    git("commit", "-q", "-am", "change")
    diff = git("diff", "--binary", "--full-index", parent, "HEAD", "--", "src", "perfbench")
    assert ran == f"{parent}-dirty-{hashlib.sha256(diff).hexdigest()[:16]}"
