"""`tools/bench_history.py`: the chain of moves across two made-up BENCH_<label>.json files (no perfbench run)."""

import argparse
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import bench_history
    import bench_pairs
finally:
    sys.path.remove(str(TOOLS))


def record(monkeypatch, run_s, seed=20020206):
    """A bench_pairs record of operator_algebra whose run_s pairs read (parent, change) = run_s[i]."""
    monkeypatch.setattr(bench_pairs, "commit", lambda root: None)
    args = argparse.Namespace(fresh=False, workload="operator_algebra", seed=seed, cpu_set={0})
    runs = [{side: {"metrics": {"run_s": {"value": pair[j], "unit": "s"}}, "env": "env"}
             for j, side in enumerate(("parent", "change"))} for pair in run_s]
    return bench_pairs.bench_record(args, {"parent": Path("p"), "change": Path("c")}, runs)


def test_chain_of_two_records_in_label_order(tmp_path, monkeypatch, capsys):
    # pr10 sorts after pr9 although "pr10" < "pr9" as text
    (tmp_path / "BENCH_pr10.json").write_text(json.dumps([record(monkeypatch, [(1.0, 0.75), (1.0, 0.75)])]))
    (tmp_path / "BENCH_pr9.json").write_text(json.dumps([record(monkeypatch, [(2.0, 1.0), (3.0, 1.5), (2.5, 2.6)])]))
    assert bench_history.main([str(tmp_path / "BENCH_pr10.json"), str(tmp_path / "BENCH_pr9.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "operator_algebra run_s (s)",
        "  pr9          seed=20020206 pairs=3  2.5 [2, 3] -> 1.5  -40.0%  change won 2/3",
        "  pr10         seed=20020206 pairs=2  1 [1, 1] -> 0.75  -25.0%  change won 2/2",
        "  net at seed=20020206: -55.0%",
    ]


def test_seeds_compound_apart(tmp_path, monkeypatch):
    records = [record(monkeypatch, [(1.0, 0.5)]), record(monkeypatch, [(1.0, 1.1)], seed=6050)]
    (tmp_path / "BENCH_a.json").write_text(json.dumps(records))
    lines = bench_history.history_lines([tmp_path / "BENCH_a.json"])
    assert lines[-2:] == ["  net at seed=20020206: -50.0%", "  net at seed=6050: +10.0%"]
