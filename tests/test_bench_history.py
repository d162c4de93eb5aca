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


def record(monkeypatch, run_s, seed=20020206, cpus=frozenset({0})):
    """A bench_pairs record of operator_algebra on `cpus` whose run_s pairs read (parent, change) = run_s[i]."""
    monkeypatch.setattr(bench_pairs, "commit", lambda root: None)
    args = argparse.Namespace(fresh=False, workload="operator_algebra", seed=seed, cpu_set=set(cpus))
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
        "  pr9          seed=20020206 cpus=0 pairs=3  2.5 [2, 3] -> 1.5  -40.0%  change won 2/3",
        "  pr10         seed=20020206 cpus=0 pairs=2  1 [1, 1] -> 0.75  -25.0%  change won 2/2",
    ]


def test_each_record_stands_alone_with_its_seed_and_cpus(tmp_path, monkeypatch):
    # an A/A record, a one-CPU and a two-CPU run: no move is compounded
    (tmp_path / "BENCH_aa.json").write_text(json.dumps([record(monkeypatch, [(1.0, 1.1)], cpus={0, 1})]))
    (tmp_path / "BENCH_pr1.json").write_text(json.dumps([record(monkeypatch, [(1.0, 0.5)], seed=6050),
                                                         record(monkeypatch, [(1.0, 0.8)], cpus={0, 1})]))
    lines = bench_history.history_lines([tmp_path / "BENCH_pr1.json", tmp_path / "BENCH_aa.json"])
    assert lines == [
        "operator_algebra run_s (s)",
        "  aa           seed=20020206 cpus=0,1 pairs=1  1 [1, 1] -> 1.1  +10.0%  change won 0/1",
        "  pr1          seed=6050 cpus=0 pairs=1  1 [1, 1] -> 0.5  -50.0%  change won 1/1",
        "  pr1          seed=20020206 cpus=0,1 pairs=1  1 [1, 1] -> 0.8  -20.0%  change won 1/1",
    ]
