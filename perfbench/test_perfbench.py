"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

They run a one-dyad grid and a one-sequence `learn` through the real CLI, so
they take a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

import checks
import run as bench
from common import ROOT, Run, exit_problems, grid_args, run_cli, run_python, sha256_file

TINY = {"w_values": ("1.5",), "beta_values": ("0.3",), "iterations": 1}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_grid(out, seed=5, jobs=1, script=None):
    args = grid_args(seed, out, jobs, n_sequences=1, **TINY)
    if script is None:
        return run_cli(args, out.parent / "log")
    return run_python([str(script), *args], out.parent / "log")


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid") / "out"
    assert tiny_grid(out).exit_code == 0
    return out


@pytest.fixture
def grid_copy(grid_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(grid_dir, copy)
    return copy


def check(out, reference=None):
    return checks.check_grid_dir(out, 1, reference, **TINY)


def test_real_grid_output_passes(grid_dir):
    reference = {p.name: sha256_file(p) for p in grid_dir.iterdir()}
    assert check(grid_dir, reference) == []


def test_tampered_csv_fails_the_reference(grid_dir, grid_copy):
    reference = {p.name: sha256_file(p) for p in grid_dir.iterdir()}
    target = next(grid_copy.glob("accuracy_efficiency_*.csv"))
    lines = target.read_text().split("\n")
    last_digit = lines[1][-1]
    lines[1] = lines[1][:-1] + ("1" if last_digit == "0" else "0")
    target.write_text("\n".join(lines))
    problems = check(grid_copy, reference)
    assert problems == [f"{target.name}: sha256 differs from the stored reference"]


def test_malformed_csv_fails_without_a_reference(grid_copy):
    target = next(grid_copy.glob("jsd_*.csv"))
    target.write_text("repetition_block,mean_pairwise_jsd\n1.0,1.5\n")
    problems = check(grid_copy)
    assert any("rows" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)


def test_missing_file_fails(grid_copy):
    target = next(grid_copy.glob("fragment_trajectory_*.csv"))
    target.unlink()
    assert check(grid_copy) == [f"missing {target.name}"]


def test_wrong_dyad_count_fails(grid_dir):
    assert any("dyads" in p for p in checks.check_grid_dir(grid_dir, 2, None, **TINY))


def test_learn_output_checked_against_sequences_and_reference(tmp_path):
    sequences = tmp_path / "sequences.json"
    assert run_cli(["gen-seq", "--seed", "5", "--count", "1", "--out", str(sequences)],
                   tmp_path / "log").exit_code == 0
    seeds = [s["seed"] for s in checks.load_json(sequences)["sequences"]]
    out = tmp_path / "learn.json"
    assert run_cli(["learn", "--sequences", str(sequences), "--w", "1.5", "--out", str(out)],
                   tmp_path / "log").exit_code == 0
    digest = sha256_file(out)
    assert checks.check_learn_file(out, "1.5", seeds, digest) == []
    assert checks.check_learn_file(out, "1.5", [s + 1 for s in seeds], None)
    out.write_text(out.read_text().replace('"w": 1.5', '"w": 1.50'))
    assert checks.check_learn_file(out, "1.5", seeds, digest) == [
        "learn.json: sha256 differs from the stored reference"]
    out.unlink()
    assert "does not parse" in checks.check_learn_file(out, "1.5", seeds, digest)[0]


def test_learn_to_grid_comparison_detects_a_changed_library(grid_dir):
    traces = checks.load_json(grid_dir / "traces.json")
    trace = traces["traces"][0]
    fragments = trace["trials"][-1]["library"]
    learned = {"1.5": {"runs": [{"sequence_seed": trace["sequence"]["seed"],
                                 "fragments": fragments}]}}
    assert checks.compare_learn_to_grid(learned, traces) == []
    learned["1.5"]["runs"][0]["fragments"] = fragments[:-1]
    assert len(checks.compare_learn_to_grid(learned, traces)) == 1


class FakeWorkload:
    """Samples whose checks failed must count as failed runs. Each sample
    advances a fake clock by one second, so the sample count is fixed."""

    name, jobs = "fake", 1

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def setup_once(self, index):
        return Run(("-m", "towertalk", "simulate"), 0, 0.1 + index / 100, 0.1, 20.0, "")

    def sample(self, index):
        self.now += 1.0
        problems = ["missing traces.json"] if index == 1 else []
        return bench.Sample(1.0 + index / 10, 1.0, 30.0, 100, 9, "same", problems)


@pytest.mark.parametrize("deadline, samples, failed", [(0.0, 1, 0), (2.0, 2, 1), (2.5, 2, 1)])
def test_a_failed_check_counts_as_a_failed_run(monkeypatch, deadline, samples, failed):
    workload = FakeWorkload()
    monkeypatch.setattr(bench, "clock", workload.clock)
    result = bench.measure_end_to_end(workload, deadline)
    assert result["attempted"] == bench.SETUP_RUNS + samples
    assert result["failed"] == failed
    assert result["problems"] == ["missing traces.json"] * failed


def test_nonzero_exit_is_a_problem():
    assert exit_problems(Run(("-m", "towertalk", "learn"), 2, 0.1, 0.1, 20.0, "bad w")) == [
        "`-m towertalk learn ...` exited 2: bad w"]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in spec["workloads"]] == list(bench.WORKLOADS)
    for metric in spec["per_layer"]:
        assert bench.layer_unit(metric["name"]) == metric["unit"], metric["name"]


def test_traced_run_reports_every_layer_metric_and_keeps_outputs(tmp_path, grid_dir):
    out = tmp_path / "traced"
    run = tiny_grid(out, script=ROOT / "perfbench" / "layers.py")
    assert run.exit_code == 0, run.stderr
    assert checks.compare_dirs(out, grid_dir) == []
    printed = json.loads((tmp_path / "log" / "stdout.txt").read_text().splitlines()[-1])
    assert printed["missing"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured_outside = {"simulation.pool_busy_frac", "trace_overhead_frac"}
    assert set(printed["figures"]) | measured_outside == {m["name"] for m in spec["per_layer"]}
    figures = printed["figures"]
    assert figures["library_learning.learner_calls"] == 12
    assert figures["pragmatics.choose_calls"] == 12
    assert figures["library_learning.trajectory_repeats"] == 1.0
    assert figures["simulation.jsd_pairs"] == 0
