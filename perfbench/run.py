"""End-to-end and per-layer benchmark of the towertalk CLI.

    python3 perfbench/run.py --workload grid-serial --seed 0 --seconds 55 --trace 0

Workloads (the seed is the CLI's --master-seed; the CLI generates the
sequences from it):

  grid-serial  `simulate` over the paper's 3 w x 3 beta x 2 iterations grid at
               --jobs 1: every (sequence, w) library is learned once per
               beta x iteration (6 times), and traces.json is the largest
               output, all in one process (the in-process path of
               run_experiment).
  learn        `learn` once for each w, over the grid's sequences and the next
               six that gen-seq draws from the same seed. Every (sequence, w)
               trajectory is learned once, with no pool and a small output, so
               savings from skipping repeated trajectories or from shrinking
               traces should not show here.

With --trace 0 each measured command runs in a fresh interpreter and is timed
from outside. The zero-work form of the command (`simulate --n-sequences 0`,
`learn` on an empty sequence file) is timed several times for setup_s, then
the command is repeated while another repeat fits into --seconds, counted from
the start, and the run reports medians.

With --trace 1 the run measures the layers instead, whatever the workload:
it runs an untraced grid-serial command, the same command traced in-process by
layers.py, and the same grid at --jobs nproc through the process pool (for the
pool's busy fraction), and reports the traced run's figures and its overhead.
At the benchmark's --seconds one or two such rounds fit, so the layer timings
and the overhead are single-round figures or the mean of two.

Every output is checked (see checks.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from common import (BETA_VALUES, ITERATIONS, LEARN_SEQUENCES, N_SEQUENCES, ROOT, W_VALUES,
                    WORK, cpu_count, exit_problems, grid_args, load_reference, run_cli, run_python,
                    source_present, tree_bytes)

WORKLOADS = ("grid-serial", "learn")
SETUP_RUNS = 11

END_TO_END_UNITS = {
    "trajectories_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "output_bytes": "bytes",
}

clock = time.perf_counter


@dataclass
class Sample:
    """One measured command (or, for learn, the three per-w commands)."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    output_bytes: int
    trajectories: int
    digest: str
    problems: list[str] = field(default_factory=list)


def digest_of(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.is_file() else b"")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads: setup command, inputs, one measured sample

class Grid:
    name = "grid-serial"
    jobs = 1

    def __init__(self, seed: int, work: Path, reference: dict):
        self.seed, self.work = seed, work
        self.reference = reference.get("grid", {}).get(str(seed))

    def setup_once(self, index: int):
        out = self.work / f"setup{index}"
        run = run_cli(grid_args(self.seed, out, self.jobs, n_sequences=0), self.work / "log")
        shutil.rmtree(out, ignore_errors=True)
        return run

    def sample(self, index: int) -> Sample:
        out = self.work / f"out{index}"
        run = run_cli(grid_args(self.seed, out, self.jobs), self.work / "log")
        return grid_sample(run, out, self.reference)


def grid_sample(run, out: Path, reference: dict | None) -> Sample:
    problems = exit_problems(run) + checks.check_grid_dir(out, N_SEQUENCES, reference)
    files = list(out.iterdir()) if out.is_dir() else []
    sample = Sample(run.wall_s, run.cpu_s, run.maxrss_mb, tree_bytes(out) if files else 0,
                    N_SEQUENCES * len(W_VALUES), digest_of(files), problems)
    shutil.rmtree(out, ignore_errors=True)
    return sample


class Learn:
    name = "learn"
    jobs = 1

    def __init__(self, seed: int, work: Path, reference: dict):
        self.seed, self.work = seed, work
        self.reference = reference.get("learn", {}).get(str(seed), {})
        self.sequences = work / "sequences.json"
        self.empty = work / "empty.json"
        self.empty.write_text(json.dumps({"sequences": []}), encoding="utf-8")
        run = run_cli(["gen-seq", "--seed", str(seed), "--count", str(LEARN_SEQUENCES),
                       "--out", str(self.sequences)], work / "log")
        if run.exit_code != 0:
            raise RuntimeError(f"gen-seq failed: {run.stderr}")
        self.sequence_seeds = [int(s["seed"]) for s in checks.load_json(self.sequences)["sequences"]]

    def setup_once(self, index: int):
        out = self.work / f"setup{index}.json"
        run = run_cli(["learn", "--sequences", str(self.empty), "--w", W_VALUES[0],
                       "--out", str(out)], self.work / "log")
        out.unlink(missing_ok=True)
        return run

    def sample(self, index: int) -> Sample:
        runs, problems, outs = [], [], []
        for w in W_VALUES:
            out = self.work / f"learn_w{w}.json"
            run = run_cli(["learn", "--sequences", str(self.sequences), "--w", w,
                           "--out", str(out)], self.work / "log")
            runs.append(run)
            outs.append(out)
            problems += exit_problems(run) + checks.check_learn_file(
                out, w, self.sequence_seeds, self.reference.get(out.name))
        sample = Sample(sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs),
                        max(r.maxrss_mb for r in runs),
                        sum(tree_bytes(o) for o in outs if o.exists()),
                        len(self.sequence_seeds) * len(W_VALUES),
                        digest_of([o for o in outs if o.exists()]), problems)
        for out in outs:
            out.unlink(missing_ok=True)
        return sample


def make_workload(name: str, seed: int, work: Path, reference: dict):
    if name == "learn":
        return Learn(seed, work, reference)
    return Grid(seed, work, reference)


# ---------------------------------------------------------------------------
# Measurement

def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def repeat_for(deadline: float, measure) -> list:
    """Call measure(i) at least once, and again while a call as long as the
    mean so far would end by `deadline` (a `clock()` reading)."""
    samples = []
    start = clock()
    while True:
        samples.append(measure(len(samples)))
        now = clock()
        if now + (now - start) / len(samples) > deadline:
            return samples


def mark_nondeterminism(samples: list[Sample]) -> None:
    """Every repeat of one command and seed must write the same bytes."""
    for sample in samples[1:]:
        if sample.digest != samples[0].digest:
            sample.problems.append("output differs from the first repeat of the same seed")


def measure_end_to_end(workload, deadline: float) -> dict:
    setups = [workload.setup_once(i) for i in range(SETUP_RUNS)]
    samples = repeat_for(deadline, workload.sample)
    mark_nondeterminism(samples)
    problems = [p for run in setups for p in exit_problems(run)]
    problems += [p for s in samples for p in s.problems]
    failed = sum(run.exit_code != 0 for run in setups) + sum(bool(s.problems) for s in samples)
    throughput = [s.trajectories / s.wall_s for s in samples]
    setup_walls = [run.wall_s for run in setups]
    metrics = {
        "trajectories_per_s": statistics.median(throughput),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(s.maxrss_mb for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "output_bytes": statistics.median(s.output_bytes for s in samples),
    }
    return {
        "attempted": len(setups) + len(samples),
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
        "context": {
            "workload": workload.name,
            "jobs": workload.jobs,
            "repeats": len(samples),
            # The zero-work command's peak RSS: interpreter and imports. The
            # rest of peak_rss_mb is the learner's state and, on the grid, traces.
            "setup_peak_rss_mb": statistics.median(run.maxrss_mb for run in setups),
            "quartiles": {
                "trajectories_per_s": quartiles(throughput),
                "wall_s": quartiles([s.wall_s for s in samples]),
                "setup_s": quartiles(setup_walls),
            },
        },
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_repeats"):
        return "ratio"
    return "count"


def measure_layers(seed: int, work: Path, reference: dict, deadline: float) -> dict:
    """Rounds of (untraced grid-serial, traced grid-serial, untraced pooled grid)."""
    jobs = cpu_count()
    grid_reference = reference.get("grid", {}).get(str(seed))
    serial, traced, pooled, figures = [], [], [], []

    def one_round(i: int) -> None:
        out = work / f"serial{i}"
        serial.append(grid_sample(run_cli(grid_args(seed, out, 1), work / "log"), out,
                                  grid_reference))
        out = work / f"traced{i}"
        run = run_python([str(Path(__file__).resolve().parent / "layers.py"),
                          *grid_args(seed, out, 1)], work / "log")
        traced.append(grid_sample(run, out, grid_reference))
        try:
            last = (work / "log" / "stdout.txt").read_text().strip().splitlines()[-1]
            figures.append(json.loads(last)["figures"])
        except (IndexError, ValueError, KeyError) as exc:
            traced[-1].problems.append(f"traced run printed no figures ({exc})")
        out = work / f"pooled{i}"
        pooled.append(grid_sample(run_cli(grid_args(seed, out, jobs), work / "log"), out,
                                  grid_reference))

    repeat_for(deadline, one_round)
    samples = serial + traced + pooled
    mark_nondeterminism(samples)
    problems = [p for s in samples for p in s.problems]
    values = {}
    for name in (figures[0] if figures else {}):
        values[name] = statistics.median(f[name] for f in figures)
    values["simulation.pool_busy_frac"] = statistics.median(
        s.cpu_s / (jobs * s.wall_s) for s in pooled)
    values["trace_overhead_frac"] = (statistics.median(s.wall_s for s in traced)
                                     / statistics.median(s.wall_s for s in serial) - 1.0)
    return {
        "attempted": len(samples),
        "failed": sum(bool(s.problems) for s in samples),
        "problems": problems,
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in values.items()},
        "context": {
            "workload": "layers (grid-serial traced in-process)",
            "jobs": 1,
            "pool_jobs": jobs,
            "repeats": len(traced),
            "quartiles": {
                "untraced_wall_s": quartiles([s.wall_s for s in serial]),
                "traced_wall_s": quartiles([s.wall_s for s in traced]),
                "grid_wall_s": quartiles([s.wall_s for s in pooled]),
            },
        },
    }


# ---------------------------------------------------------------------------
# Reporting

def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_summary(result: dict, seed: int) -> None:
    ctx = result["context"]
    if ctx["workload"] == "learn":
        shape = f"{LEARN_SEQUENCES} sequences x {len(W_VALUES)} w"
    else:
        shape = (f"{N_SEQUENCES} sequences x {len(W_VALUES)} w x {len(BETA_VALUES)} beta x "
                 f"{ITERATIONS} iterations")
    print(f"{ctx['workload']}: seed {seed}, {shape}, jobs {ctx['jobs']}, {ctx['repeats']} repeats")
    rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    if "trajectories_per_s" in rows and ctx["workload"] != "learn":
        dyads_per_trajectory = len(BETA_VALUES) * ITERATIONS
        rows["dyads_per_s"] = (rows["trajectories_per_s"][0] * dyads_per_trajectory, "1/s")
    rows["failed_frac"] = (result["failed"] / result["attempted"], "fraction")
    for name, (value, unit) in rows.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def run_one(workload: str, seed: int, deadline: float, trace: bool, reference: dict) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = measure_layers(seed, work, reference, deadline)
        else:
            result = measure_end_to_end(make_workload(workload, seed, work, reference), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["context"].update(seed=seed, git_sha=git_sha(),
                             python=platform.python_version(), nproc=cpu_count())
    print_summary(result, seed)
    print("context " + json.dumps(result["context"], sort_keys=True))
    return result


def main(argv: list[str] | None = None) -> int:
    deadline = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no towertalk sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline += args.seconds
    result = run_one(args.workload, args.seed, deadline, bool(args.trace), load_reference())
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
