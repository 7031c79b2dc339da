"""Output checks for the benchmark's runs.

Each check returns a list of problems; an empty list means the output is
correct. The checks read only the files the CLI wrote, so they hold for any
seed. Seeds with stored reference hashes are checked byte for byte as well.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from common import (BETA_VALUES, ITERATIONS, TRIALS_PER_DYAD, W_VALUES, grid_csv_names,
                    sha256_file)

FRAGMENT_LEVELS = ["sub_tower", "tower", "scene", "other"]
STEP_LEVELS = ["block", *FRAGMENT_LEVELS]
REPETITION_BLOCKS = 4

# CSV prefix -> (header, number of rows, columns that must lie in [0, 1]).
_CSV_SHAPES = {
    "fragment_trajectory_": (["trial", *FRAGMENT_LEVELS], TRIALS_PER_DYAD + 1,
                             FRAGMENT_LEVELS),
    "abstraction_proportions_": (["repetition_block", *STEP_LEVELS], REPETITION_BLOCKS,
                                 STEP_LEVELS),
    "accuracy_efficiency_": (["repetition_block", "mean_f1", "mean_tokens_sent", "n_dyads"],
                             REPETITION_BLOCKS, ["mean_f1"]),
    "jsd_": (["repetition_block", "mean_pairwise_jsd"], REPETITION_BLOCKS,
             ["mean_pairwise_jsd"]),
}


def _unit_interval(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _check_csv(path: Path) -> list[str]:
    header, n_rows, bounded = next(shape for prefix, shape in _CSV_SHAPES.items()
                                   if path.name.startswith(prefix))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            fields = reader.fieldnames
        values = [{k: float(v) for k, v in row.items()} for row in rows]
    except (OSError, UnicodeDecodeError, csv.Error, ValueError, TypeError) as exc:
        return [f"{path.name}: does not parse ({exc})"]
    problems = []
    if fields != header:
        problems.append(f"{path.name}: header {fields} != {header}")
    if len(values) != n_rows:
        problems.append(f"{path.name}: {len(values)} rows, expected {n_rows}")
    for row in values:
        if any(not _unit_interval(row.get(col, math.nan)) for col in bounded):
            problems.append(f"{path.name}: value outside [0, 1] in {row}")
            break
    return problems


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_grid_dir(out_dir: Path, n_sequences: int, reference: dict[str, str] | None = None,
                   w_values=W_VALUES, beta_values=BETA_VALUES,
                   iterations: int = ITERATIONS) -> list[str]:
    """Check a `simulate` output directory; `reference` maps file name to sha256."""
    csv_names = grid_csv_names(w_values, beta_values)
    expected = set(csv_names) | {"traces.json"}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = [f"missing {name}" for name in sorted(expected - present)]
    problems += [f"unexpected {name}" for name in sorted(present - expected)]
    if "traces.json" in present:
        problems += _check_traces(out_dir / "traces.json", n_sequences, w_values,
                                  beta_values, iterations)
    for name in csv_names:
        if name in present:
            problems += _check_csv(out_dir / name)
    for name, digest in (reference or {}).items():
        if name in present and sha256_file(out_dir / name) != digest:
            problems.append(f"{name}: sha256 differs from the stored reference")
    return problems


def _check_traces(path: Path, n_sequences: int, w_values, beta_values,
                  iterations: int) -> list[str]:
    try:
        traces = load_json(path)["traces"]
        cells: dict[tuple[float, float], int] = {}
        trials = 0
        bad_f1 = 0
        for trace in traces:
            key = (float(trace["w"]), float(trace["beta"]))
            cells[key] = cells.get(key, 0) + 1
            trials += len(trace["trials"])
            bad_f1 += sum(not _unit_interval(float(t["f1"])) for t in trace["trials"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"traces.json: does not parse ({exc})"]
    dyads = len(w_values) * len(beta_values) * n_sequences * iterations
    problems = []
    if len(traces) != dyads:
        problems.append(f"traces.json: {len(traces)} dyads, expected {dyads}")
    if trials != dyads * TRIALS_PER_DYAD:
        problems.append(f"traces.json: {trials} trials, expected {dyads * TRIALS_PER_DYAD}")
    expected_cells = {(float(w), float(b)): n_sequences * iterations
                      for w in w_values for b in beta_values}
    if cells != expected_cells:
        problems.append(f"traces.json: dyads per (w, beta) cell {cells}")
    if bad_f1:
        problems.append(f"traces.json: {bad_f1} trials with F1 outside [0, 1]")
    return problems


def check_learn_file(path: Path, w: str, sequence_seeds: list[int],
                     reference: str | None = None) -> list[str]:
    """Check one `learn` output against the sequence file it was given."""
    try:
        payload = load_json(path)
        payload_w = float(payload["w"])
        runs = payload["runs"]
        seeds = [int(run["sequence_seed"]) for run in runs]
        bad_trials = sum(not 1 <= int(f["adopted_trial"]) <= TRIALS_PER_DYAD
                         for run in runs for f in run["fragments"])
        bad_rows = sum(len(run["level_proportions"]) != TRIALS_PER_DYAD + 1
                       or any(not _unit_interval(float(row[level]))
                              for row in run["level_proportions"] for level in FRAGMENT_LEVELS)
                       for run in runs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: does not parse ({exc})"]
    problems = []
    if payload_w != float(w):
        problems.append(f"{path.name}: w {payload_w} != {w}")
    if seeds != sequence_seeds:
        problems.append(f"{path.name}: sequence seeds {seeds} != {sequence_seeds}")
    if bad_trials:
        problems.append(f"{path.name}: {bad_trials} fragments adopted outside trials 1..12")
    if bad_rows:
        problems.append(f"{path.name}: {bad_rows} runs with malformed level proportions")
    if reference is not None and sha256_file(path) != reference:
        problems.append(f"{path.name}: sha256 differs from the stored reference")
    return problems


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [f"{name} differs" for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]


def compare_learn_to_grid(learn_payloads: dict[str, dict], traces_payload: dict) -> list[str]:
    """`learn`'s fragments for each (sequence seed, w) equal the trial-12
    library of every grid dyad with that sequence and w."""
    learned = {}
    for w, payload in learn_payloads.items():
        for run in payload["runs"]:
            learned[(int(run["sequence_seed"]), float(w))] = run["fragments"]
    problems = []
    for trace in traces_payload["traces"]:
        key = (int(trace["sequence"]["seed"]), float(trace["w"]))
        last = trace["trials"][-1]
        if key not in learned:
            problems.append(f"no learn run for sequence {key[0]} at w {key[1]}")
        elif last["trial"] != TRIALS_PER_DYAD or last["library"] != learned[key]:
            problems.append(f"dyad {trace['dyad_seed']} (sequence {key[0]}, w {key[1]}, "
                            f"beta {trace['beta']}): trial-12 library differs from learn")
    if not traces_payload["traces"]:
        problems.append("no dyads to compare")
    return problems
