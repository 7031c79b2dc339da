"""Cross-workload checks, and the reference hashes the benchmark compares against.

    python3 perfbench/consistency.py --seed 7              # check one seed
    python3 perfbench/consistency.py --seed 0 1 --record   # check, then store hashes
    python3 perfbench/consistency.py --default-grid        # the paper-size grid

For any seed, at the benchmark's grid size:
  - grid (--jobs nproc) and grid-serial (--jobs 1) write byte-identical
    output directories;
  - for each (sequence seed, w), `learn`'s fragments equal the trial-12
    library of every grid dyad with that sequence and w.

--record stores the sha256 of every output file of the checked seeds in
reference.json; run.py then requires those exact bytes for those seeds.
--default-grid runs `simulate` with all its defaults (49 sequences, 882
dyads, master seed 0) and compares every file's sha256, traces.json included,
with the stored one (or stores it, with --record). It takes minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
from common import (LEARN_SEQUENCES, N_SEQUENCES, REFERENCE, W_VALUES, WORK, cpu_count,
                    exit_problems, grid_args, load_reference, run_cli, sha256_file, source_present)

DEFAULT_GRID_SEQUENCES = 49


def hashes(paths) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(paths)}


def check_seed(seed: int, work: Path, reference: dict) -> tuple[list[str], dict, dict]:
    """Run grid, grid-serial and learn for one seed; return problems and file hashes."""
    grid_ref = reference.get("grid", {}).get(str(seed))
    learn_ref = reference.get("learn", {}).get(str(seed), {})
    dirs = {}
    problems = []
    for name, jobs in (("grid", cpu_count()), ("grid-serial", 1)):
        dirs[name] = work / name
        run = run_cli(grid_args(seed, dirs[name], jobs), work / "log")
        problems += exit_problems(run)
        problems += [f"{name}: {p}" for p in
                     checks.check_grid_dir(dirs[name], N_SEQUENCES, grid_ref)]
    problems += [f"grid vs grid-serial: {p}" for p in
                 checks.compare_dirs(dirs["grid"], dirs["grid-serial"])]

    sequences = work / "sequences.json"
    problems += exit_problems(run_cli(["gen-seq", "--seed", str(seed), "--count",
                                       str(LEARN_SEQUENCES), "--out", str(sequences)],
                                      work / "log"))
    seeds = [int(s["seed"]) for s in checks.load_json(sequences)["sequences"]]
    traces = checks.load_json(dirs["grid"] / "traces.json")
    trace_seeds = sorted({int(t["sequence"]["seed"]) for t in traces["traces"]})
    if sorted(seeds[:N_SEQUENCES]) != trace_seeds:
        problems.append(f"gen-seq sequences {seeds} do not start with the grid's {trace_seeds}")
    payloads, learn_files = {}, []
    for w in W_VALUES:
        out = work / f"learn_w{w}.json"
        problems += exit_problems(run_cli(["learn", "--sequences", str(sequences), "--w", w,
                                           "--out", str(out)], work / "log"))
        problems += checks.check_learn_file(out, w, seeds, learn_ref.get(out.name))
        payloads[w] = checks.load_json(out)
        learn_files.append(out)
    problems += [f"learn vs grid: {p}" for p in checks.compare_learn_to_grid(payloads, traces)]
    return problems, hashes(dirs["grid"].iterdir()), hashes(learn_files)


def check_default_grid(work: Path, reference: dict) -> tuple[list[str], dict]:
    out = work / "default"
    run = run_cli(["simulate", "--master-seed", "0", "--jobs", str(cpu_count()),
                   "--out-dir", str(out)], work / "log")
    problems = exit_problems(run)
    stored = reference.get("default_grid", {}).get("files")
    problems += checks.check_grid_dir(out, DEFAULT_GRID_SEQUENCES, stored)
    print(f"default grid: {run.wall_s:.1f} s wall, {run.maxrss_mb:.0f} MB peak RSS, "
          f"traces.json {(out / 'traces.json').stat().st_size} bytes")
    return problems, hashes(out.iterdir())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, nargs="*", default=[])
    parser.add_argument("--default-grid", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="store the hashes of the checked outputs in reference.json")
    args = parser.parse_args(argv)
    if not source_present():
        print("error: no towertalk sources in this checkout", file=sys.stderr)
        return 2
    reference = load_reference()
    failed = False
    work = WORK / "consistency"
    for seed in args.seed:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        problems, grid_hashes, learn_hashes = check_seed(seed, work, {} if args.record else reference)
        print(f"seed {seed}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
        if args.record and not problems:
            reference.setdefault("grid", {})[str(seed)] = grid_hashes
            reference.setdefault("learn", {})[str(seed)] = learn_hashes
    if args.default_grid:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        problems, files = check_default_grid(work, {} if args.record else reference)
        print(f"default grid: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
        if args.record and not problems:
            reference["default_grid"] = {"command": "towertalk simulate --master-seed 0",
                                         "files": files}
    shutil.rmtree(work, ignore_errors=True)
    if args.record and not failed:
        reference["n_sequences"] = [N_SEQUENCES, LEARN_SEQUENCES]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
