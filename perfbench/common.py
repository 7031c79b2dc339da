"""Shared pieces of the benchmark: the grid it runs, and running the CLI.

Every measured command runs in a fresh interpreter, so no in-process cache
(such as the learner's MDL cache) carries over from one run to the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The paper's grid (3 w x 3 beta x 2 iterations), over fewer sequences than the
# 49 of the paper so that one run of the slowest workload fits several times
# into a measurement window.
W_VALUES = ("1.5", "3.2", "9.6")
BETA_VALUES = ("0", "0.3", "0.8")
ITERATIONS = 2
N_SEQUENCES = 3
# `learn` is much cheaper per sequence, so it takes the grid's sequences plus
# the next ones `gen-seq` draws from the same seed: more sequences per run
# make its figures vary less from seed to seed.
LEARN_SEQUENCES = 9
TRIALS_PER_DYAD = 12

COMMAND_TIMEOUT_S = 170.0


def grid_csv_names(w_values=W_VALUES, beta_values=BETA_VALUES) -> list[str]:
    """The figure CSVs `simulate` writes, one set of four per (w, beta) cell."""
    names = []
    for w in w_values:
        for beta in beta_values:
            tag = f"w{float(w):g}_beta{float(beta):g}"
            names += [f"fragment_trajectory_{tag}.csv",
                      f"abstraction_proportions_{tag}.csv",
                      f"accuracy_efficiency_{tag}.csv",
                      f"jsd_{tag}.csv"]
    return sorted(names)


def grid_args(seed: int, out_dir: Path, jobs: int, n_sequences: int = N_SEQUENCES,
              w_values=W_VALUES, beta_values=BETA_VALUES,
              iterations: int = ITERATIONS) -> list[str]:
    return ["simulate", "--w", *w_values, "--beta", *beta_values,
            "--n-sequences", str(n_sequences), "--iterations", str(iterations),
            "--master-seed", str(seed), "--jobs", str(jobs), "--out-dir", str(out_dir)]


def cpu_count() -> int:
    """What `nproc` prints: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def source_present() -> bool:
    return (SRC / "towertalk" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_reference() -> dict:
    """Stored sha256 of every output file, per seed (written by consistency.py --record)."""
    if not REFERENCE.exists():
        return {}
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    sizes = [N_SEQUENCES, LEARN_SEQUENCES]
    if reference.get("n_sequences", sizes) != sizes:
        raise SystemExit("reference.json was recorded at another grid size; record it again")
    return reference


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass(frozen=True)
class Run:
    """One finished child process, measured from outside."""

    argv: tuple[str, ...]
    exit_code: int
    wall_s: float
    cpu_s: float        # user + system of the child and every child it reaped
    maxrss_mb: float    # largest resident set of the child or any reaped child
    stderr: str


def run_python(argv: list[str], log_dir: Path) -> Run:
    """Run `python3 <argv>` in a new session and wait for it with wait4.

    wait4 gives the rusage of the child including the pool workers it
    reaped, which the parent's own getrusage could not attribute to one run.
    A child still running after COMMAND_TIMEOUT_S is killed with its group.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    full = [sys.executable, *argv]
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(full, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        argv=tuple(argv),
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stderr=(log_dir / "stderr.txt").read_text(errors="replace")[-2000:],
    )


def exit_problems(run: Run) -> list[str]:
    if run.exit_code == 0:
        return []
    return [f"`{' '.join(run.argv[:3])} ...` exited {run.exit_code}: {run.stderr.strip()}"]


def run_cli(args: list[str], log_dir: Path) -> Run:
    return run_python(["-m", "towertalk", *args], log_dir)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
