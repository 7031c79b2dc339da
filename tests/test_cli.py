import contextlib
import csv
import io
import itertools
import json
import os
import random
import resource
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towertalk import cli, library_learning, simulation, traces
from towertalk.cli import main
from towertalk.library_learning import BODY_TOKEN_SUM
from towertalk.pragmatics import ALPHA
from towertalk.simulation import LearningConfig
from towertalk.blockworld import (
    HORIZONTAL,
    VERTICAL,
    BlockPlacement,
    compose_scene,
    f1_score,
    stimulus_towers,
)
from towertalk.traces import narrate, sequence_from_dict

from oracles import buildable_stimuli, save_scene, save_stimuli, trace_to_dict


def run_cli(*args):
    return main(list(args))


def test_gen_seq_writes_count_and_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli("gen-seq", "--seed", "3", "--count", "5", "--out", str(first)) == 0
    assert run_cli("gen-seq", "--seed", "3", "--count", "5", "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    assert len(data["sequences"]) == 5
    for entry in data["sequences"]:
        assert len(entry["trials"]) == 12


def test_gen_seq_zero_count(tmp_path):
    out = tmp_path / "empty.json"
    assert run_cli("gen-seq", "--seed", "0", "--count", "0", "--out", str(out)) == 0
    assert json.loads(out.read_text())["sequences"] == []


def test_learn_outputs_trajectories(tmp_path):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "3", "--out", str(sequences))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["w"] == 1.5
    assert len(data["runs"]) == 3
    for run in data["runs"]:
        assert len(run["level_proportions"]) == 13
        assert run["fragments"]


def test_learn_huge_w_adopts_nothing(tmp_path):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "2", "--out", str(sequences))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1000000",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert all(run["fragments"] == [] for run in data["runs"])


def test_learn_deterministic_bytes(tmp_path):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "2", "--count", "2", "--out", str(sequences))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("learn", "--sequences", str(sequences), "--w", "3.2", "--out", str(a))
    run_cli("learn", "--sequences", str(sequences), "--w", "3.2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_learn_level_proportions_run_through_last_trial(tmp_path):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "1", "--out", str(sequences))
    data = json.loads(sequences.read_text())
    data["sequences"][0]["trials"] *= 2  # the same twelve trials, twice over
    sequences.write_text(json.dumps(data))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "9.6",
                   "--out", str(out)) == 0
    run = json.loads(out.read_text())["runs"][0]
    adopted = [f["adopted_trial"] for f in run["fragments"]]
    assert max(adopted) > 12
    rows = run["level_proportions"]
    assert [row["trial"] for row in rows] == list(range(25))
    for trial in (12, 24):
        fragments = [f for f in run["fragments"] if f["adopted_trial"] <= trial]
        for level in ("sub_tower", "tower", "scene", "other"):
            share = sum(f["level"] == level for f in fragments) / len(fragments)
            assert rows[trial][level] == pytest.approx(share)


def test_simulate_smoke_and_outputs(tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--w", "1.5", "--beta", "0.3", "--n-sequences", "1",
                   "--iterations", "1", "--master-seed", "0",
                   "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert "traces.json" in names
    assert "abstraction_proportions_w1.5_beta0.3.csv" in names
    assert "fragment_trajectory_w1.5_beta0.3.csv" in names
    assert "accuracy_efficiency_w1.5_beta0.3.csv" in names
    assert "jsd_w1.5_beta0.3.csv" in names
    traces = json.loads((out_dir / "traces.json").read_text())
    assert len(traces["traces"]) == 1
    assert len(traces["traces"][0]["trials"]) == 12


@pytest.mark.parametrize("w, beta, n_sequences, iterations, n_traces", [
    (["1.5"], ["0.3"], 0, 1, 0),
    (["1.5"], ["0.3"], 1, 0, 0),
    (["1.5"], ["0.3"], 1, 1, 1),
    (["1.5", "3.2"], ["0", "0.8"], 1, 1, 4),
    (["1.5"], ["-0.0"], 1, 1, 1),
], ids=["no-sequences", "no-iterations", "one-trace", "two-by-two", "beta-negative-zero"])
def test_simulate_streams_the_whole_payload_encoding(tmp_path, monkeypatch, w, beta,
                                                     n_sequences, iterations, n_traces):
    traces = []
    run_experiment = simulation.run_experiment

    def recording(**kwargs):
        traces.extend(run_experiment(**kwargs))
        return traces
    monkeypatch.setattr(simulation, "run_experiment", recording)
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", *w, "--beta", *beta, "--n-sequences", str(n_sequences),
                   "--iterations", str(iterations), "--master-seed", "4",
                   "--out-dir", str(out_dir)) == 0
    assert len(traces) == n_traces
    payload = {"master_seed": 4, "alpha": ALPHA, "size_rule": BODY_TOKEN_SUM,
               "n_sequences": n_sequences, "iterations": iterations,
               "traces": [trace_to_dict(t) for t in traces]}
    # The file is written as the head, then each trace's own text: that equals
    # the whole payload's encoding only while "traces" sorts last.
    assert sorted(payload)[-1] == "traces"
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "traces.json").read_bytes() == expected.encode("utf-8")


SMALL_RUN = ("simulate", "--w", "1.5", "--beta", "0.3", "--n-sequences", "1",
             "--iterations", "1")
SMALL_RUN_FILES = 5  # traces.json and one cell's four CSVs


def _contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _fail_kth_call(monkeypatch, module, name, k, partial=None):
    """Make the k-th call of module.name raise OSError; `partial` runs first."""
    original = getattr(module, name)
    calls = itertools.count(1)

    def failing(*args):
        if next(calls) == k:
            if partial is not None:
                partial(original, *args)
            raise OSError(5, "injected failure")
        return original(*args)
    monkeypatch.setattr(module, name, failing)


def _write_first_piece(write_text, path, pieces):
    write_text(path, itertools.islice(pieces, 1))


@pytest.mark.parametrize("step, k", [*(("write", k) for k in range(1, SMALL_RUN_FILES + 1)),
                                     *(("rename", k) for k in range(1, SMALL_RUN_FILES + 1))],
                         ids=lambda value: str(value))
def test_simulate_failed_output_leaves_out_dir_as_it_was(tmp_path, monkeypatch, step, k):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # An earlier run's first CSV and traces.json, which sort first and last, and
    # a file that is not an output.
    (out_dir / "abstraction_proportions_w1.5_beta0.3.csv").write_text("earlier\n")
    (out_dir / "traces.json").write_text("{}\n")
    (out_dir / "notes.txt").write_text("kept\n")
    before = _contents(out_dir)
    if step == "write":
        # The failing write leaves a partly written temporary file behind it.
        _fail_kth_call(monkeypatch, cli, "_write_text", k, partial=_write_first_piece)
    else:
        _fail_kth_call(monkeypatch, os, "replace", k)
    assert run_cli(*SMALL_RUN, "--out-dir", str(out_dir)) == 3
    assert _contents(out_dir) == before


@pytest.mark.parametrize("step", ["write", "rename"])
@pytest.mark.parametrize("command", ["gen-seq", "learn"])
def test_failed_out_file_keeps_the_earlier_file(tmp_path, monkeypatch, command, step):
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    argv = {"gen-seq": ["gen-seq", "--seed", "2", "--count", "1"],
            "learn": ["learn", "--sequences", str(sequences), "--w", "1.5"]}[command]
    out = tmp_path / "out.json"
    out.write_text("earlier\n")
    before = _contents(tmp_path)
    if step == "write":
        _fail_kth_call(monkeypatch, cli, "_write_text", 1, partial=_write_first_piece)
    else:
        _fail_kth_call(monkeypatch, os, "replace", 1)
    assert run_cli(*argv, "--out", str(out)) == 3
    assert _contents(tmp_path) == before


def test_simulate_rejects_bad_beta(tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--beta", "2.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()


def test_simulate_rejects_bad_jobs(tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--jobs", "0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-seq", "--count", "-1"], "count: must be nonnegative"),
    (["simulate", "--n-sequences", "-1"], "n_sequences: must be nonnegative"),
    (["simulate", "--iterations", "-1"], "iterations: must be nonnegative"),
    # random.Random(-s) seeds as Random(s) does: a negative seed names another run.
    (["gen-seq", "--seed", "-5"], "seed: must be nonnegative"),
    (["simulate", "--master-seed", "-3"], "master_seed: must be nonnegative"),
], ids=["gen-seq-count", "simulate-n-sequences", "simulate-iterations", "gen-seq-seed",
        "simulate-master-seed"])
def test_a_negative_count_is_a_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    flag = "--out" if argv[0] == "gen-seq" else "--out-dir"
    assert run_cli(*argv, flag, str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("grid, named", [
    (["--w", "1.5", "1.5", "--beta", "0.3"], ["w=1.5 beta=0.3 and w=1.5 beta=0.3"]),
    (["--w", "1000000.1", "1000000.2", "--beta", "0.3"], ["w=1000000.1", "w=1000000.2"]),
    (["--w", "1.5", "--beta", "0", "-0"], ["beta=0.0", "beta=-0.0"]),
], ids=["repeated", "same-tag", "signed-zero"])
def test_simulate_rejects_cells_sharing_a_file_name(tmp_path, capsys, monkeypatch,
                                                    grid, named):
    def must_not_run(**kwargs):
        raise AssertionError("the experiment ran on a grid whose files collide")
    monkeypatch.setattr(simulation, "run_experiment", must_not_run)
    out_dir = tmp_path / "out"
    code = run_cli("simulate", *grid, "--n-sequences", "1", "--iterations", "1",
                   "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert all(value in err for value in named)


def test_render_stimulus(capsys):
    assert run_cli("render", "--stimulus", "A") == 0
    output = capsys.readouterr().out
    assert "|" in output and "=" in output


def test_render_all_stimuli(capsys):
    for tower_id in "ABC":
        assert run_cli("render", "--stimulus", tower_id) == 0
    assert run_cli("render", "--stimulus", "Z") == 2


def test_render_rejects_a_huge_stimulus_id_in_one_short_line(capsys):
    assert run_cli("render", "--stimulus", "A" * 50_000) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stimulus: unknown id "), captured.err[:300]
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300, captured.err[:300]


def test_render_scene_file(tmp_path, capsys):
    path = tmp_path / "scene.json"
    save_scene({BlockPlacement(1, 0, VERTICAL)}, str(path), 4, 3)
    assert run_cli("render", "--scene", str(path)) == 0
    out = capsys.readouterr().out
    assert ".|.." in out


def test_render_trace_trial(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
            "--iterations", "1", "--out-dir", str(out_dir))
    trace_file = out_dir / "traces.json"
    assert run_cli("render", "--trace", str(trace_file), "--trial", "1") == 0
    out = capsys.readouterr().out
    assert "F1=1.000" in out
    assert "final belief entropy" not in out
    # Without --trial, the whole dyad: twelve trials, then the final line.
    assert run_cli("render", "--trace", str(trace_file)) == 0
    out = capsys.readouterr().out
    assert out.count("F1=1.000") == 12
    assert out.endswith(" bits; library size: 0 fragments\n")


def test_render_trace_tells_the_dyad_a_rerun_plays(tmp_path, capsys):
    """`render --trace` narrates a recorded dyad as `narrate` tells the same dyad
    played again from the trace's sequence, dyad seed and config, and `--trial n`
    prints exactly trial n's lines of that narration."""
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1.5", "3.2", "--beta", "0.3", "0.8", "--n-sequences", "1",
                   "--iterations", "1", "--master-seed", "1", "--out-dir", str(out_dir)) == 0
    trace_file = out_dir / "traces.json"
    towers = stimulus_towers()
    for index, recorded in enumerate(json.loads(trace_file.read_text())["traces"]):
        sequence = sequence_from_dict(recorded["sequence"])
        lcfg = LearningConfig(w=recorded["w"])
        assert recorded["alpha"] == ALPHA
        rerun = simulation.run_dyad(
            sequence, lcfg.w, recorded["beta"], lcfg, random.Random(recorded["dyad_seed"]),
            library_learning.library_trajectory(sequence, lcfg.w, stimulus_towers()))
        capsys.readouterr()
        assert run_cli("render", "--trace", str(trace_file), "--trace-index", str(index)) == 0
        whole = capsys.readouterr().out
        assert whole == narrate(simulation.trace_to_dict(rerun), towers) + "\n", index
    assert index == 3
    # Each trial's lines run from its unindented head to the next one.
    lines = whole.splitlines(keepends=True)
    heads = [k for k, line in enumerate(lines) if not line.startswith(" ")]
    assert len(heads) == simulation.TRIALS_PER_SEQUENCE + 1
    assert sum(" + learned " in line for line in lines) > 0
    for number, (start, end) in enumerate(zip(heads, heads[1:]), start=1):
        assert run_cli("render", "--trace", str(trace_file), "--trace-index", "3",
                       "--trial", str(number)) == 0
        assert capsys.readouterr().out == "".join(lines[start:end]), number


def test_render_trace_prints_its_pinned_narration(tmp_path, capsys):
    """Each of the four traces of a small grid, told by `render --trace`, byte for
    byte as stored: the rerun test above compares the narrator with itself."""
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1.5", "3.2", "--beta", "0.3", "0.8", "--n-sequences", "1",
                   "--iterations", "1", "--master-seed", "1", "--out-dir", str(out_dir)) == 0
    capsys.readouterr()
    for index in range(4):
        assert run_cli("render", "--trace", str(out_dir / "traces.json"),
                       "--trace-index", str(index)) == 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "tests", "data", "render_trace_seed1.txt"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


def test_render_requires_a_source():
    assert run_cli("render") == 2


def test_render_refuses_more_than_one_source(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    save_scene(set(), str(scene), 4, 3)
    for sources in (["--scene", str(scene), "--trace", str(scene)],
                    ["--scene", str(scene), "--stimulus", "A"],
                    ["--stimulus", "A", "--trace", str(scene), "--trial", "1"]):
        assert run_cli("render", *sources) == 2, sources
        captured = capsys.readouterr()
        assert captured.out == "", sources
        named = [flag for flag in ("--scene", "--stimulus", "--trace") if flag in sources]
        assert captured.err.endswith(f", not {' and '.join(named)}\n"), sources


def test_render_refuses_trace_flags_without_a_trace(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    save_scene(set(), str(scene), 4, 3)
    for source in (["--stimulus", "A"], ["--scene", str(scene)]):
        for flags, named in ((["--trial", "3", "--trace-index", "7"], "--trial and --trace-index"),
                             (["--trial", "3"], "--trial"),
                             (["--trace-index", "0"], "--trace-index")):
            assert run_cli("render", *source, *flags) == 2, (source, flags)
            captured = capsys.readouterr()
            assert captured.out == "", (source, flags)
            assert captured.err == f"error: render: {named} given without --trace\n"


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "nope" / "deep" / "file.json"
    assert run_cli("gen-seq", "--seed", "0", "--count", "1", "--out", str(missing)) == 3
    assert run_cli("learn", "--sequences", str(missing), "--w", "1.0",
                   "--out", str(tmp_path / "x.json")) == 3


# Each command's compute, as (module, name): the name the command calls it by.
COMPUTE = {"gen-seq": (simulation, "generate_sequences"),
           "learn": (library_learning, "library_trajectory"),
           "simulate": (simulation, "run_experiment")}


@pytest.mark.parametrize("command", ["gen-seq", "learn", "simulate"])
def test_unwritable_destination_fails_before_compute(tmp_path, capsys, monkeypatch, command):
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    missing = str(tmp_path / "nodir" / "x.json")
    argv, destination = {
        "gen-seq": (["gen-seq", "--out", missing], missing),
        "learn": (["learn", "--sequences", str(sequences), "--w", "1.5", "--out", missing],
                  missing),
        "simulate": ([*SMALL_RUN, "--out-dir", str(blocker)], str(blocker)),
    }[command]

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed outputs that have nowhere to go")
    monkeypatch.setattr(*COMPUTE[command], must_not_run)
    before = _contents(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert _contents(tmp_path) == before
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and repr(destination) in err, err


def _tree(root):
    """Every path under `root`: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


@pytest.mark.parametrize("kind", ["directory", "symlink"])
@pytest.mark.parametrize("command", ["gen-seq", "learn", "simulate"])
def test_out_path_that_is_a_directory_fails_before_compute(tmp_path, capsys, monkeypatch,
                                                           command, kind):
    """An output path that is a directory exits 3 before any compute, names that
    path and leaves the directory as it was. A symlink to a directory is written
    like any file: the command replaces the link."""
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / ("traces.json" if command == "simulate" else "out.json")
    target = tmp_path / "target"
    target.mkdir()
    (target / "inside.txt").write_text("kept\n")
    if kind == "directory":
        path.mkdir()
        (path / "inside.txt").write_text("kept\n")
    else:
        path.symlink_to(target, target_is_directory=True)
    argv = {"gen-seq": ["gen-seq", "--count", "1", "--out", str(path)],
            "learn": ["learn", "--sequences", str(sequences), "--w", "1.5", "--out", str(path)],
            "simulate": [*SMALL_RUN, "--out-dir", str(out_dir)]}[command]
    if kind == "symlink":
        assert run_cli(*argv) == 0
        assert path.is_file() and not path.is_symlink()
        assert _tree(target) == {"inside.txt": b"kept\n"}
        return

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed outputs that have nowhere to go")
    for module, compute in COMPUTE.values():
        monkeypatch.setattr(module, compute, must_not_run)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert _tree(tmp_path) == before
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and repr(str(path)) in err, err
    assert ".old" not in err, err


@pytest.mark.parametrize("command", ["gen-seq", "learn"])
def test_empty_out_path_fails_before_compute(tmp_path, capsys, monkeypatch, command):
    """An empty --out exits 3 before any compute, names the empty path rather
    than a temporary file beside it, and leaves every file as it was."""
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    argv = {"gen-seq": ["gen-seq", "--count", "1", "--out", ""],
            "learn": ["learn", "--sequences", str(sequences), "--w", "1.5", "--out", ""]}[command]

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed outputs that have nowhere to go")
    for module, compute in COMPUTE.values():
        monkeypatch.setattr(module, compute, must_not_run)
    monkeypatch.chdir(tmp_path)  # where a temporary file beside "" would go
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert _tree(tmp_path) == before
    assert capsys.readouterr().err == "i/o error: [Errno 2] an empty path names no file: ''\n"


def test_simulate_and_learn_reject_nan(tmp_path):
    out_dir = tmp_path / "out"
    for flag in ("--w", "--beta"):
        code = run_cli("simulate", flag, "nan", "--n-sequences", "1",
                       "--iterations", "1", "--out-dir", str(out_dir))
        assert code == 2
        assert not out_dir.exists()
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "1", "--out", str(sequences))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "nan",
                   "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--beta", "2", "beta must lie in [0, 1]"),
    ("--w", "-1", "w must be finite and nonnegative"),
    ("--seed", "-1", "seed: must be nonnegative"),
    ("--dyad-seed", "-1", "dyad_seed: must be nonnegative"),
])
def test_watch_dyad_reports_bad_parameters_as_usage_errors(flag, value, message):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "watch_dyad.py"),
                           flag, value], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"watch_dyad.py: error: {message}")


def test_watch_dyad_prints_its_pinned_narration():
    """The narrated seed-1 dyad, drawings included, byte for byte as stored."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "watch_dyad.py"),
                           "--seed", "1", "--render"], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(root, "tests", "data", "watch_dyad_seed1_render.txt"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_watch_dyad_records_the_dyad_seed_it_plays(monkeypatch):
    """The trace that watch_dyad.py narrates names the --dyad-seed it was played from."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    narrated = []

    def recording(trace, *args, **kwargs):
        narrated.append(trace)
        return narrate(trace, *args, **kwargs)
    monkeypatch.setattr(traces, "narrate", recording)
    monkeypatch.setattr(sys, "argv", ["watch_dyad.py", "--seed", "1", "--dyad-seed", "5"])
    runpy.run_path(os.path.join(root, "scripts", "watch_dyad.py"), run_name="__main__")
    assert [trace["dyad_seed"] for trace in narrated] == [5]


# Run by a child `python -S`: one command, then the last line of stdout names its
# exit code and which of these modules it loaded.
_LOADS = (
    "import sys\n"
    "from towertalk import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, *sorted(set(sys.modules) & {'towertalk.simulation', 'towertalk.pragmatics',"
    " 'dataclasses', 'csv'}))\n")


def _child_loads(*argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", _LOADS, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", (argv, proc.stderr)
    return set(loaded)


def test_learn_and_render_load_no_dyad_code(tmp_path):
    """learn and each kind of render load neither the dyad code (simulation,
    pragmatics) nor dataclasses or csv. simulate, the control, loads the dyad code,
    and writes its tables without csv."""
    out_dir = tmp_path / "out"
    loaded = _child_loads(*SMALL_RUN, "--out-dir", str(out_dir))
    assert {"towertalk.simulation", "towertalk.pragmatics"} <= loaded
    assert "csv" not in loaded
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    scene = tmp_path / "scene.json"
    save_scene({BlockPlacement(0, 0, HORIZONTAL)}, str(scene), 4, 3)
    for argv in (["learn", "--sequences", str(sequences), "--w", "1.5",
                  "--out", str(tmp_path / "learned.json")],
                 ["render", "--scene", str(scene)],
                 ["render", "--stimulus", "A"],
                 ["render", "--trace", str(out_dir / "traces.json")]):
        assert _child_loads(*argv) == set(), argv


def test_simulate_rejects_stimuli_missing_sequence_towers(tmp_path, capsys):
    renamed = dict(zip("XYZ", stimulus_towers().values()))
    stimuli = tmp_path / "stimuli.json"
    save_stimuli(renamed, str(stimuli))
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--stimuli", str(stimuli), "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err == f"error: {stimuli}: no tower with id 'A'\n"


def test_stimuli_file_order_changes_no_output_byte(tmp_path):
    """The default towers listed backwards in a stimuli file: simulate and learn
    write what they write without --stimuli, byte for byte."""
    backwards = tmp_path / "backwards.json"
    save_stimuli(dict(reversed(stimulus_towers().items())), str(backwards))
    grid = ["simulate", "--n-sequences", "2", "--iterations", "1"]
    assert run_cli(*grid, "--out-dir", str(tmp_path / "default")) == 0
    assert run_cli(*grid, "--stimuli", str(backwards), "--out-dir", str(tmp_path / "file")) == 0
    names = sorted(os.listdir(tmp_path / "default"))
    assert len(names) == 37 and sorted(os.listdir(tmp_path / "file")) == names
    for name in names:
        assert (tmp_path / "file" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes(), name
    sequences = tmp_path / "seqs.json"
    assert run_cli("gen-seq", "--count", "5", "--out", str(sequences)) == 0
    learn = ["learn", "--sequences", str(sequences), "--w", "1.5"]
    assert run_cli(*learn, "--out", str(tmp_path / "default.json")) == 0
    assert run_cli(*learn, "--stimuli", str(backwards), "--out", str(tmp_path / "file.json")) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "default.json").read_bytes()


def test_learn_rejects_sequence_naming_unknown_tower(tmp_path, capsys):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "2", "--out", str(sequences))
    data = json.loads(sequences.read_text())
    data["sequences"][1]["trials"][5]["left"] = "Q"
    sequences.write_text(json.dumps(data))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
    # The sequence file is at fault, not the stimuli: the message names it and the trial.
    assert capsys.readouterr().err == (f"error: {sequences}: sequences[1].trials[5]: "
                                       "no tower with id 'Q' in the default stimuli\n")


def _gen_seq(path, count=1):
    assert run_cli("gen-seq", "--seed", "1", "--count", str(count), "--out", str(path)) == 0
    return json.loads(path.read_text())


def _drop_right_key(data):
    del data["sequences"][0]["trials"][3]["right"]
    return data


@pytest.mark.parametrize("malform", [
    lambda data: {"seqs": []},
    _drop_right_key,
    lambda data: data["sequences"],
], ids=["no-sequences-key", "trial-without-right", "json-array"])
def test_learn_rejects_malformed_sequence_file(tmp_path, capsys, malform):
    sequences = tmp_path / "seqs.json"
    sequences.write_text(json.dumps(malform(_gen_seq(sequences))))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
    assert str(sequences) in capsys.readouterr().err


def test_learn_rejects_stimuli_file_without_towers(tmp_path, capsys):
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    stimuli = tmp_path / "stimuli.json"
    stimuli.write_text(json.dumps({"tower": []}))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--stimuli", str(stimuli),
                   "--w", "1.5", "--out", str(out)) == 2
    assert not out.exists()
    assert str(stimuli) in capsys.readouterr().err


def test_learn_rejects_stimuli_tower_ids_that_are_not_strings(tmp_path, capsys):
    # Sequences naming the towers "None", "5" and "['C']", which is what
    # str() would make of the ids null, 5 and ["C"]: only a strict reader refuses them.
    names = {"A": "None", "B": "5", "C": "['C']"}
    sequences = tmp_path / "seqs.json"
    data = _gen_seq(sequences)
    for trial in data["sequences"][0]["trials"]:
        trial["left"], trial["right"] = names[trial["left"]], names[trial["right"]]
    sequences.write_text(json.dumps(data))
    stimuli = tmp_path / "stimuli.json"
    stimuli.write_text(json.dumps({"towers": [
        {"id": tower_id, "blocks": [b._asdict() for b in blocks]}
        for tower_id, blocks in zip([None, 5, ["C"]], stimulus_towers().values())]}))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--stimuli", str(stimuli),
                   "--w", "1.5", "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (f"error: {stimuli}: towers[0].id: "
                                       "expected a tower id string, got None\n")


def test_render_rejects_scene_file_without_blocks(tmp_path, capsys):
    def block(x, y, orientation):
        return {"x": x, "y": y, "orientation": orientation}

    cases = {
        "no-blocks": {"width": 3, "height": 3},
        "diagonal": {"width": 3, "height": 3, "blocks": [block(0, 0, "diag")]},
        # A horizontal block at column 2 covers column 3 of a 3-wide scene.
        "outside": {"width": 3, "height": 3, "blocks": [block(2, 0, HORIZONTAL)]},
        "negative-width": {"width": -3, "height": 3, "blocks": []},
        "overlap": {"width": 3, "height": 3,
                    "blocks": [block(0, 0, VERTICAL), block(0, 1, HORIZONTAL)]},
    }
    for name, data in cases.items():
        scene = tmp_path / f"{name}.json"
        scene.write_text(json.dumps(data))
        assert run_cli("render", "--scene", str(scene)) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert str(scene) in captured.err, name


def test_render_scene_extent_is_bounded_by_the_grid(tmp_path, capsys):
    for width, height, code in ((14, 8, 0), (15, 8, 2), (14, 9, 2)):
        scene = tmp_path / f"{width}x{height}.json"
        scene.write_text(json.dumps({"width": width, "height": height, "blocks": []}))
        assert run_cli("render", "--scene", str(scene)) == code, (width, height)
        captured = capsys.readouterr()
        assert captured.out == ("\n".join(["." * 14] * 8) + "\n" if code == 0 else "")
        assert code == 0 or str(scene) in captured.err


def test_render_rejects_a_huge_scene_extent_promptly(tmp_path):
    # Rendering this extent would build a 10^10-cell string, so the check is
    # run in a child held to 1 GB of address space and 10 s.
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps({"width": 100000, "height": 100000, "blocks": []}))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "towertalk", "render", "--scene", str(scene)],
                          env=env, capture_output=True, text=True, timeout=10,
                          preexec_fn=limit_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {scene}: scene extent 100000x100000 "
                           "must lie within 1x1 and 14x8\n")


def test_render_rejects_trace_index_out_of_range(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    trace_file = out_dir / "traces.json"
    capsys.readouterr()
    # Past the end, and negative: a Python index would wrap to the last trace.
    for index in ("5", "-1"):
        assert run_cli("render", "--trace", str(trace_file), "--trial", "1",
                       "--trace-index", index) == 2, index
        captured = capsys.readouterr()
        assert captured.out == "", index
        assert str(trace_file) in captured.err, index
        assert "--trace-index" in captured.err, index


def test_render_rejects_missing_trial(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    trace_file = out_dir / "traces.json"
    capsys.readouterr()
    assert run_cli("render", "--trace", str(trace_file), "--trial", "99") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(trace_file) in captured.err
    assert "--trace-index 0" in captured.err
    assert "99" in captured.err


def test_render_rejects_trace_placements_off_the_grid(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    data = json.loads((out_dir / "traces.json").read_text())
    placements = data["traces"][0]["trials"][0]["builder_placements"]
    # Off the 14x8 grid, and on a cell another block fills.
    cases = {"outlying": placements + [{"x": 1000000, "y": 5, "orientation": VERTICAL}],
             "overlapping": placements + placements[:1]}
    capsys.readouterr()
    for name, bad in cases.items():
        data["traces"][0]["trials"][0]["builder_placements"] = bad
        trace_file = tmp_path / f"{name}.json"
        trace_file.write_text(json.dumps(data))
        assert run_cli("render", "--trace", str(trace_file), "--trial", "1") == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert str(trace_file) in captured.err, name


def test_render_refuses_a_trace_played_on_other_towers(tmp_path, capsys):
    """A trace does not hold its towers, and render draws the default ones: a trace
    played on the default towers rotated among A, B and C is refused by the F1 of
    each trial it would print, not told with F1=1.000 beside a target never built."""
    ids = list(stimulus_towers())
    stimuli = tmp_path / "rotated.json"
    save_stimuli({tower_id: stimulus_towers()[other]
                  for tower_id, other in zip(ids, ids[1:] + ids[:1])}, str(stimuli))
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--stimuli", str(stimuli), "--w", "1e6", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    trace_file = out_dir / "traces.json"
    capsys.readouterr()
    for number in range(1, simulation.TRIALS_PER_SEQUENCE + 1):
        assert run_cli("render", "--trace", str(trace_file), "--trial", str(number)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {trace_file}: traces[0].trials[{number - 1}].f1: recorded 1.0, "), number
    assert run_cli("render", "--trace", str(trace_file), "--trace-index", "2") == 2
    assert f"{trace_file}: traces[2].trials[0].f1: " in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "1", 1.5], ids=["boolean", "string", "fractional"])
def test_render_reads_trace_trial_numbers_strictly(tmp_path, capsys, value):
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    data = json.loads((out_dir / "traces.json").read_text())
    # True == 1, so a loose match would draw this entry as "trial True".
    data["traces"][0]["trials"][0]["trial"] = value
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("render", "--trace", str(trace_file), "--trial", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(trace_file) in captured.err
    assert "traces[0].trials[0].trial: expected an integer" in captured.err


@pytest.mark.parametrize("malform", [
    lambda trial: trial.update(left="A" * 50_000),
    lambda trial: trial.update(left=5),
    lambda trial: trial.pop("left"),
], ids=["huge-unknown-id", "integer-id", "missing-id"])
def test_render_rejects_a_bad_tower_id_in_a_trace(tmp_path, capsys, malform):
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    data = json.loads((out_dir / "traces.json").read_text())
    malform(data["traces"][0]["trials"][0])
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("render", "--trace", str(trace_file), "--trial", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # One bounded line that names the file and the field.
    assert captured.err.startswith(f"error: {trace_file}: "), captured.err[:300]
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300, captured.err[:300]
    assert "traces[0].trials[0].left: " in captured.err


def _snapshot(**fields):
    """One trial's library: a snapshot adopted on trial 1, with `fields` replaced."""
    return [{"id": "chunk1", "level": library_learning.SUB_TOWER, "body": "(v v)",
             "adopted_trial": 1, **fields}]


@pytest.mark.parametrize("field, value, named", [
    ("trials[0].utterance", "abc", "trials[0].utterance: expected a list"),
    ("trials[0].utterance", ["v", 1], "trials[0].utterance[1]: expected a string"),
    ("trials[0].program", 5, "trials[0].program: expected a string"),
    ("trials[0].f1", True, "trials[0].f1: expected a number"),
    ("final_belief_entropy", True, "final_belief_entropy: expected a number"),
    ("trials[0].library", _snapshot(body=["v", 5]),
     "trials[0].library[0].body: expected a string"),
    ("trials[0].library", _snapshot(id=5), "trials[0].library[0].id: expected a string"),
    ("trials[0].library", _snapshot(level=None),
     "trials[0].library[0].level: expected a string"),
    ("trials[0].f1", float("nan"), "trials[0].f1: expected a finite number"),
    ("final_belief_entropy", float("inf"), "final_belief_entropy: expected a finite number"),
    ("final_belief_entropy", -float("inf"),
     "final_belief_entropy: expected a finite number"),
], ids=["string-utterance", "number-word", "number-program", "bool-f1", "bool-entropy",
        "list-body", "number-id", "null-level", "nan-f1", "infinite-entropy",
        "negative-infinite-entropy"])
def test_render_rejects_a_printed_field_of_the_wrong_type(tmp_path, capsys, field, value, named):
    """A field that the narrator prints is read as strictly as any other: a
    string utterance is not printed letter by letter, nor a bool F1 as 1.000."""
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    data = json.loads((out_dir / "traces.json").read_text())
    holder = data["traces"][0]
    if field.startswith("trials[0]."):
        holder, field = holder["trials"][0], field.removeprefix("trials[0].")
    holder[field] = value
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data))
    capsys.readouterr()
    for trial in ([], ["--trial", "1"]):
        assert run_cli("render", "--trace", str(trace_file), *trial) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {trace_file}: traces[0].{named}, got "), \
            captured.err


def _sorted_blocks(blocks):
    return [b._asdict() for b in sorted(blocks)]


def _scene_case(tmp_path, edit):
    """render --scene on a 3x3 scene of two blocks, edited by `edit`."""
    blocks = _sorted_blocks([BlockPlacement(0, 0, VERTICAL), BlockPlacement(1, 0, HORIZONTAL)])
    edit(blocks)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"width": 3, "height": 3, "blocks": blocks}))
    return path, ["render", "--scene", str(path)]


def _stimuli_case(tmp_path, edit):
    """learn on the default stimuli, the blocks of tower A edited by `edit`."""
    towers = [{"id": tower_id, "blocks": _sorted_blocks(blocks)}
              for tower_id, blocks in stimulus_towers().items()]
    edit(towers[0]["blocks"])
    path = tmp_path / "st.json"
    path.write_text(json.dumps({"towers": towers}))
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    return path, ["learn", "--sequences", str(sequences), "--stimuli", str(path), "--w", "1.5",
                  "--out", str(tmp_path / "learn.json")]


def _trace_case(tmp_path, edit):
    """render --trace on a one-dyad run, the Builder's placements on trial 3 edited by `edit`."""
    out_dir = tmp_path / "out"
    assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir)) == 0
    data = json.loads((out_dir / "traces.json").read_text())
    edit(data["traces"][0]["trials"][2]["builder_placements"])
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    return path, ["render", "--trace", str(path)]


def _drop_y(blocks):
    del blocks[1]["y"]


def _repeat_first(blocks):
    blocks.append(dict(blocks[0]))


@pytest.mark.parametrize("case, edit, message", [
    (_scene_case, _drop_y, "blocks[1].y: missing"),
    (_scene_case, lambda blocks: blocks[1].pop("orientation"), "blocks[1].orientation: missing"),
    (_scene_case, lambda blocks: blocks[0].update(orientation="diagonal"),
     "blocks[0].orientation: unknown orientation 'diagonal'"),
    (_scene_case, _repeat_first, "blocks: blocks overlap at cell (0, 0)"),
    (_scene_case, lambda blocks: blocks[1].update(x=2),
     "blocks: cell (3, 0) falls outside the 3x3 grid"),
    (_stimuli_case, lambda blocks: blocks[0].update(y="0"),
     "towers[0].blocks[0].y: expected an integer, got '0'"),
    (_stimuli_case, _repeat_first, "towers[0].blocks: blocks overlap at cell (0, 0)"),
    (_trace_case, _drop_y, "traces[0].trials[2].builder_placements[1].y: missing"),
    (_trace_case, _repeat_first, "traces[0].trials[2].builder_placements: blocks overlap at cell"),
], ids=["scene-missing-y", "scene-missing-orientation", "scene-unknown-orientation",
        "scene-overlap", "scene-outside", "stimuli-string-y", "stimuli-overlap",
        "trace-missing-y", "trace-overlap"])
def test_readers_name_a_bad_block_by_its_path(tmp_path, capsys, case, edit, message):
    """A block's field, and an overlap or an outlying cell among a list's blocks, are
    named from the list's path in the file on."""
    path, argv = case(tmp_path, edit)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}"), captured.err
    assert captured.err.count("\n") == 1, captured.err


def test_render_rejects_fractional_scene_numbers(tmp_path, capsys):
    # int() would truncate each of these and draw a scene.
    cases = {
        "width-and-x": {"width": 3.9, "height": 3,
                        "blocks": [{"x": 0.5, "y": 0, "orientation": VERTICAL}]},
        "width": {"width": 3.9, "height": 3,
                  "blocks": [{"x": 0, "y": 0, "orientation": VERTICAL}]},
        "x": {"width": 3, "height": 3,
              "blocks": [{"x": 0.5, "y": 0, "orientation": VERTICAL}]},
    }
    for name, data in cases.items():
        scene = tmp_path / f"{name}.json"
        scene.write_text(json.dumps(data))
        assert run_cli("render", "--scene", str(scene)) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert str(scene) in captured.err, name
        assert "expected an integer" in captured.err, name


def _set_repetition_block(value):
    def malform(data):
        data["sequences"][0]["trials"][2]["repetition_block"] = value
        return data
    return malform


def _set_seed(value):
    def malform(data):
        data["sequences"][0]["seed"] = value
        return data
    return malform


@pytest.mark.parametrize("malform", [
    _set_repetition_block(1.7),
    _set_seed(True),
    _set_seed("1"),
], ids=["fractional-repetition-block", "boolean-seed", "string-seed"])
def test_learn_rejects_non_integer_sequence_numbers(tmp_path, capsys, malform):
    sequences = tmp_path / "seqs.json"
    sequences.write_text(json.dumps(malform(_gen_seq(sequences))))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(sequences) in err
    assert "expected an integer" in err


def _set_tower(value):
    def malform(data):
        data["sequences"][1]["trials"][2]["left"] = value
        return data
    return malform


@pytest.mark.parametrize("malform, message", [
    (_set_repetition_block(7), "expected 1..4, got 7"),
    (_set_repetition_block(0), "expected 1..4, got 0"),
    (_set_tower(5), "expected a tower id string, got 5"),
    (_set_tower(None), "expected a tower id string, got None"),
], ids=["block-above-range", "block-zero", "integer-tower", "null-tower"])
def test_learn_rejects_bad_sequence_trials(tmp_path, capsys, malform, message):
    sequences = tmp_path / "seqs.json"
    sequences.write_text(json.dumps(malform(_gen_seq(sequences, count=2))))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sequences}: "), err
    assert message in err


def _drop_seed(data):
    del data["sequences"][1]["seed"]
    return data


def _block_nine(data):
    data["sequences"][2]["trials"][5]["repetition_block"] = 9
    return data


@pytest.mark.parametrize("malform, message", [
    (_block_nine, "sequences[2].trials[5].repetition_block: expected 1..4, got 9"),
    (_drop_seed, "sequences[1].seed: missing"),
], ids=["block-out-of-range", "missing-seed"])
def test_learn_names_the_sequence_of_a_bad_field(tmp_path, capsys, malform, message):
    sequences = tmp_path / "seqs.json"
    sequences.write_text(json.dumps(malform(_gen_seq(sequences, count=3))))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {sequences}: {message}\n"


def _stimuli_with_tower_a(tmp_path, blocks):
    towers = {**stimulus_towers(), "A": frozenset(blocks)}
    path = tmp_path / "stimuli.json"
    save_stimuli(towers, str(path))
    return path


@pytest.mark.parametrize("blocks", [
    # Seven columns wide: placed at the right origin it leaves the 14x8 grid.
    [BlockPlacement(0, 0, HORIZONTAL), BlockPlacement(3, 0, VERTICAL),
     BlockPlacement(5, 0, HORIZONTAL), BlockPlacement(0, 1, VERTICAL)],
    # A vertical block floating at y=3, which gravity cannot build.
    [BlockPlacement(0, 0, HORIZONTAL), BlockPlacement(3, 3, VERTICAL),
     BlockPlacement(4, 0, HORIZONTAL), BlockPlacement(0, 1, VERTICAL)],
], ids=["oversized", "floating"])
def test_simulate_rejects_unbuildable_scene_before_compute(tmp_path, capsys, monkeypatch,
                                                           blocks):
    def must_not_run(**kwargs):
        raise AssertionError("the experiment ran on invalid stimuli")
    monkeypatch.setattr(simulation, "run_experiment", must_not_run)
    stimuli = _stimuli_with_tower_a(tmp_path, blocks)
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--stimuli", str(stimuli), "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()
    assert str(stimuli) in capsys.readouterr().err


def _sequences_with_a_on_the_left(path):
    """A sequence file whose trials place tower A only on the left."""
    data = _gen_seq(path)
    for trial in data["sequences"][0]["trials"]:
        if trial["right"] == "A":
            trial["left"], trial["right"] = trial["right"], trial["left"]
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["learn", "simulate"])
def test_a_tower_too_wide_for_the_right_side_is_refused_before_compute(tmp_path, capsys,
                                                                       command):
    """Seven columns fit the left side but not the right one, so the stimuli file is
    refused, naming the tower, even where the sequence file places it only on the left."""
    stimuli = _stimuli_with_tower_a(tmp_path, [
        BlockPlacement(0, 0, HORIZONTAL), BlockPlacement(3, 0, VERTICAL),
        BlockPlacement(5, 0, HORIZONTAL), BlockPlacement(0, 1, VERTICAL)])
    out = tmp_path / "out"
    argv = {"learn": ["learn", "--sequences",
                      str(_sequences_with_a_on_the_left(tmp_path / "seqs.json")),
                      "--w", "1.5", "--out", str(out)],
            "simulate": ["simulate", "--n-sequences", "1", "--iterations", "1",
                         "--out-dir", str(out)]}[command]
    assert run_cli(*argv, "--stimuli", str(stimuli)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == \
        f"error: {stimuli}: tower 'A': cell (6, 0) falls outside the 6x8 grid\n"


def test_internal_value_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    def broken(**kwargs):
        raise ValueError("internal")
    monkeypatch.setattr(simulation, "run_experiment", broken)
    with pytest.raises(ValueError, match="internal"):
        run_cli("simulate", "--n-sequences", "1", "--iterations", "1",
                "--out-dir", str(tmp_path / "out"))


def _reader_argv(reader, path, tmp_path):
    """The argv that has `reader` read `path`, with its --out or --out-dir under
    tmp_path / "out"; every other input file is a good one."""
    sequences = tmp_path / "seqs.json"
    _gen_seq(sequences)
    out = str(tmp_path / "out")
    return {
        "render --scene": ["render", "--scene", str(path)],
        "render --trace": ["render", "--trace", str(path), "--trial", "1"],
        "learn --sequences": ["learn", "--sequences", str(path), "--w", "1.5", "--out", out],
        "learn --stimuli": ["learn", "--sequences", str(sequences), "--stimuli", str(path),
                            "--w", "1.5", "--out", out],
        "simulate --stimuli": ["simulate", "--stimuli", str(path), "--n-sequences", "1",
                               "--iterations", "1", "--out-dir", out],
    }[reader]


@pytest.mark.parametrize("error", [TypeError, ValueError])
@pytest.mark.parametrize("reader, owner, name", [
    ("render --scene", BlockPlacement, "cells"),
    ("learn --stimuli", BlockPlacement, "cells"),
    ("render --trace", BlockPlacement, "cells"),
    ("render --trace", traces, "compose_scene"),
    ("learn --sequences", traces, "TrialSpec"),
], ids=["scene-cells", "stimuli-cells", "trace-cells", "trace-compose", "sequence-trialspec"])
def test_an_error_inside_a_reader_is_not_a_config_error(tmp_path, monkeypatch, reader, owner,
                                                        name, error):
    """Only a reader's InputError is the file's fault: any other exception raised
    while a good file is read is a bug, and propagates (exit 1, with a traceback)."""
    good = tmp_path / "good.json"
    if reader == "render --scene":
        save_scene({BlockPlacement(0, 0, VERTICAL)}, str(good), 3, 3)
    elif reader == "learn --stimuli":
        save_stimuli(stimulus_towers(), str(good))
    elif reader == "render --trace":
        assert run_cli("simulate", "--w", "1000000", "--beta", "0.0", "--n-sequences", "1",
                       "--iterations", "1", "--out-dir", str(tmp_path / "grid")) == 0
        good = tmp_path / "grid" / "traces.json"
    else:
        good = tmp_path / "seqs.json"
    # Every file is written before the patch, since gen-seq builds TrialSpecs too.
    argv = _reader_argv(reader, good, tmp_path)
    assert run_cli(*argv) == 0

    def broken(*args, **kwargs):
        raise error("injected")
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(error, match="injected"):
        run_cli(*argv)


# json.load raises RecursionError on 1,000 nested arrays up to Python 3.11, and on
# 100,000 in every supported version; from 3.12 the first decodes, and the
# reader rejects its content.
@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("reader", ["render --scene", "render --trace", "learn --sequences",
                                    "learn --stimuli", "simulate --stimuli"])
def test_readers_reject_a_deeply_nested_file(tmp_path, capsys, reader, depth):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * depth + "]" * depth)
    argv = _reader_argv(reader, deep, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {deep}: ")
    assert depth < 100_000 or "RecursionError" in captured.err
    assert not (tmp_path / "out").exists()


def _default_stimuli_data(tmp_path):
    path = tmp_path / "good-stimuli.json"
    save_stimuli(stimulus_towers(), str(path))
    return json.loads(path.read_text())


def _huge_tower_id(tmp_path):
    data = _default_stimuli_data(tmp_path)
    data["towers"][0]["id"] = list(range(20_000))
    return data


def _huge_tower_id_string(tmp_path):
    return {"towers": [{"id": "A" * 50_000,
                        "blocks": [{"x": 0, "y": 0, "orientation": VERTICAL}]}]}


def _huge_duplicate_tower_id(tmp_path):
    data = _default_stimuli_data(tmp_path)
    data["towers"][0]["id"] = data["towers"][1]["id"] = "A" * 50_000
    return data


def _huge_block_x(tmp_path):
    data = _default_stimuli_data(tmp_path)
    data["towers"][0]["blocks"][0]["x"] = "9" * 50_000
    return data


def _huge_trial_left(tmp_path):
    data = _gen_seq(tmp_path / "huge-seqs.json")
    data["sequences"][0]["trials"][0]["left"] = "A" * 50_000
    return data


def _huge_repetition_block(tmp_path):
    data = _gen_seq(tmp_path / "huge-seqs.json")
    data["sequences"][0]["trials"][0]["repetition_block"] = int("9" * 4_000)
    return data


@pytest.mark.parametrize("reader, malform", [
    ("learn --stimuli", _huge_tower_id),
    ("learn --stimuli", _huge_tower_id_string),
    ("learn --stimuli", _huge_duplicate_tower_id),
    ("learn --stimuli", _huge_block_x),
    ("learn --sequences", _huge_trial_left),
    ("learn --sequences", _huge_repetition_block),
], ids=["tower-id-list", "tower-id-string", "tower-id-duplicate", "block-x-string",
        "trial-left-string", "trial-block-int"])
def test_readers_abbreviate_a_huge_bad_value(tmp_path, capsys, reader, malform):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform(tmp_path)))
    argv = _reader_argv(reader, bad, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: "), err[:300]
    assert len(err.encode()) < 300, err[:300]
    assert not (tmp_path / "out").exists()


def test_recursion_error_while_parsing_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(data):
        raise RecursionError("internal")
    monkeypatch.setattr(cli, "scene_from_dict", broken)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"width": 3, "height": 3, "blocks": []}))
    with pytest.raises(RecursionError, match="internal"):
        run_cli("render", "--scene", str(scene))


# Arbitrary JSON, plus values shaped like the real schemas so that loading
# gets past the top-level keys.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
tower_ids = st.sampled_from("ABC") | json_values
sequence_files = json_values | st.fixed_dictionaries({"sequences": st.lists(
    json_values | st.fixed_dictionaries({
        "seed": st.integers() | json_values,
        "trials": st.lists(json_values | st.fixed_dictionaries(
            {"left": tower_ids, "right": tower_ids}), max_size=3)}),
    max_size=2)})
coordinates = st.integers(-1, 8) | json_values
block_dicts = st.fixed_dictionaries({
    "x": coordinates, "y": coordinates,
    "orientation": st.sampled_from([HORIZONTAL, VERTICAL]) | json_values})
default_stimuli = {"towers": [{"id": tower_id, "blocks": [b._asdict() for b in blocks]}
                              for tower_id, blocks in stimulus_towers().items()]}
stimuli_files = json_values | st.just(default_stimuli) | st.fixed_dictionaries({"towers": st.lists(
    json_values | st.fixed_dictionaries({
        "id": tower_ids,
        "blocks": st.lists(block_dicts, max_size=4)}),
    max_size=3)})
scene_files = json_values | st.fixed_dictionaries({
    "width": st.integers(0, 15) | json_values,
    "height": st.integers(0, 9) | json_values,
    "blocks": st.lists(block_dicts, max_size=4)})


@st.composite
def one_field_off(draw, fields):
    """A dict of `fields`' values, drawn valid, or with one of them left out or
    drawn from json_values instead, so that a reader gets past the others."""
    data = draw(st.fixed_dictionaries(fields))
    key = draw(st.none() | st.sampled_from(sorted(fields)))
    if key is not None and draw(st.booleans()):
        del data[key]
    elif key is not None:
        data[key] = draw(json_values)
    return data


# A field drawn from json_values also puts junk in place of a list of traces or trials.
trace_files = one_field_off({"traces": st.lists(
    one_field_off({
        "final_belief_entropy": st.floats(0, 8),
        "trials": st.lists(one_field_off({
            "trial": st.integers(0, 2),
            "repetition_block": st.integers(1, 4),
            "left": st.sampled_from("ABC"), "right": st.sampled_from("ABC"),
            "f1": st.floats(0, 1),
            "tokens_sent": st.integers(0, 30),
            "program": st.text(max_size=8),
            "utterance": st.lists(st.sampled_from(["h", "v", "r1", "chunkA"]), max_size=3),
            "library": st.lists(one_field_off({
                "id": st.just("chunk1"), "level": st.sampled_from(library_learning.FRAGMENT_LEVELS),
                "body": st.just("(v (r 1) h)"), "adopted_trial": st.integers(0, 2)}),
                max_size=2),
            "builder_placements": st.lists(block_dicts, max_size=4)}),
            max_size=3)}),
    max_size=2)})


def _run_on_file(argv, path):
    """Run the CLI on an input file; it must exit 0, or exit 2 with an error that
    names the file. Returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code in (0, 2)
    assert code == 0 or str(path) in err.getvalue()
    return code


def _learn_exit(tmp_path_factory, sequences_data=None, stimuli_data=None):
    """Run learn on the given file contents; exit 0 must write output, 2 must not."""
    work = tmp_path_factory.mktemp("learn")
    sequences = work / "seqs.json"
    if sequences_data is None:
        _gen_seq(sequences)
    else:
        sequences.write_text(json.dumps(sequences_data))
    argv = ["learn", "--sequences", str(sequences), "--w", "1000000"]
    given_file = sequences
    if stimuli_data is not None:
        given_file = stimuli = work / "stimuli.json"
        stimuli.write_text(json.dumps(stimuli_data))
        argv += ["--stimuli", str(stimuli)]
    out = work / "learn.json"
    code = _run_on_file([*argv, "--out", str(out)], given_file)
    assert out.exists() == (code == 0)


@given(sequence_files)
@settings(max_examples=60, deadline=None)
def test_learn_sequence_file_property(tmp_path_factory, data):
    _learn_exit(tmp_path_factory, sequences_data=data)


@given(stimuli_files)
@settings(max_examples=60, deadline=None)
def test_learn_stimuli_file_property(tmp_path_factory, data):
    _learn_exit(tmp_path_factory, stimuli_data=data)


@given(scene_files)
@settings(max_examples=60, deadline=None)
def test_render_scene_file_property(tmp_path_factory, data):
    scene = tmp_path_factory.mktemp("render") / "scene.json"
    scene.write_text(json.dumps(data))
    _run_on_file(["render", "--scene", str(scene)], scene)


@given(trace_files)
@settings(max_examples=60, deadline=None)
def test_render_trace_file_property(tmp_path_factory, data):
    traces = tmp_path_factory.mktemp("render") / "traces.json"
    traces.write_text(json.dumps(data))
    _run_on_file(["render", "--trace", str(traces), "--trial", "1"], traces)
    _run_on_file(["render", "--trace", str(traces)], traces)


@given(buildable_stimuli)
@settings(max_examples=25, deadline=None)
def test_simulate_runs_on_any_buildable_stimuli(tmp_path_factory, towers):
    work = tmp_path_factory.mktemp("stimuli")
    stimuli = work / "stimuli.json"
    save_stimuli(towers, str(stimuli))
    out_dir = work / "out"
    assert run_cli("simulate", "--stimuli", str(stimuli), "--n-sequences", "1",
                   "--iterations", "1", "--w", "1.5", "--beta", "0.3",
                   "--out-dir", str(out_dir)) == 0
    with open(out_dir / "accuracy_efficiency_w1.5_beta0.3.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(0.0 <= float(row["mean_f1"]) <= 1.0 for row in rows), rows
    # Each trial's F1 is its built blocks' score against its scene of these
    # towers, as `render --trace` recomputes it.
    (trace,) = json.loads((out_dir / "traces.json").read_text())["traces"]
    for trial in trace["trials"]:
        built = frozenset(BlockPlacement(**b) for b in trial["builder_placements"])
        target = compose_scene(towers[trial["left"]], towers[trial["right"]])
        assert trial["f1"] == round(f1_score(target, built), 9), trial
