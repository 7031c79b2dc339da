import json
import os

from towertalk.cli import main
from towertalk.blockworld import (
    VERTICAL,
    BlockPlacement,
    Scene,
    TowerStimulus,
    save_scene,
    save_stimuli,
    stimulus_towers,
)


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


def test_render_stimulus(capsys):
    assert run_cli("render", "--stimulus", "A") == 0
    output = capsys.readouterr().out
    assert "|" in output and "=" in output


def test_render_all_stimuli(capsys):
    for tower_id in "ABC":
        assert run_cli("render", "--stimulus", tower_id) == 0
    assert run_cli("render", "--stimulus", "Z") == 2


def test_render_scene_file(tmp_path, capsys):
    scene = Scene(4, 3, frozenset({BlockPlacement(1, 0, VERTICAL)}))
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
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
    assert run_cli("render", "--trace", str(trace_file)) == 2


def test_render_requires_a_source():
    assert run_cli("render") == 2


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "nope" / "deep" / "file.json"
    assert run_cli("gen-seq", "--seed", "0", "--count", "1", "--out", str(missing)) == 3
    assert run_cli("learn", "--sequences", str(missing), "--w", "1.0",
                   "--out", str(tmp_path / "x.json")) == 3


def test_simulate_and_learn_reject_nan(tmp_path):
    out_dir = tmp_path / "out"
    for flag in ("--w", "--alpha"):
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


def test_simulate_rejects_stimuli_missing_sequence_towers(tmp_path):
    renamed = [TowerStimulus(new_id, tower.blocks)
               for new_id, tower in zip("XYZ", stimulus_towers())]
    stimuli = tmp_path / "stimuli.json"
    save_stimuli(renamed, str(stimuli))
    out_dir = tmp_path / "out"
    code = run_cli("simulate", "--stimuli", str(stimuli), "--n-sequences", "1",
                   "--iterations", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert not out_dir.exists()


def test_learn_rejects_sequence_naming_unknown_tower(tmp_path):
    sequences = tmp_path / "seqs.json"
    run_cli("gen-seq", "--seed", "1", "--count", "2", "--out", str(sequences))
    data = json.loads(sequences.read_text())
    data["sequences"][1]["trials"][5]["left"] = "Q"
    sequences.write_text(json.dumps(data))
    out = tmp_path / "learn.json"
    assert run_cli("learn", "--sequences", str(sequences), "--w", "1.5",
                   "--out", str(out)) == 2
    assert not out.exists()
