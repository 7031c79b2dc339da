"""Command-line entry points for reproducible experiments and exports.

Subcommands:
    gen-seq    write a batch of trial sequences to a JSON file
    learn      run library learning alone over a sequence file
    simulate   run the full Architect/Builder experiment grid and export metrics
    render     draw a scene, stimulus, or recorded trial as ASCII art

Exit codes: 0 success; 2 for a bad flag or a malformed input file, checked
before any compute; 3 for an I/O error. Any other failure is an internal
error and exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import reprlib
import sys
from collections.abc import Iterable

from . import library_learning
from .blockworld import (InputError, compose_scene, field, render_ascii, scene_from_dict,
                         stimuli_from_dict, stimulus_towers)
from .library_learning import check_w
from .traces import learn_to_dict, narrate, sequences_from_dict, sequences_to_dict, traces_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# Figure parameters: w grid, beta grid, alpha, and the 49 x 2 dyad layout.
DEFAULT_W = (1.5, 3.2, 9.6)
DEFAULT_BETA = (0.0, 0.3, 0.8)
DEFAULT_ALPHA = 5.0
DEFAULT_N_SEQUENCES = 49
DEFAULT_ITERATIONS = 2


class ConfigError(Exception):
    pass


def _fmt(value: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so values that compare equal get one name.
    return f"{value + 0.0:g}"


def _write_text(path: str, pieces: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


def _aside(path: str, suffix: str) -> str:
    """A hidden name beside `path`, in the same directory, so renaming it is atomic."""
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{os.getpid()}.{suffix}")


def _write_outputs(outputs: dict[str, Iterable[str]]) -> None:
    """Write every output of a command all-or-nothing.

    Each file is written under a temporary name beside its path, and only
    after every write has succeeded are they renamed into place. A path that
    already exists is first hard-linked aside, so that when a rename fails the
    ones already done are put back. On any failure every temporary file is
    removed and every path holds what it held before.
    """
    temps = {path: _aside(path, "tmp") for path in outputs}
    backups: dict[str, str] = {}
    replaced: list[str] = []
    try:
        for path, pieces in outputs.items():
            _write_text(temps[path], pieces)
        for path, temp in temps.items():
            if os.path.lexists(path):
                backups[path] = _aside(path, "old")
                os.link(path, backups[path], follow_symlinks=False)
            os.replace(temp, path)
            replaced.append(path)
    except BaseException:
        for path in replaced:
            if path in backups:
                os.replace(backups.pop(path), path)
            else:
                os.remove(path)
        for leftover in [*temps.values(), *backups.values()]:
            try:
                os.remove(leftover)
            except FileNotFoundError:
                pass
        raise
    for backup in backups.values():
        os.remove(backup)


def _check_out_file(path: str) -> None:
    """Fail before any compute if `path` is empty, has no directory to be
    written in, or is a directory, with an error that names `path` rather than
    a file beside it. A symlink to a directory is a file: writing replaces the link."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "an empty path names no file", path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, "no directory to write it in", path)
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _load(parse, path: str):
    """Read an input file's JSON and return parse(data). Content that json.load
    cannot decode (nested too deeply included), or that the parser raises an
    InputError for, is a ConfigError naming the file. Any other exception passes
    through: an OSError still exits 3, and a bug in the parser exits 1.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc
    try:
        return parse(data)
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _stimuli(path: str | None):
    """The towers a run builds from: the file's, or the defaults."""
    return _load(stimuli_from_dict, path) if path else stimulus_towers()


def _check_scenes(scenes, stimuli, source: str, unknown: str = "") -> None:
    """Every scene a run composes must name known towers and fit the grid.

    `scenes` lists (where, left, right). The tower ids are checked first, in
    that order: an unknown one is reported as "{where}: no tower with id
    ...{unknown}". Then each distinct scene is composed, and one that does not
    fit is reported against `source`, the stimuli.
    """
    for where, left, right in scenes:
        for tower in (left, right):
            if tower not in stimuli:
                raise ConfigError(f"{where}: no tower with id {reprlib.repr(tower)}{unknown}")
    for left, right in sorted({(left, right) for _, left, right in scenes}):
        try:
            compose_scene(stimuli[left], stimuli[right])
        except InputError as exc:
            raise ConfigError(f"{source}: scene {left}+{right}: {exc}") from exc


def _build_config(factory, **fields):
    """Construct a config object; its own validation becomes a ConfigError."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_gen_seq(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ConfigError("count: must be nonnegative")
    _check_out_file(args.out)
    from . import simulation  # sequence generation lives beside the dyads it seeds
    sequences, _ = simulation.generate_sequences(args.seed, args.count)
    _write_outputs({args.out: [_json_text(sequences_to_dict(args.seed, sequences))]})
    return EXIT_OK


def cmd_learn(args: argparse.Namespace) -> int:
    w = _build_config(check_w, w=args.w)
    sequences = _load(sequences_from_dict, args.sequences)
    stimuli = _stimuli(args.stimuli)
    # The sequence file is at fault for an unknown tower, so the message names its trial.
    _check_scenes([(f"{args.sequences}: sequences[{i}].trials[{k}]", trial.left, trial.right)
                   for i, sequence in enumerate(sequences)
                   for k, trial in enumerate(sequence.trials)],
                  stimuli, args.stimuli or "stimuli",
                  f" in {args.stimuli or 'the default stimuli'}")
    _check_out_file(args.out)
    runs = ((sequence, library_learning.library_trajectory(sequence, w, stimuli))
            for sequence in sequences)
    _write_outputs({args.out: [_json_text(learn_to_dict(w, runs))]})
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n_sequences < 0:
        raise ConfigError("n_sequences: must be nonnegative")
    if args.iterations < 0:
        raise ConfigError("iterations: must be nonnegative")
    if args.jobs < 1:
        raise ConfigError("jobs: must be at least 1")
    from . import simulation  # imported here: only gen-seq and simulate load the dyad code
    from .pragmatics import PragmaticsConfig
    from .simulation import TOWER_PAIRS, LearningConfig
    # A cell's four CSVs are named by its tag: two cells with one tag would overwrite
    # each other, and two equal configs would each aggregate both cells' traces.
    cells: dict[str, tuple[PragmaticsConfig, LearningConfig]] = {}
    for w in args.w:
        for beta in args.beta:
            pcfg = _build_config(PragmaticsConfig, alpha=args.alpha, beta=beta)
            lcfg = _build_config(LearningConfig, w=w)
            tag = f"w{_fmt(lcfg.w)}_beta{_fmt(pcfg.beta)}"
            if tag in cells:
                other_p, other_l = cells[tag]
                raise ConfigError(f"cells w={other_l.w!r} beta={other_p.beta!r} and "
                                  f"w={lcfg.w!r} beta={pcfg.beta!r} share the file tag {tag}")
            cells[tag] = (pcfg, lcfg)
    stimuli = _stimuli(args.stimuli)
    source = args.stimuli or "stimuli"
    _check_scenes([(source, *pair) for pair in (*TOWER_PAIRS, *(p[::-1] for p in TOWER_PAIRS))],
                  stimuli, source)
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ["traces.json",
                 *(f"{table}_{tag}.csv" for tag in cells for table in simulation.TABLES)]:
        _check_out_file(os.path.join(args.out_dir, name))
    traces = simulation.run_experiment(
        configs=list(cells.values()), stimuli=stimuli, n_sequences=args.n_sequences,
        iterations=args.iterations, master_seed=args.master_seed, jobs=args.jobs)
    # The CSVs are small and built first, from one cell's summaries at a time.
    # traces.json, the bulk of the output, is encoded one dyad at a time as it is written.
    outputs: dict[str, Iterable[str]] = {}
    for tag, cell in cells.items():
        summaries = [simulation.summarize(t) for t in traces if (t.pragmatics, t.learning) == cell]
        outputs.update((f"{table}_{tag}.csv", [text])
                       for table, text in simulation.cell_tables(summaries).items())
    outputs["traces.json"] = traces_json(traces, args.master_seed, args.alpha, args.n_sequences,
                                         args.iterations)
    _write_outputs({os.path.join(args.out_dir, name): pieces
                    for name, pieces in sorted(outputs.items())})
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    given = [flag for flag, value in (("--scene", args.scene), ("--stimulus", args.stimulus),
                                      ("--trace", args.trace)) if value is not None]
    if len(given) != 1:
        raise ConfigError("render: pass exactly one of --scene, --stimulus, or --trace"
                          + (f", not {' and '.join(given)}" if given else ""))
    stray = [flag for flag, value in (("--trial", args.trial),
                                      ("--trace-index", args.trace_index)) if value is not None]
    if stray and args.trace is None:
        raise ConfigError(f"render: {' and '.join(stray)} given without --trace")
    towers = stimulus_towers()
    if args.scene is not None:
        print(render_ascii(*_load(scene_from_dict, args.scene)))
        return EXIT_OK
    if args.stimulus is not None:
        if args.stimulus not in towers:
            raise ConfigError(f"stimulus: unknown id {reprlib.repr(args.stimulus)}")
        blocks = towers[args.stimulus]
        cells = [cell for block in blocks for cell in block.cells()]  # drawn to their bounding box
        print(render_ascii(blocks, max(x for x, _ in cells) + 1, max(y for _, y in cells) + 1))
        return EXIT_OK
    index = args.trace_index or 0

    def story(data: dict) -> str:
        traces = field(data, "traces", list)
        if not 0 <= index < len(traces):
            raise ConfigError(f"{args.trace}: --trace-index {index}: the file holds "
                              f"{len(traces)} traces, counted from 0")
        return narrate(traces[index], towers, args.trial, where=f"traces[{index}]")

    text = _load(story, args.trace)
    if not text:
        raise ConfigError(f"{args.trace}: --trace-index {index}: the trace holds "
                          f"no trial {args.trial}")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towertalk",
        description="Architect/Builder block-assembly simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-seq", help="generate trial sequences")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=DEFAULT_N_SEQUENCES)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_seq)

    p_learn = sub.add_parser("learn", help="library learning over a sequence file")
    p_learn.add_argument("--sequences", required=True)
    p_learn.add_argument("--w", type=float, required=True)
    p_learn.add_argument("--stimuli", default=None)
    p_learn.add_argument("--out", required=True)
    p_learn.set_defaults(func=cmd_learn)

    p_sim = sub.add_parser("simulate", help="full experiment grid")
    p_sim.add_argument("--w", type=float, nargs="+", default=list(DEFAULT_W))
    p_sim.add_argument("--beta", type=float, nargs="+", default=list(DEFAULT_BETA))
    p_sim.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_sim.add_argument("--n-sequences", dest="n_sequences", type=int,
                       default=DEFAULT_N_SEQUENCES)
    p_sim.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p_sim.add_argument("--master-seed", dest="master_seed", type=int, default=0)
    p_sim.add_argument("--out-dir", dest="out_dir", default="out")
    p_sim.add_argument("--stimuli", default=None)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_render = sub.add_parser("render", help="ASCII-render scenes and trials")
    p_render.add_argument("--scene", default=None)
    p_render.add_argument("--stimulus", default=None)
    p_render.add_argument("--trace", default=None)
    p_render.add_argument("--trace-index", dest="trace_index", type=int, default=None)
    p_render.add_argument("--trial", type=int, default=None)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
