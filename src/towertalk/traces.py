"""The layout of the files that gen-seq, learn and simulate write: this module alone
writes them, and reads back gen-seq's sequences for learn and traces.json for
`render --trace` and scripts/watch_dyad.py."""

from __future__ import annotations

import json
import math
import reprlib
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import dsl
from .blockworld import (TOWER_ID, InputError, blocks_field, compose_scene, f1_score, field,
                         render_ascii)
from .library_learning import (BODY_TOKEN_SUM, REPETITION_BLOCKS, FragmentSnapshot, LearnedTrial,
                               TrialSequence, TrialSpec, snapshot_level_proportions, step_levels)

if TYPE_CHECKING:  # only for annotations: learn and render load no dyad code
    from .simulation import DyadTrace


def sequence_to_dict(sequence: TrialSequence) -> dict:
    return {"seed": sequence.seed, "trials": [t._asdict() for t in sequence.trials]}


def sequence_from_dict(data: dict, where: str = "") -> TrialSequence:
    """Inverse of sequence_to_dict; rejects a repetition block outside 1..REPETITION_BLOCKS
    and a tower id that is not a string. Whether the towers exist is the caller's check.
    A bad field is named from `where` on."""
    trials = []
    for k, t in enumerate(field(data, "trials", list, where)):
        name = f"{where}.trials[{k}]" if where else f"trials[{k}]"
        block = field(t, "repetition_block", int, name)
        if not 1 <= block <= REPETITION_BLOCKS:
            raise InputError(f"{name}.repetition_block: expected 1..{REPETITION_BLOCKS}, "
                             f"got {reprlib.repr(block)}")
        trials.append(TrialSpec(block, field(t, "left", str, name, TOWER_ID),
                                field(t, "right", str, name, TOWER_ID)))
    return TrialSequence(tuple(trials), field(data, "seed", int, where))


def sequences_to_dict(master_seed: int, sequences: list[TrialSequence]) -> dict:
    """The sequence file that `gen-seq --seed master_seed` writes."""
    return {"master_seed": master_seed, "count": len(sequences),
            "sequences": [sequence_to_dict(s) for s in sequences]}


def sequences_from_dict(data: dict) -> list[TrialSequence]:
    """The sequences of a sequence file, each read by sequence_from_dict."""
    return [sequence_from_dict(entry, f"sequences[{i}]")
            for i, entry in enumerate(field(data, "sequences", list))]


def snapshot_to_dict(snapshot: FragmentSnapshot) -> dict:
    return {**snapshot._asdict(), "score_delta": round(snapshot.score_delta, 9)}


def learn_to_dict(w: float, runs: Iterable[tuple[TrialSequence, Sequence[LearnedTrial]]]) -> dict:
    """The file that learn writes from each sequence's library_trajectory at `w`: per
    sequence, the fragments adopted in order and the library's level proportions.
    `runs` is read one trajectory at a time."""
    rows = []
    for sequence, trajectory in runs:
        snapshots = [snapshot for trial in trajectory for snapshot in trial.adopted]
        rows.append({
            "sequence_seed": sequence.seed,
            "fragments": [snapshot_to_dict(s) for s in snapshots],
            "level_proportions": snapshot_level_proportions(snapshots, len(sequence.trials)),
        })
    return {"w": w, "size_rule": BODY_TOKEN_SUM, "runs": rows}


# traces.json holds each trace two levels deep, in its payload's "traces" list.
# The encoder below writes a trace's text at that depth directly: an object or
# array at depth d closes on a line indented 2d spaces, and its members sit one
# level deeper. Every key is written in sorted order, as json.dumps(...,
# sort_keys=True) would.
_ENCODE_STR = json.encoder.encode_basestring_ascii
_TRACE_DEPTH = 2
_LINE = tuple("\n" + "  " * depth for depth in range(8))
_SEPARATOR = tuple("," + line for line in _LINE)


def _template(depth: int, keys: tuple[str, ...]) -> str:
    """A %-format string for a JSON object at `depth`; `keys` must be sorted."""
    return "{" + ",".join(f'{_LINE[depth + 1]}"{key}": %s' for key in keys) + _LINE[depth] + "}"


def _array(items: list[str], depth: int) -> str:
    """A JSON array of already-encoded items, at `depth`."""
    if not items:
        return "[]"
    return "[" + _LINE[depth + 1] + _SEPARATOR[depth + 1].join(items) + _LINE[depth] + "]"


def _nested(data, depth: int) -> str:
    """json.dumps(data, indent=2, sort_keys=True) for a value at `depth`."""
    return json.dumps(data, indent=2, sort_keys=True).replace("\n", _LINE[depth])


def _number(value) -> str:
    """A number as json writes it; for a float that is float.__repr__, or
    Infinity, -Infinity or NaN."""
    if value.__class__ is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return json.dumps(value)  # an int, or a config value of another type


_TRACE = _template(_TRACE_DEPTH, (
    "alpha", "beta", "dyad_seed", "final_belief_entropy", "iteration", "sequence",
    "size_rule", "trials", "w"))
_TRIAL = _template(_TRACE_DEPTH + 2, (
    "anomalies", "belief_entropy", "builder_placements", "f1", "left", "library",
    "program", "repetition_block", "right", "steps", "tokens_sent", "trial", "utterance"))
_PLACEMENT = _template(_TRACE_DEPTH + 4, ("orientation", "x", "y"))
_STEP = _template(_TRACE_DEPTH + 4, ("level", "placements", "token", "word"))


def trace_json(trace: DyadTrace, memo: dict) -> str:
    """A trace's JSON text as json.dumps(..., indent=2, sort_keys=True) writes
    it in the "traces" list of traces.json: every line after the first is
    indented 4 more spaces than at the top level. A trial's number and spec
    come from the trace's sequence, its library from the final_library
    snapshots adopted by then, and its steps' levels from step_levels.

    `memo` maps each sequence, placement and fragment snapshot already
    written to its text. Pass one dict to every call of a run: the dyads of a
    group repeat the same ones. Equal values share a text, so a snapshot
    whose score_delta is 2 and one whose is 2.0 must not meet in one memo;
    the traces of one run never hold both.
    """
    trial_depth = _TRACE_DEPTH + 2
    level_of = step_levels(trace.final_library)
    library = []
    for snapshot in trace.final_library:
        text = memo.get(snapshot)
        if text is None:
            text = memo[snapshot] = _nested(snapshot_to_dict(snapshot), trial_depth + 2)
        library.append((snapshot.adopted_trial, text))
    trials = []
    for number, (spec, r) in enumerate(zip(trace.sequence.trials, trace.records, strict=True),
                                       start=1):
        placements = []
        for block in r.builder_placements:
            text = memo.get(block)
            if text is None:
                text = memo[block] = _PLACEMENT % (
                    _ENCODE_STR(block.orientation), int.__repr__(block.x),
                    int.__repr__(block.y))
            placements.append(text)
        steps = [_STEP % (_ENCODE_STR(level_of[token]), int.__repr__(placed),
                          _ENCODE_STR(token), _ENCODE_STR(word))
                 for token, word, placed in zip(r.program, r.utterance, r.step_placements)]
        trials.append(_TRIAL % (
            int.__repr__(r.anomalies),
            _number(round(r.belief_entropy, 9)),
            _array(placements, trial_depth + 1),
            _number(round(r.f1, 9)),
            _ENCODE_STR(spec.left),
            _array([text for adopted, text in library if adopted <= number], trial_depth + 1),
            _ENCODE_STR(dsl.print_program(r.program)),
            int.__repr__(spec.repetition_block),
            _ENCODE_STR(spec.right),
            _array(steps, trial_depth + 1),
            int.__repr__(r.tokens_sent),
            int.__repr__(number),
            _array([_ENCODE_STR(word) for word in r.utterance], trial_depth + 1)))
    sequence = memo.get(trace.sequence)
    if sequence is None:
        sequence = memo[trace.sequence] = _nested(sequence_to_dict(trace.sequence),
                                                  _TRACE_DEPTH + 1)
    return _TRACE % (
        _number(trace.pragmatics.alpha),
        _number(trace.pragmatics.beta),
        int.__repr__(trace.dyad_seed),
        _number(round(trace.records[-1].belief_entropy if trace.records else 0.0, 9)),
        int.__repr__(trace.iteration),
        sequence,
        _ENCODE_STR(BODY_TOKEN_SUM),
        _array(trials, _TRACE_DEPTH + 1),
        _number(trace.learning.w))


def traces_json(traces: list[DyadTrace], master_seed: int, alpha: float, n_sequences: int,
                iterations: int) -> Iterator[str]:
    """The text of traces.json, as json.dumps(..., indent=2, sort_keys=True) and a newline
    write it, one dyad at a time: "traces" sorts after every key of the run's head, so each
    trace's text goes inside the head's last brackets. Only one trace's text is held at a time."""
    head = {"master_seed": master_seed, "alpha": alpha, "size_rule": BODY_TOKEN_SUM,
            "n_sequences": n_sequences, "iterations": iterations, "traces": []}
    before, after = (_nested(head, 0) + "\n").rsplit("[]", 1)
    yield before + "["
    memo: dict = {}
    separator = _LINE[_TRACE_DEPTH]
    for trace in traces:
        yield separator + trace_json(trace, memo)
        separator = _SEPARATOR[_TRACE_DEPTH]
    yield (_LINE[_TRACE_DEPTH - 1] if traces else "") + "]" + after


def narrate(trace: dict, towers: dict, trial: int | None = None, draw: bool = True,
            where: str = "trace") -> str:
    """The story of one entry of a traces file's "traces" list, read as strictly
    as any input file, on `towers` ({id: blocks}), which the file does not hold: a
    trial's F1 must be its builder_placements' score against its scene of `towers`.
    Per trial: its number, block, towers, F1 and tokens sent, program, utterance,
    each fragment it adopted and, with `draw`, its target and built scene side by
    side. The whole dyad ends with the final belief entropy and library size; with
    `trial`, only that trial's lines, and "" when the trace holds no such trial. A
    bad field is named from `where` on."""
    lines, library = [], []
    trials = field(trace, "trials", list, where)
    entropy = field(trace, "final_belief_entropy", float, where)
    for k, entry in enumerate(trials):
        name = f"{where}.trials[{k}]"
        number = field(entry, "trial", int, name)
        if trial is not None and number != trial:
            continue
        ids = [field(entry, side, str, name) for side in ("left", "right")]
        for side, tower in zip(("left", "right"), ids):
            if tower not in towers:
                raise InputError(f"{name}.{side}: no tower with id {reprlib.repr(tower)}")
        block = field(entry, "repetition_block", int, name)
        tokens = field(entry, "tokens_sent", int, name)
        f1 = field(entry, "f1", float, name)
        program = field(entry, "program", str, name)
        utterance = field(entry, "utterance", list, name)
        words = [field(utterance, i, str, f"{name}.utterance") for i in range(len(utterance))]
        lines += [f"trial {number:>2} (block {block}, {'+'.join(ids)})  "
                  f"F1={f1:.3f}  tokens={tokens}",
                  f"   program:   {program}",
                  f"   utterance: {' '.join(words)}"]
        library = field(entry, "library", list, name)
        for j, snap in enumerate(library):
            if field(snap, "adopted_trial", int, f"{name}.library[{j}]") == number:
                fragment, level, body = (field(snap, key, str, f"{name}.library[{j}]")
                                         for key in ("id", "level", "body"))
                lines.append(f"   + learned {fragment} [{level}] {body}")
        target = compose_scene(*(towers[tower] for tower in ids))
        built = blocks_field(entry, "builder_placements", name)
        if f1 != (scored := round(f1_score(target, built), 9)):
            raise InputError(f"{name}.f1: recorded {f1!r}, but builder_placements score {scored!r}"
                             f" against scene {'+'.join(ids)}: was it played on other towers?")
        if draw:
            rows = zip(render_ascii(target).split("\n"), render_ascii(built).split("\n"))
            lines += [f"   {a}   {b}" for a, b in rows]
    if trial is None:
        lines.append(f"final belief entropy: {entropy:.3f} bits; "
                     f"library size: {len(library)} fragments")
    return "\n".join(lines)
