"""Traced in-process run: time and count the calls into each towertalk layer.

Usage:  python3 perfbench/layers.py <towertalk CLI arguments>

Runs the CLI in this process with wrappers around the public functions of each
module (the layers), then prints one JSON object of per-layer figures as the
last line of standard output. Nothing in `src/` is changed: every wrapper is
installed from here, under the name each caller looks up. `simulation` imports
`update_library_with_log`, `architect_choose` and others by name, so patching
only the defining module would miss those calls.

Hot functions (`dsl.token_length`, `dsl.inline`) get count-only wrappers. The
parent compares this run's wall time with an untraced run to report the
overhead the wrappers add.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

from towertalk import blockworld, cli, dsl, library_learning, pragmatics, simulation

clock = time.perf_counter
missing: list[str] = []


@dataclass
class Timed:
    calls: int = 0
    seconds: float = 0.0


def install(name: str, make_wrapper, *modules) -> None:
    """Replace `name` in every module whose binding is the defining function."""
    original = getattr(modules[0], name, None)
    if original is None:
        missing.append(f"{modules[0].__name__}.{name}")
        return
    wrapper = make_wrapper(original)
    for module in modules:
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)
        else:
            missing.append(f"{module.__name__}.{name}")


def timed(stat: Timed, after=None):
    """Wrapper factory: time each call into `stat`; `after(args, result)` sees the result."""
    def make(fn):
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            stat.seconds += clock() - start
            stat.calls += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


def counted(counter):
    """Wrapper factory for hot functions: one counter increment, no clock."""
    def make(fn):
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper
    return make


learner = Timed()
windows = Timed()
tokenize = Timed()
execute = Timed()
drop = Timed()
choose = Timed()
belief_update = Timed()
dyads = Timed()
aggregate = Timed()
encode = Timed()
write = Timed()
# next() on a count gives the number of ticks so far; read each once, at the end.
token_length_calls = itertools.count()
inline_calls = itertools.count()
jsd_calls = itertools.count()

learner_states: set = set()
trajectories: list = []
counts = Counter()


def on_learn(args, result):
    library, observed, cfg = args
    scenes = frozenset(Counter(tuple(p) for p in observed).items())
    learner_states.add((library.expansions(), scenes, cfg))
    counts["adoptions"] += len(result[1])


def on_windows(args, result):
    counts["candidates_proposed"] += len(result)


def on_belief(args, result):
    belief, anomaly = result
    counts["anomalies"] += int(anomaly)
    counts["belief_components_peak"] = max(counts["belief_components_peak"],
                                           len(args[0].components), len(belief.components))


def on_traces_text(args, result):
    if isinstance(args[0], dict) and "traces" in args[0]:
        counts["trace_bytes"] += len(result.encode("utf-8"))


def dyad(fn):
    """run_dyad, timed inclusively; in `simulate` every learner and pragmatics
    call runs inside a dyad, so their time is subtracted to give self time."""
    def wrapper(sequence, w, cfg, lcfg, *args, **kwargs):
        trajectories.append((sequence, replace(lcfg, w=w)))
        start = clock()
        result = fn(sequence, w, cfg, lcfg, *args, **kwargs)
        dyads.seconds += clock() - start
        dyads.calls += 1
        return result
    return wrapper


def install_all() -> None:
    install("update_library_with_log", timed(learner, on_learn),
            library_learning, simulation)
    install("_candidate_windows", timed(windows, on_windows), library_learning)
    install("shortest_tokenization", timed(tokenize), library_learning, pragmatics)
    install("token_length", counted(token_length_calls), dsl)
    install("inline", counted(inline_calls), dsl)
    install("execute", timed(execute), dsl)
    install("drop_block", timed(drop), blockworld, dsl, pragmatics)
    install("architect_choose", timed(choose), pragmatics, simulation)
    install("update_belief", timed(belief_update, on_belief), pragmatics, simulation)
    install("run_dyad", dyad, simulation)
    for table in ("fragment_trajectory", "abstraction_proportions",
                  "accuracy_and_efficiency", "mean_pairwise_jsd"):
        install(table, timed(aggregate), simulation)
    install("jsd", counted(jsd_calls), simulation)
    install("trace_to_dict", timed(encode), simulation)
    install("_json_text", timed(encode, on_traces_text), cli)
    install("_write_text", timed(write), cli)


def figures() -> dict:
    cache = getattr(library_learning, "_mdl_cost", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    distinct = len(set(trajectories))
    return {
        "library_learning.learner_s": learner.seconds,
        "library_learning.learner_calls": learner.calls,
        "library_learning.learner_distinct_states": len(learner_states),
        "library_learning.trajectory_repeats": len(trajectories) / distinct if distinct else 0.0,
        "library_learning.windows_s": windows.seconds,
        "library_learning.candidates_proposed": counts["candidates_proposed"],
        "library_learning.tokenize_s": tokenize.seconds,
        "library_learning.tokenize_calls": tokenize.calls,
        "library_learning.mdl_hits": info.hits if info else 0,
        "library_learning.mdl_misses": info.misses if info else 0,
        "library_learning.adoptions": counts["adoptions"],
        "dsl.token_length_calls": next(token_length_calls),
        "dsl.inline_calls": next(inline_calls),
        "dsl.execute_calls": execute.calls,
        "dsl.execute_s": execute.seconds,
        "blockworld.drop_block_calls": drop.calls,
        "blockworld.drop_block_s": drop.seconds,
        "pragmatics.choose_s": choose.seconds,
        "pragmatics.choose_calls": choose.calls,
        "pragmatics.belief_update_s": belief_update.seconds,
        "pragmatics.belief_update_calls": belief_update.calls,
        "pragmatics.anomalies": counts["anomalies"],
        "pragmatics.belief_components_peak": counts["belief_components_peak"],
        "simulation.dyad_self_s": (dyads.seconds - learner.seconds - choose.seconds
                                   - belief_update.seconds),
        "simulation.aggregate_s": aggregate.seconds,
        "simulation.jsd_pairs": next(jsd_calls),
        "cli.encode_s": encode.seconds,
        "cli.trace_bytes": counts["trace_bytes"],
        "cli.write_s": write.seconds,
    }


def main(argv: list[str]) -> int:
    install_all()
    if missing:
        print(f"layers: not traced (name not found): {', '.join(missing)}", file=sys.stderr)
    code = cli.main(argv)
    print(json.dumps({"exit_code": code, "missing": missing, "figures": figures()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
