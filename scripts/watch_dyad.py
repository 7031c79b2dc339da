#!/usr/bin/env python3
"""Play one Architect/Builder dyad and print every trial: the chosen program,
the words sent, the reconstruction, and what entered the library."""

import argparse
import random

from towertalk.blockworld import Scene, compose_scene, render_ascii, stimulus_towers
from towertalk.cli import DEFAULT_ALPHA
from towertalk.dsl import print_program
from towertalk.library_learning import LearningConfig
from towertalk.pragmatics import PragmaticsConfig
from towertalk.simulation import generate_trial_sequence, run_dyad


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="trial sequence seed")
    parser.add_argument("--dyad-seed", type=int, default=0)
    parser.add_argument("--w", type=float, default=1.5)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--beta", type=float, default=0.3)
    parser.add_argument("--render", action="store_true",
                        help="also draw target and reconstruction")
    args = parser.parse_args()
    try:
        cfg = PragmaticsConfig(alpha=args.alpha, beta=args.beta)
        lcfg = LearningConfig(w=args.w)
    except ValueError as exc:
        parser.error(str(exc))

    stimuli = stimulus_towers()
    sequence = generate_trial_sequence(args.seed)
    trace = run_dyad(sequence, args.w, cfg, lcfg, random.Random(args.dyad_seed), stimuli)

    towers = {t.id: t for t in stimuli}
    for number, (spec, record) in enumerate(zip(sequence.trials, trace.records), start=1):
        print(f"trial {number:>2} (block {spec.repetition_block}, "
              f"{spec.left}+{spec.right})  F1={record.f1:.3f}  "
              f"tokens={record.tokens_sent}")
        print(f"   program:   {print_program(record.program)}")
        print(f"   utterance: {' '.join(record.utterance)}")
        for snap in trace.final_library:
            if snap.adopted_trial == number:
                print(f"   + learned {snap.id} [{snap.level}] {snap.body}")
        if args.render:
            target = compose_scene(towers[spec.left], towers[spec.right])
            built = Scene(target.width, target.height,
                          frozenset(record.builder_placements))
            for left, right in zip(render_ascii(target).split("\n"),
                                   render_ascii(built).split("\n")):
                print(f"   {left}   {right}")
    final_entropy = trace.records[-1].belief_entropy if trace.records else 0.0
    print(f"final belief entropy: {final_entropy:.3f} bits; "
          f"library size: {len(trace.final_library)} fragments")


if __name__ == "__main__":
    main()
