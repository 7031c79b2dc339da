#!/usr/bin/env python3
"""Play one Architect/Builder dyad and print every trial: the chosen program,
the words sent, the reconstruction, and what entered the library."""

import argparse
import random

from towertalk.blockworld import stimulus_towers
from towertalk.cli import DEFAULT_ALPHA
from towertalk.library_learning import library_trajectory
from towertalk.pragmatics import PragmaticsConfig
from towertalk.simulation import LearningConfig, generate_trial_sequence, run_dyad, trace_to_dict
from towertalk.traces import narrate


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
    learned = library_trajectory(sequence, args.w, stimuli)
    trace = run_dyad(sequence, args.w, cfg, lcfg, random.Random(args.dyad_seed), learned)
    # The trace as traces.json holds it, told as `render --trace` tells it.
    print(narrate(trace_to_dict(trace), stimuli, draw=args.render))


if __name__ == "__main__":
    main()
