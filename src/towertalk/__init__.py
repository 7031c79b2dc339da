"""Architect/Builder block-assembly simulator.

Couples Bayesian library learning over a tower-building DSL with a
cost-sensitive pragmatic speaker that must coordinate word meanings for its
learned abstractions with a literal listener.
"""

from .blockworld import (
    BlockPlacement,
    GridState,
    Scene,
    TowerStimulus,
    compose_scene,
    drop_block,
    f1_score,
    render_ascii,
    stimulus_towers,
)
from .dsl import (
    Fragment,
    Library,
    Program,
    canonical_program,
    execute,
    inline,
    print_program,
    token_length,
)
from .library_learning import (
    LearningConfig,
    classify_fragment,
    library_score,
    mdl,
    shortest_tokenization,
)
from .pragmatics import (
    BeliefState,
    BuilderState,
    PragmaticsConfig,
    architect_choose,
    builder_interpret,
    extend_hypotheses,
    joint_utility,
    marginal_listener,
    update_belief,
)
from .simulation import (
    DyadTrace,
    TrialRecord,
    TrialSequence,
    TrialSpec,
    abstraction_proportions,
    accuracy_and_efficiency,
    fragment_trajectory,
    generate_trial_sequence,
    jsd,
    run_dyad,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
