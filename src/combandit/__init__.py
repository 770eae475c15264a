"""Simulation and verification harness for bandit combinatorial
optimization: adversarial environments with a planted optimum under
correlated Gaussian noise, baseline learners run under strict bandit
feedback, and numerical checks of the identities behind the k^{3/2}
sqrt(dT) regret floor."""

from ._kernels import jit_status
from .action_sets import (
    ActionSet,
    ActionSetError,
    DEFAULT_ENUMERATION_CAP,
    Dimensions,
    EnumerationCapExceeded,
    Family,
    LayeredPathSet,
    MatchingSet,
    MultitaskSet,
    action_to_string,
    build_action_set,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    hindsight_best,
)
from .analysis import (
    Cell,
    ClipEventReport,
    RegretSummary,
    ScalingFit,
    VarianceReport,
    empirical_regret,
    gaussian_kl,
    lower_bound_value,
    play_cells,
    scaling_fit,
    summarize_regret,
    variance_report,
    verify_clip_event,
    verify_ranking_tj_bound,
    verify_tj_row_identity,
)
from .engine import (
    AdversaryFactory,
    GameProtocolError,
    GameRecord,
    Transcript,
    play_losses,
    replicate,
    run_game,
)
from .environments import (
    AdversaryConfig,
    LossTable,
    NoiseMode,
    clip,
    compute_epsilon,
    compute_sigma,
    draw_losses,
    make_adversary,
    make_rng,
    shortest_path_losses,
    standard_normals,
)
from .learners import (
    EnumeratedExp2Learner,
    Exp2SingularError,
    FixedActionLearner,
    Learner,
    LearnerSpec,
    PerTaskExp3Learner,
    RoundRobinLearner,
    UniformRandomLearner,
    default_eta,
    default_gamma,
    make_learner,
    play_with_kernel,
)

__version__ = "0.3.0"
