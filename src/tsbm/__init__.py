"""Temporal stochastic block models: divergence calculus, recovery
thresholds, community recovery algorithms, and an experiment harness."""

from .divergence import (
    BoundInputs,
    FiniteDistribution,
    beta_ratio,
    geometric_mixture,
    hellinger_sq,
    homogeneous_llr_moments,
    j_quantity,
    kl,
    llr_moments,
    lower_bound_error_rate,
    renyi,
    renyi_symmetric,
    upper_bound_error_rate,
    v_kl,
    zero_inflated_renyi_half,
)
from .markov import (
    BinaryMarkovChain,
    PathStats,
    SparseApprox,
    ThresholdConvention,
    chain_from_stationary,
    count_paths,
    h11_sq,
    high_order_bound,
    i_tilde_long,
    i_tilde_short,
    markov_hellinger_sq,
    markov_j_quantity,
    markov_renyi_brute,
    markov_renyi_exact,
    path_stats,
    sparse_renyi_approx,
    t_star,
)
from .metrics import (
    accuracy,
    confusion_matrix,
    ham,
    ham_star,
    mirkin,
    rand_index,
    unique_alignment,
)
from .recovery import (
    CategoricalKernel,
    MarkovKernel,
    OnlineLikelihood,
    OnlineLikelihoodLearned,
    enemy_paths,
    mle_brute_force,
    persistent_components,
    refine_recover,
    transition_rate_clustering,
)
from .sbm import (
    SnapshotArray,
    balanced_labelling,
    read_labels,
    read_snapshots,
    sample_categorical_snapshots,
    sample_labelling,
    sample_markov_snapshots,
    write_labels,
    write_snapshots,
)
from .spectral import binarize, leave_one_out_cluster, spectral_cluster

__version__ = "0.1.0"
