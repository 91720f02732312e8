"""Experiment harness: named trial configurations, seeded parallel trial
execution, divergence/threshold reports, CSV emission, and the built-in
configurations behind ``replicate-figure``.

Every trial derives its own seed from the master seed and trial index, so
parallel and serial execution produce identical aggregates.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from ._rng import derive_seed
from .divergence import BoundInputs, lower_bound_error_rate, upper_bound_error_rate
from .markov import (
    ThresholdConvention,
    _i_tilde_args,
    chain_from_stationary,
    i_tilde_long,
    i_tilde_short,
    markov_hellinger_sq,
    markov_j_quantity,
    markov_renyi_exact,
    sparse_renyi_approx,
    t_star,
)
from .metrics import ham_star
from .recovery import (
    MarkovKernel,
    OnlineLikelihood,
    OnlineLikelihoodLearned,
    enemy_paths,
    mle_brute_force,
    persistent_components,
    refine_recover,
    transition_rate_clustering,
)
from .sbm import balanced_labelling, sample_labelling, sample_markov_snapshots
from .spectral import SpectralConfig, binarize, spectral_cluster

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "DivergenceReport",
    "divergence_report",
    "run_trial",
    "run_experiment",
    "records_to_csv",
    "threshold_grid",
    "figure_bundle",
    "threshold_grid_csv",
    "chains_in_units",
    "parse_config_text",
    "spectral_matrix",
    "recover",
    "ONLINE_ALGORITHMS",
    "SPECTRAL_ALGORITHMS",
    "MARKOV_ALGORITHMS",
    "KERNEL_ALGORITHMS",
    "ALGORITHMS",
    "UNITS",
]

ONLINE_ALGORITHMS = ("online", "online-learn")
SPECTRAL_ALGORITHMS = ("spectral", "spectral-union", "spectral-aggregate", "spectral-squared")
ALGORITHMS = (ONLINE_ALGORITHMS + ("refine", "refine-loo") + SPECTRAL_ALGORITHMS
              + ("rates", "friends", "enemies", "mle"))
MARKOV_ALGORITHMS = ("online", "rates")  # need the chain pair
KERNEL_ALGORITHMS = ("refine", "refine-loo", "mle")  # need a kernel pair or the chains

UNITS = ("absolute", "logn", "inv_n")


def _stationary_densities(n, mu1, nu1, units):
    """``mu1``/``nu1`` converted from ``units`` to densities, each checked to
    lie strictly in (0, 1)."""
    if units != "absolute" and n < 2:
        raise ValueError(f"need at least two nodes, got N={n}")
    scale = {"logn": math.log(n) / n, "inv_n": 1.0 / n, "absolute": 1.0}[units]
    for name, mult in (("mu1", mu1), ("nu1", nu1)):
        if not 0 < mult * scale < 1:
            raise ValueError(
                f"{name}={mult:g} ({units}) is density {mult * scale:.6g}, outside (0, 1)"
            )
    return mu1 * scale, nu1 * scale


def chains_in_units(n, mu1, nu1, p11, q11, units="logn"):
    """Intra and inter chains with stationary densities ``mu1``/``nu1`` given
    as raw probabilities (``absolute``), multiples of ``log(N)/N``
    (``logn``), or multiples of ``1/N`` (``inv_n``)."""
    pi_f, pi_g = _stationary_densities(n, mu1, nu1, units)
    return chain_from_stationary(pi_f, p11), chain_from_stationary(pi_g, q11)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a Markov block model plus an algorithm selection.

    ``mu1``/``nu1`` are interpreted according to ``units`` as in
    ``chains_in_units``.
    """

    n: int = 500
    k: int = 2
    t: int = 10
    mu1: float = 2.5
    nu1: float = 1.5
    p11: float = 0.7
    q11: float = 0.3
    units: str = "logn"
    algorithm: str = "online"
    init: str = "random"  # spectral | random | truth
    trials: int = 20
    seed: int = 0
    balanced: bool = False
    # online sweeps score against labels frozen at sweep entry by default;
    # in-place sweeps escape the mirror-flip cycles that synchronous updates
    # can enter when one interaction law is deterministic
    synchronous: bool = True
    name: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.units not in UNITS:
            raise ValueError(f"units must be one of {UNITS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.init not in ("spectral", "random", "truth"):
            raise ValueError(f"unknown init {self.init!r}")
        # validate densities and chain feasibility before any trial runs
        self.chains()

    def chains(self):
        return chains_in_units(self.n, self.mu1, self.nu1, self.p11, self.q11, self.units)


@dataclass
class TrialRecord:
    """Per-trial outcome; ``accuracies``/``ham_stars`` have one entry per
    snapshot for online algorithms and a single entry otherwise."""

    trial: int
    seed: int
    algorithm: str
    accuracies: list
    ham_stars: list
    seconds: float
    params: dict = field(default_factory=dict)

    @property
    def final_accuracy(self):
        return self.accuracies[-1]

    @property
    def final_ham_star(self):
        return self.ham_stars[-1]


def spectral_matrix(array, algorithm):
    """The symmetric matrix a spectral algorithm clusters: the union graph
    (``spectral``, ``spectral-union``), the sum of the snapshots
    (``spectral-aggregate``), or the sum of ``A_t A_t - D_t``
    (``spectral-squared``)."""
    if algorithm in ("spectral", "spectral-union"):
        return binarize(array)
    data = array.dense()
    if algorithm == "spectral-aggregate":
        return data.sum(axis=0).astype(np.float64)
    if algorithm != "spectral-squared":
        raise ValueError(f"{algorithm!r} is not a spectral algorithm")
    out = np.zeros(data.shape[1:], dtype=np.float64)
    for t in range(data.shape[0]):
        a = data[t].astype(np.float64)
        out += a @ a - np.diag(a.sum(axis=1))
    return out


def recover(array, algorithm, k, seed, chains=None, kernels=None, init="spectral",
            truth=None, synchronous=True, record=None):
    """Run one recovery algorithm on a SnapshotArray; returns ``(labels,
    k_hat)``, ``k_hat`` being the block count that ``rates``, ``friends``
    and ``enemies`` estimate (None for the others).

    ``chains`` is the ``(intra, inter)`` chain pair; MARKOV_ALGORITHMS need
    it, and KERNEL_ALGORITHMS use its Markov kernels unless ``kernels``
    gives an ``(intra, inter)`` kernel pair.  Online algorithms start from
    ``init`` (spectral on the first snapshot, random, or ``truth``), pass
    each snapshot's labels to ``record(t, labels)``, and sweep
    ``synchronous``-ly.  Spectral steps and the random start draw from
    substreams 4 and 3 of ``seed``.
    """
    if chains is None and (algorithm in MARKOV_ALGORITHMS
                           or algorithm in KERNEL_ALGORITHMS and kernels is None):
        raise ValueError(f"algorithm {algorithm!r} needs the chain pair")
    spec_cfg = SpectralConfig(K=k, seed=derive_seed(seed, 4))
    if algorithm in ONLINE_ALGORITHMS:
        if init == "spectral":
            start = spectral_cluster(binarize(array, t=0), spec_cfg)
        elif init == "truth":
            start = truth.copy()
        else:
            start = sample_labelling(array.N, k, seed=derive_seed(seed, 3))
        if algorithm == "online":
            state = OnlineLikelihood(array.snapshot(0), start, *chains, k, synchronous=synchronous)
        else:
            state = OnlineLikelihoodLearned(array.snapshot(0), start, k, synchronous=synchronous)
        return state.run(array, record), None
    if algorithm in KERNEL_ALGORITHMS:
        kf, kg = kernels or (MarkovKernel(chains[0]), MarkovKernel(chains[1]))
        if algorithm == "mle":
            return mle_brute_force(array, k, kf, kg), None
        mode = "fast" if algorithm == "refine" else "loo"
        return refine_recover(array, kf, kg, k, spec_cfg, mode=mode), None
    if algorithm in SPECTRAL_ALGORITHMS:
        return spectral_cluster(spectral_matrix(array, algorithm), spec_cfg), None
    if algorithm == "rates":
        return transition_rate_clustering(array, chains[0].transition, chains[1].transition)
    if algorithm == "friends":
        return persistent_components(array)
    if algorithm == "enemies":
        return enemy_paths(array)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_trial(config, trial):
    """Run one seeded trial of an experiment; returns a TrialRecord."""
    trial_seed = derive_seed(config.seed, trial)
    intra, inter = config.chains()
    if config.balanced:
        truth = balanced_labelling(config.n, config.k)
    else:
        truth = sample_labelling(config.n, config.k, seed=derive_seed(trial_seed, 1))
    array = sample_markov_snapshots(truth, intra, inter, config.t, seed=derive_seed(trial_seed, 2))

    t0 = time.perf_counter()
    accuracies, ham_stars = [], []

    def push(t, labels):
        d, _ = ham_star(labels, truth)
        ham_stars.append(int(d))
        accuracies.append(1.0 - d / config.n)

    labels, _ = recover(array, config.algorithm, config.k, trial_seed, chains=(intra, inter),
                        init=config.init, truth=truth, synchronous=config.synchronous,
                        record=push)
    if config.algorithm not in ONLINE_ALGORITHMS:
        push(1, labels)
    seconds = time.perf_counter() - t0
    return TrialRecord(
        trial=trial,
        seed=trial_seed,
        algorithm=config.algorithm,
        accuracies=accuracies,
        ham_stars=ham_stars,
        seconds=seconds,
        params=asdict(config),
    )


def _trial_job(args):
    config, trial = args
    return run_trial(config, trial)


def run_experiment(config, jobs=1):
    """All trials of an experiment, optionally on a process pool.  Results
    are ordered by trial index regardless of scheduling."""
    tasks = [(config, trial) for trial in range(config.trials)]
    if jobs <= 1:
        records = [run_trial(config, trial) for _, trial in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_trial_job, tasks))
    return sorted(records, key=lambda r: r.trial)


def summarize(records):
    """Mean accuracy and standard error of the mean per snapshot index."""
    acc = np.array([r.accuracies for r in records], dtype=np.float64)
    mean = acc.mean(axis=0)
    sem = acc.std(axis=0, ddof=1) / math.sqrt(acc.shape[0]) if acc.shape[0] > 1 else 0 * mean
    return mean, sem


def records_to_csv(records, config=None, deterministic=False, extra_header=()):
    """Long-format CSV: ``trial,t,algorithm,accuracy,ham_star,seconds``.

    The header echoes the configuration as comment lines, sufficient to
    rerun the experiment.  ``deterministic`` suppresses the timestamp line
    and zeroes the wall-time column so identical configs yield
    byte-identical output.
    """
    lines = []
    if not deterministic:
        lines.append(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    if config is not None:
        for key, value in sorted(asdict(config).items()):
            lines.append(f"# {key} = {value}")
    for item in extra_header:
        lines.append(f"# {item}")
    lines.append("trial,t,algorithm,accuracy,ham_star,seconds")
    for rec in sorted(records, key=lambda r: r.trial):
        n_steps = len(rec.accuracies)
        seconds = 0.0 if deterministic else rec.seconds
        for idx, (acc, hs) in enumerate(zip(rec.accuracies, rec.ham_stars)):
            t = idx + 1 if n_steps > 1 else rec.params.get("t", n_steps)
            lines.append(
                f"{rec.trial},{t},{rec.algorithm},{acc:.6f},{hs},{seconds:.4f}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Divergence / threshold reports
# ---------------------------------------------------------------------------


@dataclass
class DivergenceReport:
    """Divergence and threshold quantities for one parameter set."""

    n: int
    k: int
    t: int
    exact: float
    hellinger_sq: float
    approx: float
    approx_radius: float
    approx_in_regime: bool
    rho: float
    j_quantity: float
    beta_half: float
    i_tilde_short: float
    i_tilde_long: float
    t_star_exact: object
    t_star_itilde: object
    lower_bound_quadratic: float
    lower_bound_linear: float
    upper_bound: float

    def to_dict(self):
        return asdict(self)

    def to_text(self):
        rows = [
            ("nodes N", self.n),
            ("blocks K", self.k),
            ("snapshots T", self.t),
            ("exact divergence (order 1/2)", f"{self.exact:.10g}"),
            ("exact squared Hellinger", f"{self.hellinger_sq:.10g}"),
            ("sparse approximation", f"{self.approx:.10g}"),
            ("approximation radius", f"{self.approx_radius:.4g}"),
            ("sparse regime (rho T <= 0.01)", self.approx_in_regime),
            ("rho", f"{self.rho:.6g}"),
            ("log-ratio second moment J", f"{self.j_quantity:.10g}"),
            ("beta ratio (r = 1/2)", f"{self.beta_half:.6g}"),
            ("threshold constant (short horizon)", f"{self.i_tilde_short:.10g}"),
            ("threshold constant (long horizon)", f"{self.i_tilde_long:.10g}"),
            ("T* (exact convention)", self.t_star_exact),
            ("T* (itilde convention)", self.t_star_itilde),
            ("lower bound (quadratic I21)", f"{self.lower_bound_quadratic:.6g}"),
            ("lower bound (linear I21)", f"{self.lower_bound_linear:.6g}"),
            ("upper bound", f"{self.upper_bound:.6g}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows) + "\n"


def divergence_report(intra, inter, n, k, t, t_max=10**6):
    """Assemble the full divergence/threshold report for one chain pair."""
    exact = markov_renyi_exact(0.5, intra, inter, t)
    hel = markov_hellinger_sq(intra, inter, t)
    approx = sparse_renyi_approx(0.5, intra, inter, t)
    j = markov_j_quantity(intra, inter, t)
    # the order-1/2 divergence is already symmetric in its arguments
    d_high = 0.5 * (
        markov_renyi_exact(1.5, intra, inter, t) + markov_renyi_exact(1.5, inter, intra, t)
    )
    beta_half = d_high / exact if exact > 0 else math.inf
    args = _i_tilde_args(intra, inter, math.log(n) / n)
    its = i_tilde_short(*args, t)
    itl = i_tilde_long(*args[2:5])  # the p01 multiples and h11 squared
    inputs = BoundInputs(N=n, K=k, I=exact, J=j, eps=0.01, zeta=0.01)
    return DivergenceReport(
        n=n,
        k=k,
        t=t,
        exact=exact,
        hellinger_sq=hel,
        approx=approx.value,
        approx_radius=approx.error_radius,
        approx_in_regime=approx.in_regime,
        rho=approx.rho,
        j_quantity=j,
        beta_half=beta_half,
        i_tilde_short=its,
        i_tilde_long=itl,
        t_star_exact=t_star(intra, inter, n, k, ThresholdConvention.EXACT, t_max),
        t_star_itilde=t_star(intra, inter, n, k, ThresholdConvention.I_TILDE, t_max),
        lower_bound_quadratic=lower_bound_error_rate(inputs, "quadratic"),
        lower_bound_linear=lower_bound_error_rate(inputs, "linear"),
        upper_bound=upper_bound_error_rate(inputs),
    )


def threshold_grid(n, k, mu1_mult, nu1_mult, p11_values, q11_values,
                   convention=ThresholdConvention.EXACT, t_max=10**6):
    """log10(T*) over a grid of persistence parameters; cells where the
    search cap is reached or the chain pair is infeasible (implied p01 > 1)
    come out inf.  Any other bad input raises ValueError before the search."""
    pi_f, pi_g = _stationary_densities(n, mu1_mult, nu1_mult, "logn")
    for name, values in (("p11", p11_values), ("q11", q11_values)):
        for x in values:
            if not 0 <= x <= 1:
                raise ValueError(f"{name}={x:g} outside [0, 1]")
    out = np.full((len(p11_values), len(q11_values)), math.inf)
    for i, p11 in enumerate(p11_values):
        for jdx, q11 in enumerate(q11_values):
            try:
                intra = chain_from_stationary(pi_f, p11)
                inter = chain_from_stationary(pi_g, q11)
            except ValueError:
                continue  # inputs are valid, so this is an infeasible p01
            ts = t_star(intra, inter, n, k, convention, t_max)
            if ts is not None:
                out[i, jdx] = math.log10(ts)
    return out


def threshold_grid_csv(grid, p11_values, q11_values):
    """``p11,q11,log10_tstar`` CSV text of a ``threshold_grid`` result."""
    lines = ["p11,q11,log10_tstar"]
    for i, p11 in enumerate(p11_values):
        for j, q11 in enumerate(q11_values):
            cell = grid[i, j]
            lines.append(f"{p11:.4f},{q11:.4f},{'inf' if math.isinf(cell) else f'{cell:.4f}'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in figure configurations
# ---------------------------------------------------------------------------


_FIG3_GRID = [round(x, 2) for x in np.linspace(0.1, 0.9, 9)]
_FIG7_METHODS = ("online", "spectral-union", "spectral-aggregate", "spectral-squared",
                 "friends", "enemies")
# figure: (default trials, fields shared by its configs, per-config fields)
_FIGURES = {
    3: (5, dict(n=500, k=2, t=10, nu1=1.5, units="logn", algorithm="online", init="random"),
        [dict(mu1=mult, p11=p11, q11=q11, name=f"fig3_mu{mult}_p{p11}_q{q11}")
         for mult in (1.51, 2.5, 4.0) for p11 in _FIG3_GRID for q11 in _FIG3_GRID]),
    4: (50, dict(n=500, k=2, t=30, nu1=1.5, p11=0.7, q11=0.3, units="logn",
                 algorithm="online", balanced=True),
        [dict(mu1=mult, init=init, name=f"fig4_mu{mult}_{init}")
         for mult in (1.5, 2.5, 4.0) for init in ("spectral", "random")]),
    5: (50, dict(k=2, q11=0.3, units="inv_n", algorithm="online", init="random"),
        [dict(n=500, t=100, mu1=2.5, nu1=1.5, p11=0.6, name="fig5_a"),
         dict(n=100, t=1000, mu1=0.15, nu1=0.1, p11=0.4, name="fig5_b")]),
    6: (20, dict(n=1000, k=2, t=30, mu1=0.05, p11=0.6, q11=0.3, units="absolute",
                 init="spectral"),
        [dict(nu1=nu1, algorithm=alg, name=f"fig6_nu{nu1}_{alg}")
         for nu1 in (0.03, 0.035, 0.04) for alg in ("online", "online-learn")]),
    # panel a varies q11 under a static intra chain, panel b varies p11;
    # online starts from spectral init and sweeps in place
    7: (20, dict(n=500, k=2, t=30, mu1=0.05, nu1=0.04, units="absolute"),
        [dict(p11=p11, q11=q11, algorithm=alg, init="spectral" if alg == "online" else "random",
              synchronous=alg != "online", name=f"fig7{point}_{alg}")
         for point, p11, q11 in [(f"a_q{q}", 1.0, q) for q in (0.3, 0.5, 0.7, 0.9)]
         + [(f"b_p{p}", p, 0.04) for p in (0.5, 0.7, 0.9, 0.99, 1.0)]
         for alg in _FIG7_METHODS]),
}


def figure_bundle(figure, trials=None, seed=0):
    """Named experiment set reproducing one of the built-in figures.

    Returns ``(kind, payload)`` where ``kind`` is ``"threshold-grid"`` for
    threshold maps (payload: list of ``(name, threshold_grid keyword
    arguments)`` pairs) or ``"experiments"`` (payload: list of
    ExperimentConfig, ``trials`` overriding the figure's default count).
    """
    if figure == 2:
        values = np.linspace(0.05, 0.95, 19)
        return "threshold-grid", [
            ("fig2_mu%.2f" % mult, dict(n=500, k=2, mu1_mult=mult, nu1_mult=1.5,
                                        p11_values=values, q11_values=values))
            for mult in (1.51, 2.5, 4.0)
        ]
    if figure not in _FIGURES:
        raise ValueError(f"unknown figure {figure!r} (supported: 2..7)")
    default, shared, rows = _FIGURES[figure]
    return "experiments", [
        ExperimentConfig(**shared, **row, trials=trials or default, seed=seed) for row in rows
    ]


# ---------------------------------------------------------------------------
# Config file parsing: [section] headers and key = value lines
# ---------------------------------------------------------------------------


def _coerce(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("\"'")


def parse_config_text(text):
    """Parse a nested key-value experiment file into a dict of dicts.

    Keys outside any section land in the "" section.  Values are coerced to
    bool/int/float where possible.
    """
    out = {"": {}}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[section][key.strip()] = _coerce(value.strip())
    return out


def config_from_dict(values):
    """Build an ExperimentConfig from a flat dict of overrides."""
    allowed = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(values) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**values)
