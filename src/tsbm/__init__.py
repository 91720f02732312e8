"""Temporal stochastic block models: divergence calculus, recovery
thresholds, community recovery algorithms, and an experiment harness."""

__version__ = "0.1.0"
