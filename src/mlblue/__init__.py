"""Multilevel best linear unbiased estimation with grouped model samples.

The package estimates expectations of a high-fidelity model by combining
correlated lower-fidelity models. Samples are drawn in groups (every model
in a group sees the same random input); the estimator is the best linear
unbiased combination of all group sample means, and the number of samples
per group is chosen by a semidefinite program that is provably optimal for
a budget, a variance tolerance, or any point on the trade-off curve
between the two.

Layering: models/covariance describe the problem, estimator implements the
linear algebra core, sdp is a self-contained conic solver, allocate turns
specs into solved allocations, baselines/synthetic/config/runner/cli are
the benchmarking and execution harness.
"""

__version__ = "0.1.0"
