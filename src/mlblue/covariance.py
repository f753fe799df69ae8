"""Covariance estimation, repair, and level extrapolation.

Everything downstream (estimator assembly, allocation SDPs, baselines) reads
model covariances from a CovarianceStore: per output, a symmetric matrix
plus a mask saying which entries are actually known. Unknown entries are
the single source of truth for which sampling groups are usable; a group
whose pairwise covariance block has holes is simply not available to the
estimator. ``spd_repair`` works on one matrix or on a stack of them, so the
estimator repairs all blocks of one group size in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceStore",
    "PilotBatch",
    "sample_covariance",
    "spd_repair",
    "richardson_extrapolate",
    "estimate_decay_rate",
    "reconstruct_highfi_covariance",
]


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CovarianceStore:
    """Per-output covariance matrices with known-masks.

    Immutable after construction; ``with_updates`` returns a new store.
    """

    matrices: np.ndarray  # (num_outputs, n, n) float
    known: np.ndarray  # (num_outputs, n, n) bool

    def __init__(self, matrices, known=None):
        matrices = np.array(matrices, dtype=float)
        if matrices.ndim == 2:
            matrices = matrices[None]
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("matrices must be one square matrix per output")
        m, n, _ = matrices.shape
        asym = np.abs(matrices - matrices.transpose(0, 2, 1)).max(initial=0.0)
        scale = np.abs(matrices).max(initial=0.0)
        if asym > 1e-12 * max(scale, 1.0):
            raise ValueError("covariance matrices must be symmetric")
        matrices = 0.5 * (matrices + matrices.transpose(0, 2, 1))
        if known is None:
            known = np.ones((m, n, n), dtype=bool)
        else:
            known = np.array(known, dtype=bool)
            if known.ndim == 2:
                known = known[None]
            if known.shape != matrices.shape:
                raise ValueError("known mask shape mismatch")
            if not np.array_equal(known, known.transpose(0, 2, 1)):
                raise ValueError("known mask must be symmetric")
        matrices[~known] = 0.0
        object.__setattr__(self, "matrices", _freeze(matrices))
        object.__setattr__(self, "known", _freeze(known))

    @property
    def num_outputs(self) -> int:
        return self.matrices.shape[0]

    @property
    def num_models(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, output: int = 1) -> np.ndarray:
        return self.matrices[output - 1]

    def known_groups(self, members, output: int = 1) -> np.ndarray:
        """Mask over the rows of a (num_groups, num_models) bool membership
        matrix: True where every pairwise entry of the row's models is known."""
        holes = (members @ ~self.known[output - 1]) & members
        return ~holes.any(axis=1)

    def with_updates(self, output: int, updates) -> "CovarianceStore":
        """New store with (i, j, value) entries set symmetrically.

        ``i``/``j`` are 1-based model ids; each update marks the entry (and
        its mirror) as known.
        """
        mats = self.matrices.copy()
        known = self.known.copy()
        s = output - 1
        for i, j, value in updates:
            a, b = int(i) - 1, int(j) - 1
            mats[s, a, b] = mats[s, b, a] = float(value)
            known[s, a, b] = known[s, b, a] = True
        return CovarianceStore(mats, known)


@dataclass(frozen=True)
class PilotBatch:
    """Aligned pilot samples: per output, one column per model.

    Row j of every available column comes from the same random input, so
    column covariances estimate the model covariances directly. Unavailable
    models are masked out via ``available`` and their columns are ignored.
    """

    samples: np.ndarray  # (num_outputs, count, num_models)
    available: np.ndarray  # (num_outputs, num_models) bool

    def __init__(self, samples, available=None):
        samples = np.array(samples, dtype=float)
        if samples.ndim == 2:
            samples = samples[None]
        if samples.ndim != 3:
            raise ValueError("samples must be (outputs, count, models)")
        m, count, n = samples.shape
        if count < 2:
            raise ValueError("at least 2 pilot samples are required")
        if available is None:
            available = np.ones((m, n), dtype=bool)
        else:
            available = np.array(available, dtype=bool)
            if available.ndim == 1:
                available = available[None]
            if available.shape != (m, n):
                raise ValueError("available mask shape mismatch")
        object.__setattr__(self, "samples", _freeze(samples))
        object.__setattr__(self, "available", _freeze(available))


def sample_covariance(batch: PilotBatch) -> CovarianceStore:
    """Unbiased sample covariance of a pilot batch.

    Entries are known only where both models are available for the output.
    Raises when an available column contains non-finite values; the message
    names the offending model.
    """
    m, count, n = batch.samples.shape
    mats = np.zeros((m, n, n))
    known = np.zeros((m, n, n), dtype=bool)
    for s in range(m):
        avail = batch.available[s]
        cols = np.flatnonzero(avail)
        for i in cols:
            if not np.all(np.isfinite(batch.samples[s, :, i])):
                raise ValueError(
                    f"model {i + 1} has non-finite pilot samples for output {s + 1}"
                )
        x = batch.samples[s][:, cols]
        xc = x - x.mean(axis=0)
        c = xc.T @ xc / (count - 1)
        c = 0.5 * (c + c.T)
        mats[s][np.ix_(cols, cols)] = c
        known[s][np.ix_(cols, cols)] = True
    return CovarianceStore(mats, known)


def spd_repair(matrix, floor: float = 1e-10) -> np.ndarray:
    """Raise small eigenvalues so each matrix is safely positive definite.

    ``matrix`` is one symmetric matrix or a stack of them, shape (..., n, n),
    and each is repaired on its own: eigenvalues below floor * max_eigenvalue
    are lifted to that level; if no eigenvalue is positive they are lifted
    to ``floor`` itself. Every matrix must be symmetric to 1e-12 relative
    tolerance. Repairing an already repaired matrix is a no-op up to
    roundoff.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if floor < 0.0:
        raise ValueError("floor must be nonnegative")
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    flipped = stack.transpose(0, 2, 1)
    scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    asym = np.abs(stack - flipped).max(axis=(1, 2), initial=0.0)
    if np.any(asym > 1e-12 * np.maximum(scale, 1.0)):
        raise ValueError("matrix is asymmetric beyond 1e-12 relative tolerance")
    sym = 0.5 * (stack + flipped)
    eigvals, eigvecs = np.linalg.eigh(sym)
    lam_max = eigvals[:, -1]
    level = np.where(lam_max > 0.0, floor * lam_max, floor)
    repair = eigvals[:, 0] < level
    if repair.any():
        vecs = eigvecs[repair]
        lifted = np.maximum(eigvals[repair], level[repair, None])
        out = (vecs * lifted[:, None, :]) @ vecs.transpose(0, 2, 1)
        sym[repair] = 0.5 * (out + out.transpose(0, 2, 1))
    return sym.reshape(matrix.shape)


def richardson_extrapolate(level_values, rate: float, num_finer: int = 1, ratio: float = 2.0):
    """Extrapolate a level sequence to finer levels via a power-law fit.

    ``level_values[0]`` is the finest known level and subsequent entries are
    coarser by a factor ``ratio`` in mesh size each. A two-parameter model
    value(h) = limit + K * h**rate is fitted through the two finest known
    values and evaluated at the ``num_finer`` finer levels, nearest first.
    Constant input yields K = 0. Non-monotone input draws a RuntimeWarning,
    since the fit then rests on levels that do not behave like a power law.
    """
    values = np.asarray(level_values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two known level values")
    if not np.all(np.isfinite(values)):
        raise ValueError("level values must be finite")
    if rate <= 0.0 or ratio <= 1.0:
        raise ValueError("rate must be positive and ratio greater than 1")
    diffs = np.diff(values)
    nonzero = diffs[diffs != 0.0]
    if nonzero.size and (np.any(nonzero > 0) and np.any(nonzero < 0)):
        warnings.warn(
            "level values are not monotone; extrapolation may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    # fit on the two finest known levels, mesh size of the finest taken as 1
    growth = ratio**rate
    coef = (values[1] - values[0]) / (growth - 1.0)
    limit = values[0] - coef
    steps = np.arange(1, num_finer + 1, dtype=float)
    return limit + coef * ratio ** (-steps * rate)


def estimate_decay_rate(level_values, ratio: float = 2.0) -> float:
    """Fit a power-law decay exponent from successive level differences.

    Requires at least three values whose successive differences share one
    sign; the exponent comes from a log-log least squares line through
    |difference| versus level index.
    """
    values = np.asarray(level_values, dtype=float)
    if values.size < 3:
        raise ValueError("need at least three level values to fit a rate")
    diffs = np.diff(values)
    if np.any(diffs == 0.0) or (np.any(diffs > 0) and np.any(diffs < 0)):
        raise ValueError("differences must be nonzero and of one sign")
    slope = np.polyfit(np.arange(diffs.size), np.log(np.abs(diffs)), 1)[0]
    return float(slope / np.log(ratio))


def reconstruct_highfi_covariance(var_i, var_j, diff_var):
    """Covariance of two models from their variances and the difference's.

    Uses C = (V_i + V_j - V_diff) / 2 and clips the implied correlation to
    [-1, 1]; returns (covariance, clipped_flag) with numpy broadcasting.
    """
    var_i = np.asarray(var_i, dtype=float)
    var_j = np.asarray(var_j, dtype=float)
    diff_var = np.asarray(diff_var, dtype=float)
    cov = 0.5 * (var_i + var_j - diff_var)
    bound = np.sqrt(np.maximum(var_i, 0.0) * np.maximum(var_j, 0.0))
    # reaching the bound exactly is already a degenerate (|rho| = 1) case,
    # so the flag uses >=
    clipped = np.abs(cov) >= bound
    cov = np.where(clipped, np.sign(cov) * bound, cov)
    if cov.ndim == 0:
        return float(cov), bool(clipped)
    return cov, clipped
