"""Synthetic linear-Gaussian model suites with exactly known covariance.

Each model output is an affine function of a shared standard normal factor
vector z: model i, output s returns mean[s, i] + loadings[s, i, :] @ z.
The covariance between models i and j for output s is therefore exactly
loadings[s] @ loadings[s].T, which makes these suites the reference
instruments for every statistical test: sample estimates can be compared
against closed-form truth.

Sampling is counter-based so that independent streams are a matter of
bookkeeping, not luck: the stream for a given (seed, group index) pair is
keyed, and each replication starts at its own counter block. Replications
and groups can be drawn in any order and still produce identical numbers.
``factor_blocks`` is the one place that builds such a stream: one generator
per (seed, group index), its counter moved to each replication's block in
turn. ``draw_sums`` sums a group's factor draws over the samples first and
maps the sums through the loadings, since the estimator needs nothing but
the per-group sample sums. It draws a chunk of replications at a time into
one reused buffer of about 256 KB, each replication's block in its own row,
then sums and maps the whole chunk in one call each. The stream and every
value are the same as drawing and mapping one replication at a time.
"""

from __future__ import annotations

import numpy as np

from .covariance import CovarianceStore

__all__ = ["SyntheticSuite"]

# float64 elements in the chunk buffer of ``draw_sums`` (256 KB); a chunk
# holds at least one replication, whatever its size
_CHUNK_ELEMENTS = 2 ** 15


class SyntheticSuite:
    """A bank of correlated linear-Gaussian models.

    loadings has shape (num_outputs, num_models, num_factors); a 2-d array
    is promoted to a single output. means has shape (num_outputs,
    num_models) and defaults to zero.
    """

    def __init__(self, loadings, means=None):
        loadings = np.asarray(loadings, dtype=float)
        if loadings.ndim == 2:
            loadings = loadings[None, :, :]
        if loadings.ndim != 3 or loadings.size == 0:
            raise ValueError("loadings must have shape (outputs, models, factors)")
        if not np.all(np.isfinite(loadings)):
            raise ValueError("loadings must be finite")
        m, ell, d = loadings.shape
        if means is None:
            means = np.zeros((m, ell))
        else:
            means = np.asarray(means, dtype=float)
            if means.ndim == 1:
                means = means[None, :]
            if means.shape != (m, ell) or not np.all(np.isfinite(means)):
                raise ValueError("means must be finite with shape (outputs, models)")
        self._loadings = loadings.copy()
        self._means = means.copy()
        self._loadings.setflags(write=False)
        self._means.setflags(write=False)

    @property
    def num_outputs(self) -> int:
        return self._loadings.shape[0]

    @property
    def num_models(self) -> int:
        return self._loadings.shape[1]

    @property
    def num_factors(self) -> int:
        return self._loadings.shape[2]

    @property
    def loadings(self) -> np.ndarray:
        return self._loadings

    @property
    def means(self) -> np.ndarray:
        return self._means

    def covariance(self, output: int = 1) -> np.ndarray:
        """Exact model covariance for one output (1-based)."""
        a = self._loadings[output - 1]
        return a @ a.T

    def exact_store(self) -> CovarianceStore:
        mats = np.stack(
            [self.covariance(s) for s in range(1, self.num_outputs + 1)]
        )
        return CovarianceStore(mats)

    def evaluate(self, model_ids, z) -> np.ndarray:
        """Deterministic evaluation of the listed models at factor values z.

        z has shape (count, num_factors); the result has shape
        (count, len(model_ids), num_outputs).
        """
        idx = [i - 1 for i in model_ids]
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.num_factors:
            raise ValueError("z must have shape (count, num_factors)")
        out = np.empty((z.shape[0], len(idx), self.num_outputs))
        for s in range(self.num_outputs):
            out[:, :, s] = self._means[s, idx] + z @ self._loadings[s, idx, :].T
        return out

    def draw_group(self, group, count: int, seed: int, group_index: int,
                   replication: int = 0) -> np.ndarray:
        """Draw common-input samples of the models in one group.

        All models in the group are evaluated at the same factor draws, as
        the estimator requires. The stream is keyed by (seed, group_index)
        and the counter starts at a block owned by ``replication``, so
        different groups and different replications never share numbers and
        the order of calls does not matter. Returns an array of shape
        (count, len(group), num_outputs) with models in ascending id order.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        group = tuple(sorted(group))
        z = next(self.factor_blocks(count, self.num_factors, seed, group_index,
                                    (replication,)))
        return self.evaluate(group, z)

    def draw_sums(self, group, count: int, seed: int, group_index: int,
                  out: np.ndarray) -> None:
        """Fill ``out`` with the sample sums of ``draw_group`` per replication.

        ``out`` has shape (replications, len(group), num_outputs); row r
        receives ``draw_group(group, count, seed, group_index, r).sum(axis=0)``
        up to rounding, computed as count * mean + (sum of the factor draws)
        @ loadings.T, so no sample is mapped on its own. The draws of a
        chunk of replications share one buffer of about ``_CHUNK_ELEMENTS``
        floats, so the scratch memory does not grow with the replications.
        Raises MemoryError when one replication's draws do not fit.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        members = [i - 1 for i in sorted(group)]
        offset = count * self._means[:, members].T
        # loads[f, a * num_outputs + s] = loadings[s, members[a], f]
        loads = self._loadings[:, members, :].transpose(2, 1, 0).reshape(
            self.num_factors, -1)
        reps, dim = len(out), self.num_factors
        rows = max(1, min(reps, _CHUNK_ELEMENTS // max(1, count * dim)))
        try:
            buf = np.empty((rows, count, dim))
        except ValueError as exc:  # numpy's error for an array past its largest size
            raise MemoryError(exc) from None
        blocks = self.factor_blocks(count, dim, seed, group_index, range(reps),
                                    out=buf)
        for start in range(0, reps, rows):
            chunk = buf[:min(rows, reps - start)]
            for _ in chunk:  # replication start + i is drawn into row i
                next(blocks)
            # einsum adds each factor's draws in sample order, as the
            # reference z.sum(axis=0) does, and several times faster than
            # chunk.sum(axis=1); with one factor that reference sums
            # pairwise, and so does chunk.sum(axis=1), but not einsum
            if dim == 1:
                sums = chunk.sum(axis=1)
            else:
                sums = np.einsum("rcd->rd", chunk)
            # a batch of (1, dim) @ (dim, g*m) products, each the same
            # arithmetic as one replication's sum @ loads
            mapped = np.matmul(sums[:, None, :], loads)[:, 0]
            out[start:start + len(chunk)] = (
                mapped.reshape(-1, *offset.shape) + offset)

    @staticmethod
    def factor_blocks(count, dim, seed, stream_index, replications, out=None):
        """Yield (count, dim) standard normal draws for each listed replication.

        The stream is a Philox generator keyed by (seed, stream_index); streams
        with different keys are independent. Replication r owns the counter
        block starting at [0, 0, r, 0], so draws never overlap between
        replications either. One generator serves all the listed
        replications: assigning the state moves its counter to the block and
        empties its buffer, exactly as a fresh construction would, so each
        block is bit-identical whatever the order of ``replications``.

        Each block is a new array unless ``out``, a C-contiguous
        (rows, count, dim) float array, is given: then the i-th listed block
        is drawn into ``out[i % rows]`` and that row is yielded, so a caller
        that takes ``rows`` blocks at a time finds them in ``out`` in order.
        """
        key = np.array([seed, stream_index], dtype=np.uint64)
        bit_generator = np.random.Philox(key=key)
        rng = np.random.Generator(bit_generator)
        state = bit_generator.state
        counter = state["state"]["counter"]  # [0, 0, 0, 0] for a new Philox
        for i, replication in enumerate(replications):
            counter[2] = replication
            bit_generator.state = state
            if out is None:
                yield rng.standard_normal((count, dim))
            else:
                yield rng.standard_normal(out=out[i % len(out)])

    @classmethod
    def hierarchy(cls, num_models: int, num_outputs: int = 1, rate: float = 2.0,
                  strength: float = 1.0, h0: float = 0.5, ratio: float = 2.0,
                  mean: float = 1.0, bias: float = 0.0,
                  output_scale: float = 1.0) -> "SyntheticSuite":
        """A mesh-hierarchy-like family with exact power-law behavior.

        Model i (1 = finest) has unit loading on a shared factor plus a
        private factor with weight eta_i, eta_i^2 = strength * (h0 *
        ratio**(i-1))**rate. Consequences, all exact: V[p_i] = 1 + eta_i^2,
        Cov(p_i, p_j) = 1 for i != j, and V[p_i - p_j] = eta_i^2 + eta_j^2.
        Variances along the hierarchy follow the power law in the mesh
        width h_i = h0 * ratio**(i-1), so extrapolation routines can be
        validated against known limits. ``bias`` adds bias * eta_i^2 to
        model i's mean, mimicking discretization bias; ``output_scale``
        multiplies loadings and means of output s by output_scale**(s-1).
        """
        if num_models < 1 or num_outputs < 1:
            raise ValueError("need at least one model and one output")
        if rate <= 0 or strength <= 0 or h0 <= 0 or ratio <= 1:
            raise ValueError("rate, strength, h0 must be > 0 and ratio > 1")
        eta2 = strength * (h0 * ratio ** np.arange(num_models)) ** rate
        eta = np.sqrt(eta2)
        base = np.zeros((num_models, num_models + 1))
        base[:, 0] = 1.0
        base[np.arange(num_models), np.arange(num_models) + 1] = eta
        base_means = mean + bias * eta2
        loadings = np.stack(
            [base * output_scale ** s for s in range(num_outputs)]
        )
        means = np.stack(
            [base_means * output_scale ** s for s in range(num_outputs)]
        )
        return cls(loadings, means)

    @classmethod
    def random(cls, num_models: int, num_outputs: int = 1,
               seed: int = 0) -> "SyntheticSuite":
        """A randomly generated, well-conditioned suite.

        Loadings are standard normal over num_models + 2 factors with 0.1
        times the identity pattern added so no model is a near-exact
        combination of the others; means are standard normal.
        Deterministic in ``seed``.
        """
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        loadings = rng.standard_normal((num_outputs, num_models, num_models + 2))
        loadings[:, :, :num_models] += 0.1 * np.eye(num_models)
        means = rng.standard_normal((num_outputs, num_models))
        return cls(loadings, means)
