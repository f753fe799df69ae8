"""Best linear unbiased combination of group-sampled model outputs.

For one output, each sampling group k contributes an information block
n_k * R_kᵀ C_k⁻¹ R_k, where C_k is the group's covariance and R_k restricts
the full model vector to the group's members. The sum over groups is the
information matrix of the linear model behind the estimator; its
pseudo-inverse gives both the estimator weights and the variance of the
high-fidelity mean estimate. A model left unsampled simply produces a zero
row and column, so rank deficiency is expected and handled spectrally
rather than treated as an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceStore, extract_group_covariance
from .models import GroupSet

__all__ = [
    "BlueSystem",
    "GroupTerm",
    "SpectralPseudoInverse",
    "IllPosedError",
    "assemble_psi",
    "pseudo_inverse",
    "blue_variance",
    "realized_variance",
    "null_space_basis",
    "combine_samples",
]

# column-space membership tolerance for the identifiability check
_WELLPOSED_TOL = 1e-8


class IllPosedError(RuntimeError):
    """The high-fidelity mean is not identifiable from the sampled groups."""


@dataclass(frozen=True)
class GroupTerm:
    """One group's contribution to an output's information matrix."""

    group_index: int  # position in the global group list
    model_indices: tuple[int, ...]  # 0-based rows the group touches
    covariance: np.ndarray  # SPD group covariance, restriction order
    inverse: np.ndarray  # covariance inverse via its Cholesky factor


@dataclass(frozen=True)
class BlueSystem:
    """Estimator-side view of one output: usable groups and their blocks.

    ``terms`` contains only groups that are allowed for the output and whose
    covariance block is fully known in the store; everything else behaves as
    if the group did not exist for this output.
    """

    num_models: int
    num_groups: int
    output: int
    terms: tuple[GroupTerm, ...]
    highfi_variance: float
    # over the global group list: usable for this output and contain model 1
    anchor_mask: np.ndarray

    @classmethod
    def from_covariance(
        cls, groups: GroupSet, store: CovarianceStore, output: int = 1
    ) -> "BlueSystem":
        allowed = groups.per_output_allowed[output - 1]
        terms = []
        for k, group in enumerate(groups.groups):
            if not allowed[k] or not store.group_known(group, output):
                continue
            cov = extract_group_covariance(store, group, output)
            idx = tuple(i - 1 for i in group)
            if not np.isfinite(cov).all():
                raise ValueError(
                    f"covariance of group {group} for output {output} is not finite"
                )
            # raises LinAlgError when cov is not positive definite
            linv = np.linalg.inv(np.linalg.cholesky(cov))
            inv = linv.T @ linv
            inv = 0.5 * (inv + inv.T)
            terms.append(GroupTerm(k, idx, cov, inv))
        usable = np.zeros(groups.num_groups, dtype=bool)
        usable[[t.group_index for t in terms]] = True
        anchor_mask = groups.highfi_mask(output) & usable
        anchor_mask.setflags(write=False)
        if not np.any(anchor_mask):
            raise IllPosedError(
                f"output {output} has no usable group containing model 1"
            )
        if not store.known[output - 1][0, 0]:
            raise IllPosedError(f"variance of model 1 unknown for output {output}")
        return cls(
            num_models=groups.num_models,
            num_groups=groups.num_groups,
            output=output,
            terms=tuple(terms),
            highfi_variance=float(store.matrices[output - 1][0, 0]),
            anchor_mask=anchor_mask,
        )

    def active_models(self) -> tuple[int, ...]:
        """0-based model rows touched by at least one usable group."""
        seen = set()
        for t in self.terms:
            seen.update(t.model_indices)
        return tuple(sorted(seen))

    def usable_group_indices(self) -> tuple[int, ...]:
        return tuple(t.group_index for t in self.terms)


def _check_allocation(system: BlueSystem, n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (system.num_groups,):
        raise ValueError(
            f"allocation must have length {system.num_groups}, got {n.shape}"
        )
    if np.any(n < 0.0) or not np.all(np.isfinite(n)):
        raise ValueError("allocation entries must be finite and nonnegative")
    return n


def assemble_psi(system: BlueSystem, n) -> np.ndarray:
    """Information matrix of the estimator at allocation n (full size)."""
    n = _check_allocation(system, n)
    psi = np.zeros((system.num_models, system.num_models))
    for t in system.terms:
        w = n[t.group_index]
        if w != 0.0:
            ix = np.ix_(t.model_indices, t.model_indices)
            psi[ix] += w * t.inverse
    return psi


@dataclass(frozen=True)
class SpectralPseudoInverse:
    """Eigendecomposition-backed pseudo-inverse of a symmetric PSD matrix."""

    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray
    cutoff: float

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues > self.cutoff))

    def as_matrix(self) -> np.ndarray:
        keep = self.eigenvalues > self.cutoff
        if not np.any(keep):
            return np.zeros_like(self.eigenvectors)
        u = self.eigenvectors[:, keep]
        out = (u / self.eigenvalues[keep]) @ u.T
        return 0.5 * (out + out.T)

    def range_residual(self, vec) -> float:
        """Norm of the component of vec outside the matrix's column space."""
        keep = self.eigenvalues > self.cutoff
        u = self.eigenvectors[:, keep]
        return float(np.linalg.norm(vec - u @ (u.T @ vec)))


def pseudo_inverse(matrix, rtol: float = 1e-12) -> SpectralPseudoInverse:
    """Spectral pseudo-inverse with a relative eigenvalue cutoff.

    Eigenvalues at or below rtol * max eigenvalue count as zero. Small
    negative eigenvalues within the cutoff are tolerated; anything more
    negative means the input is not PSD and raises.
    """
    matrix = np.asarray(matrix, dtype=float)
    scale = np.abs(matrix).max(initial=0.0)
    if np.abs(matrix - matrix.T).max(initial=0.0) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    cutoff = rtol * max(eigvals[-1], 0.0)
    if eigvals[0] < -max(cutoff, rtol):
        raise ValueError("matrix is not positive semidefinite")
    return SpectralPseudoInverse(eigvals, eigvecs, cutoff)


def _information_pinv(system: BlueSystem, n) -> np.ndarray:
    """Pseudo-inverse of the information matrix at allocation n.

    Raises IllPosedError when the first coordinate direction is not in the
    information matrix's column space, i.e. the estimator does not exist
    for this allocation (as opposed to merely having large variance).
    """
    pinv = pseudo_inverse(assemble_psi(system, n))
    e1 = np.zeros(system.num_models)
    e1[0] = 1.0
    if pinv.range_residual(e1) > _WELLPOSED_TOL:
        raise IllPosedError(
            "estimator is ill-posed: no sampled group identifies model 1"
        )
    return pinv.as_matrix()


def blue_variance(system: BlueSystem, n) -> float:
    """Variance e1' Psi+ e1 of the high-fidelity mean estimate at allocation n."""
    return float(_information_pinv(system, n)[0, 0])


def realized_variance(system: BlueSystem, n, true_store: CovarianceStore) -> float:
    """True variance of the estimator whose weights come from ``system``.

    ``system`` may be built from estimated covariances; the samples actually
    drawn have the covariances in ``true_store``. The estimate is linear in
    the group sample sums, so its variance under the true distribution is
    sum_k n_k w_kᵀ C_k_true w_k with w_k the weight vector the mismatched
    system applies to group k.
    """
    n = _check_allocation(system, n)
    weights_full = _information_pinv(system, n)[:, 0]
    total = 0.0
    truth = true_store.matrices[system.output - 1]
    for t in system.terms:
        w = n[t.group_index]
        if w == 0.0:
            continue
        idx = list(t.model_indices)
        w_k = t.inverse @ weights_full[idx]
        c_true = truth[np.ix_(idx, idx)]
        total += w * float(w_k @ c_true @ w_k)
    return total


def null_space_basis(system: BlueSystem, n) -> np.ndarray:
    """Orthonormal basis of the information matrix's null space.

    Combinatorial, not numerical: the null space is spanned by the
    coordinate directions of models that appear in no group with a strictly
    positive allocation entry.
    """
    n = _check_allocation(system, n)
    covered = set()
    for t in system.terms:
        if n[t.group_index] > 0.0:
            covered.update(t.model_indices)
    missing = [i for i in range(system.num_models) if i not in covered]
    basis = np.zeros((system.num_models, len(missing)))
    for col, i in enumerate(missing):
        basis[i, col] = 1.0
    return basis


def combine_samples(system: BlueSystem, n, samples: dict) -> np.ndarray:
    """Combine drawn group samples into the estimate of all model means.

    ``samples`` maps global group index -> array of shape (count, group
    size) with columns in ascending model-id order; counts must match the
    (integer) allocation. Accumulation follows the system's fixed term
    order, so results are reproducible bit for bit.
    """
    n = _check_allocation(system, n)
    counts = np.rint(n).astype(int)
    if np.abs(n - counts).max(initial=0.0) > 1e-9:
        raise ValueError("combine_samples needs an integer allocation")
    rhs = np.zeros(system.num_models)
    for t in system.terms:
        c = counts[t.group_index]
        if c == 0:
            continue
        block = np.asarray(samples[t.group_index], dtype=float)
        if block.shape != (c, len(t.model_indices)):
            raise ValueError(
                f"group {t.group_index} samples have shape {block.shape}, "
                f"expected {(c, len(t.model_indices))}"
            )
        sums = block.sum(axis=0)
        if not np.isfinite(sums).all():
            raise ValueError(f"group {t.group_index} samples are not finite")
        rhs[list(t.model_indices)] += t.inverse @ sums
    return _information_pinv(system, counts.astype(float)) @ rhs
