"""Best linear unbiased combination of group-sampled model outputs.

For one output, each sampling group k contributes an information block
n_k * R_kᵀ C_k⁻¹ R_k, where C_k is the group's covariance and R_k restricts
the full model vector to the group's members. The sum over groups is the
information matrix of the linear model behind the estimator; its
pseudo-inverse gives both the estimator weights and the variance of the
high-fidelity mean estimate. A model left unsampled simply produces a zero
row and column, so rank deficiency is expected and handled spectrally
rather than treated as an error.

An output's blocks are built once, into stacks over the whole group set:
row k of every stack is group k, and the block of a group the output
cannot use is zero. The blocks of one group size are gathered, repaired
and lifted from one batched ``eigh`` and inverted by one batched Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceStore
from .models import GroupSet

__all__ = [
    "BlueSystem",
    "IllPosedError",
    "usable_groups",
    "assemble_psi",
    "pseudo_inverse",
    "blue_variance",
    "realized_variance",
    "combine_samples",
    "normalized_error",
]

# column-space membership tolerance for the identifiability check
_WELLPOSED_TOL = 1e-8
# eigenvalues at or below this fraction of the largest count as zero
_PINV_RTOL = 1e-12
# a block's eigenvalues below _REPAIR_FLOOR of its largest (or below
# _REPAIR_FLOOR, if none is positive) are raised to that level before it is
# inverted; ``lifted`` raises them to _LIFT_FLOOR of the largest
_REPAIR_FLOOR = 1e-10
_LIFT_FLOOR = 1e-6


class IllPosedError(RuntimeError):
    """The high-fidelity mean is not identifiable from the sampled groups."""


def usable_groups(groups: GroupSet, store: CovarianceStore,
                  output: int = 1) -> np.ndarray:
    """Mask over ``groups``: allowed for ``output``, every member pair known."""
    return (groups.per_output_allowed[output - 1]
            & store.known_groups(groups.members, output))


@dataclass(frozen=True)
class BlueSystem:
    """Estimator-side view of one output: a block per group, stacked.

    A group is usable when it is allowed for the output and its covariance
    block is fully known in the store; every other group behaves as if it
    did not exist for this output, and its blocks are zero. Row k of each
    stack belongs to group k of the group set; the stacks are read-only.
    Each usable block is repaired to be positive definite before it is
    inverted (see _REPAIR_FLOOR). ``from_covariance`` raises ValueError
    naming the first group, in group order, whose block is not finite.
    """

    output: int
    usable: np.ndarray  # (G,) bool: the groups this output can use
    members: np.ndarray  # (G, L) bool: the group set's membership matrix
    # (G, L, L) R_kᵀ C_k⁻¹ R_k at full size, zero outside the group; the
    # inverse comes from the covariance's Cholesky factor
    information: np.ndarray
    # (G, L, L) the allocation SDP's inverse: the repaired block's eigenvalues
    # below _LIFT_FLOOR of the largest are lifted before inverting. A store
    # with a clipped (|rho| = 1) pair otherwise claims ~1e10 units of information
    # per sample, and the Newton systems lose those directions in double
    # precision. It only steers the search; variances come from ``information``.
    lifted: np.ndarray
    highfi_variance: float
    anchor_mask: np.ndarray  # (G,) bool: usable and contain model 1

    @property
    def num_groups(self) -> int:
        return self.members.shape[0]

    @property
    def num_models(self) -> int:
        return self.members.shape[1]

    @classmethod
    def from_covariance(
        cls, groups: GroupSet, store: CovarianceStore, output: int = 1
    ) -> "BlueSystem":
        matrix = store.matrices[output - 1]
        usable = usable_groups(groups, store, output)
        members = groups.members
        sizes = members.sum(axis=1)
        shape = (groups.num_groups, groups.num_models, groups.num_models)
        information = np.zeros(shape)
        lifted = np.zeros(shape)
        # one pass per group size: gather, decompose, repair and factor its
        # blocks; a repaired block is decomposed again, for its lift
        for width in sorted(set(sizes[usable].tolist())):
            rows = np.flatnonzero(usable & (sizes == width))
            idx = np.nonzero(members[rows])[1].reshape(rows.size, width)
            cov = matrix[idx[:, :, None], idx[:, None, :]]
            bad = ~np.isfinite(cov).all(axis=(1, 2))
            if bad.any():
                group = groups.groups[rows[np.argmax(bad)]]
                raise ValueError(
                    f"covariance of group {group} for output {output} is not finite"
                )
            w, v = np.linalg.eigh(cov)
            level = np.where(w[:, -1:] > 0.0, _REPAIR_FLOOR * w[:, -1:], _REPAIR_FLOOR)
            repair = w[:, 0] < level[:, 0]
            if repair.any():
                vr, raised = v[repair], np.maximum(w[repair], level[repair])
                out = (vr * raised[:, None, :]) @ vr.transpose(0, 2, 1)
                cov[repair] = 0.5 * (out + out.transpose(0, 2, 1))
                w[repair], v[repair] = np.linalg.eigh(cov[repair])
            linv = np.linalg.inv(np.linalg.cholesky(cov))
            inv = linv.transpose(0, 2, 1) @ linv
            lifts = np.maximum(w, _LIFT_FLOOR * w[:, -1:])
            lift = (v / lifts[:, None, :]) @ v.transpose(0, 2, 1)
            at = (rows[:, None, None], idx[:, :, None], idx[:, None, :])
            information[at] = 0.5 * (inv + inv.transpose(0, 2, 1))
            lifted[at] = 0.5 * (lift + lift.transpose(0, 2, 1))
        anchor_mask = usable & members[:, 0]
        if not np.any(anchor_mask):
            raise IllPosedError(
                f"output {output} has no usable group containing model 1"
            )
        for arr in (usable, information, lifted, anchor_mask):
            arr.setflags(write=False)
        return cls(
            output=output,
            usable=usable,
            members=members,
            information=information,
            lifted=lifted,
            highfi_variance=float(matrix[0, 0]),
            anchor_mask=anchor_mask,
        )


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
    return _weighted_sum(system.information, n)


def _weighted_sum(stack, weights) -> np.ndarray:
    """Σ_k weights[k] * stack[k] over a (G, L, L) stack of group blocks."""
    # summed along axis 0 in group order, so Ψ is reproducible bit for bit;
    # tensordot or @ would reorder the sum
    return (weights[:, None, None] * stack).sum(axis=0)


def _pinv_with_range(matrix):
    """(pseudo-inverse, orthonormal basis of the column space) of a symmetric
    PSD matrix, both from the eigenpairs above the cutoff."""
    matrix = np.asarray(matrix, dtype=float)
    scale = np.abs(matrix).max(initial=0.0)
    if np.abs(matrix - matrix.T).max(initial=0.0) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    cutoff = _PINV_RTOL * max(eigvals[-1], 0.0)
    if eigvals[0] < -max(cutoff, _PINV_RTOL):
        raise ValueError("matrix is not positive semidefinite")
    keep = eigvals > cutoff
    u = eigvecs[:, keep]
    # with no eigenvalue kept u has no columns and this is the zero matrix
    out = (u / eigvals[keep]) @ u.T
    return 0.5 * (out + out.T), u


def _batch_variance(psi, shift):
    """Lower bounds on e1' Psi+ e1 over a (C, L, L) stack of information
    matrices whose last row and column belong to model 1. Overwrites the
    stack's diagonal.

    A bound is 1 / L[-1, -1]**2 of the Cholesky factor of
    Psi + shift * norm * I, norm being the largest absolute row sum (at
    least the largest eigenvalue), so it is at most e1' inv(Psi) e1. It
    holds for the rule of ``_information_pinv`` when no eigenvalue of Psi
    on its sampled models is near that rule's cutoff, which a Cholesky
    factor of Psi minus twice the cutoff at norm certifies for the whole
    stack. Where that factor fails, every bound is -inf.
    """
    size = psi.shape[-1]
    norm = np.abs(psi).sum(axis=2).max(axis=1)[:, None]
    # an unsampled model's row and column are exactly zero and e1 has no
    # component there, so a positive pad leaves the variance unchanged
    diag = psi[:, range(size), range(size)]
    diag = np.where(diag == 0.0, norm, diag)
    psi[:, range(size), range(size)] = diag - 2.0 * _PINV_RTOL * norm
    try:
        np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        return np.full(psi.shape[0], -np.inf)
    psi[:, range(size), range(size)] = diag + shift * norm
    return 1.0 / np.linalg.cholesky(psi)[:, -1, -1] ** 2


def pseudo_inverse(matrix) -> np.ndarray:
    """Spectral pseudo-inverse with a relative eigenvalue cutoff.

    Eigenvalues at or below _PINV_RTOL * max eigenvalue count as zero. Small
    negative eigenvalues within the cutoff are tolerated; anything more
    negative means the input is not PSD and raises.
    """
    return _pinv_with_range(matrix)[0]


def _information_pinv(system: BlueSystem, n) -> np.ndarray:
    """Pseudo-inverse of the information matrix at allocation n.

    Raises IllPosedError when the first coordinate direction is not in the
    information matrix's column space, i.e. the estimator does not exist
    for this allocation (as opposed to merely having large variance).
    """
    pinv, u = _pinv_with_range(assemble_psi(system, n))
    e1 = np.zeros(system.num_models)
    e1[0] = 1.0
    # u.T @ e1 is row 0 of u, so this is e1 minus its projection on the range
    if np.linalg.norm(e1 - u @ u[0]) > _WELLPOSED_TOL:
        raise IllPosedError(
            "estimator is ill-posed: no sampled group identifies model 1"
        )
    return pinv


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
    weights = _information_pinv(system, n)[:, 0]
    sampled = system.usable & (n != 0.0)
    w_k = system.information[sampled] @ weights
    # w_k vanishes outside group k, so the truth enters by group blocks only
    truth = true_store.matrices[system.output - 1]
    return float(np.einsum("k,ki,ij,kj->", n[sampled], w_k, truth, w_k))


def combine_samples(system: BlueSystem, n, sums: dict) -> np.ndarray:
    """Combine group sample sums into the estimate of all model means.

    ``sums`` maps global group index -> array of shape (..., group size):
    the sum over that group's samples, columns in ascending model-id order.
    The leading axes (replications, say) are carried through to the result,
    (..., num_models), with one Ψ⁺ for all of them. Groups are accumulated
    in the system's fixed order, so results are reproducible bit for bit.
    """
    n = _check_allocation(system, n)
    counts = np.rint(n)
    if np.abs(n - counts).max(initial=0.0) > 1e-9:
        raise ValueError("combine_samples needs an integer allocation")
    rhs = 0.0
    # one pass per sampled usable group: the group sizes differ
    for k in np.flatnonzero(system.usable & (counts != 0.0)):
        members = system.members[k]
        block = np.asarray(sums[k], dtype=float)
        if block.shape[-1:] != (members.sum(),):
            raise ValueError(f"group {k} sums have shape {block.shape}, "
                             f"expected {members.sum()} columns")
        if not np.isfinite(block).all():
            raise ValueError(f"group {k} samples are not finite")
        rhs = rhs + block @ system.information[k][members]
    return rhs @ _information_pinv(system, counts)


def normalized_error(variances, highfi_variances) -> float:
    """Worst-output relative error max_s sqrt(V_s / V[model 1, output s])."""
    v = np.asarray(variances, dtype=float)
    ref = np.asarray(highfi_variances, dtype=float)
    if np.any(ref <= 0):
        raise ValueError("high-fidelity variances must be positive")
    return float(np.sqrt(v / ref).max())
