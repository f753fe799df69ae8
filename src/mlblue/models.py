"""Model metadata and sampling-group enumeration.

A model set holds per-model evaluation costs and the set of outputs each
model produces. Model ids are 1-based and model 1 is the reference
(high-fidelity) model: it must produce every output. Sampling groups are
nonempty subsets of model ids; all models in a group are evaluated on the
same random input, which is what makes their sample covariance exploitable
by the estimator. A group set carries its groups twice: as tuples of ids,
and as one read-only (num_groups, num_models) membership matrix that every
per-group mask (allowed groups, anchor groups, cap rows, usable groups) is
computed from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSet",
    "GroupSet",
    "enumerate_groups",
]


@dataclass(frozen=True)
class ModelSet:
    """Costs and output coverage for models 1..num_models.

    Parameters
    ----------
    costs : array_like, shape (num_models,)
        Positive, finite cost of one evaluation of each model.
    outputs : sequence of collections of int
        outputs[i] lists the 1-based output ids model i+1 produces.
    num_outputs : int, optional
        Total number of outputs. Defaults to the largest id seen.
    """

    costs: np.ndarray
    produces: np.ndarray  # bool, shape (num_models, num_outputs)

    def __init__(self, costs, outputs=None, num_outputs=None):
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise ValueError("costs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(costs)) or np.any(costs <= 0.0):
            raise ValueError("model costs must be positive and finite")
        n = costs.size
        if outputs is None:
            outputs = [[1]] * n
        if len(outputs) != n:
            raise ValueError("outputs must list one collection per model")
        ids = sorted({int(s) for out in outputs for s in out})
        if num_outputs is None:
            num_outputs = ids[-1] if ids else 0
        m = int(num_outputs)
        if m < 1:
            raise ValueError("at least one output is required")
        produces = np.zeros((n, m), dtype=bool)
        for i, out in enumerate(outputs):
            if not out:
                raise ValueError(f"model {i + 1} produces no outputs")
            for s in out:
                s = int(s)
                if not 1 <= s <= m:
                    raise ValueError(f"output id {s} out of range 1..{m}")
                produces[i, s - 1] = True
        if not produces[0].all():
            raise ValueError("model 1 must produce every output")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "produces", produces)

    @property
    def num_models(self) -> int:
        return self.costs.size

    @property
    def num_outputs(self) -> int:
        return self.produces.shape[1]


@dataclass(frozen=True)
class GroupSet:
    """An ordered collection of sampling groups over a model set.

    Groups are sorted by size and then lexicographically by member ids, so
    the index of a group, ``groups.index(ids)`` with its ids ascending, is
    reproducible across runs. Row k of ``members``
    marks the models of group k. ``per_output_allowed`` marks, for each
    output, the groups whose members all produce that output; only those
    groups can contribute to that output's estimator.
    """

    groups: tuple[tuple[int, ...], ...]
    group_costs: np.ndarray  # shape (num_groups,)
    per_output_allowed: np.ndarray  # bool, shape (num_outputs, num_groups)
    members: np.ndarray  # bool, shape (num_groups, num_models), read-only

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_models(self) -> int:
        return self.members.shape[1]

    def contains_highfi(self) -> np.ndarray:
        """Boolean mask of groups containing model 1."""
        return self.members[:, 0].copy()


def enumerate_groups(models: ModelSet, kappa=None, deny_list=()) -> GroupSet:
    """Enumerate all sampling groups of size up to ``kappa``.

    Groups are every nonempty subset of {1..num_models} with at most
    ``kappa`` members (default: no size limit), minus ``deny_list`` entries,
    ordered by size then lexicographically. A group is allowed for an output
    only if every member produces it. Raises if some output ends up with no
    allowed group containing model 1, since no unbiased estimator anchored
    on model 1 would exist for it.
    """
    n = models.num_models
    kappa = n if kappa is None else int(kappa)
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in 1..{n}, got {kappa}")
    denied = {tuple(sorted(int(i) for i in g)) for g in deny_list}
    groups = []
    for size in range(1, kappa + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if combo not in denied:
                groups.append(combo)

    members = np.zeros((len(groups), n), dtype=bool)
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    members[rows, [i - 1 for g in groups for i in g]] = True
    members.setflags(write=False)
    # a Python sum per group: a row sum over ``members`` adds in another order
    costs = np.array(
        [sum(models.costs[i - 1] for i in g) for g in groups], dtype=float
    )
    gs = GroupSet(
        groups=tuple(groups),
        group_costs=costs,
        # allowed unless some member does not produce the output
        per_output_allowed=~(~models.produces.T @ members.T),
        members=members,
    )
    hf = gs.contains_highfi()
    for s in range(1, models.num_outputs + 1):
        if not np.any(gs.per_output_allowed[s - 1] & hf):
            raise ValueError(
                f"no allowed group containing model 1 covers output {s}"
            )
    return gs

