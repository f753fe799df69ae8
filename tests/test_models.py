import itertools
import math

import numpy as np
import pytest

from mlblue.models import (
    GroupSet,
    ModelSet,
    enumerate_groups,
)

from conftest import all_output_modelset


def test_three_model_full_enumeration_order():
    models = ModelSet([4.0, 2.0, 1.0])
    gs = enumerate_groups(models, kappa=3)
    assert gs.groups == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
    assert gs.num_groups == 7
    assert np.allclose(gs.group_costs, [4, 2, 1, 6, 5, 3, 7])


def test_single_model_single_group():
    models = ModelSet([1.0])
    gs = enumerate_groups(models, kappa=1)
    assert gs.groups == ((1,),)


def test_group_counts_match_binomial_sums():
    # |groups| = sum_j C(l, j) for j <= kappa, checked exactly
    for ell, kappa in [(12, 3), (12, 5), (6, 6), (9, 2)]:
        models = ModelSet(np.geomspace(100, 1, ell))
        gs = enumerate_groups(models, kappa=kappa)
        expect = sum(math.comb(ell, j) for j in range(1, kappa + 1))
        assert gs.num_groups == expect
    assert enumerate_groups(ModelSet(np.ones(12)), kappa=3).num_groups == 298
    assert enumerate_groups(ModelSet(np.ones(12)), kappa=5).num_groups == 1585


def test_ordering_is_size_then_lexicographic():
    models = ModelSet(np.ones(5))
    gs = enumerate_groups(models, kappa=4)
    assert list(gs.groups) == sorted(gs.groups, key=lambda g: (len(g), g))
    # re-enumeration is deterministic
    again = enumerate_groups(models, kappa=4)
    assert again.groups == gs.groups


def test_deny_list_removes_exact_groups():
    models = ModelSet(np.ones(4))
    denied = [(2, 3), (1, 2, 3)]
    gs = enumerate_groups(models, kappa=3, deny_list=denied)
    full = sum(math.comb(4, j) for j in (1, 2, 3))
    assert gs.num_groups == full - 2
    for g in denied:
        assert tuple(g) not in gs.groups


def test_every_output_needs_a_highfi_group():
    costs = [4.0, 1.0]
    models = ModelSet(costs, outputs=[[1, 2], [1]], num_outputs=2)
    # {1} is the only group containing model 1 whose members all produce
    # output 2; denying it leaves output 2 uncoverable while {1,2} still
    # anchors output 1
    with pytest.raises(ValueError, match="output 2"):
        enumerate_groups(models, kappa=2, deny_list=[(1,)])


def test_model_without_outputs_rejected():
    with pytest.raises(ValueError, match="model 2 produces no outputs"):
        ModelSet([2.0, 1.0], outputs=[[1], []], num_outputs=1)
    with pytest.raises(ValueError, match="model 1 must produce every output"):
        ModelSet([2.0, 1.0], outputs=[[1], [1, 2]], num_outputs=2)


def test_produces():
    models = ModelSet(
        [8.0, 4.0, 2.0], outputs=[[1, 2], [1], [2]], num_outputs=2
    )
    assert models.produces.tolist() == [[True, True], [True, False], [False, True]]


def test_per_output_allowed_respects_subset_rule():
    # a group is usable for output s only if every member produces s
    models = ModelSet(
        [8.0, 4.0, 2.0], outputs=[[1, 2], [1], [2]], num_outputs=2
    )
    gs = enumerate_groups(models, kappa=2)
    k12 = gs.groups.index((1, 2))
    k13 = gs.groups.index((1, 3))
    assert gs.per_output_allowed[0, k12] and not gs.per_output_allowed[1, k12]
    assert gs.per_output_allowed[1, k13] and not gs.per_output_allowed[0, k13]


def test_budget_feasibility_per_output():
    # with {1} denied, output 1 can ride the cheap pair {1,2} but output 2
    # needs {1,3}, which costs 7
    models = ModelSet(
        [2.0, 1.0, 5.0], outputs=[[1, 2], [1], [1, 2]], num_outputs=2
    )
    gs = enumerate_groups(models, kappa=2, deny_list=[(1,)])
    hf = gs.contains_highfi()
    cheapest = {
        s: float(np.min(gs.group_costs[gs.per_output_allowed[s - 1] & hf]))
        for s in (1, 2)
    }
    assert cheapest == {1: 3.0, 2: 7.0}
    anchors = gs.per_output_allowed[1] & hf
    assert [gs.groups[k] for k in np.flatnonzero(anchors)] == [(1, 3)]


def test_contains_highfi_and_mask():
    models = all_output_modelset([4.0, 2.0, 1.0], num_outputs=1)
    gs = enumerate_groups(models, kappa=2)
    expect = np.array([1 in g for g in gs.groups])
    assert np.array_equal(gs.contains_highfi(), expect)
    assert np.array_equal(gs.per_output_allowed[0] & gs.contains_highfi(), expect)


def test_members_matrix_matches_groups_and_is_read_only():
    models = all_output_modelset([4.0, 2.0, 1.0, 0.5])
    gs = enumerate_groups(models, kappa=3, deny_list=[(2, 3)])
    assert gs.members.shape == (gs.num_groups, 4)
    assert gs.members.dtype == bool
    for row, group in zip(gs.members, gs.groups):
        assert tuple(np.flatnonzero(row) + 1) == group
    assert not gs.members.flags.writeable
    with pytest.raises(ValueError):
        gs.members[0, 0] = False


def test_group_lookup_roundtrip():
    models = ModelSet(np.ones(6))
    gs = enumerate_groups(models, kappa=3)
    # ids ascending and no group twice, so a group's ids find its index
    assert all(list(g) == sorted(g) for g in gs.groups)
    for k, g in enumerate(gs.groups):
        assert gs.groups.index(g) == k
    with pytest.raises(ValueError):
        gs.groups.index((1, 2, 3, 4))


def test_enumeration_matches_itertools_reference():
    for ell, kappa in [(5, 2), (6, 4)]:
        models = ModelSet(np.ones(ell))
        gs = enumerate_groups(models, kappa=kappa)
        ref = []
        for j in range(1, kappa + 1):
            ref.extend(itertools.combinations(range(1, ell + 1), j))
        ref.sort(key=lambda g: (len(g), g))
        assert list(gs.groups) == ref


def test_groupset_rejects_kappa_out_of_range():
    models = ModelSet(np.ones(3))
    with pytest.raises(ValueError):
        enumerate_groups(models, kappa=0)
    with pytest.raises(ValueError):
        enumerate_groups(models, kappa=4)
    # default kappa covers every subset
    assert enumerate_groups(models).num_groups == 7


def test_groupset_is_frozen():
    models = ModelSet(np.ones(3))
    gs = enumerate_groups(models, kappa=2)
    assert isinstance(gs, GroupSet)
    with pytest.raises(AttributeError):
        gs.num_models = 4
