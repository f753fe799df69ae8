import itertools
import math

import numpy as np
import pytest

from mlblue import models as models_module
from mlblue.models import (
    GroupSet,
    ModelSet,
    enumerate_groups,
)

from conftest import all_output_modelset, assert_outcome


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


def test_group_count_is_bounded_before_enumerating():
    # 30 models without kappa would be 2^30 - 1 tuples; the count is refused
    # from the binomial sum alone
    with pytest.raises(ValueError, match="30 models with kappa 30 give "
                                         "1073741823 groups, more than the 65536"):
        enumerate_groups(ModelSet(np.ones(30)))
    # 17 models: sizes up to 8 give 2^16 - 1 groups, up to 9 give 89845
    assert enumerate_groups(ModelSet(np.ones(17)), kappa=8).num_groups == 2**16 - 1
    with pytest.raises(ValueError, match="89845 groups"):
        enumerate_groups(ModelSet(np.ones(17)), kappa=9)


def test_group_bound_admits_a_count_equal_to_it(monkeypatch):
    monkeypatch.setattr(models_module, "_MAX_GROUPS", 7)
    assert enumerate_groups(ModelSet(np.ones(3))).num_groups == 7
    # counted before the deny list removes any
    with pytest.raises(ValueError, match="4 models with kappa 2 give 10 groups"):
        enumerate_groups(ModelSet(np.ones(4)), kappa=2, deny_list=[(1, 2), (3, 4)])


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
    hf = gs.members[:, 0]
    cheapest = {
        s: float(np.min(gs.group_costs[gs.per_output_allowed[s - 1] & hf]))
        for s in (1, 2)
    }
    assert cheapest == {1: 3.0, 2: 7.0}
    anchors = gs.per_output_allowed[1] & hf
    assert [gs.groups[k] for k in np.flatnonzero(anchors)] == [(1, 3)]


def test_highfi_column_and_mask():
    models = all_output_modelset([4.0, 2.0, 1.0], num_outputs=1)
    gs = enumerate_groups(models, kappa=2)
    expect = np.array([1 in g for g in gs.groups])
    assert np.array_equal(gs.members[:, 0], expect)
    assert np.array_equal(gs.per_output_allowed[0] & gs.members[:, 0], expect)


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


MODELSET_REJECTIONS = {
    "no-costs": ({"costs": []}, "costs must be a nonempty 1-d sequence"),
    "negative-cost": ({"costs": [1.0, -1.0]}, "model costs must be positive and finite"),
    "outputs-length": ({"costs": [1.0, 2.0], "outputs": [[1]]},
                       "outputs must list one collection per model"),
    "no-outputs": ({"costs": [1.0], "num_outputs": 0},
                   "at least one output is required"),
    "output-id": ({"costs": [1.0], "outputs": [[3]], "num_outputs": 2},
                  "output id 3 out of range 1..2"),
}


@pytest.mark.parametrize("fields, message", MODELSET_REJECTIONS.values(),
                         ids=MODELSET_REJECTIONS.keys())
def test_modelset_rejects_malformed_input(fields, message):
    assert_outcome(lambda: ModelSet(**fields), ValueError(message))
