"""Checks of the benchmark's oracle against closed forms.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import numpy as np
import pytest

from oracle import OutputSystem, best_rounding, mfmc_variance, mlmc_variance

COV = np.array([[4.0, 3.0, 1.0],
                [3.0, 9.0, 2.0],
                [1.0, 2.0, 1.0]])


def test_one_group_of_two_models_gives_plain_monte_carlo():
    # sampling models 1 and 2 together n times estimates model 1's mean
    # no better than its own sample mean
    system = OutputSystem(COV, [(1, 2)])
    for n in (1.0, 7.0, 250.0):
        assert system.variance([n]) == pytest.approx(COV[0, 0] / n, rel=1e-14)


def test_control_variate_closed_form():
    # groups {1,2} x n1 and {2} x n2: sigma1^2/n1 * (1 - rho^2 n2/(n1+n2))
    system = OutputSystem(COV, [(1, 2), (2,)])
    rho2 = COV[0, 1] ** 2 / (COV[0, 0] * COV[1, 1])
    n1, n2 = 10.0, 30.0
    expected = COV[0, 0] / n1 * (1.0 - rho2 * n2 / (n1 + n2))
    assert system.variance([n1, n2]) == pytest.approx(expected, rel=1e-13)


def test_unsampled_model_one_is_ill_posed():
    system = OutputSystem(COV, [(1,), (2, 3)])
    assert np.isinf(system.variance([0.0, 5.0]))
    assert system.variance([3.0, 0.0]) == pytest.approx(COV[0, 0] / 3.0)


def test_batch_matches_dense_pseudo_inverse():
    # rows cover different model sets; each must equal e1' pinv(Psi) e1
    groups = [(1,), (2,), (1, 2), (2, 3), (1, 2, 3)]
    system = OutputSystem(COV, groups)
    counts = np.array([[1, 0, 0, 0, 0], [0, 2, 3, 0, 0], [2, 0, 1, 4, 1],
                       [0, 0, 0, 0, 5], [0, 3, 0, 2, 0]], dtype=float)
    batch = system.variances(counts)
    for row, value in zip(counts, batch):
        psi = np.zeros((3, 3))
        for n, group in zip(row, groups):
            idx = np.ix_([i - 1 for i in group], [i - 1 for i in group])
            psi[idx] += n * np.linalg.inv(COV[idx])
        if row[[0, 2, 4]].sum() == 0:  # no sampled group holds model 1
            assert np.isinf(value)
        else:
            assert value == pytest.approx(np.linalg.pinv(psi)[0, 0], rel=1e-12)


def test_rounding_enumerated_by_hand():
    # groups {1} (cost 4) and {1,2} (cost 5), one output, budget 18.5;
    # n0 = (1.5, 2.5) has two fractional entries; of the four roundings
    # (1,2) costs 14 and (2,2) 18, while (1,3) at 19 and (2,3) at 23 exceed
    # the budget
    cov = COV[:2, :2]
    system = OutputSystem(cov, [(1,), (1, 2)])
    # with model 2 seen only next to model 1, the variance is sigma1^2/(a+b)
    expected = {(1, 2): cov[0, 0] / 3.0, (2, 2): cov[0, 0] / 4.0}
    for cand, value in expected.items():
        assert system.variance(cand) == pytest.approx(value, rel=1e-14)
    counts, var, f = best_rounding([system], [4.0, 5.0], [1.5, 2.5],
                                   "budget", budget=18.5)
    assert f == 2
    assert tuple(counts) == (2.0, 2.0)
    assert var[0] == pytest.approx(expected[(2, 2)], rel=1e-14)


def test_rounding_tie_on_cost_goes_to_lexicographically_smaller():
    # two single-model-1 groups of equal cost: (1,2) and (2,1) cost the same
    # and have the same variance; tolerance mode keeps the smaller vector
    cov = COV[:1, :1]
    system = OutputSystem(cov, [(1,), (1,)])
    counts, _, f = best_rounding([system], [1.0, 1.0], [1.5, 1.5],
                                 "tolerance", eps2=[cov[0, 0] / 3.0])
    assert f == 2
    assert tuple(counts) == (1.0, 2.0)


def test_snapped_entries_are_not_rounded():
    system = OutputSystem(COV[:1, :1], [(1,)])
    counts, _, f = best_rounding([system], [1.0], [3.0000001], "budget",
                                 budget=3.0)
    assert f == 0 and tuple(counts) == (3.0,)


def test_mlmc_closed_form():
    levels = [(1, 2), (2, 3), (3,)]
    counts = [2, 5, 40]
    expected = ((4 + 9 - 6) / 2) + ((9 + 1 - 4) / 5) + (1 / 40)
    assert mlmc_variance(COV, levels, counts) == pytest.approx(expected, rel=1e-14)


def test_mfmc_two_models():
    rho2 = COV[0, 1] ** 2 / (COV[0, 0] * COV[1, 1])
    m1, m2 = 10, 50
    expected = COV[0, 0] * (1 / m1 - (1 / m1 - 1 / m2) * rho2)
    assert mfmc_variance(COV, {1: m1, 2: m2}) == pytest.approx(expected, rel=1e-14)
    # counts that shrink along the correlation order cannot be nested
    assert mfmc_variance(COV, {1: 50, 2: 10}) is None
