import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mlblue import allocate
from mlblue.allocate import (
    _PROJECTION_CHUNK,
    Allocation,
    MosapSpec,
    _integer_feasible,
    _ray_slack,
    integer_projection,
    pareto_sweep,
    solve_mosap,
    systems_from_store,
)
from mlblue.covariance import CovarianceStore
from mlblue.estimator import assemble_psi, blue_variance
from mlblue.models import ModelSet, enumerate_groups
from mlblue.sdp import SdpSettings
from mlblue.synthetic import SyntheticSuite

from conftest import all_output_modelset, random_spd


def single_output_spec(costs, cov, mode, kappa=None, **kw):
    models = all_output_modelset(costs)
    gs = enumerate_groups(models, kappa=kappa)
    store = CovarianceStore(np.asarray(cov, dtype=float)[None])
    systems = systems_from_store(gs, store)
    return MosapSpec(mode=mode, groups=gs, systems=systems, **kw), gs


def test_budget_single_model_mc():
    spec, _ = single_output_spec([1.0], [[4.0]], "budget", budget=100.0)
    alloc = solve_mosap(spec)
    assert alloc.solver_status == "optimal"
    assert alloc.n[0] == pytest.approx(100.0, rel=1e-6)
    assert alloc.max_variance == pytest.approx(0.04, rel=1e-6)


def test_budget_exploits_cheap_correlated_model():
    c = [[1.0, 0.9], [0.9, 1.0]]
    spec, gs = single_output_spec([1.0, 0.01], c, "budget", budget=10.0)
    alloc = solve_mosap(spec)
    assert alloc.solver_status == "optimal"
    assert alloc.max_variance < 0.1  # strictly beats MC on model 1 alone
    assert alloc.total_cost <= 10.0 * (1 + 1e-9)
    assert alloc.total_cost >= 10.0 * (1 - 1e-6)  # budget spent


def test_tolerance_single_model_mc():
    spec, _ = single_output_spec([1.0], [[4.0]], "tolerance", tolerances=[0.04])
    alloc = solve_mosap(spec)
    assert alloc.n[0] == pytest.approx(100.0, rel=1e-6)
    assert alloc.total_cost == pytest.approx(100.0, rel=1e-6)


def test_budget_tolerance_duality():
    rng = np.random.default_rng(23)
    cov = random_spd(rng, 3)
    spec_b, gs = single_output_spec([4.0, 0.9, 0.05], cov, "budget", budget=50.0)
    t_star = solve_mosap(spec_b).max_variance
    spec_t = MosapSpec(
        mode="tolerance", groups=gs, systems=spec_b.systems, tolerances=[t_star]
    )
    alloc_t = solve_mosap(spec_t)
    assert alloc_t.total_cost == pytest.approx(50.0, rel=1e-3)


def test_tolerance_cost_monotone_in_eps():
    rng = np.random.default_rng(24)
    cov = random_spd(rng, 3)
    spec0, gs = single_output_spec(
        [2.0, 0.5, 0.1], cov, "tolerance", tolerances=[0.1]
    )
    costs = []
    for eps2 in np.geomspace(0.02, 2.0, 5):
        spec = MosapSpec(
            mode="tolerance", groups=gs, systems=spec0.systems, tolerances=[eps2]
        )
        costs.append(solve_mosap(spec).total_cost)
    assert all(a >= b * (1 - 1e-6) for a, b in zip(costs, costs[1:]))


def test_sdp_corner_agrees_with_recomputed_variance():
    rng = np.random.default_rng(25)
    for _ in range(5):
        cov = random_spd(rng, 3)
        spec, _ = single_output_spec(
            np.geomspace(5, 0.2, 3), cov, "budget", budget=30.0
        )
        alloc = solve_mosap(spec)
        # objective_value is recomputed through the estimator, and the
        # recomputation must sit on the SDP's optimum
        assert alloc.objective_value == pytest.approx(
            alloc.max_variance, rel=1e-12
        )
        v = blue_variance(spec.systems[0], alloc.n)
        assert abs(v - alloc.max_variance) <= 1e-6 * v


def test_multi_output_structural_zero():
    # model 3 lacks output 2, so output 2's information matrix never
    # touches row 3 no matter the allocation
    rng = np.random.default_rng(26)
    cov = np.stack([random_spd(rng, 3), random_spd(rng, 3)])
    models = ModelSet(
        [4.0, 1.0, 0.2], outputs=[[1, 2], [1, 2], [1]], num_outputs=2
    )
    gs = enumerate_groups(models)
    store = CovarianceStore(cov)
    systems = systems_from_store(gs, store)
    spec = MosapSpec(mode="budget", groups=gs, systems=systems, budget=40.0)
    alloc = solve_mosap(spec)
    assert alloc.solver_status == "optimal"
    psi2 = assemble_psi(systems[1], alloc.n)
    assert np.all(psi2[2] == 0) and np.all(psi2[:, 2] == 0)


def test_unusable_groups_get_no_samples():
    # the (2,3) entry is unknown, so group {2,3} helps no output and the
    # optimum spends nothing on it
    rng = np.random.default_rng(27)
    cov = random_spd(rng, 3)
    known = np.ones((3, 3), dtype=bool)
    known[1, 2] = known[2, 1] = False
    masked = cov.copy()
    masked[~known] = 0.0
    models = all_output_modelset([4.0, 1.0, 0.2])
    gs = enumerate_groups(models)
    store = CovarianceStore(masked[None], known=known[None])
    systems = systems_from_store(gs, store)
    spec = MosapSpec(mode="budget", groups=gs, systems=systems, budget=40.0)
    alloc = solve_mosap(spec)
    for bad in ((2, 3), (1, 2, 3)):
        assert alloc.n[gs.groups.index(bad)] == 0.0


def test_budget_homogeneity():
    rng = np.random.default_rng(28)
    cov = random_spd(rng, 3)
    spec1, gs = single_output_spec([3.0, 0.4, 0.1], cov, "budget", budget=20.0)
    spec2 = MosapSpec(
        mode="budget", groups=gs, systems=spec1.systems, budget=40.0
    )
    t1 = solve_mosap(spec1).max_variance
    t2 = solve_mosap(spec2).max_variance
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-4)


def test_infeasible_budget_rejected():
    single, _ = single_output_spec([10.0, 0.5], np.eye(2), "budget", budget=5.0)
    # with {1} denied, output 1 can ride the cheap pair {1,2} but output 2
    # needs {1,3}, which costs 7
    models = ModelSet(
        [2.0, 1.0, 5.0], outputs=[[1, 2], [1], [1, 2]], num_outputs=2
    )
    gs = enumerate_groups(models, kappa=2, deny_list=[(1,)])
    systems = systems_from_store(gs, CovarianceStore(np.stack([np.eye(3)] * 2)))
    per_output = MosapSpec(mode="budget", groups=gs, systems=systems, budget=3.0)
    for spec, where in ((single, "output 1 .cheapest costs 10"),
                        (per_output, "output 2 .cheapest costs 7")):
        with pytest.raises(ValueError, match="cannot buy .* for " + where):
            solve_mosap(spec)


def test_every_output_keeps_a_highfi_group():
    rng = np.random.default_rng(29)
    cov = np.stack([random_spd(rng, 3), random_spd(rng, 3)])
    models = all_output_modelset([4.0, 1.0, 0.2], num_outputs=2)
    gs = enumerate_groups(models)
    systems = systems_from_store(gs, CovarianceStore(cov))
    spec = MosapSpec(mode="budget", groups=gs, systems=systems, budget=25.0)
    alloc = integer_projection(spec, solve_mosap(spec))
    hf = gs.contains_highfi()
    for s in (1, 2):
        usable = np.array(
            [k in systems[s - 1].group_indices for k in range(gs.num_groups)]
        )
        assert alloc.n[hf & usable].sum() >= 1.0


def fabricate(spec, n):
    n = np.asarray(n, dtype=float)
    return Allocation(
        mode=spec.mode,
        n=n,
        per_output_variance=np.array([np.nan]),
        total_cost=float(spec.group_costs @ n),
        is_integer=bool(np.all(np.rint(n) == n)),
        objective_value=np.nan,
    )


def test_projection_keeps_integer_points():
    spec, gs = single_output_spec([1.0], [[4.0]], "budget", budget=100.0)
    alloc = fabricate(spec, [100.0])
    out = integer_projection(spec, alloc)
    assert out.is_integer and out.n[0] == 100.0 and not out.fallback


def test_projection_matches_exhaustive_enumeration():
    rng = np.random.default_rng(30)
    cov = random_spd(rng, 2)
    spec, gs = single_output_spec([1.0, 0.1], cov, "budget", budget=12.0)
    # fabricated fractional point, comfortably inside the budget
    frac = np.zeros(gs.num_groups)
    frac[gs.groups.index((1,))] = 2.3
    frac[gs.groups.index((2,))] = 7.8
    out = integer_projection(spec, fabricate(spec, frac))
    # replicate the projection rule by hand over the 4 corners
    from mlblue.allocate import _integer_feasible

    best = None
    for da, db in itertools.product((0, 1), repeat=2):
        cand = frac.copy()
        cand[gs.groups.index((1,))] = 2.0 + da
        cand[gs.groups.index((2,))] = 7.0 + db
        ok, variances = _integer_feasible(spec, cand)
        if not ok:
            continue
        key = (float(np.max(variances)), float(spec.group_costs @ cand), tuple(cand))
        if best is None or key < best[0]:
            best = (key, cand)
    assert best is not None
    assert np.array_equal(out.n, best[1])
    assert not out.fallback


def scalar_projection(spec, n):
    """The projection rule with every candidate scored by _integer_feasible.

    Returns the best (key, candidate, variances), the sorted keys of all
    feasible candidates and the number of infeasible ones.
    """
    near = np.abs(n - np.rint(n)) <= 1e-6
    base = np.where(near, np.rint(n), np.floor(n))
    frac = np.flatnonzero(~near)
    scored, rejected = [], 0
    for bits in itertools.product((0.0, 1.0), repeat=frac.size):
        cand = base.copy()
        cand[frac] += np.asarray(bits)
        ok, variances = _integer_feasible(spec, cand)
        if not ok:
            rejected += 1
            continue
        cost = float(spec.group_costs @ cand)
        objective = {"budget": max(variances), "tolerance": cost,
                     "pareto": max(variances) + (spec.tau or 0.0) * cost}
        scored.append(((objective[spec.mode], cost, tuple(cand)), cand, variances))
    scored.sort(key=lambda entry: entry[0])
    return scored[0], [entry[0] for entry in scored], rejected


def fractional_point(rng, gs, count, high=12.0):
    n = np.rint(rng.uniform(0.0, high, gs.num_groups))
    idx = rng.choice(gs.num_groups, size=count, replace=False)
    n[idx] = np.floor(n[idx]) + rng.uniform(0.05, 0.95, count)
    return n


def two_output_problem(seed):
    rng = np.random.default_rng(seed)
    cov = np.stack([random_spd(rng, 3), random_spd(rng, 3)])
    gs = enumerate_groups(all_output_modelset([4.0, 1.0, 0.25], num_outputs=2))
    return rng, gs, systems_from_store(gs, CovarianceStore(cov))


def projection_case(name):
    """(spec, fractional allocation) of one batched-projection case."""
    if name in ("budget", "across-chunks", "integer"):
        rng = np.random.default_rng(40)
        spec, gs = single_output_spec([27.0, 9.0, 3.0, 1.0], random_spd(rng, 4),
                                      "budget", budget=1.0)
        # the smallest f whose 2^f candidates end in a partial batch
        count = {"budget": 10, "integer": 0, "across-chunks": next(
            f for f in range(1, 21)
            if 2**f > _PROJECTION_CHUNK and 2**f % _PROJECTION_CHUNK)}[name]
        n = fractional_point(rng, gs, count)
        return replace(spec, budget=float(gs.group_costs @ n)), n
    if name in ("tolerance", "pareto", "extra-linear"):
        rng, gs, systems = two_output_problem(41)
        n = fractional_point(rng, gs, 6)
        variances = np.array([blue_variance(s, n) for s in systems])
        cost = float(gs.group_costs @ n)
        if name == "tolerance":
            return MosapSpec(mode="tolerance", groups=gs, systems=systems,
                             tolerances=variances * 1.02), n
        if name == "pareto":
            return MosapSpec(mode="pareto", groups=gs, systems=systems,
                             tau=variances.max() / cost), n
        cap = gs.contains_highfi().astype(float)
        return MosapSpec(mode="budget", groups=gs, systems=systems,
                         budget=1.1 * cost,
                         extra_linear=((cap, cap @ np.floor(n) + 1.0),)), n
    if name == "no-anchor":
        rng = np.random.default_rng(42)
        spec, gs = single_output_spec([4.0, 1.0, 0.25], random_spd(rng, 3),
                                      "budget", budget=1e6)
        n = fractional_point(rng, gs, 3)
        anchors = gs.contains_highfi()
        n[anchors] = rng.uniform(0.1, 0.9, anchors.sum())
        return spec, n
    if name == "unidentifiable":
        # model 2 carries 1e13 times model 1's information per sample, so
        # the 1e-12 eigenvalue cutoff drops model 1's direction unless
        # model 1 is sampled often enough
        eps = 1e-13
        cov = np.array([[1.0, 0.5 * np.sqrt(eps)], [0.5 * np.sqrt(eps), eps]])
        spec, gs = single_output_spec([1.0, 0.5], cov, "budget", budget=1e6)
        return spec, np.array([9.5, 1.5, 0.5])
    # equal-cost tie: groups (1, 2) and (1, 3) cost the same, and the loose
    # tolerance makes every candidate that samples model 1 feasible
    spec, gs = single_output_spec([4.0, 1.0, 1.0], np.diag([1.0, 2.0, 3.0]),
                                  "tolerance", tolerances=[100.0])
    n = np.zeros(gs.num_groups)
    n[[gs.groups.index((1, 2)), gs.groups.index((1, 3))]] = 0.5
    n[gs.groups.index((2,))] = 2.5
    n[gs.groups.index((2, 3))] = 1.25
    return spec, n


@pytest.mark.parametrize("name", [
    "budget", "tolerance", "pareto", "extra-linear", "no-anchor",
    "unidentifiable", "tie", "integer", "across-chunks",
])
def test_batched_projection_matches_scalar_scoring(name):
    spec, n = projection_case(name)
    best, keys, rejected = scalar_projection(spec, n)
    out = integer_projection(spec, fabricate(spec, n))
    assert not out.fallback
    assert np.array_equal(out.n, best[1])
    assert np.array_equal(out.per_output_variance, best[2])
    if name in ("extra-linear", "no-anchor", "unidentifiable"):
        assert rejected > 0
    if name == "tie":
        assert keys[0][:2] == keys[1][:2]
    if name == "across-chunks":
        assert len(keys) + rejected > _PROJECTION_CHUNK


def test_uncertified_batch_is_rescored_in_full(monkeypatch):
    # the 1e13 information ratio puts an eigenvalue of some candidate near
    # blue_variance's cutoff, so the Cholesky certificate fails for the
    # whole batch; every candidate of it is then rescored
    flags = []

    def recording(psi, shift, kernel=allocate._batch_variance):
        bound = kernel(psi, shift)
        flags.append(np.isfinite(bound))
        return bound

    monkeypatch.setattr(allocate, "_batch_variance", recording)
    spec, n = projection_case("unidentifiable")
    best, _, _ = scalar_projection(spec, n)
    out = integer_projection(spec, fabricate(spec, n))
    assert any(not sure.any() for sure in flags)
    assert np.array_equal(out.n, best[1])


def test_projection_scratch_memory_is_bounded():
    # the 7-model, 3-output budget instance of the benchmark's allocate
    # operation, whose continuous optimum has 13 fractional entries
    costs = 4.0 ** np.arange(6, -1, -1)
    gs = enumerate_groups(all_output_modelset(costs, num_outputs=3), kappa=3)
    store = SyntheticSuite.random(7, 3, seed=16).exact_store()
    spec = MosapSpec(mode="budget", groups=gs, systems=systems_from_store(gs, store),
                     budget=100.0 * costs.sum())
    cont = solve_mosap(spec)
    assert np.count_nonzero(np.abs(cont.n - np.rint(cont.n)) > 1e-6) == 13
    tracemalloc.start()
    try:
        integer_projection(spec, cont)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_projection_reports_greedy_rounding(monkeypatch, capsys):
    monkeypatch.setattr(allocate, "_ENUMERATION_CAP", 2)
    spec, n = projection_case("budget")
    # rounding 8 entries up leaves every candidate over the budget
    assert integer_projection(spec, fabricate(spec, n)).fallback
    assert capsys.readouterr().err == (
        "integer projection: rounded 8 of 10 fractional entries up before "
        "enumerating\n"
        "integer projection: no rounding is feasible; scaled the allocation "
        "onto the budget and floored it\n"
    )


def test_projection_falls_back_to_the_ceiling(capsys):
    # the floor 2 breaks the tolerance (variance 2) and the ceiling 3 the cap
    spec, gs = single_output_spec([1.0], [[4.0]], "tolerance",
                                  tolerances=[1.6], extra_linear=(([1.0], 2.5),))
    out = integer_projection(spec, fabricate(spec, [2.5]))
    assert out.n.tolist() == [3.0] and out.fallback
    assert out.per_output_variance.tolist() == [4.0 / 3.0]
    assert capsys.readouterr().err == (
        "integer projection: no rounding is feasible; rounded every entry up\n"
    )


def test_projection_fallback_may_sample_nothing(capsys):
    # the floor 0 leaves model 1 unsampled and the ceiling 1 is over budget;
    # scaled onto the budget and floored, nothing is sampled at all
    spec, _ = single_output_spec([1.0], [[4.0]], "budget", budget=0.5)
    out = integer_projection(spec, fabricate(spec, [0.4]))
    assert out.n.tolist() == [0.0] and out.fallback
    assert out.per_output_variance.tolist() == [np.inf]
    assert out.objective_value == np.inf
    assert capsys.readouterr().err == (
        "integer projection: no rounding is feasible; scaled the allocation "
        "onto the budget and floored it\n"
    )


def test_projection_forces_ceiling_for_wellposedness():
    spec, _ = single_output_spec([1.0], [[4.0]], "tolerance", tolerances=[8.0])
    out = integer_projection(spec, fabricate(spec, [0.4]))
    assert out.n[0] == 1.0
    assert not out.fallback


def test_projection_never_violates_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(10):
        cov = random_spd(rng, 3)
        eps2 = float(rng.uniform(0.05, 0.5)) * cov[0, 0]
        spec, gs = single_output_spec(
            np.geomspace(4, 0.1, 3), cov, "tolerance", tolerances=[eps2]
        )
        out = integer_projection(spec, solve_mosap(spec))
        assert out.is_integer
        assert out.max_variance <= eps2 * (1 + 1e-9)


def test_projection_is_invariant_to_the_cost_unit():
    # one continuous allocation, projected with costs and budget in units
    # 2^-j apart: the checks are relative to each bound, so every unit gives
    # the same integer allocation within budget (an absolute slack larger
    # than the budget would let a rounding overspend it)
    costs = np.array([1.0, 0.8, 0.1])
    store = SyntheticSuite.hierarchy(3, 1, rate=2.0, strength=0.05).exact_store()
    gs = enumerate_groups(all_output_modelset(costs), kappa=3)
    spec = MosapSpec(mode="budget", groups=gs,
                     systems=systems_from_store(gs, store), budget=100.0)
    cont = solve_mosap(spec)
    projected = []
    for j in (-1000, -500, -3, 0, 3, 500):
        unit = 2.0 ** j
        gs = enumerate_groups(all_output_modelset(costs * unit), kappa=3)
        scaled = MosapSpec(mode="budget", groups=gs,
                           systems=systems_from_store(gs, store),
                           budget=100.0 * unit)
        out = integer_projection(scaled, cont)
        assert out.total_cost <= scaled.budget
        projected.append(out.n)
    assert all(np.array_equal(n, projected[0]) for n in projected)


def test_projection_respects_caps_exactly():
    rng = np.random.default_rng(32)
    cov = random_spd(rng, 3)
    models = all_output_modelset([5.0, 0.6, 0.05])
    gs = enumerate_groups(models)
    systems = systems_from_store(gs, CovarianceStore(cov[None]))
    cap_row = gs.contains_highfi().astype(float)
    spec = MosapSpec(
        mode="budget",
        groups=gs,
        systems=systems,
        budget=60.0,
        extra_linear=((cap_row, 4.0),),
    )
    cont = solve_mosap(spec)
    assert cap_row @ cont.n <= 4.0 * (1 + 1e-9)
    out = integer_projection(spec, cont)
    assert cap_row @ out.n <= 4.0
    assert spec.group_costs @ out.n <= 60.0 * (1 + 1e-12)


def test_pareto_sweep_shape_and_monotonicity():
    rng = np.random.default_rng(33)
    cov = random_spd(rng, 3)
    spec, gs = single_output_spec(
        np.geomspace(8, 0.05, 3), cov, "pareto", tau=0.0
    )
    taus = np.geomspace(1e-4, 1e3, 8)
    frontier = pareto_sweep(spec, taus)
    assert [p["tau_tilde"] for p in frontier] == sorted(taus)
    assert all(p["status"] == "optimal" for p in frontier)
    costs = np.array([p["cost"] for p in frontier])
    variances = np.array([p["variance"] for p in frontier])
    assert np.all(np.diff(costs) <= costs[:-1] * 1e-6 + 1e-12)  # nonincreasing
    # frontier consistency: cheaper points carry larger variance
    order = np.argsort(costs)
    assert np.all(np.diff(variances[order]) <= variances[order][:-1] * 1e-6)


def test_pareto_large_tau_single_cheapest_sample():
    rng = np.random.default_rng(34)
    cov = random_spd(rng, 3)
    spec, gs = single_output_spec(
        np.geomspace(8, 0.05, 3), cov, "pareto", tau=0.0
    )
    frontier = pareto_sweep(spec, [1e4])
    n = frontier[0]["allocation"].n
    hf = np.flatnonzero(gs.contains_highfi())
    cheapest = hf[np.argmin(gs.group_costs[hf])]
    assert n[cheapest] == pytest.approx(1.0, abs=1e-5)
    others = np.ones(gs.num_groups, dtype=bool)
    others[cheapest] = False
    assert np.abs(n[others]).max() < 1e-5


def suite_pareto_spec(suite, costs, kappa=None, caps=()):
    """A pareto spec over every group of the suite's models; ``caps`` holds
    (model index, cap) pairs on the samples of each model."""
    gs = enumerate_groups(all_output_modelset(costs, suite.num_outputs),
                          kappa=kappa)
    extra = tuple((gs.members[:, i].astype(float), cap) for i, cap in caps)
    return MosapSpec(mode="pareto", groups=gs,
                     systems=systems_from_store(gs, suite.exact_store()),
                     tau=1.0, extra_linear=extra)


RAY_SWEEP = [10.0 ** i for i in range(-7, 5)]
RAY_CASES = {
    "random-10x1": lambda: suite_pareto_spec(
        SyntheticSuite.random(10, 1, seed=1), 4.0 ** np.arange(9, -1, -1), 3),
    "random-9x2": lambda: suite_pareto_spec(
        SyntheticSuite.random(9, 2, seed=1), 4.0 ** np.arange(8, -1, -1), 3),
    "hierarchy": lambda: suite_pareto_spec(
        SyntheticSuite.hierarchy(4, 1, rate=2.0, strength=0.25),
        4.0 ** np.arange(4, 0, -1)),
    # model 3's cap binds at tau_tilde <= 1e-4 and is slack from 1e-3 on
    "capped": lambda: suite_pareto_spec(
        SyntheticSuite.hierarchy(4, 1, rate=2.0, strength=0.25),
        4.0 ** np.arange(4, 0, -1), caps=((2, 200.0),)),
}


@pytest.mark.parametrize("name", sorted(RAY_CASES))
def test_pareto_ray_points_match_per_point_solves(name):
    spec = RAY_CASES[name]()
    records = pareto_sweep(spec, RAY_SWEEP)
    assert all(r["status"] == "optimal" for r in records)
    allocs = [r["allocation"] for r in records]
    placed = [i for i, a in enumerate(allocs) if a.solver_iterations == 0]
    margin = allocate._RAY_SLACK * SdpSettings().gap_tol
    sources = [i for i, a in enumerate(allocs) if a.solver_iterations > 0
               and _ray_slack(spec, a.n, margin)]
    assert placed
    for i in placed:
        # the source is the nearest larger tau solved with every row slack
        src = min(j for j in sources if j > i)
        scale = np.sqrt(records[src]["tau"] / records[i]["tau"])
        assert np.array_equal(allocs[i].n, allocs[src].n * scale)
        assert allocs[i].solver_status == allocs[src].solver_status
        assert allocs[i].solver_gap == allocs[src].solver_gap
        # never worse than the per-point solve, and equal to a tight one:
        # below objective 1 the solver's gap test is absolute, so at the
        # smallest tau a default per-point solve can be 1e-6 worse
        point = replace(spec, tau=records[i]["tau"])
        fresh = solve_mosap(point)
        assert allocs[i].objective_value <= fresh.objective_value * (1 + 1e-6)
        tight = solve_mosap(point, SdpSettings(gap_tol=1e-10))
        assert tight.solver_status == "optimal"
        assert allocs[i].objective_value == pytest.approx(
            tight.objective_value, rel=1e-6)
    costs = np.array([r["cost"] for r in records])
    variances = np.array([r["variance"] for r in records])
    assert np.all(np.diff(costs) <= costs[:-1] * 1e-6)
    assert np.all(np.diff(variances) >= -variances[:-1] * 1e-6)
    if name == "capped":
        # the ray runs down from the first slack solve (tau_tilde 1) and
        # stops where the cap binds: those points are solved, cap-tight
        assert placed == [4, 5, 6] and min(sources) == 7
        cap_row, cap = spec.extra_linear[0]
        for a in allocs[:4]:
            assert cap_row @ a.n == pytest.approx(cap, rel=1e-6)
        return
    small = records[:4]
    slope = np.polyfit(np.log([r["cost"] for r in small]),
                       np.log([r["normalized_error"] for r in small]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-3)


def test_pareto_loose_gap_keeps_anchor_bound_points_off_the_ray():
    # at gap_tol 1e-3 the anchor-bound solve at tau_tilde 10 leaves its
    # anchor sum 1.1e-5 above 1; a fixed margin of 1e-6 took it for a
    # source and placed points 29 % above their optimum
    spec = RAY_CASES["hierarchy"]()
    loose = SdpSettings(gap_tol=1e-3)
    records = pareto_sweep(spec, RAY_SWEEP, loose)
    assert records[8]["allocation"].solver_iterations > 0
    for r in records:
        if r["allocation"].solver_iterations == 0:
            tight = solve_mosap(replace(spec, tau=r["tau"]),
                                SdpSettings(gap_tol=1e-10))
            assert r["allocation"].objective_value == pytest.approx(
                tight.objective_value, rel=1e-3)


def test_pareto_cost_capped_point_is_solved():
    spec = RAY_CASES["random-9x2"]()
    records = pareto_sweep(spec, [1e-300, 1e-6, 1e-5])
    capped, placed, source = (r["allocation"] for r in records)
    assert source.solver_iterations > 0 and placed.solver_iterations == 0
    scale = np.sqrt(records[2]["tau"] / records[1]["tau"])
    assert np.array_equal(placed.n, source.n * scale)
    # the ray would pass the cost cap at tau_tilde 1e-300, so it is solved
    alone = solve_mosap(replace(spec, tau=records[0]["tau"]))
    assert np.array_equal(capped.n, alone.n)
    cap = allocate._PARETO_COST_CAP * np.min(spec.group_costs)
    assert capped.total_cost == pytest.approx(cap, rel=1e-4)


def test_pareto_tau_zero_is_solved():
    spec = RAY_CASES["hierarchy"]()
    records = pareto_sweep(spec, [0.0, 0.0, 1e-3, 1e-2])
    assert [r["tau"] for r in records[:2]] == [0.0, 0.0]
    assert all(r["status"] == "optimal" for r in records)
    iterations = [r["allocation"].solver_iterations for r in records]
    assert iterations[0] > 0 and iterations[1] > 0 and iterations[3] > 0
    assert iterations[2] == 0


def test_pareto_unconverged_points_are_not_placed():
    spec = RAY_CASES["hierarchy"]()
    settings = SdpSettings(max_iter=3)
    records = pareto_sweep(spec, RAY_SWEEP, settings)
    for r in records:
        alone = solve_mosap(replace(spec, tau=r["tau"]), settings)
        assert r["status"] == alone.solver_status != "optimal"
        assert r["allocation"].solver_iterations == alone.solver_iterations


def test_pareto_duplicate_tau_is_placed_with_scale_one():
    spec = RAY_CASES["hierarchy"]()
    placed, solved = sorted(pareto_sweep(spec, [1e-3, 1e-3]),
                            key=lambda r: r["allocation"].solver_iterations)
    assert placed["allocation"].solver_iterations == 0
    assert solved["allocation"].solver_iterations > 0
    assert np.array_equal(placed["allocation"].n, solved["allocation"].n)
    assert placed["cost"] == solved["cost"]
    assert placed["variance"] == solved["variance"]


def test_pareto_mode_required_for_sweep():
    spec, _ = single_output_spec([1.0], [[4.0]], "budget", budget=10.0)
    with pytest.raises(ValueError):
        pareto_sweep(spec, [1.0])


def test_deterministic_resolve():
    rng = np.random.default_rng(35)
    cov = random_spd(rng, 3)
    spec, _ = single_output_spec([3.0, 0.4, 0.1], cov, "budget", budget=20.0)
    a = solve_mosap(spec)
    b = solve_mosap(spec)
    assert np.array_equal(a.n, b.n)
    assert a.objective_value == b.objective_value
    assert a.solver_iterations == b.solver_iterations


def test_spec_validation():
    models = all_output_modelset([2.0, 1.0])
    gs = enumerate_groups(models)
    systems = systems_from_store(gs, CovarianceStore(np.eye(2)[None]))
    with pytest.raises(ValueError, match="mode"):
        MosapSpec(mode="cheapest", groups=gs, systems=systems)
    with pytest.raises(ValueError, match="budget"):
        MosapSpec(mode="budget", groups=gs, systems=systems)
    with pytest.raises(ValueError, match="per output"):
        MosapSpec(
            mode="tolerance", groups=gs, systems=systems, tolerances=[0.1, 0.2]
        )
    with pytest.raises(ValueError, match="tau"):
        MosapSpec(mode="pareto", groups=gs, systems=systems, tau=-1.0)
