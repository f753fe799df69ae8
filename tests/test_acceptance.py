"""End-to-end acceptance checks, one per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Each check validates the full stack against an
independent oracle (dense grid search, eigendecompositions, closed forms,
statistical simulation) at the stated tolerance. The solver-robustness
check (criterion 8) inspects every optimizer run the earlier criteria
performed, so the module is meant to run as a whole, in order.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import random_spd
from mlblue.allocate import (
    Allocation,
    MosapSpec,
    integer_projection,
    pareto_sweep,
    solve_mosap,
    _integer_feasible,
)
from mlblue.baselines import multi_output_baseline
from mlblue.config import PILOT_STREAM_INDEX, parse_problem
from mlblue.covariance import (
    CovarianceStore,
    PilotBatch,
    estimate_decay_rate,
    reconstruct_highfi_covariance,
    richardson_extrapolate,
    sample_covariance,
)
from mlblue.estimator import (
    BlueSystem,
    assemble_psi,
    blue_variance,
    pseudo_inverse,
    realized_variance,
)
from mlblue.models import ModelSet, enumerate_groups
from mlblue.runner import run_estimate, spec_from_config
from mlblue.synthetic import SyntheticSuite

# every optimizer run performed by criteria 1-7 lands here, for criterion 8
SOLVES = []


def tracked(spec, settings=None, label=""):
    alloc = solve_mosap(spec, settings)
    SOLVES.append((label, alloc.solver_status, alloc.solver_iterations))
    return alloc


def report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def single_output_problem(costs, cov, kappa=None, deny=()):
    models = ModelSet(costs)
    groups = enumerate_groups(models, kappa=kappa, deny_list=deny)
    store = CovarianceStore(cov)
    system = BlueSystem.from_covariance(groups, store)
    return models, groups, (system,)


# ---------------------------------------------------------------- criterion 1

def information_blocks(groups, cov):
    """Independent of the estimator module: per-group R' C_g^-1 R."""
    ell = cov.shape[0]
    blocks = np.zeros((groups.num_groups, ell, ell))
    for k, group in enumerate(groups.groups):
        idx = [i - 1 for i in group]
        blocks[k][np.ix_(idx, idx)] = np.linalg.inv(cov[np.ix_(idx, idx)])
    return blocks


def batch_variance(blocks, n_batch):
    """V[estimate] for a batch of allocations, inf where ill-posed."""
    psi = np.einsum("pk,kij->pij", n_batch, blocks)
    pinv = np.linalg.pinv(psi, hermitian=True, rcond=1e-12)
    v = pinv[:, 0, 0].copy()
    resid = np.einsum("pij,pj->pi", psi, pinv[:, :, 0])
    resid[:, 0] -= 1.0
    v[np.linalg.norm(resid, axis=1) > 1e-8] = np.inf
    return v


def simplex_fractions(num_parts, resolution):
    """All fractions k/resolution on the simplex (stars and bars)."""
    bars = np.array(
        list(itertools.combinations(range(resolution + num_parts - 1),
                                    num_parts - 1)),
        dtype=float,
    )
    edges = np.hstack([
        np.full((bars.shape[0], 1), -1.0),
        bars,
        np.full((bars.shape[0], 1), resolution + num_parts - 1.0),
    ])
    counts = np.diff(edges, axis=1) - 1.0
    return counts / resolution


def box_fractions(center, resolution, halfwidth):
    """Simplex fractions at the given resolution near ``center``."""
    g = center.size
    axes = []
    for i in range(g - 1):
        c = int(round(center[i] * resolution))
        axes.append(np.arange(max(0, c - halfwidth),
                              min(resolution, c + halfwidth) + 1))
    grids = np.meshgrid(*axes, indexing="ij")
    head = np.stack([a.ravel() for a in grids], axis=1)
    last = resolution - head.sum(axis=1)
    ok = last >= 0
    return np.hstack([head[ok], last[ok, None]]) / resolution


def grid_oracle(blocks, group_costs, budget, coarse, zoom):
    """Dense grid search over full-budget allocations with two zoom passes.

    The optimum spends the whole budget (variance is nonincreasing in every
    count), so only the simplex of budget fractions is searched.
    """
    rates = budget / group_costs
    frac = simplex_fractions(group_costs.size, coarse)
    v = batch_variance(blocks, frac * rates)
    best = frac[np.argmin(v)]
    best_v = v.min()
    res = coarse
    for _ in range(2):
        res *= zoom
        frac = box_fractions(best, res, 2 * zoom)
        v = batch_variance(blocks, frac * rates)
        if v.min() < best_v:
            best_v = v.min()
            best = frac[np.argmin(v)]
    return best_v


def test_criterion_01_sdp_matches_grid_oracle():
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    worst_time = 0.0
    ok = True
    for inst in range(25):
        if inst < 13:
            ell, deny, coarse, zoom = 2, (), 60, 8
            a = 10.0 ** rng.uniform(0.0, 2.0)
            costs = np.array([a, a / 1000.0])
        else:
            ell, deny, coarse, zoom = 3, ((1, 2), (1, 3), (2, 3)), 24, 6
            a = 10.0 ** rng.uniform(0.0, 2.0)
            costs = np.array([a, a * 10.0 ** -1.5, a / 1000.0])
        cov = random_spd(rng, ell, max_corr=0.99)
        models, groups, systems = single_output_problem(costs, cov, deny=deny)
        budget = 50.0 * groups.group_costs.sum()
        spec = MosapSpec(mode="budget", groups=groups, systems=systems,
                         budget=budget)
        t0 = time.perf_counter()
        alloc = tracked(spec, label="c1")
        elapsed = time.perf_counter() - t0
        blocks = information_blocks(groups, cov)
        v_grid = grid_oracle(blocks, groups.group_costs, budget, coarse, zoom)
        v_sdp = alloc.max_variance
        rel = abs(v_sdp - v_grid) / v_grid
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
        ok = ok and rel <= 5e-3 and v_sdp <= v_grid * (1 + 1e-9) and elapsed < 1.0
    assert report(
        1, ok,
        f"25 instances, worst grid gap {worst_rel:.2e}, "
        f"slowest solve {worst_time:.3f}s",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_null_space_characterization():
    rng = np.random.default_rng(1002)
    ok = True
    nonsingular_seen = unsampled_seen = 0
    for trial in range(200):
        ell = int(rng.integers(2, 7))
        kappa = int(rng.integers(1, ell + 1))
        costs = np.sort(rng.uniform(0.5, 50.0, ell))[::-1]
        cov = random_spd(rng, ell)
        models, groups, (system,) = single_output_problem(
            costs, cov, kappa=kappa)
        n = rng.uniform(0.5, 5.0, groups.num_groups)
        if trial % 10 != 0:
            n[rng.random(groups.num_groups) < rng.uniform(0.2, 0.9)] = 0.0
        if not n.any():
            n[int(rng.integers(groups.num_groups))] = 1.0
        sampled = set()
        for k in np.flatnonzero(n):
            sampled.update(i - 1 for i in groups.groups[k])
        unsampled = sorted(set(range(ell)) - sampled)

        psi = assemble_psi(system, n)
        w, vecs = np.linalg.eigh(psi)
        lam_max = w[-1]
        null_idx = np.flatnonzero(w <= 1e-10 * lam_max)
        if len(null_idx) != len(unsampled):
            ok = False
            continue
        # the numerical null projector must be the coordinate projector
        proj = vecs[:, null_idx] @ vecs[:, null_idx].T
        expect = np.zeros((ell, ell))
        for i in unsampled:
            expect[i, i] = 1.0
        ok = ok and np.allclose(proj, expect, atol=1e-8)
        # unsampled models give exactly zero rows of Psi, and of its
        # pseudo-inverse up to eigensolver roundoff
        ok = ok and all(not psi[i].any() for i in unsampled)
        dagger = pseudo_inverse(psi)
        scale = np.abs(dagger).max()
        ok = ok and all(
            np.abs(dagger[i]).max() <= 1e-12 * scale for i in unsampled
        )
        if not unsampled:
            nonsingular_seen += 1
            ok = ok and np.linalg.matrix_rank(psi, tol=1e-10 * lam_max) == ell
        else:
            unsampled_seen += 1
    assert nonsingular_seen and unsampled_seen
    assert report(
        2, ok,
        f"200 instances, {nonsingular_seen} nonsingular, "
        f"{unsampled_seen} with unsampled models",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_budget_tolerance_duality():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for inst in range(10):
        ell = int(rng.integers(2, 6))
        m = 2 if inst >= 7 else 1
        costs = np.sort(10.0 ** rng.uniform(-1.0, 2.0, ell))[::-1]
        models = ModelSet(costs, outputs=[list(range(1, m + 1))] * ell)
        groups = enumerate_groups(models)
        mats = np.stack([random_spd(rng, ell) for _ in range(m)])
        store = CovarianceStore(mats)
        systems = tuple(
            BlueSystem.from_covariance(groups, store, output=s)
            for s in range(1, m + 1)
        )
        budget = 40.0 * costs.sum()
        a1 = tracked(MosapSpec(mode="budget", groups=groups, systems=systems,
                               budget=budget), label="c3-budget")
        t_star = a1.max_variance
        a2 = tracked(
            MosapSpec(mode="tolerance", groups=groups, systems=systems,
                      tolerances=np.full(m, t_star)),
            label="c3-tolerance",
        )
        worst = max(worst, abs(a2.total_cost - budget) / budget)
    assert report(3, worst <= 1e-3, f"10 instances, worst cost gap {worst:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_pareto_asymptotics():
    suite = SyntheticSuite.hierarchy(4, 1, rate=2.0, strength=0.25)
    costs = 4.0 ** np.arange(4, 0, -1)
    models = ModelSet(costs)
    groups = enumerate_groups(models)
    store = suite.exact_store()
    systems = (BlueSystem.from_covariance(groups, store),)
    spec = MosapSpec(mode="pareto", groups=groups, systems=systems, tau=1.0)
    sweep = [10.0 ** i for i in range(-7, 5)]
    records = pareto_sweep(spec, sweep)
    for rec in records:
        if "allocation" in rec:
            SOLVES.append(("c4", rec["allocation"].solver_status,
                           rec["allocation"].solver_iterations))
        else:
            SOLVES.append(("c4", "failed", 10 ** 9))
    ok = all(rec.get("status") == "optimal" for rec in records)

    # largest tau: one sample of the cheapest group containing model 1
    contains = groups.contains_highfi()
    cheapest = np.flatnonzero(contains)[
        np.argmin(groups.group_costs[contains])]
    n_last = records[-1]["allocation"].n
    single = abs(n_last[cheapest] - 1.0) <= 1e-5 and np.all(
        np.delete(n_last, cheapest) <= 1e-5)
    ok = ok and single

    # Monte Carlo asymptote over the three smallest-tau decades
    small = [r for r in records if r["tau_tilde"] <= 1e-4 * (1 + 1e-12)]
    slope = np.polyfit(
        np.log([r["cost"] for r in small]),
        np.log([r["normalized_error"] for r in small]),
        1,
    )[0]
    ok = ok and abs(slope + 0.5) <= 0.05
    assert report(
        4, ok,
        f"single-sample endpoint {'ok' if single else 'WRONG'}, "
        f"low-tau slope {slope:.4f}",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_estimator_statistics():
    suite = SyntheticSuite.random(4, 2, seed=5)
    raw = {
        "models": {
            "costs": [8.0, 4.0, 2.0, 1.0],
            "outputs": [[1, 2]] * 4,
        },
        "synthetic": {
            "loadings": suite.loadings.tolist(),
            "means": suite.means.tolist(),
        },
        "covariance": {"type": "synthetic"},
        "mode": {"type": "budget", "budget": 180.0},
        "seed": 55,
    }
    cfg = parse_problem(raw)
    spec = spec_from_config(cfg)
    alloc = tracked(spec, label="c5")
    proj = integer_projection(spec, alloc)
    t0 = time.perf_counter()
    rep = run_estimate(cfg, proj, replications=10_000)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    worst_bias = worst_var = 0.0
    for s in range(2):
        se = np.sqrt(rep.empirical_variance[s] / rep.replications)
        bias = abs(rep.mean_estimate[s] - suite.means[s, 0])
        var_rel = abs(rep.empirical_variance[s] / rep.predicted_variance[s] - 1)
        worst_bias = max(worst_bias, bias / se)
        worst_var = max(worst_var, var_rel)
        ok = ok and bias <= 3 * se and var_rel <= 0.10
    assert report(
        5, ok,
        f"bias {worst_bias:.2f} SE, variance gap {worst_var:.1%}, "
        f"{elapsed:.1f}s for 10^4 replications",
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_dominates_baselines():
    rng = np.random.default_rng(1006)
    ok = True
    mfmc_checked = 0
    margins = []
    for inst in range(10):
        if inst < 5:
            suite = SyntheticSuite.hierarchy(
                5, 2,
                rate=float(rng.uniform(1.5, 2.5)),
                strength=float(10.0 ** rng.uniform(-2.0, -0.7)),
                output_scale=1.3,
            )
        else:
            suite = SyntheticSuite.random(5, 2, seed=600 + inst)
        costs = 4.0 ** np.arange(4, -1, -1) * rng.uniform(0.8, 1.2, 5)
        costs = np.sort(costs)[::-1]
        models = ModelSet(costs, outputs=[[1, 2]] * 5)
        groups = enumerate_groups(models)
        store = suite.exact_store()
        systems = tuple(
            BlueSystem.from_covariance(groups, store, output=s)
            for s in (1, 2)
        )
        eps2 = np.array([store.matrices[s, 0, 0] for s in range(2)]) / 100.0
        blue = tracked(
            MosapSpec(mode="tolerance", groups=groups, systems=systems,
                      tolerances=eps2),
            label="c6",
        )
        for method in ("mlmc", "mfmc"):
            try:
                base = multi_output_baseline(method, models, store, eps2)
            except ValueError:
                # a full-rank exact store always admits MLMC
                ok = ok and method == "mfmc"
                continue
            if method == "mfmc":
                mfmc_checked += 1
            margins.append(base.total_cost / blue.total_cost)
            ok = ok and blue.total_cost <= base.total_cost * (1 + 1e-6)
    assert report(
        6, ok,
        f"10 instances, {mfmc_checked} with MFMC admissible, "
        f"baseline/blue cost ratio {min(margins):.3f}..{max(margins):.1f}",
    )


# ---------------------------------------------------------------- criterion 7

_C7_COSTS = 2.0 ** np.arange(7, 0, -1)
_C7_PILOT = 25_000
_C7_SEED = 707


def _c7_pilot_store(suite, replication):
    low = tuple(range(3, 8))
    draws = suite.draw_group(low, _C7_PILOT, _C7_SEED, PILOT_STREAM_INDEX,
                             replication=replication)
    samples = np.zeros((1, _C7_PILOT, 7))
    samples[0][:, [i - 1 for i in low]] = draws[:, :, 0]
    available = np.zeros((1, 7), dtype=bool)
    available[0, [i - 1 for i in low]] = True
    return sample_covariance(PilotBatch(samples, available))


def _c7_extrapolated_store(pilot_store, rate, d_bar):
    """Fill in the two finest models from the low-fidelity block.

    Variances come from the power-law extrapolation of the level-variance
    sequence; covariances to the next ``d_bar`` coarser models come from
    extrapolated difference variances through the polarization identity.
    Everything else involving models 1 and 2 stays unknown, which denies
    those groupings automatically.
    """
    c = pilot_store.matrices[0]
    var = {k: c[k - 1, k - 1] for k in range(3, 8)}

    def diff_var(a, b):
        return var[a] + var[b] - 2.0 * c[a - 1, b - 1]

    # the power-law fit only ever uses the two finest known levels
    seq = np.array([var[3], var[4]])
    v2, v1 = richardson_extrapolate(seq, rate, num_finer=2)
    est = {1: v1, 2: v2, **var}
    updates = [(1, 1, v1), (2, 2, v2)]
    for i in (1, 2):
        for j in range(1, d_bar + 1):
            other = i + j
            seq = np.array([diff_var(3, 3 + j), diff_var(4, 4 + j)])
            dv = richardson_extrapolate(seq, rate, num_finer=3 - i)[-1]
            cov, _ = reconstruct_highfi_covariance(est[i], est[other], dv)
            updates.append((i, other, cov))
    return pilot_store.with_updates(1, updates)


def test_criterion_07_capped_sampling_with_extrapolation():
    suite = SyntheticSuite.hierarchy(7, 1, rate=2.0, strength=5e-4, bias=1.0)
    models = ModelSet(_C7_COSTS)
    groups = enumerate_groups(models, kappa=4)
    budget = 128.0 * _C7_COSTS.sum()
    exact = suite.exact_store()
    exact_systems = (BlueSystem.from_covariance(groups, exact),)

    # rate fitted from one deterministic evaluation of every model, as the
    # mean sequence converges at the same power law as the variances
    det = suite.evaluate(range(1, 8), np.zeros((1, suite.num_factors)))
    rate = estimate_decay_rate(det[0, :, 0])

    best = tracked(
        MosapSpec(mode="budget", groups=groups, systems=exact_systems,
                  budget=budget),
        label="c7-reference",
    ).max_variance

    caps_ok = True
    at_cap_16 = []
    for n_hf in (2, 4, 8, 16):
        for d_bar in (1, 2, 3):
            reps = 7 if n_hf == 16 else 2
            for r in range(reps):
                store = _c7_extrapolated_store(_c7_pilot_store(suite, r),
                                               rate, d_bar)
                system = BlueSystem.from_covariance(groups, store)
                cap_rows = tuple(
                    (np.array([1.0 if i in g else 0.0 for g in groups.groups]),
                     float(n_hf))
                    for i in (1, 2)
                )
                spec = MosapSpec(mode="budget", groups=groups,
                                 systems=(system,), budget=budget,
                                 extra_linear=cap_rows)
                proj = integer_projection(
                    spec, tracked(spec, label=f"c7-n{n_hf}-d{d_bar}"))
                for i in (1, 2):
                    used = sum(
                        proj.n[k] for k, g in enumerate(groups.groups)
                        if i in g
                    )
                    caps_ok = caps_ok and used <= n_hf + 1e-9
                achieved = realized_variance(system, proj.n, exact)
                if n_hf == 16:
                    at_cap_16.append(np.log10(best / achieved))
    median16 = float(np.median(at_cap_16))
    near_best = abs(median16) <= 0.1
    assert report(
        7, caps_ok and near_best,
        f"caps {'respected' if caps_ok else 'VIOLATED'}, "
        f"median efficiency at cap 16: {median16:+.3f} "
        f"(range {min(at_cap_16):+.3f}..{max(at_cap_16):+.3f})",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_solver_robustness():
    if not SOLVES:
        pytest.skip("needs the solves recorded by criteria 1-7")
    statuses = {status for _, status, _ in SOLVES}
    max_iters = max(iters for _, _, iters in SOLVES)
    ok = statuses == {"optimal"} and max_iters <= 100
    assert report(
        8, ok,
        f"{len(SOLVES)} solves, statuses {sorted(statuses)}, "
        f"max iterations {max_iters}",
    )


# ---------------------------------------------------------------- criterion 9

def _fabricate(spec, n):
    n = np.asarray(n, dtype=float)
    return Allocation(
        mode=spec.mode,
        n=n,
        per_output_variance=np.array([float("nan")]),
        total_cost=float(spec.group_costs @ n),
        is_integer=False,
        objective_value=float("nan"),
    )


def test_criterion_09_integer_projection_optimality():
    rng = np.random.default_rng(1009)
    costs = np.array([27.0, 9.0, 3.0, 1.0])
    cov = random_spd(rng, 4)
    models, groups, systems = single_output_problem(costs, cov)
    g = groups.num_groups
    k_single = groups.groups.index((1,))
    ok = True
    largest = 0
    for inst in range(50):
        frac_count = 12 if inst < 2 else int(rng.integers(2, 13))
        largest = max(largest, frac_count)
        n = np.rint(rng.uniform(0.0, 20.0, g))
        n[k_single] = max(n[k_single], 1.0)
        frac_idx = rng.choice(g, size=frac_count, replace=False)
        n[frac_idx] = np.floor(n[frac_idx]) + rng.uniform(0.05, 0.95,
                                                          frac_count)
        if inst % 2 == 0:
            spec = MosapSpec(mode="budget", groups=groups, systems=systems,
                             budget=float(groups.group_costs @ n))
        else:
            eps2 = blue_variance(systems[0], n) * 1.05
            spec = MosapSpec(mode="tolerance", groups=groups, systems=systems,
                             tolerances=[eps2])
        proj = integer_projection(spec, _fabricate(spec, n))

        base = np.where(np.abs(n - np.rint(n)) <= 1e-6, np.rint(n),
                        np.floor(n))
        best = None
        for bits in itertools.product((0.0, 1.0), repeat=frac_idx.size):
            cand = base.copy()
            cand[np.sort(frac_idx)] += np.asarray(bits)
            feasible, variances = _integer_feasible(spec, cand)
            if not feasible:
                continue
            objective = (max(variances) if spec.mode == "budget"
                         else float(groups.group_costs @ cand))
            key = (objective, float(groups.group_costs @ cand), tuple(cand))
            if best is None or key < best[0]:
                best = (key, cand)
        ok = ok and best is not None and np.array_equal(proj.n, best[1])
        if spec.mode == "tolerance":
            ok = ok and max(proj.per_output_variance) <= (
                spec.tolerances[0] * (1 + 1e-9))
    assert report(
        9, ok, f"50 instances, up to {largest} fractional entries"
    )


# --------------------------------------------------------------- criterion 10

def test_criterion_10_group_scaling():
    costs = np.geomspace(4096.0, 1.0, 12)
    counts = {}
    for kappa in (3, 5):
        models = ModelSet(costs)
        counts[kappa] = enumerate_groups(models, kappa=kappa).num_groups
    ok = counts[3] == 298 and counts[5] == 1585

    suite = SyntheticSuite.random(12, 4, seed=10)
    t0 = time.perf_counter()
    models = ModelSet(costs, outputs=[[1, 2, 3, 4]] * 12)
    groups = enumerate_groups(models, kappa=3)
    store = suite.exact_store()
    systems = tuple(
        BlueSystem.from_covariance(groups, store, output=s)
        for s in (1, 2, 3, 4)
    )
    spec = MosapSpec(mode="budget", groups=groups, systems=systems,
                     budget=100.0 * costs.sum())
    alloc = solve_mosap(spec)
    elapsed = time.perf_counter() - t0
    ok = ok and alloc.solver_status == "optimal" and elapsed < 10.0
    assert report(
        10, ok,
        f"group counts {counts[3]}/{counts[5]}, "
        f"12-model 4-output assembly+solve {elapsed:.2f}s "
        f"({alloc.solver_iterations} iterations)",
    )
