import numpy as np
import pytest
from scipy.optimize import linprog

from mlblue.covariance import CovarianceStore
from mlblue.estimator import BlueSystem, blue_variance
from mlblue.models import enumerate_groups
from mlblue.sdp import (
    PsdBlock,
    SdpProblem,
    SdpSettings,
    _adjoint,
    _apply,
    _blas_thread_functions,
    _schur_matrix,
    _tril_inv,
    solve_sdp,
)

from conftest import all_output_modelset, assert_outcome


def corner_problem():
    # min t with [[1, 1], [1, t]] >= 0; Schur complement forces t >= 1
    f0 = np.array([[1.0, 1.0], [1.0, 0.0]])
    coeff = np.zeros((1, 2, 2))
    coeff[0, 1, 1] = 1.0
    return SdpProblem(
        objective=np.array([1.0]),
        blocks=(PsdBlock(f0, coeff),),
    )


def test_schur_corner_minimum():
    sol = solve_sdp(corner_problem())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)


def test_diagonal_block_lp():
    # min x with diag(x-1, x-2) >= 0 and x >= 0: binding at x = 2
    f0 = np.diag([-1.0, -2.0])
    coeff = np.eye(2)[None]
    prob = SdpProblem(
        objective=np.array([1.0]),
        blocks=(PsdBlock(f0, coeff),),
    )
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-6)


def test_optimal_certificates_hold():
    sol = solve_sdp(corner_problem())
    st = SdpSettings()
    assert sol.residuals["gap"] <= st.gap_tol
    assert sol.residuals["primal"] <= st.feas_tol
    assert sol.residuals["dual"] <= st.feas_tol
    # the PSD block at the solution is nearly feasible
    f = np.array([[1.0, 1.0], [1.0, sol.x[0]]])
    assert np.linalg.eigvalsh(f)[0] >= -st.feas_tol * (1 + np.linalg.norm(f))


def test_objective_scaling_leaves_argmin():
    base = solve_sdp(corner_problem())
    for alpha in (1e-3, 1e3):
        prob = corner_problem()
        scaled = SdpProblem(
            objective=alpha * prob.objective,
            blocks=prob.blocks,
        )
        sol = solve_sdp(scaled)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(base.x[0], abs=1e-6)
        assert sol.objective_value == pytest.approx(
            alpha * base.objective_value, rel=1e-6
        )


def _random_lp(rng, nvar, nrow):
    g_mat = rng.uniform(0.2, 2.0, (nrow, nvar))
    g_rhs = rng.uniform(1.0, 4.0, nrow)
    q = rng.uniform(-1.0, 2.0, nvar)
    return q, g_mat, g_rhs


def test_diagonal_sdp_matches_simplex_oracle():
    # LP encoded as a diagonal PSD block must agree with scipy's LP solver
    rng = np.random.default_rng(20)
    for _ in range(10):
        nvar, nrow = 4, 6
        q, g_mat, g_rhs = _random_lp(rng, nvar, nrow)
        coeff = np.zeros((nvar, nrow, nrow))
        for i in range(nvar):
            coeff[i][np.diag_indices(nrow)] = -g_mat[:, i]
        prob = SdpProblem(
            objective=q,
            blocks=(PsdBlock(np.diag(g_rhs), coeff),),
        )
        sol = solve_sdp(prob)
        ref = linprog(q, A_ub=g_mat, b_ub=g_rhs, bounds=(0, None))
        assert sol.status == "optimal" and ref.status == 0
        scale = max(1.0, abs(ref.fun))
        assert abs(sol.objective_value - ref.fun) <= 1e-6 * scale


def test_linear_rows_match_simplex_oracle():
    # same LPs through the dedicated inequality interface
    rng = np.random.default_rng(21)
    for _ in range(10):
        q, g_mat, g_rhs = _random_lp(rng, 5, 3)
        prob = SdpProblem(objective=q, ineq_matrix=g_mat, ineq_rhs=g_rhs)
        sol = solve_sdp(prob)
        ref = linprog(q, A_ub=g_mat, b_ub=g_rhs, bounds=(0, None))
        assert sol.status == "optimal" and ref.status == 0
        scale = max(1.0, abs(ref.fun))
        assert abs(sol.objective_value - ref.fun) <= 1e-6 * scale


def test_infeasible_problem_detected():
    # x >= 0 conflicts with x <= -1
    prob = SdpProblem(
        objective=np.array([1.0]),
        ineq_matrix=np.array([[1.0]]),
        ineq_rhs=np.array([-1.0]),
    )
    sol = solve_sdp(prob)
    assert sol.status in ("infeasible", "max_iter")
    assert sol.status == "infeasible"


def test_max_iter_reports_best_iterate():
    sol = solve_sdp(corner_problem(), SdpSettings(max_iter=2))
    assert sol.status == "max_iter"
    assert sol.iterations == 2
    assert np.isfinite(sol.x).all()
    # no iteration at all still returns the starting point
    assert solve_sdp(corner_problem(), SdpSettings(max_iter=0)).iterations == 0


@pytest.mark.parametrize("field, value, message", [
    ("gap_tol", np.nan, "gap_tol must be a finite number > 0, got nan"),
    ("gap_tol", np.inf, "gap_tol must be a finite number > 0, got inf"),
    ("gap_tol", 0.0, "gap_tol must be a finite number > 0, got 0.0"),
    ("feas_tol", -1.0, "feas_tol must be a finite number > 0, got -1.0"),
    ("feas_tol", np.nan, "feas_tol must be a finite number > 0, got nan"),
    ("max_iter", -1, "max_iter must be an integer >= 0, got -1"),
    ("max_iter", 2.5, "max_iter must be an integer >= 0, got 2.5"),
])
def test_settings_refuse_values_the_solver_cannot_run_with(field, value, message):
    assert_outcome(lambda: SdpSettings(**{field: value}), ValueError(message))


def test_mosap_objective_matches_grid_oracle():
    # 2-model budget instance: exhaustive grid over allocations that spend
    # the whole budget across the three groups
    c = np.array([[1.0, 0.9], [0.9, 1.0]])
    costs = np.array([1.0, 0.01])
    budget = 10.0
    models = all_output_modelset(costs)
    gs = enumerate_groups(models, kappa=2)
    system = BlueSystem.from_covariance(gs, CovarianceStore(c[None]))

    from mlblue.allocate import MosapSpec, solve_mosap

    spec = MosapSpec(mode="budget", groups=gs, systems=(system,), budget=budget)
    alloc = solve_mosap(spec)
    assert alloc.solver_status == "optimal"

    best = np.inf
    grid = np.linspace(0.0, 1.0, 141)
    for f1 in grid:
        for f2 in np.linspace(0.0, 1.0 - f1, 141):
            f = np.array([f1, f2, 1.0 - f1 - f2])
            n = f * budget / gs.group_costs
            if n[0] + n[2] <= 1e-12:
                continue  # model 1 unsampled
            best = min(best, blue_variance(system, n))
    assert alloc.max_variance == pytest.approx(best, rel=1e-3)
    assert alloc.max_variance <= best * (1 + 1e-9)  # grid is only an upper bound


def test_triangular_inverse_matches_general_inverse():
    rng = np.random.default_rng(22)
    for n in (1, 7, 48, 49, 131):
        a = rng.standard_normal((n, n + 3))
        low = np.linalg.cholesky(a @ a.T)
        inv = _tril_inv(low)
        assert np.allclose(inv, np.linalg.inv(low), rtol=0, atol=1e-10)
        assert np.allclose(inv @ low, np.eye(n), rtol=0, atol=1e-10)


def nan_objective_problem():
    return SdpProblem(np.array([np.nan]), corner_problem().blocks)


def test_non_finite_data_raises():
    # a NaN or infinity must stop the solver, not run on into NaN iterates;
    # in a block's data it is refused when the block is built
    f0 = np.array([[1.0, 1.0], [1.0, 0.0]])
    coeff = np.zeros((1, 2, 2))
    coeff[0, 1, 1] = 1.0
    bad_coeff = coeff.copy()
    bad_coeff[0, 1, 1] = np.nan
    bad_const = f0.copy()
    bad_const[0, 0] = np.inf
    for constant, coefficients in ((f0, bad_coeff), (bad_const, coeff)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            PsdBlock(constant, coefficients)
    nan_row = SdpProblem(np.array([1.0]), ineq_matrix=[[np.nan]], ineq_rhs=[1.0])
    for prob in (nan_objective_problem(), nan_row):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_sdp(prob)


def test_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    functions = _blas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread count")
    get, put = functions
    caller = get()
    cholesky = np.linalg.cholesky
    seen = []

    def spy(a):
        seen.append(get())
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    try:
        put(2)
        assert solve_sdp(corner_problem()).status == "optimal"
        assert get() == 2
        assert seen and set(seen) == {1}
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_sdp(nan_objective_problem())
        assert get() == 2
    finally:
        put(caller)


def test_openblas_thread_functions_are_bound():
    # a numpy whose OpenBLAS renames the thread-count functions must fail
    # here rather than quietly solve on every thread again
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("this numpy does not report its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built with {blas}, not OpenBLAS")
    assert _blas_thread_functions() is not None


def test_symmetry_validation_rejects_bad_blocks():
    f0 = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SdpProblem(
            objective=np.array([1.0]),
            blocks=(PsdBlock(f0, np.zeros((1, 2, 2))),),
        )


def random_block(rng, p=5, num_vars=7, k=4, var_indices=None):
    """A block over ``num_vars`` variables with random symmetric
    coefficients on ``var_indices`` (k of them, drawn when not given) and
    zero coefficients elsewhere."""
    const = rng.standard_normal((p, p))
    coeffs = rng.standard_normal((k, p, p))
    if var_indices is None:
        var_indices = rng.choice(num_vars, size=k, replace=False)
    dense = np.zeros((num_vars, p, p))
    dense[np.asarray(var_indices, dtype=int)] = coeffs + coeffs.transpose(0, 2, 1)
    return PsdBlock(const + const.T, dense)


def flat(blk):
    """The (d, p*p) form the solver reads: row i is F_i raveled."""
    return blk.coefficients.reshape(blk.coefficients.shape[0], blk.order**2)


def block_schur(blk, winv):
    """The solver's Schur term of one block alone, with no LP weight."""
    d = blk.coefficients.shape[0]
    return _schur_matrix([flat(blk)], [winv], np.zeros((0, d)), np.zeros(d))


def block_adjoint(blk, z):
    """The solver's adjoint of one block alone, with no LP part."""
    d = blk.coefficients.shape[0]
    return _adjoint([flat(blk)], np.zeros((0, d)), np.zeros(d), [z], np.zeros(d))


# (order, variables) of the tested blocks; k = 0 is a block whose
# coefficients are all zero
BLOCK_SHAPES = ((5, 4), (1, 1), (3, 0))


def test_block_map_and_adjoint_match_dense_reference():
    rng = np.random.default_rng(41)
    for p, k in BLOCK_SHAPES:
        check_block_map_and_adjoint(rng, p, k)


def check_block_map_and_adjoint(rng, p, k):
    blk = random_block(rng, p=p, k=k)
    x = rng.standard_normal(7)
    z = rng.standard_normal((p, p))
    z = z + z.T
    dense = sum((x_i * f for x_i, f in zip(x, blk.coefficients)), np.zeros((p, p)))
    applied = _apply(flat(blk), x, (p, p))
    assert np.allclose(applied, dense, rtol=1e-13, atol=1e-13)
    adj = block_adjoint(blk, z)
    # <A(x), Z> = x' A*(Z)
    assert np.sum(applied * z) == pytest.approx(x @ adj, rel=1e-12)
    for j, f in enumerate(blk.coefficients):
        assert adj[j] == pytest.approx(np.trace(f @ z), rel=1e-12)


def test_block_schur_term_matches_entrywise_traces():
    rng = np.random.default_rng(42)
    for p, k in BLOCK_SHAPES:
        check_block_schur_term(rng, p, k)


def check_block_schur_term(rng, p, k):
    blk = random_block(rng, p=p, k=k)
    a = rng.standard_normal((p, 7))
    w = a @ a.T
    dense = blk.coefficients
    ref = np.array([[np.trace(fi @ w @ fj @ w) for fj in dense] for fi in dense])
    got = block_schur(blk, w)
    assert got.shape == (7, 7)
    assert np.allclose(got, ref, rtol=1e-12,
                       atol=1e-12 * np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize("p, k", BLOCK_SHAPES)
def test_block_maps_equal_tensordot_forms(p, k):
    # a block's flat form is its own coefficient stack, so the flat
    # products must give the bits of the tensordot forms the block maps
    # were first written with; the solver's answers depend on them
    rng = np.random.default_rng(43)
    blk = random_block(rng, p=p, num_vars=k, k=k, var_indices=np.arange(k))
    coeffs = blk.coefficients
    x = rng.standard_normal(k)
    z = rng.standard_normal((p, p))
    z = z + z.T
    a = rng.standard_normal((p, p + 2))
    winv = a @ a.T
    t = np.matmul(winv, np.matmul(coeffs, winv))
    assert np.array_equal(
        _apply(flat(blk), x, (p, p)), np.tensordot(x, coeffs, axes=(0, 0)))
    assert np.array_equal(
        block_adjoint(blk, z), np.tensordot(coeffs, z, axes=([1, 2], [0, 1])))
    assert np.array_equal(
        block_schur(blk, winv), np.tensordot(coeffs, t, axes=([1, 2], [1, 2])))


def test_schur_matrix_and_adjoint_match_dense_reference_and_lp_rows():
    # two blocks over different variable subsets, one with no variable, and
    # two inequality rows; x >= 0 enters as a diagonal, not as rows of -I
    rng = np.random.default_rng(44)
    d = 7
    used = [np.array([5, 0, 2]), np.array([1, 2, 6, 3]), np.array([], dtype=int)]
    blocks = [random_block(rng, p=p, k=idx.size, var_indices=idx)
              for p, idx in zip((4, 3, 2), used)]
    winvs = []
    for blk in blocks:
        a = rng.standard_normal((blk.order, blk.order + 3))
        winvs.append(a @ a.T)
    ineq = rng.standard_normal((2, d))
    w_ineq, w_x = rng.uniform(0.1, 2.0, 2), rng.uniform(0.1, 2.0, d)
    flats = [flat(b) for b in blocks]
    got = _schur_matrix(flats, winvs, ineq, np.concatenate([w_ineq, w_x]))

    ref = ineq.T @ np.diag(w_ineq) @ ineq + np.diag(w_x)
    for blk, w in zip(blocks, winvs):
        dense = blk.coefficients
        ref += np.array([[np.trace(fi @ w @ fj @ w) for fj in dense]
                         for fi in dense])
    # the form the solver used to assemble: a Gram product over the stacked
    # LP rows [G; -I], plus each block's own (k, k) term scattered into place
    lp_rows = np.vstack([ineq, -np.eye(d)])
    w_lp = np.concatenate([w_ineq, w_x])
    gram = (lp_rows * w_lp[:, None]).T @ lp_rows
    for blk, w, idx in zip(blocks, winvs, used):
        own = blk.coefficients[idx]
        t = np.matmul(w, np.matmul(own, w))
        gram[np.ix_(idx, idx)] += np.tensordot(own, t, axes=([1, 2], [1, 2]))
    for other in (ref, gram):
        assert np.abs(got - other).max() <= 1e-12 * np.abs(other).max()

    # the adjoint: base + sum_b (<F_i, Z_b>)_i - [G; -I]' w, against the
    # stacked LP rows
    base = rng.standard_normal(d)
    zs = [w + np.eye(blk.order) for blk, w in zip(blocks, winvs)]
    lp_vec = rng.standard_normal(2 + d)
    adj_ref = base - lp_rows.T @ lp_vec
    for blk, z in zip(blocks, zs):
        for i, f in enumerate(blk.coefficients):
            adj_ref[i] += np.trace(f @ z)
    adj = _adjoint(flats, ineq, base, zs, lp_vec)
    assert np.abs(adj - adj_ref).max() <= 1e-12 * np.abs(adj_ref).max()


SDP_REJECTIONS = {
    "constant-not-square": (lambda: PsdBlock(np.zeros((2, 3)), np.zeros((1, 2, 2))),
                            "block constant must be square"),
    "coefficients-shape": (lambda: PsdBlock(np.eye(2), np.zeros((1, 3, 3))),
                           "coefficients must be (d, p, p)"),
    "objective-empty": (lambda: SdpProblem([]), "objective must be a nonempty vector"),
    "coefficient-count": (lambda: SdpProblem([1.0], [PsdBlock(np.eye(2), np.zeros((2, 2, 2)))]),
                          "a block needs one coefficient matrix per variable"),
    "rhs-count": (lambda: SdpProblem([1.0, 1.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0]),
                  "one rhs entry per inequality row"),
}


@pytest.mark.parametrize("call, message", SDP_REJECTIONS.values(),
                         ids=SDP_REJECTIONS.keys())
def test_sdp_data_rejects_malformed_input(call, message):
    assert_outcome(call, ValueError(message))
