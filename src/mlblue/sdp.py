"""Dense primal-dual interior-point solver for small block SDPs.

Solves

    minimize    q'x
    subject to  F0 + sum_i x_i F_i  >= 0   (one PSD constraint per block)
                G x <= g
                x >= 0

with a Nesterov-Todd scaled predictor-corrector method, written for the
dense, modest-size problems produced by the allocation builders: block
orders up to a few tens, up to a few thousand variables. The NT scaling
keeps the Schur complement symmetric positive definite, so each iteration
is one Cholesky factorization of it plus small dense eigen/SVD work per
block. The NT scaling of a block reuses the Cholesky factors of S and Z
that the step search (or the starting point) computed when it accepted
them. Each block's coefficients are lifted once per solve to all d
variables, with zeros for those it does not use, so each of its maps is one
product over all of x and nothing is gathered or scattered; x >= 0 enters
every product as -I and the Schur complement as a diagonal.

The method starts infeasible (identity-scaled cone points) and drives
primal residual, dual residual, and duality gap below the configured
tolerances. Infeasibility is reported when the iterates produce an
approximate separating (Farkas) certificate; there is no homogeneous
embedding, which is acceptable here because allocation problems are
feasible by construction once the budget check passes.

Each solve runs on one OpenBLAS thread and then sets the caller's thread
count back. Its dense work is small (Schur complements of order 60 to 180
on the bench configs), so a second thread would only spin-wait between
calls, at twice the CPU time; and a product or factorization split over
threads sums in an order that depends on the thread count, which would make
the answers depend on the number of cores. The price is wall time on very
large solves: 15 to 30 % on a 1585-group problem (Schur order about 1600)
on two cores. Any BLAS other than OpenBLAS keeps its own thread setting.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PsdBlock",
    "SdpProblem",
    "SdpSettings",
    "SdpSolution",
    "solve_sdp",
]


# fraction of the largest step to the cone boundary that an iterate takes
_STEP_SCALE = 0.98

# (get, set) names of the OpenBLAS thread count: numpy's wheels, system builds
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_functions():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    The symbols are looked up through numpy's LAPACK extension, which
    searches it and the libraries it links, so the OpenBLAS found is
    numpy's own even when another one (scipy's) is loaded too.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        try:
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    The count is process-wide, so solves must not overlap in threads.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, put = functions
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)


def _sym(m):
    return 0.5 * (m + m.T)


def _finite(a):
    """Return a, or raise if it holds a NaN or an infinity.

    numpy's LAPACK calls run on such input and return NaNs; the solver
    stops instead, so a broken iterate is never taken for a result.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _tril_inv(low):
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    numpy has no triangular solve, and np.linalg.inv runs a general LU
    solve on the factor; the recursion needs about a quarter of its flops
    and spends them in matrix products.
    """
    n = low.shape[0]
    if n <= 48:  # the plain inverse was as fast up to here (orders 130-300)
        return np.linalg.inv(low)
    h = n // 2
    top, bottom = _tril_inv(low[:h, :h]), _tril_inv(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = top
    out[h:, h:] = bottom
    out[h:, :h] = -bottom @ (low[h:, :h] @ top)
    return out


@dataclass(frozen=True)
class PsdBlock:
    """Affine matrix map constant + sum_j coefficients[j] * x[var_indices[j]].

    The map's value is constrained to the PSD cone. Coefficients must be
    finite and symmetric; only the variables actually appearing in the block
    are listed.
    """

    constant: np.ndarray  # (p, p)
    var_indices: np.ndarray  # (k,) int
    coefficients: np.ndarray  # (k, p, p), symmetrized

    def __init__(self, constant, var_indices, coefficients):
        constant = np.asarray(constant, dtype=float)
        var_indices = np.asarray(var_indices, dtype=int)
        coefficients = np.asarray(coefficients, dtype=float)
        p = constant.shape[0]
        if constant.shape != (p, p):
            raise ValueError("block constant must be square")
        if coefficients.ndim != 3 or coefficients.shape[1:] != (p, p):
            raise ValueError("coefficients must be (k, p, p)")
        if var_indices.shape != (coefficients.shape[0],):
            raise ValueError("one variable index per coefficient matrix")
        if len(set(var_indices.tolist())) != var_indices.size:
            raise ValueError("repeated variable index in block")
        # before the symmetry test, where inf - inf would warn
        stack = _finite(np.concatenate([constant[None], coefficients], axis=0))
        asym = np.abs(stack - stack.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-12 * max(np.abs(stack).max(initial=0.0), 1.0):
            raise ValueError("block matrices must be symmetric")
        coefficients = 0.5 * (coefficients + coefficients.transpose(0, 2, 1))
        object.__setattr__(self, "constant", _sym(constant))
        object.__setattr__(self, "var_indices", var_indices)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def order(self) -> int:
        return self.constant.shape[0]


@dataclass(frozen=True)
class SdpProblem:
    objective: np.ndarray  # (d,)
    blocks: tuple  # of PsdBlock
    ineq_matrix: np.ndarray  # (m, d), rows a with a'x <= rhs
    ineq_rhs: np.ndarray  # (m,)

    def __init__(self, objective, blocks=(), ineq_matrix=None, ineq_rhs=None):
        objective = np.asarray(objective, dtype=float)
        if objective.ndim != 1 or objective.size == 0:
            raise ValueError("objective must be a nonempty vector")
        d = objective.size
        blocks = tuple(blocks)
        for b in blocks:
            if b.var_indices.size and (
                b.var_indices.min() < 0 or b.var_indices.max() >= d
            ):
                raise ValueError("block variable index out of range")
        if ineq_matrix is None:
            ineq_matrix = np.zeros((0, d))
            ineq_rhs = np.zeros(0)
        ineq_matrix = np.asarray(ineq_matrix, dtype=float).reshape(-1, d)
        ineq_rhs = np.asarray(ineq_rhs, dtype=float).reshape(-1)
        if ineq_rhs.size != ineq_matrix.shape[0]:
            raise ValueError("one rhs entry per inequality row")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "ineq_matrix", ineq_matrix)
        object.__setattr__(self, "ineq_rhs", ineq_rhs)


@dataclass(frozen=True)
class SdpSettings:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200


@dataclass
class SdpSolution:
    x: np.ndarray
    objective_value: float
    status: str  # 'optimal' | 'infeasible' | 'max_iter'
    residuals: dict = field(default_factory=dict)
    iterations: int = 0


def _max_step_scaled(lam, delta):
    """Largest a with diag(lam) + a*delta >= 0, both in the scaled space."""
    scale = np.sqrt(np.outer(lam, lam))
    w = np.linalg.eigvalsh(_finite(delta / scale))
    lo = w[0]
    return np.inf if lo >= -1e-300 else 1.0 / (-lo)


def _max_step_vec(v, dv):
    neg = dv < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _inner(mats_a, vec_a, mats_b, vec_b):
    """Inner product of two cone points: PSD blocks plus the LP part."""
    return sum(
        float(np.tensordot(a, b)) for a, b in zip(mats_a, mats_b)
    ) + float(vec_a @ vec_b)


def _norm(mats, vec):
    """Frobenius norm of a cone point: PSD blocks plus the LP part."""
    return np.sqrt(
        sum(np.linalg.norm(m) ** 2 for m in mats) + np.linalg.norm(vec) ** 2
    )


def _factors(mats):
    """Lower Cholesky factors of cone blocks; LinAlgError if one is not PD."""
    return [np.linalg.cholesky(_finite(m)) for m in mats]


def _lift(block, d):
    """(d, p*p) matrix whose row i is F_i raveled, zero where i is unused."""
    p = block.order
    lifted = np.zeros((d, p * p))
    lifted[block.var_indices] = block.coefficients.reshape(-1, p * p)
    return lifted


def _apply(flat, x, shape):
    """A_b(x) = sum_i x_i F_i of a lifted block, as a matrix of the given shape."""
    return (x @ flat).reshape(shape)


def _adjoint(lifted, ineq, base, mats, lp_vec):
    """base + sum_b A_b*(mats[b]) - [G; -I]' lp_vec, x >= 0 last in lp_vec."""
    out = base.copy()
    for flat, m in zip(lifted, mats):
        out += flat @ m.ravel()
    out -= ineq.T @ lp_vec[: ineq.shape[0]]
    out += lp_vec[ineq.shape[0]:]
    return out


def _schur_matrix(lifted, winvs, ineq, w_lp):
    """M = sum_b [tr(F_i W_b F_j W_b)]_ij + [G; -I]' diag(w_lp) [G; -I].

    One product per block. Merging the blocks into one larger product was
    measured only while solves could use a second BLAS thread, which it woke
    at a cost in CPU time; it has not been measured on one thread.
    """
    m_ineq = ineq.shape[0]  # x >= 0 adds the diagonal w_lp[m_ineq:]
    m = (ineq * w_lp[:m_ineq, None]).T @ ineq + np.diag(w_lp[m_ineq:])
    for flat, winv in zip(lifted, winvs):
        t = np.matmul(winv, np.matmul(flat.reshape(-1, *winv.shape), winv))
        m += flat @ t.reshape(flat.shape).T
    return m


@_one_blas_thread()
def solve_sdp(problem: SdpProblem, settings: SdpSettings | None = None) -> SdpSolution:
    """Solve the block SDP; see the module docstring for the problem form.

    Returns the best iterate found. status is 'optimal' when primal/dual
    residuals are below feas_tol and the relative duality gap is below
    gap_tol; 'infeasible' when an approximate Farkas certificate appears;
    'max_iter' otherwise.
    """
    cfg = settings or SdpSettings()
    blocks = problem.blocks
    d = problem.objective.size
    b_vec = -problem.objective  # internal form maximizes b'x
    ineq = problem.ineq_matrix
    # the LP rows are [G; -I], x >= 0 last: slack vector is (g - Gx, x)
    lp_rhs = np.concatenate([problem.ineq_rhs, np.zeros(d)])
    cone_dim = sum(b.order for b in blocks) + lp_rhs.size
    constants = [b.constant for b in blocks]
    lifted = [_lift(b, d) for b in blocks]

    # identity-scaled starting point, sized from the data norms
    x = np.zeros(d)
    S, Z = [], []
    for blk in blocks:
        p = blk.order
        n_const = np.linalg.norm(blk.constant)
        n_coeff = max(
            [np.linalg.norm(c) for c in blk.coefficients], default=1.0
        )
        s_scale = max(10.0, np.sqrt(p), n_const, n_coeff)
        z_scale = max(
            10.0, np.sqrt(p), np.sqrt(p) * (1.0 + np.abs(b_vec).max()) / (1.0 + n_coeff)
        )
        S.append(s_scale * np.eye(p))
        Z.append(z_scale * np.eye(p))
    # Cholesky factors of S and Z, refreshed by every accepted step
    chol_s, chol_z = _factors(S), _factors(Z)
    row_scale = np.concatenate([np.abs(ineq).max(axis=1, initial=0.0), np.ones(d)])
    s_lp = np.maximum(10.0, np.maximum(np.abs(lp_rhs), row_scale))
    z_lp = np.full(
        lp_rhs.size, max(10.0, (1.0 + np.abs(b_vec).max()) / (1.0 + max(row_scale.max(initial=0.0), 1.0)))
    )

    norm_b = 1.0 + np.linalg.norm(b_vec)
    norm_c = 1.0 + _norm(constants, lp_rhs)
    z_init_norm = _norm(Z, z_lp)

    best = None  # (score, x, residuals) of the reported iterate
    status = "max_iter"
    for it in range(cfg.max_iter + 1):
        # residuals of the current iterate
        rp = _adjoint(lifted, ineq, b_vec, Z, z_lp)
        rd_blocks = [c + _apply(flat, x, c.shape) - sb for c, flat, sb in zip(constants, lifted, S)]
        rd_lp = lp_rhs - s_lp - np.concatenate([ineq @ x, -x])

        gap = _inner(Z, z_lp, S, s_lp)
        pobj = _inner(constants, lp_rhs, Z, z_lp)
        dobj = float(b_vec @ x)
        pres = np.linalg.norm(rp) / norm_b
        dres = _norm(rd_blocks, rd_lp) / norm_c
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        score = max(pres, dres, relgap)
        residuals = {"primal": pres, "dual": dres, "gap": relgap}
        if best is None or score < best[0]:
            best = (score, x.copy(), residuals)

        if pres <= cfg.feas_tol and dres <= cfg.feas_tol and relgap <= cfg.gap_tol:
            best, status = (score, x, residuals), "optimal"
            break

        # approximate Farkas certificate: Z >= 0 large with A(Z) ~ 0, <C,Z> < 0
        z_norm = _norm(Z, z_lp)
        if z_norm > 1e8 * (1.0 + z_init_norm):
            viol = np.linalg.norm(rp - b_vec) / z_norm
            if viol <= 1e-6 and pobj / z_norm <= -1e-9:
                status = "infeasible"
                break

        if it == cfg.max_iter:
            break

        # Nesterov-Todd scaling per block: S = R L R', Z = R^-T L R^-1
        mu = gap / cone_dim
        nt_list, Winv_list = [], []  # nt: (R, R^-1, L) per block
        try:
            for ls, lz in zip(chol_s, chol_z):
                u, lam, vt = np.linalg.svd(_finite(lz.T @ ls))
                rt = ls @ vt.T / np.sqrt(lam)
                rinv = (u / np.sqrt(lam)).T @ lz.T
                nt_list.append((rt, rinv, lam))
                Winv_list.append(_sym(rinv.T @ rinv))
        except np.linalg.LinAlgError:
            break  # cone point lost definiteness beyond repair; report best

        w_lp = z_lp / s_lp
        M = _schur_matrix(lifted, Winv_list, ineq, w_lp)
        # per block: Winv Rd Winv, reused in both rhs passes
        winv_rd = [winv @ rd @ winv for winv, rd in zip(Winv_list, rd_blocks)]
        # invert the Cholesky factor of M (plus ridge) once, so that each
        # solve is two matrix-vector products
        _finite(M)
        m_linv = None
        ridge = 0.0
        for attempt in range(8):
            try:
                m_linv = _tril_inv(
                    np.linalg.cholesky(M + ridge * np.eye(d) if ridge else M)
                )
                break
            except np.linalg.LinAlgError:
                base = max(np.trace(M) / d, 1e-30)
                ridge = base * (1e-14 if ridge == 0.0 else 0.0) + ridge * 100.0
        if m_linv is None:
            break

        def m_solve(r, rounds):
            """M^-1 r, refined `rounds` times against the unridged M."""
            out = m_linv.T @ (m_linv @ _finite(r))
            for _ in range(rounds):
                out = out + m_linv.T @ (m_linv @ _finite(r - M @ out))
            return out

        def solve_direction(ecc_blocks, ecc_lp):
            """Newton step from scaled-space complementarity targets."""
            rhs = _adjoint(
                lifted, ineq, rp,
                [ecc - wrd for ecc, wrd in zip(ecc_blocks, winv_rd)],
                ecc_lp - w_lp * rd_lp,
            )
            # without two refinement rounds the direction error re-injects primal
            # residual near convergence and the iteration stalls above feas_tol
            dx = m_solve(rhs, 2)
            ds_blocks, dz_blocks = [], []
            for flat, ecc, winv, rd in zip(lifted, ecc_blocks, Winv_list, rd_blocks):
                dsb = rd + _apply(flat, dx, rd.shape)
                ds_blocks.append(_sym(dsb))
                dz_blocks.append(_sym(ecc - winv @ dsb @ winv))
            ds_lp = rd_lp - np.concatenate([ineq @ dx, -dx])
            dz_lp = ecc_lp - w_lp * ds_lp
            return dx, ds_blocks, dz_blocks, ds_lp, dz_lp

        def boundary_steps(ds_blocks, dz_blocks, ds_lp, dz_lp):
            """Steps to the cone boundary; per block (R^-1 dS R^-T, R' dZ R)."""
            a_s = _max_step_vec(s_lp, ds_lp)
            a_z = _max_step_vec(z_lp, dz_lp)
            scaled = []
            for (rt, rinv, lam), dsb, dzb in zip(nt_list, ds_blocks, dz_blocks):
                ds_t, dz_t = rinv @ dsb @ rinv.T, rt.T @ dzb @ rt
                a_s = min(a_s, _max_step_scaled(lam, _sym(ds_t)))
                a_z = min(a_z, _max_step_scaled(lam, _sym(dz_t)))
                scaled.append((ds_t, dz_t))
            return a_z, a_s, scaled

        # predictor: pure Newton step toward complementarity zero
        _, dsa, dza, dsa_lp, dza_lp = solve_direction([-zb for zb in Z], -z_lp)
        a_z_aff, a_s_aff, scaled_aff = boundary_steps(dsa, dza, dsa_lp, dza_lp)
        a_z_aff, a_s_aff = min(1.0, a_z_aff), min(1.0, a_s_aff)
        gap_aff = _inner(
            [zb + a_z_aff * dzb for zb, dzb in zip(Z, dza)],
            z_lp + a_z_aff * dza_lp,
            [sb + a_s_aff * dsb for sb, dsb in zip(S, dsa)],
            s_lp + a_s_aff * dsa_lp,
        )
        sigma = min(1.0, max(0.0, (gap_aff / gap) ** 3))

        # corrector: recenter and subtract the predictor's second-order term
        ecc_blocks = []
        for (rt, rinv, lam), (ds_t, dz_t) in zip(nt_list, scaled_aff):
            cross = _sym(dz_t @ ds_t)
            denom = lam[:, None] + lam[None, :]
            e = -2.0 * cross / denom
            e[np.diag_indices_from(e)] += (sigma * mu - lam**2) / lam
            ecc_blocks.append(rinv.T @ e @ rinv)
        ecc_lp = (sigma * mu - s_lp * z_lp - dza_lp * dsa_lp) / s_lp
        dx, ds_blocks, dz_blocks, ds_lp, dz_lp = solve_direction(ecc_blocks, ecc_lp)
        # forming dZ from dS loses ~eps*||Winv||^2*||dS|| per entry and the
        # loss lands in the primal equation as a residual floor; measure the
        # miss and absorb it with an extra back-solve. The patch pair
        # cS = A(cx), cZ = -Winv cS Winv cancels in the scaled
        # complementarity equation, so only the primal equation moves.
        for _ in range(2):
            defect = _adjoint(lifted, ineq, rp, dz_blocks, dz_lp)
            if np.linalg.norm(defect) <= 1e-15 * norm_b:
                break
            cx = m_solve(defect, 1)
            for i, (flat, winv) in enumerate(zip(lifted, Winv_list)):
                csb = _sym(_apply(flat, cx, winv.shape))
                ds_blocks[i] = ds_blocks[i] + csb
                dz_blocks[i] = dz_blocks[i] - _sym(winv @ csb @ winv)
            cs_lp = np.concatenate([-(ineq @ cx), cx])
            ds_lp = ds_lp + cs_lp
            dz_lp = dz_lp - w_lp * cs_lp
            dx = dx + cx
        a_z, a_s, _ = boundary_steps(ds_blocks, dz_blocks, ds_lp, dz_lp)
        a_z = min(1.0, _STEP_SCALE * a_z)
        a_s = min(1.0, _STEP_SCALE * a_s)

        # fall back to shorter steps if roundoff pushed an iterate off the cone
        for shrink in range(25):
            x_try = x + a_s * dx
            s_try = [sb + a_s * dsb for sb, dsb in zip(S, ds_blocks)]
            z_try = [zb + a_z * dzb for zb, dzb in zip(Z, dz_blocks)]
            try:
                chol_s, chol_z = _factors(s_try), _factors(z_try)
            except np.linalg.LinAlgError:
                a_z *= 0.5
                a_s *= 0.5
                continue
            x, S, Z = x_try, s_try, z_try
            s_lp, z_lp = s_lp + a_s * ds_lp, z_lp + a_z * dz_lp
            break
        else:
            break  # no usable step length left; report best iterate

    return SdpSolution(
        x=best[1],
        objective_value=float(problem.objective @ best[1]),
        status=status,
        residuals=best[2],
        iterations=it,
    )

