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
is one Cholesky factorization plus small dense eigen/SVD work per block.

The method starts infeasible (identity-scaled cone points) and drives
primal residual, dual residual, and duality gap below the configured
tolerances. Infeasibility is reported when the iterates produce an
approximate separating (Farkas) certificate; there is no homogeneous
embedding, which is acceptable here because allocation problems are
feasible by construction once the budget check passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PsdBlock",
    "SdpProblem",
    "SdpSettings",
    "SdpSolution",
    "solve_sdp",
    "verify_schur_feasibility",
    "dump_problem",
]


# fraction of the largest step to the cone boundary that an iterate takes
_STEP_SCALE = 0.98


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
    symmetric; only the variables actually appearing in the block are listed.
    """

    constant: np.ndarray  # (p, p)
    var_indices: np.ndarray  # (k,) int
    coefficients: np.ndarray  # (k, p, p)

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
        stack = np.concatenate([constant[None], coefficients], axis=0)
        asym = np.abs(stack - stack.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-12 * max(np.abs(stack).max(initial=0.0), 1.0):
            raise ValueError("block matrices must be symmetric")
        object.__setattr__(self, "constant", _sym(constant))
        object.__setattr__(self, "var_indices", var_indices)
        object.__setattr__(
            self, "coefficients", 0.5 * (coefficients + coefficients.transpose(0, 2, 1))
        )

    @property
    def order(self) -> int:
        return self.constant.shape[0]

    def value(self, x) -> np.ndarray:
        """Evaluate the affine map at x."""
        out = self.constant.copy()
        if self.var_indices.size:
            out += np.tensordot(
                np.asarray(x)[self.var_indices], self.coefficients, axes=(0, 0)
            )
        return out


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

    @property
    def num_vars(self) -> int:
        return self.objective.size


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


class _Cone:
    """Iteration workspace: PSD blocks plus one nonnegative-orthant block."""

    def __init__(self, problem: SdpProblem):
        d = problem.num_vars
        self.blocks = problem.blocks
        # fold x >= 0 into the LP rows: slack vector is (g - Gx, x)
        self.lp_rows = np.vstack([problem.ineq_matrix, -np.eye(d)])
        self.lp_rhs = np.concatenate([problem.ineq_rhs, np.zeros(d)])
        self.dim = sum(b.order for b in self.blocks) + self.lp_rhs.size


def solve_sdp(problem: SdpProblem, settings: SdpSettings | None = None) -> SdpSolution:
    """Solve the block SDP; see the module docstring for the problem form.

    Returns the best iterate found. status is 'optimal' when primal/dual
    residuals are below feas_tol and the relative duality gap is below
    gap_tol; 'infeasible' when an approximate Farkas certificate appears;
    'max_iter' otherwise.
    """
    cfg = settings or SdpSettings()
    cone = _Cone(problem)
    d = problem.num_vars
    b_vec = -problem.objective  # internal form maximizes b'x
    lp_rows, lp_rhs = cone.lp_rows, cone.lp_rhs

    # identity-scaled starting point, sized from the data norms
    x = np.zeros(d)
    S, Z = [], []
    for blk in cone.blocks:
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
    row_scale = np.abs(lp_rows).max(axis=1, initial=0.0)
    s_lp = np.maximum(10.0, np.maximum(np.abs(lp_rhs), row_scale))
    z_lp = np.full(
        lp_rhs.size, max(10.0, (1.0 + np.abs(b_vec).max()) / (1.0 + max(row_scale.max(initial=0.0), 1.0)))
    )

    norm_b = 1.0 + np.linalg.norm(b_vec)
    norm_c = 1.0 + np.sqrt(
        sum(np.linalg.norm(b.constant) ** 2 for b in cone.blocks)
        + np.linalg.norm(lp_rhs) ** 2
    )
    z_init_norm = np.sqrt(
        sum(np.linalg.norm(m) ** 2 for m in Z) + np.linalg.norm(z_lp) ** 2
    )

    best = None
    it = 0
    for it in range(cfg.max_iter + 1):
        # residuals of the current iterate
        rp = b_vec.copy()
        for blk, zb in zip(cone.blocks, Z):
            if blk.var_indices.size:
                rp[blk.var_indices] += np.tensordot(
                    blk.coefficients, zb, axes=([1, 2], [0, 1])
                )
        rp -= lp_rows.T @ z_lp
        rd_blocks = [blk.value(x) - sb for blk, sb in zip(cone.blocks, S)]
        rd_lp = lp_rhs - s_lp - lp_rows @ x

        gap = sum(float(np.tensordot(zb, sb)) for zb, sb in zip(Z, S)) + float(
            z_lp @ s_lp
        )
        pobj = sum(
            float(np.tensordot(blk.constant, zb))
            for blk, zb in zip(cone.blocks, Z)
        ) + float(lp_rhs @ z_lp)
        dobj = float(b_vec @ x)
        pres = np.linalg.norm(rp) / norm_b
        dres = np.sqrt(
            sum(np.linalg.norm(r) ** 2 for r in rd_blocks)
            + np.linalg.norm(rd_lp) ** 2
        ) / norm_c
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        score = max(pres, dres, relgap)
        if best is None or score < best[0]:
            best = (score, x.copy(), it, {"primal": pres, "dual": dres, "gap": relgap})

        if pres <= cfg.feas_tol and dres <= cfg.feas_tol and relgap <= cfg.gap_tol:
            return SdpSolution(
                x=x.copy(),
                objective_value=float(problem.objective @ x),
                status="optimal",
                residuals={"primal": pres, "dual": dres, "gap": relgap},
                iterations=it,
            )

        # approximate Farkas certificate: Z >= 0 large with A(Z) ~ 0, <C,Z> < 0
        z_norm = np.sqrt(
            sum(np.linalg.norm(m) ** 2 for m in Z) + np.linalg.norm(z_lp) ** 2
        )
        if z_norm > 1e8 * (1.0 + z_init_norm):
            viol = np.linalg.norm(rp - b_vec) / z_norm
            if viol <= 1e-6 and pobj / z_norm <= -1e-9:
                return SdpSolution(
                    x=best[1],
                    objective_value=float(problem.objective @ best[1]),
                    status="infeasible",
                    residuals=best[3],
                    iterations=it,
                )

        if it == cfg.max_iter:
            break

        # Nesterov-Todd scaling per block: S = R L R', Z = R^-T L R^-1
        mu = gap / cone.dim
        R_list, Rinv_list, lam_list, Winv_list = [], [], [], []
        try:
            for sb, zb in zip(S, Z):
                ls = np.linalg.cholesky(_finite(sb))
                lz = np.linalg.cholesky(_finite(zb))
                u, lam, vt = np.linalg.svd(_finite(lz.T @ ls))
                rt = ls @ vt.T / np.sqrt(lam)
                rinv = (u / np.sqrt(lam)).T @ lz.T
                winv = rinv.T @ rinv
                R_list.append(rt)
                Rinv_list.append(rinv)
                lam_list.append(lam)
                Winv_list.append(_sym(winv))
        except np.linalg.LinAlgError:
            break  # cone point lost definiteness beyond repair; report best

        # Schur complement M_ij = sum_blocks tr(F_i Winv F_j Winv) + LP part
        M = (lp_rows * (z_lp / s_lp)[:, None]).T @ lp_rows
        winv_rd = []  # per block: Winv Rd Winv, reused in both rhs passes
        for blk, winv, rd in zip(cone.blocks, Winv_list, rd_blocks):
            if blk.var_indices.size:
                t = np.matmul(winv, np.matmul(blk.coefficients, winv))
                M[np.ix_(blk.var_indices, blk.var_indices)] += np.tensordot(
                    blk.coefficients, t, axes=([1, 2], [1, 2])
                )
            winv_rd.append(winv @ rd @ winv)
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

        def m_solve(r):
            return m_linv.T @ (m_linv @ _finite(r))

        def solve_direction(ecc_blocks, ecc_lp):
            """Newton step from scaled-space complementarity targets."""
            rhs = rp.copy()
            for blk, ecc, wrd in zip(cone.blocks, ecc_blocks, winv_rd):
                if blk.var_indices.size:
                    rhs[blk.var_indices] += np.tensordot(
                        blk.coefficients, ecc - wrd, axes=([1, 2], [0, 1])
                    )
            rhs += lp_rows.T @ ((z_lp / s_lp) * rd_lp - ecc_lp)
            dx = m_solve(rhs)
            # two rounds of iterative refinement against the unridged M;
            # without this the direction error re-injects primal residual
            # near convergence and the iteration stalls just above feas_tol
            for _ in range(2):
                dx = dx + m_solve(rhs - M @ dx)
            ds_blocks, dz_blocks = [], []
            for blk, ecc, winv, rd in zip(
                cone.blocks, ecc_blocks, Winv_list, rd_blocks
            ):
                dsb = rd.copy()
                if blk.var_indices.size:
                    dsb += np.tensordot(
                        dx[blk.var_indices], blk.coefficients, axes=(0, 0)
                    )
                dzb = ecc - winv @ dsb @ winv
                ds_blocks.append(_sym(dsb))
                dz_blocks.append(_sym(dzb))
            ds_lp = rd_lp - lp_rows @ dx
            dz_lp = ecc_lp - (z_lp / s_lp) * ds_lp
            return dx, ds_blocks, dz_blocks, ds_lp, dz_lp

        def boundary_steps(ds_blocks, dz_blocks, ds_lp, dz_lp):
            a_s = _max_step_vec(s_lp, ds_lp)
            a_z = _max_step_vec(z_lp, dz_lp)
            for rt, rinv, lam, dsb, dzb in zip(
                R_list, Rinv_list, lam_list, ds_blocks, dz_blocks
            ):
                ds_t = rinv @ dsb @ rinv.T
                dz_t = rt.T @ dzb @ rt
                a_s = min(a_s, _max_step_scaled(lam, _sym(ds_t)))
                a_z = min(a_z, _max_step_scaled(lam, _sym(dz_t)))
            return a_z, a_s

        # predictor: pure Newton step toward complementarity zero
        ecc_aff = [-zb for zb in Z]
        aff = solve_direction(ecc_aff, -z_lp)
        dxa, dsa, dza, dsa_lp, dza_lp = aff
        a_z_aff, a_s_aff = boundary_steps(dsa, dza, dsa_lp, dza_lp)
        a_z_aff, a_s_aff = min(1.0, a_z_aff), min(1.0, a_s_aff)
        gap_aff = sum(
            float(np.tensordot(zb + a_z_aff * dzb, sb + a_s_aff * dsb))
            for zb, dzb, sb, dsb in zip(Z, dza, S, dsa)
        ) + float((z_lp + a_z_aff * dza_lp) @ (s_lp + a_s_aff * dsa_lp))
        sigma = min(1.0, max(0.0, (gap_aff / gap) ** 3))

        # corrector: recenter and subtract the predictor's second-order term
        ecc_blocks, ecc_lp_parts = [], None
        for rt, rinv, lam, dsb, dzb in zip(
            R_list, Rinv_list, lam_list, dsa, dza
        ):
            ds_t = rinv @ dsb @ rinv.T
            dz_t = rt.T @ dzb @ rt
            cross = _sym(dz_t @ ds_t)
            denom = lam[:, None] + lam[None, :]
            e = -2.0 * cross / denom
            e[np.diag_indices_from(e)] += (sigma * mu - lam**2) / lam
            ecc_blocks.append(rinv.T @ e @ rinv)
        ecc_lp_parts = (sigma * mu - s_lp * z_lp - dza_lp * dsa_lp) / s_lp
        dx, ds_blocks, dz_blocks, ds_lp, dz_lp = solve_direction(
            ecc_blocks, ecc_lp_parts
        )
        # forming dZ from dS loses ~eps*||Winv||^2*||dS|| per entry and the
        # loss lands in the primal equation as a residual floor; measure the
        # miss and absorb it with an extra back-solve. The patch pair
        # cS = A(cx), cZ = -Winv cS Winv cancels in the scaled
        # complementarity equation, so only the primal equation moves.
        for _ in range(2):
            defect = rp.copy()
            for blk, dzb in zip(cone.blocks, dz_blocks):
                if blk.var_indices.size:
                    defect[blk.var_indices] += np.tensordot(
                        blk.coefficients, dzb, axes=([1, 2], [0, 1])
                    )
            defect -= lp_rows.T @ dz_lp
            if np.linalg.norm(defect) <= 1e-15 * norm_b:
                break
            cx = m_solve(defect)
            cx += m_solve(defect - M @ cx)
            for i, (blk, winv) in enumerate(zip(cone.blocks, Winv_list)):
                if blk.var_indices.size:
                    csb = _sym(
                        np.tensordot(
                            cx[blk.var_indices], blk.coefficients, axes=(0, 0)
                        )
                    )
                    ds_blocks[i] = ds_blocks[i] + csb
                    dz_blocks[i] = dz_blocks[i] - _sym(winv @ csb @ winv)
            cs_lp = -(lp_rows @ cx)
            ds_lp = ds_lp + cs_lp
            dz_lp = dz_lp - (z_lp / s_lp) * cs_lp
            dx = dx + cx
        a_z, a_s = boundary_steps(ds_blocks, dz_blocks, ds_lp, dz_lp)
        a_z = min(1.0, _STEP_SCALE * a_z)
        a_s = min(1.0, _STEP_SCALE * a_s)

        # fall back to shorter steps if roundoff pushed an iterate off the cone
        for shrink in range(25):
            x_try = x + a_s * dx
            s_try = [sb + a_s * dsb for sb, dsb in zip(S, ds_blocks)]
            z_try = [zb + a_z * dzb for zb, dzb in zip(Z, dz_blocks)]
            s_lp_try = s_lp + a_s * ds_lp
            z_lp_try = z_lp + a_z * dz_lp
            ok = np.all(s_lp_try > 0.0) and np.all(z_lp_try > 0.0)
            if ok:
                try:
                    for m in s_try + z_try:
                        np.linalg.cholesky(_finite(m))
                except np.linalg.LinAlgError:
                    ok = False
            if ok:
                x, S, Z, s_lp, z_lp = x_try, s_try, z_try, s_lp_try, z_lp_try
                break
            a_z *= 0.5
            a_s *= 0.5
        else:
            break  # no usable step length left; report best iterate

    return SdpSolution(
        x=best[1],
        objective_value=float(problem.objective @ best[1]),
        status="max_iter",
        residuals=best[3],
        iterations=it,
    )


def verify_schur_feasibility(t, psi, rtol: float = 1e-8, border=None) -> bool:
    """Certify [[psi, border], [border', t]] >= 0 without forming the block.

    Checks the generalized Schur-complement conditions for PSD bordered
    matrices: psi is PSD, the border lies in psi's column space, and
    t >= border' psi^+ border, all to relative tolerance rtol. The border
    defaults to the first coordinate direction. Serves as an independent
    feasibility certificate for solutions of the allocation SDPs.
    """
    psi = np.asarray(psi, dtype=float)
    n = psi.shape[0]
    if border is None:
        border = np.zeros(n)
        border[0] = 1.0
    border = np.asarray(border, dtype=float)
    w, v = np.linalg.eigh(_sym(psi))
    lam_max = max(w[-1], 0.0)
    if w[0] < -rtol * max(lam_max, 1.0):
        return False
    keep = w > rtol * lam_max
    coeff = v.T @ border
    outside = np.linalg.norm(coeff[~keep])
    if outside > rtol * max(1.0, np.linalg.norm(border)):
        return False
    quad = float(np.sum(coeff[keep] ** 2 / w[keep]))
    return bool(t >= quad - rtol * max(1.0, abs(t), quad))


def dump_problem(problem: SdpProblem, path) -> None:
    """Write the problem as plain-text sparse triplets for external checks.

    One line per nonzero: ``block row col var value``. Block 0 carries the
    objective (row = col = 0, var = variable index, 1-based). Blocks
    1..len(blocks) are the PSD constraints; var 0 is the constant term and
    var i >= 1 the coefficient of variable i. Block len(blocks)+1 holds the
    linear inequality rows as a diagonal slack map (rhs as var 0, minus the
    row coefficients as var i). The implicit x >= 0 bounds are not dumped.
    Values use 17 significant digits, enough to round-trip doubles.
    """

    def emit(f, blk, row, col, var, value):
        if value != 0.0:
            f.write(f"{blk} {row} {col} {var} {value:.17g}\n")

    close = False
    if isinstance(path, (str, bytes, os.PathLike)):
        f = open(path, "w")
        close = True
    else:
        f = path
    try:
        for i, qi in enumerate(problem.objective):
            emit(f, 0, 0, 0, i + 1, qi)
        for bnum, blk in enumerate(problem.blocks, start=1):
            p = blk.order
            for r in range(p):
                for c in range(p):
                    emit(f, bnum, r, c, 0, blk.constant[r, c])
            for j, var in enumerate(blk.var_indices):
                for r in range(p):
                    for c in range(p):
                        emit(f, bnum, r, c, int(var) + 1, blk.coefficients[j, r, c])
        lp_block = len(problem.blocks) + 1
        for r in range(problem.ineq_rhs.size):
            emit(f, lp_block, r, r, 0, problem.ineq_rhs[r])
            for i in range(problem.num_vars):
                emit(f, lp_block, r, r, i + 1, -problem.ineq_matrix[r, i])
    finally:
        if close:
            f.close()
