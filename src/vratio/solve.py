"""Solvers for the regularized normal systems.

All accepted direct solutions are verified by substitution against the
residual bound ||Ax - b|| <= RESIDUAL_RTOL * (1 + ||b||). The multi-shift
solvers solve one system for many shifts from one reduction to a banded
system per shift. The V-matrix V'' = W W' is factored by factor_v_matrix:
in closed form for 1-D points (BrownianFactor, V''_ij = min(t_i, t_j)),
else by pivoted_cholesky (dpstrf). With M = Q T Q' from tridiagonalize:

* solve_ridge_square_many: (K K + gamma I) x = b; M = K, T T + gamma I;
* PsdPencilSolver.solve: (S S + c S) x = b, minimal-norm when S is
  singular. For 1-D points it solves (N + c J) y = J N^-1 J beta with the
  tridiagonal J = S_u^-1 of S's distinct points, with one refinement step
  for every column; otherwise S = W W', M = W'W, T T + c T;
* solve_product_ridge_many: (A K + gamma I) x = b; A = W W', M = W'KW,
  T + gamma I (W'KW by cumulative sums for 1-D points).

The banded systems of all shifts go into one LAPACK call (_stacked_solve);
_multi_shift_solve maps them back, and _verified checks every column and
refines. A column that still misses the bound is returned as failed with
its message; no other solver tries it again.

solve_ridge_square_low_rank and solve_product_ridge_low_rank solve the same
systems for a numerically low-rank K, such as the RBF Gram of 1-D points:
K ~ G G' by pivoted_cholesky cut at its tolerance, one thin SVD (dgesdd)
of G or of W'G, and then every shift in closed form, with no tridiagonal
reduction. The residual check stays against K itself. A rank above
LOW_RANK_MAX_FRAC n, or a shift of 0, sends every column to the dense
solver up front instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

RESIDUAL_RTOL = 1e-8


class SingularSystemError(RuntimeError):
    """The system is singular to working precision."""


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray
    residual_norm: float


def _check_square(A: np.ndarray, b: np.ndarray):
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if b.shape != (A.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")


def _residual_bound(b: np.ndarray) -> float:
    return RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def _failure(what: str, res_norm: float, bound: float) -> str:
    return f"{what}: residual {res_norm:.3e} > {bound:.3e}"


_SINGULAR_FAILURE = "system singular to working precision"


def _shifted_residual(lhs: np.ndarray, shift: float, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - (lhs + shift * I) x."""
    res = b - lhs @ x
    if shift:
        res -= shift * x
    return res


def solve_regularized(A, ridge: float, b, context: str = "") -> SolveReport:
    """Solve (A + ridge * I) x = b.

    Uses an LU factorization with iterative refinement; raises
    SingularSystemError when the substitution check cannot be met.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_square(A, b)
    if not ridge >= 0:
        raise ValueError("ridge must be nonnegative")
    m = A.shape[0]
    # one Fortran-ordered copy, which LAPACK factorises in place; the
    # residual is then taken against A and the ridge
    M = np.array(A, order="F")
    M[np.diag_indices(m)] += ridge

    bound = _residual_bound(b)
    try:
        lu, piv = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
        x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
        for _ in range(3):
            res = _shifted_residual(A, ridge, x, b)
            res_norm = float(np.linalg.norm(res))
            if not np.isfinite(res_norm) or res_norm <= bound:
                break
            x = x + scipy.linalg.lu_solve((lu, piv), res, check_finite=False)
        res_norm = float(np.linalg.norm(_shifted_residual(A, ridge, x, b)))
    except scipy.linalg.LinAlgError:
        res_norm = np.inf
        x = np.full(m, np.nan)

    if not np.isfinite(res_norm) or not np.all(np.isfinite(x)) or res_norm > bound:
        where = f" ({context})" if context else ""
        raise SingularSystemError(_failure(_SINGULAR_FAILURE, res_norm, bound) + where)
    return SolveReport(x, res_norm)


def _dormqr_lwork(ncols: int) -> int:
    """dormqr's optimal workspace for a C with `ncols` columns: blocks of at
    most 64 reflectors (NB) plus the 65 x 64 block-reflector factor (TSIZE)."""
    return 64 * max(1, ncols) + 65 * 64


@dataclass(frozen=True)
class Tridiagonal:
    """S = Q T Q' for a symmetric S (LAPACK dsytrd, lower triangle).

    T has diagonal `diag` and sub-diagonal `off`. Q is the product of the
    n - 1 Householder reflectors whose vectors lie below the diagonal of
    `reflectors` (the (n-1) x (n-1) block of dsytrd's output under its first
    row), with scalars `tau`; applying Q to rows 1.. of a matrix is what
    LAPACK's dormtr does for the lower triangle.
    """

    diag: np.ndarray
    off: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray

    def _apply(self, B: np.ndarray, trans: str) -> np.ndarray:
        B = np.array(B, order="F")
        if self.tau.size:
            cq, _, info = scipy.linalg.lapack.dormqr(
                "L", trans, self.reflectors, self.tau, B[1:], _dormqr_lwork(B.shape[1]))
            if info < 0:
                raise ValueError(f"dormqr: illegal value in argument {-info}")
            B[1:] = cq
        return B

    def q(self, B: np.ndarray) -> np.ndarray:
        """Q B for an n x G matrix B."""
        return self._apply(B, "N")

    def qt(self, B: np.ndarray) -> np.ndarray:
        """Q' B for an n x G matrix B."""
        return self._apply(B, "T")


def tridiagonalize(S, overwrite: bool = False) -> Tridiagonal:
    """Householder reduction S = Q T Q' of a symmetric matrix (LAPACK dsytrd,
    Golub & Van Loan, Matrix Computations, 8.3), with the blocked workspace
    from dsytrd_lwork. Costs 4n^3/3 flops against about 9n^3 for eigh."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if n < 2:
        return Tridiagonal(np.diagonal(S).copy(), np.empty(0), np.empty((0, 0)), np.empty(0))
    lwork, info = scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"dsytrd_lwork: info {info}")
    c, d, e, tau, info = scipy.linalg.lapack.dsytrd(S, lower=1, lwork=int(lwork),
                                                    overwrite_a=overwrite)
    if info < 0:
        raise ValueError(f"dsytrd: illegal value in argument {-info}")
    return Tridiagonal(d, e, np.asfortranarray(c[1:, :-1]), tau)


def _sub_diagonal(bands):
    """The sub-diagonal of the (2, N) bands as dptsv and dpttrs take it: N - 1
    entries, but at N = 1 the wrappers want one, the zero padding."""
    return bands[1, :max(bands.shape[1] - 1, 1)]


def _ptsv(bands, b):
    """dptsv on the (2, N) bands [diagonal; sub-diagonal padded by one]."""
    d, e, x, info = scipy.linalg.lapack.dptsv(bands[0], _sub_diagonal(bands), b)
    factors = np.zeros_like(bands)
    factors[0], factors[1, :e.size] = d, e
    return factors, x, info


def _pttrs(factors, b):
    return scipy.linalg.lapack.dpttrs(factors[0], _sub_diagonal(factors), b)


def _pbsv(bands, b):
    """dpbsv on the lower band storage `bands`."""
    return scipy.linalg.lapack.dpbsv(bands, b, lower=1)


def _pbtrs(factors, b):
    return scipy.linalg.lapack.dpbtrs(factors, b, lower=1)


def _stacked_solve(sv, bands: np.ndarray, rhs: np.ndarray):
    """Solve G symmetric positive definite banded n x n systems in one LAPACK
    call by stacking them block-diagonally with zero coupling.

    `bands` is (rows, G, n): block j's lower band storage, whose band entries
    past the end of the block are zero, so the stacked matrix couples no two
    blocks; `rhs` is n x G. A block that is not positive definite stops the
    factorisation at its row: it gets NaN and the call repeats without it, so
    it fails only its own column. Returns the factors in the layout of
    `bands` and the n x G solutions.
    """
    rows, G, n = bands.shape
    factors = np.full(bands.shape, np.nan)
    X = np.full((n, G), np.nan)
    live = np.arange(G)
    while live.size and n:
        fac, x, info = sv(bands[:, live].reshape(rows, -1), rhs[:, live].reshape(-1, 1, order="F"))
        if info < 0:
            raise ValueError(f"banded solve: illegal value in argument {-info}")
        if info == 0:
            factors[:, live] = fac.reshape(rows, live.size, n)
            X[:, live] = x.reshape(n, live.size, order="F")
            break
        live = np.delete(live, (info - 1) // n)
    return factors, X


def _stacked_resolve(trs, factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve again with the factors of _stacked_solve, column j of the n x G
    `rhs` with block j, in one LAPACK call."""
    rows, G, n = factors.shape
    if not n:
        return np.zeros((0, G))
    x, info = trs(factors.reshape(rows, -1), rhs.reshape(-1, 1, order="F"))
    if info < 0:
        raise ValueError(f"banded solve: illegal value in argument {-info}")
    return x.reshape(n, G, order="F")


def _square_bands(tri: Tridiagonal, G: int) -> np.ndarray:
    """Lower band storage of T T, the diagonal and the two sub-diagonals,
    repeated for G shifts as a (3, G, n) array for _stacked_solve."""
    a, e = tri.diag, tri.off
    band = np.zeros((3, a.size))
    band[0] = a * a
    band[0, 1:] += e * e
    band[0, :-1] += e * e
    band[1, :-1] = e * (a[:-1] + a[1:])
    band[2, :-2] = e[:-1] * e[1:]
    return np.repeat(band[:, None, :], G, axis=1)


def _multi_shift_solve(bands, reduce, expand, apply, b, what: str, refine_once: bool = False):
    """Solve apply(X) = b for G shifts from their reduced banded systems.

    `bands` (rows, G, r) holds the reduced systems: the tridiagonal ones
    (2 rows) by dptsv, the pentadiagonal ones (3 rows) by dpbsv, all in one
    stacked call. `reduce` maps n x G right-hand sides to their r x G reduced
    ones, `expand` maps r x G reduced solutions back, and `apply` applies the
    G system matrices to the columns of an n x G matrix. _verified checks
    the columns and refines them with the same factors. Returns the n x G
    solutions and per column None or the failure message `what`.
    """
    sv, trs = (_ptsv, _pttrs) if len(bands) == 2 else (_pbsv, _pbtrs)
    factors, Y = _stacked_solve(sv, bands, np.repeat(reduce(b[:, None]), bands.shape[1], axis=1))
    return _verified(expand(Y),
                     lambda R, bad: expand(_stacked_resolve(trs, factors[:, bad], reduce(R))),
                     apply, b, what, refine_once)


def _verified(X, correct, apply, b, what: str, refine_once: bool = False):
    """Check the n x G solutions X of apply(X) = b column by column.

    Columns whose residual misses the bound are refined up to twice, X[:, bad]
    += correct(R, bad) with R their residuals; with `refine_once`, every
    column first takes one refinement step regardless of its residual.
    Returns X and per column None or the failure message `what`.
    """
    bound = _residual_bound(b)
    last = 2 + refine_once
    for step in range(last + 1):
        R = b[:, None] - apply(X)
        res_norms = np.linalg.norm(R, axis=0)
        bad = (step < refine_once) | ~(res_norms <= bound)
        if step == last or not bad.any():
            break
        X[:, bad] += correct(R[:, bad], bad)
    ok = np.isfinite(res_norms) & (res_norms <= bound) & np.all(np.isfinite(X), axis=0)
    errors = [None if good else _failure(what, r, bound) for good, r in zip(ok, res_norms)]
    return X, errors


def _ridge_inputs(K, gammas, b):
    """K, gammas and b as float arrays; ValueError unless K is square, b has
    its order and every gamma is nonnegative."""
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    _check_square(K, b)
    if not np.all(gammas >= 0):
        raise ValueError("ridge must be nonnegative")
    return K, gammas, b


def solve_ridge_square_many(K, gammas, b) -> tuple[np.ndarray, list]:
    """Solve (K @ K + gamma I) x = b for every gamma, K symmetric.

    One tridiagonal reduction K = Q T Q' turns every system into
    K K + gamma I = Q (T T + gamma I) Q', whose middle factor is
    pentadiagonal: each gamma costs an O(n) banded Cholesky solve and
    K @ K is never formed. Returns the n x G solutions and per column None
    or the failure message of its residual check.
    """
    K, gammas, b = _ridge_inputs(K, gammas, b)
    tri = tridiagonalize(K)
    bands = _square_bands(tri, gammas.size)
    bands[0] += gammas[:, None]
    return _multi_shift_solve(bands, tri.qt, tri.q, lambda X: K @ (K @ X) + X * gammas,
                              b, _SINGULAR_FAILURE)


@dataclass(frozen=True)
class PivotedCholesky:
    """A = W W' for a symmetric PSD matrix A, with W = P L[:, :rank].

    `L` is n x n lower triangular with the columns from `rank` on zero and
    `perm` holds P as indices: (P' A P) = A[perm][:, perm] = L L'. `matrix` is
    A itself, kept for the residual checks.
    """

    matrix: np.ndarray
    L: np.ndarray
    perm: np.ndarray
    rank: int

    def range_coords(self, B: np.ndarray) -> np.ndarray:
        """Coordinates C with W C = B for columns B in the range of A:
        L[:r, :r] C = (P' B)[:r]."""
        r = self.rank
        return scipy.linalg.solve_triangular(self.L[:r, :r], B[self.perm[:r]], lower=True,
                                             check_finite=False)

    def expand(self, Y: np.ndarray) -> np.ndarray:
        """W Y for an r x G matrix Y."""
        X = np.empty((self.L.shape[0], Y.shape[1]))
        X[self.perm] = self.L[:, : self.rank] @ Y
        return X

    def congruence(self, K: np.ndarray) -> np.ndarray:
        """W' K W for a symmetric n x n K, r x r in Fortran order: L' (P' K P) L
        in place, by two triangular products on a Fortran-ordered P' K P (the
        transpose of a C-ordered copy of K'[perm][:, perm])."""
        S = K.T[np.ix_(self.perm, self.perm)].T
        S = scipy.linalg.blas.dtrmm(1.0, self.L, S, side=1, lower=1, overwrite_b=1)
        S = scipy.linalg.blas.dtrmm(1.0, self.L, S, lower=1, trans_a=1, overwrite_b=1)
        r = self.rank
        return S if r == S.shape[0] else S[:r, :r].copy(order="F")


def pivoted_cholesky(A) -> PivotedCholesky:
    """Rank-revealing Cholesky factor of a symmetric PSD matrix (LAPACK dpstrf).

    Pivoting stops once the remaining diagonal falls below LAPACK's default
    tolerance n * eps * max(diag A), so zero rows and repeated rows of A
    (points on the box's upper face, ties) drop out of W.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    L, piv, rank, info = scipy.linalg.lapack.dpstrf(A, lower=1)
    if info < 0:
        raise ValueError(f"dpstrf: illegal value in argument {-info}")
    # dpstrf leaves the input in the strict upper triangle and the trailing
    # Schur complement, below the tolerance, in the columns from `rank` on;
    # column by column, this costs less than a mask of the triangle
    for j in range(1, rank):
        L[:j, j] = 0.0
    L[:, rank:] = 0.0
    return PivotedCholesky(A, L, piv - 1, int(rank))


@dataclass(frozen=True)
class BrownianFactor:
    """V'' = W W' in closed form for the overlap volumes of 1-D points.

    In 1-D, V''_ij = 1 - max(x_i, x_j) = min(t_i, t_j) with t = 1 - x, the
    Brownian-motion covariance. Let u_1 < ... < u_r be the distinct positive
    t, `gaps` h_k = u_k - u_{k-1} (u_0 = 0) and E the n x r indicator of the
    points' groups by u. Then min(u_k, u_l) = sum_{j <= min(k, l)} h_j, so
    W = E C diag(sqrt h) with C the r x r lower triangular matrix of ones,
    and r is the rank of V''. Ties share a group and points at t = 0 (on the
    box's upper face, zero rows of V'') belong to none, so neither needs a
    special case. W is applied by cumulative sums and never formed.

    `group` holds each point's group, -1 at t = 0; `order` sorts the points
    by t and `starts` are the positions in that order where the groups begin.
    `matrix` is V'' itself, kept for the residual checks.
    """

    matrix: np.ndarray
    group: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    gaps: np.ndarray

    @property
    def rank(self) -> int:
        return self.gaps.size

    @property
    def counts(self) -> np.ndarray:
        """The number of points in each group, the diagonal of N = E'E."""
        return np.diff(self.starts, append=self.group.size)

    def on_groups(self, B: np.ndarray) -> np.ndarray:
        """The rows of the n x G matrix B at one point of each group."""
        return B[self.order[self.starts]]

    def on_points(self, Z: np.ndarray) -> np.ndarray:
        """E Z for an r x G matrix Z: each point takes its group's row, 0 at t = 0."""
        out = np.zeros((self.rank + 1, Z.shape[1]))
        out[1:] = Z
        return out[self.group + 1]

    def range_coords(self, B: np.ndarray) -> np.ndarray:
        """Coordinates C with W C = B for columns B in the range of V'': the
        first differences of B over the groups, divided by sqrt(h)."""
        diffs = np.diff(self.on_groups(B), axis=0, prepend=0.0)
        return diffs / np.sqrt(self.gaps)[:, None]

    def expand(self, Y: np.ndarray) -> np.ndarray:
        """W Y for an r x G matrix Y: cumulative sums of sqrt(h) Y over the groups."""
        return self.on_points(np.cumsum(np.sqrt(self.gaps)[:, None] * Y, axis=0))

    def _descending(self):
        """The points at t > 0 in descending order of t, and the position in
        that order of the last point of each group."""
        desc = self.order[self.starts[0]:][::-1]
        return desc, desc.size - 1 - (self.starts - self.starts[0])

    def apply_t(self, B: np.ndarray) -> np.ndarray:
        """W' B for an n x G matrix B, in O(nG) flops: a cumulative sum of B's
        rows in descending t, read at the last point of each group, sums B
        over t_i >= u_k, which is C'E'B. Then sqrt(h)."""
        if not self.rank:
            return np.zeros((0, B.shape[1]))
        desc, last = self._descending()
        return np.sqrt(self.gaps)[:, None] * np.cumsum(B[desc], axis=0)[last]

    def congruence(self, K: np.ndarray) -> np.ndarray:
        """W' K W for a symmetric n x n K, r x r in Fortran order, in O(n^2)
        flops: C'E'KEC by the cumulative sums of apply_t along both axes of K,
        then sqrt(h) on both sides."""
        if not self.rank:
            return np.zeros((0, 0), order="F")
        desc, last = self._descending()
        S = np.cumsum(K[desc], axis=0)[last]
        S = np.take(np.cumsum(np.take(S, desc, axis=1), axis=1), last, axis=1)
        root = np.sqrt(self.gaps)
        S *= root[:, None]
        S *= root
        return S.T  # equal to S for a symmetric K


def _brownian_factor(V: np.ndarray, t: np.ndarray) -> BrownianFactor:
    """The BrownianFactor of V''_ij = min(t_i, t_j)."""
    order = np.argsort(t, kind="stable")
    ts = t[order]
    new = ts > 0.0
    new[1:] &= ts[1:] != ts[:-1]
    starts = np.flatnonzero(new)
    group = np.empty(t.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return BrownianFactor(V, group, order, starts, np.diff(ts[starts], prepend=0.0))


# Smallest gap h between the distinct t = 1 - x of 1-D points (and from 0) at
# which DRE-V solves with the closed-form factor. Its tridiagonal J has
# entries 1/h, and at gaps of 1e-11 and below most columns fail the residual
# check, where pivoted_cholesky and tridiagonalize(W'W) keep passing.
NEAR_TIE_GAP = 1e-9


def factor_v_matrix(V, points, pencil: bool = False):
    """W W' = V'' for the overlap-volume matrix V of `points` (n x d).

    1-D points get the closed-form BrownianFactor in O(n log n), others
    pivoted_cholesky(V). With `pencil` (the DRE-V solver), 1-D points whose
    smallest gap is below NEAR_TIE_GAP also get pivoted_cholesky(V).
    """
    V = np.asarray(V, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or V.shape != (points.shape[0],) * 2:
        raise ValueError("V must be the n x n matrix of n points")
    if points.shape[1] == 1:
        factor = _brownian_factor(V, 1.0 - points[:, 0])  # the diagonal of V
        if not pencil or factor.gaps.min(initial=np.inf) >= NEAR_TIE_GAP:
            return factor
    return pivoted_cholesky(V)


def _factored_basis(factor, tri: Tridiagonal):
    """reduce and expand for _multi_shift_solve of systems reduced to the Q
    basis of W'..W = Q T Q': B -> Q'C with W C = B, and Y -> W Q Y."""
    return (lambda B: tri.qt(factor.range_coords(B)),
            lambda Y: factor.expand(tri.q(Y)))


def _pencil(S: np.ndarray, cs: np.ndarray):
    """X -> (S S + c S) X, with c = cs[j] for column j."""
    def apply(X):
        SX = S @ X
        return S @ SX + SX * cs
    return apply


_PENCIL_FAILURE = "pencil system inconsistent"


class PsdPencilSolver:
    """Reusable solver for (S @ S + c * S) x = b with S symmetric PSD.

    The pencil can be exactly singular (S may have zero rows), but the
    right-hand sides arising here lie in the range of S, which holds the
    minimal-norm solution. When S is the overlap-volume matrix of `points`,
    factor_v_matrix chooses the factor S = W W'; otherwise it is
    pivoted_cholesky(S). A BrownianFactor solves by _solve_grouped_pencil.
    Otherwise, with W'W = Q T Q' and W beta = b, the solution is x = W Q z
    with the pentadiagonal (T T + c T) z = Q' beta.
    The factorisations are computed once and shared across values of c.
    """

    def __init__(self, S, points=None):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("S must be square")
        # the exact comparison first: it is cheaper and settles the usual case
        if not (np.array_equal(S, S.T)
                or np.allclose(S, S.T, atol=1e-10 * (1.0 + np.abs(S).max()))):
            raise ValueError("S must be symmetric")
        self._factor = (pivoted_cholesky(S) if points is None
                        else factor_v_matrix(S, points, pencil=True))
        self._tri = None
        if isinstance(self._factor, PivotedCholesky):
            W = self._factor.L[:, : self._factor.rank]
            self._tri = tridiagonalize(W.T @ W, overwrite=True)

    def solve(self, cs, b) -> tuple[np.ndarray, list]:
        """Solve at every shift in `cs` at once.

        Returns the n x G matrix whose column j solves the system at cs[j],
        and per column None or, when that column fails the residual check,
        the failure message.
        """
        S = self._factor.matrix
        b = np.asarray(b, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if b.shape != (S.shape[0],):
            raise ValueError("b length mismatch")
        if not np.all(cs >= 0):
            raise ValueError("c must be nonnegative")
        if self._tri is None:
            return _solve_grouped_pencil(self._factor, cs, b)
        bands = _square_bands(self._tri, cs.size)
        bands[0] += cs[:, None] * self._tri.diag
        bands[1, :, :-1] += cs[:, None] * self._tri.off
        return _multi_shift_solve(bands, *_factored_basis(self._factor, self._tri),
                                  _pencil(S, cs), b, _PENCIL_FAILURE)


def _solve_grouped_pencil(factor: BrownianFactor, cs, b):
    """Solve (S S + c S) x = b for every c in `cs`, with S = factor.matrix
    the overlap volumes of 1-D points and b in the range of S.

    With S_u = min(u_k, u_l) on the groups, S = E S_u E' and N = E'E. For
    b = E beta the minimal-norm solution is x = E y with
    (N + c J) y = J N^-1 J beta, where J = S_u^-1 is tridiagonal,
    J_kk = 1/h_k + 1/h_{k+1}, J_rr = 1/h_r and J_k,k+1 = -1/h_{k+1}
    (Vandebril, Van Barel & Mastronardi, Matrix Computations and
    Semiseparable Matrices, 2008): all c go into one stacked dptsv call.
    The double difference J N^-1 J beta loses about four digits that the
    residual bound does not see, so every column takes one refinement step
    against the dense residual before the usual two (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 12). Returns the n x G
    solutions and per column None or the failure message.
    """
    cs = np.asarray(cs, dtype=float)
    inv_h = 1.0 / factor.gaps
    counts = factor.counts.astype(float)
    bands = np.zeros((2, cs.size, factor.rank))
    bands[0] = counts + cs[:, None] * inv_h
    bands[0, :, :-1] += cs[:, None] * inv_h[1:]
    bands[1, :, :-1] = -cs[:, None] * inv_h[1:]

    def apply_j(Z):  # J Z = D' diag(1/h) D Z with D the first difference
        diffs = np.diff(Z, axis=0, prepend=0.0) * inv_h[:, None]
        diffs[:-1] -= diffs[1:]
        return diffs

    return _multi_shift_solve(bands, lambda B: apply_j(apply_j(factor.on_groups(B)) / counts[:, None]),
                              factor.on_points, _pencil(factor.matrix, cs), b,
                              _PENCIL_FAILURE, refine_once=True)


def solve_product_ridge_many(factor, K, gammas, b) -> tuple[np.ndarray, list]:
    """Solve (A K + gamma I) x = b for every gamma, with A = W W' given by
    `factor` (a PivotedCholesky or BrownianFactor), K symmetric PSD and b in
    the range of A.

    A K is not symmetric, but it is similar to the symmetric S = W' K W
    (Golub & Van Loan, Matrix Computations, 8.7). With S = Q T Q' from one
    tridiagonal reduction and W c = b, x = W Q (T + gamma I)^-1 Q' c solves
    every system: (A K + gamma I) x = W Q (T + gamma I)(T + gamma I)^-1 Q' c
    = b. A K has real eigenvalues >= 0, so for gamma > 0 this is the unique
    solution, and each gamma costs one O(n) tridiagonal solve.

    Columns whose residual misses the bound are refined up to twice with the
    same factors. Returns the n x G solutions and per column None or the
    failure message of its residual check.
    """
    A = factor.matrix
    K, gammas, b = _ridge_inputs(K, gammas, b)
    if K.shape != A.shape:
        raise ValueError("K must match the shape of the factored matrix")
    tri = tridiagonalize(factor.congruence(K), overwrite=True)
    # T + gamma I per gamma: the diagonal and the sub-diagonal padded by one
    bands = np.zeros((2, gammas.size, factor.rank))
    bands[0] = tri.diag + gammas[:, None]
    bands[1, :, :-1] = tri.off
    return _multi_shift_solve(bands, *_factored_basis(factor, tri),
                              lambda X: A @ (K @ X) + X * gammas, b, _SINGULAR_FAILURE)


# Largest rank of pivoted_cholesky(K), as a fraction of K's order n, at which
# the low-rank solvers solve from the factor; above it they pass every column
# to the dense solver, which is then faster. Timed on RBF Grams of 1-D points
# with 15 gammas, the crossover lies near 0.8 n at n = 40, 0.5 n at n = 80,
# 0.4 n at n = 160 and n = 640.
LOW_RANK_MAX_FRAC = 0.4


def _low_rank_basis(K: np.ndarray, basis, gammas):
    """U and s of the thin SVD basis(G) = U diag(s) V' (LAPACK dgesdd) for
    K ~ G G' from pivoted_cholesky(K), cut at dpstrf's tolerance; None, for
    the dense solver, when a gamma is 0 (the low-rank inverse divides by
    it), G has more than LOW_RANK_MAX_FRAC n columns, basis(G) is empty or
    the SVD fails."""
    if not np.all(gammas > 0):
        return None
    chol = pivoted_cholesky(K)
    n, r = K.shape[0], chol.rank
    if r > LOW_RANK_MAX_FRAC * n:
        return None
    G = np.empty((n, r), order="F")
    G[chol.perm] = chol.L[:, :r]
    Z = basis(G)
    if not min(Z.shape):
        return None
    U, s, _, info = scipy.linalg.lapack.dgesdd(Z, full_matrices=0)
    return None if info else (U, s)


def _low_rank_solve(U, s, power: int, reduce, expand, apply, b, gammas):
    """Solve apply(X) = b for every gamma from the basis U, s that
    _low_rank_basis found for a PSD K.

    The reduced system matrix at gamma is taken as U diag(s^power) U' +
    gamma I, whose inverse U diag(1 / (s^power + gamma)) U' +
    (I - U U') / gamma costs O(mr) per column (Harbrecht, Peters &
    Schneider, On the low-rank approximation by the pivoted Cholesky
    decomposition, Appl. Numer. Math. 2012). `reduce` and `expand` map to
    and from the reduced coordinates as for _multi_shift_solve. `apply` uses
    K itself, so _verified checks every column against the full system and
    refines it with the same inverse; same returns as _verified.
    """
    eigs = s**power

    def inverse(B, shifts):
        C = reduce(B)
        UC = U.T @ C
        return expand(U @ (UC / (eigs[:, None] + shifts)) + (C - U @ UC) / shifts)

    return _verified(inverse(b[:, None], gammas), lambda R, bad: inverse(R, gammas[bad]),
                     apply, b, _SINGULAR_FAILURE)


def solve_ridge_square_low_rank(K, gammas, b) -> tuple[np.ndarray, list]:
    """solve_ridge_square_many for a numerically low-rank PSD K, such as the
    RBF Gram of 1-D points.

    K ~ G G' = U diag(s^2) U' (_low_rank_basis of G itself), so
    K K + gamma I ~ U diag(s^4 + gamma) U' + gamma (I - U U'). Each column is
    checked against K K + gamma I as _low_rank_solve describes. Without a
    low-rank basis, solve_ridge_square_many solves every column. Same
    returns.
    """
    K, gammas, b = _ridge_inputs(K, gammas, b)
    found = _low_rank_basis(K, lambda G: G, gammas)
    if found is None:
        return solve_ridge_square_many(K, gammas, b)
    return _low_rank_solve(*found, 4, lambda B: B, lambda Y: Y,
                           lambda X: K @ (K @ X) + X * gammas, b, gammas)


def solve_product_ridge_low_rank(factor: BrownianFactor, K, gammas, b) -> tuple[np.ndarray, list]:
    """solve_product_ridge_many for a numerically low-rank PSD K and the
    closed-form factor V'' = W W' of 1-D points.

    K ~ G G' makes W'KW ~ Z Z' with Z = W'G, which apply_t forms in O(nr);
    with Z = U diag(s) V', T + gamma I of solve_product_ridge_many becomes
    U diag(s^2 + gamma) U' + gamma (I - U U') in the coordinates c of
    W c = b. Each column is checked against V''K + gamma I as
    _low_rank_solve describes. Without a low-rank basis,
    solve_product_ridge_many solves every column. Same returns.
    """
    A = factor.matrix
    K, gammas, b = _ridge_inputs(K, gammas, b)
    if K.shape != A.shape:
        raise ValueError("K must match the shape of the factored matrix")
    found = _low_rank_basis(K, factor.apply_t, gammas)
    if found is None:
        return solve_product_ridge_many(factor, K, gammas, b)
    return _low_rank_solve(*found, 2, factor.range_coords, factor.expand,
                           lambda X: A @ (K @ X) + X * gammas, b, gammas)


def solve_nonneg(A, b, max_iter: int = 100_000, tol: float = 1e-10) -> SolveReport:
    """Minimize 0.5 x'Ax - b'x subject to x >= 0 by projected gradient.

    Step size 1/L with L the infinity-norm bound on the spectral radius.
    Stops when the projected gradient norm drops below `tol`.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_square(A, b)
    if not np.allclose(A, A.T, atol=1e-10 * (1.0 + np.abs(A).max())):
        raise ValueError("A must be symmetric")
    L = float(np.abs(A).sum(axis=1).max())
    if L <= 0:
        L = 1.0
    x = np.zeros_like(b)
    for _ in range(max_iter):
        g = A @ x - b
        pg = np.where(x > 0, g, np.minimum(g, 0.0))
        if np.linalg.norm(pg) <= tol:
            break
        x = np.maximum(x - g / L, 0.0)
    res_norm = float(np.linalg.norm(A @ x - b))
    return SolveReport(x, res_norm)
