"""Solvers for the regularized normal systems.

Every accepted direct solution is verified by substitution against the
residual bound ||Ax - b|| <= RESIDUAL_RTOL * (1 + ||b||): _verified checks
each column and refines one that misses it up to twice with the same
factors; a column that still misses it is returned as failed with its
message, and no other solver tries it again. The residual checks apply
V'' and K in the form they came in, so no operator is formed for them.

Each multi-shift solver factors its system once and solves it for many
shifts:

* solve_ridge_square_many: (K K + gamma I) x = b, for uLSIF;
* solve_product_ridge_many: (V''K + gamma I) x = b with V'' = W W' from
  factor_v_matrix, for DRE-VK;
* PsdPencilSolver: (S S + c S) x = b for a PSD S, for DRE-V.

factor_v_matrix picks the factor of V'' by its form: the closed-form
BrownianFactor for the vmatrix.MinKernel of 1-D points, pivoted_cholesky
(dpstrf) for an array. The first two solvers try a low-rank basis and the
Woodbury inverse before one tridiagonal reduction (dsytrd) with banded
solves (dpbsv). Each solver's docstring names its paths; README "Cost"
gives their order and costs.

solve_regularized (one LU) and solve_nonneg (one Cholesky and one
scipy.optimize.nnls call) check their solutions against the same bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import InkKernel
from .vmatrix import MinKernel

RESIDUAL_RTOL = 1e-8


class SingularSystemError(RuntimeError):
    """The system is singular to working precision."""


def _check_square(A, b: np.ndarray):
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if b.shape != (A.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")


def _check_symmetric(X: np.ndarray, name: str):
    # the exact comparison first: it is cheaper and settles the usual case
    if not (np.array_equal(X, X.T) or np.allclose(X, X.T, atol=1e-10 * (1.0 + np.abs(X).max()))):
        raise ValueError(f"{name} must be symmetric")


def _residual_bound(b: np.ndarray) -> float:
    return RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def _failure(what: str, res_norm: float, bound: float) -> str:
    return f"{what}: residual {res_norm:.3e} > {bound:.3e}"


_SINGULAR_FAILURE = "system singular to working precision"


def solve_regularized(A, ridge: float, b, context: str = "") -> np.ndarray:
    """Solve (A + ridge * I) x = b.

    One LU factorization (scipy.linalg.lu_factor); _verified checks the
    lu_solve solution against A and the ridge and refines it with lu_solve.
    Raises SingularSystemError when the substitution check cannot be met.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_square(A, b)
    if not ridge >= 0:
        raise ValueError("ridge must be nonnegative")
    # one Fortran-ordered copy, which LAPACK factorises in place
    M = np.array(A, order="F")
    M[np.diag_indices(A.shape[0])] += ridge
    lu = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
    # no ridge term at ridge 0, where an infinite x would give 0 * inf
    apply = (lambda X: A @ X + ridge * X) if ridge else (lambda X: A @ X)
    X, (error,) = _verified(scipy.linalg.lu_solve(lu, b[:, None], check_finite=False),
                            lambda R, bad: scipy.linalg.lu_solve(lu, R, check_finite=False),
                            apply, b, _SINGULAR_FAILURE)
    if error:
        raise SingularSystemError(error + (f" ({context})" if context else ""))
    return X[:, 0]


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


def _stacked_solve(bands: np.ndarray, rhs: np.ndarray):
    """Solve G symmetric positive definite banded n x n systems in one LAPACK
    dpbsv call by stacking them block-diagonally with zero coupling.

    `bands` is (rows, G, n): block j's lower band storage, 2 rows for a
    tridiagonal block and 3 for a pentadiagonal one, whose band entries past
    the end of the block are zero, so the stacked matrix couples no two
    blocks; `rhs` is n x G. A block that is not positive definite stops the
    factorisation at its row: it gets NaN and the call repeats without it, so
    it fails only its own column. Returns the Cholesky factors in the layout
    of `bands` and the n x G solutions.
    """
    rows, G, n = bands.shape
    factors = np.full(bands.shape, np.nan)
    X = np.full((n, G), np.nan)
    live = np.arange(G)
    while live.size and n:
        fac, x, info = scipy.linalg.lapack.dpbsv(bands[:, live].reshape(rows, -1),
                                                 rhs[:, live].reshape(-1, 1, order="F"), lower=1)
        if info < 0:
            raise ValueError(f"banded solve: illegal value in argument {-info}")
        if info == 0:
            factors[:, live] = fac.reshape(rows, live.size, n)
            X[:, live] = x.reshape(n, live.size, order="F")
            break
        live = np.delete(live, (info - 1) // n)
    return factors, X


def _stacked_resolve(factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve again with the factors of _stacked_solve, column j of the n x G
    `rhs` with block j, in one LAPACK dpbtrs call."""
    rows, G, n = factors.shape
    if not n:
        return np.zeros((0, G))
    x, info = scipy.linalg.lapack.dpbtrs(factors.reshape(rows, -1),
                                         rhs.reshape(-1, 1, order="F"), lower=1)
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

    `bands` (rows, G, r) holds the reduced systems in lower band storage,
    tridiagonal (2 rows) or pentadiagonal (3 rows), all factored and solved
    in one dpbsv call by _stacked_solve. `reduce` maps n x G right-hand sides
    to their r x G reduced ones, `expand` maps r x G reduced solutions back,
    and `apply` applies the G system matrices to the columns of an n x G
    matrix. _verified checks the columns and refines them with the same
    factors by _stacked_resolve (dpbtrs). Returns the n x G solutions and per
    column None or the failure message `what`.
    """
    factors, Y = _stacked_solve(bands, np.repeat(reduce(b[:, None]), bands.shape[1], axis=1))
    return _verified(expand(Y),
                     lambda R, bad: expand(_stacked_resolve(factors[:, bad], reduce(R))),
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


def _ridge_inputs(K, gammas, b, array_only: bool):
    """K (an array or, unless `array_only`, an InkKernel), gammas and b as
    float arrays; ValueError unless K is square, b has its order and every
    gamma is nonnegative, and for an InkKernel K with `array_only`."""
    if array_only and isinstance(K, InkKernel):
        raise ValueError("K must be an array here, not an InkKernel")
    K = K if isinstance(K, InkKernel) else np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    _check_square(K, b)
    if not np.all(gammas >= 0):
        raise ValueError("ridge must be nonnegative")
    return K, gammas, b


def solve_ridge_square_many(K, gammas, b, low_rank=False) -> tuple[np.ndarray, list]:
    """Solve (K @ K + gamma I) x = b for every gamma, K a symmetric array.

    With `low_rank`, K ~ G G' = Y Y' by _low_rank_basis of K itself, and
    _low_rank_solve inverts Y diag(lam^2) Y' + gamma I at power 4. Otherwise,
    or when that basis is refused, one tridiagonal reduction K = Q T Q'
    gives K K + gamma I = Q (T T + gamma I) Q', whose middle factor is
    pentadiagonal: one O(n) banded solve per gamma, and K @ K is never
    formed. Returns the n x G solutions and per column None or the failure
    message of its residual check. ValueError for an InkKernel K.
    """
    K, gammas, b = _ridge_inputs(K, gammas, b, array_only=True)

    def apply(X):
        return K @ (K @ X) + X * gammas

    found = _low_rank_basis(K, lambda G: G, gammas) if low_rank else None
    if found is not None:
        return _low_rank_solve(*found, 4, lambda B: B, lambda Y: Y, apply, b, gammas)
    tri = tridiagonalize(K)
    bands = _square_bands(tri, gammas.size)
    bands[0] += gammas[:, None]
    return _multi_shift_solve(bands, tri.qt, tri.q, apply, b, _SINGULAR_FAILURE)


@dataclass(frozen=True)
class PivotedCholesky:
    """A = W W' for a symmetric PSD matrix A, with W = P L[:, :rank].

    `L` is n x n lower triangular with the columns from `rank` on zero and
    `perm` holds P as indices: (P' A P) = A[perm][:, perm] = L L'. `matrix` is
    A itself, kept for the residual checks. dpstrf reads only the lower
    triangle of A, so only that triangle of `matrix` need be defined: that
    of BrownianFactor.congruence of an InkKernel, whose strict upper
    triangle is not W'KW.
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

    `matrix` is V'' itself, the MinKernel of t: its `order` sorts the points
    by t, and its products, which the residual checks use, sum
    min(t_i, t_j) x_j from the coordinates, not from the gaps. `group` holds
    each point's group, -1 at t = 0, and `starts` are the positions in that
    order where the groups begin.
    """

    matrix: MinKernel
    group: np.ndarray
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
        return B[self.matrix.order[self.starts]]

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
        desc = self.matrix.order[self.starts[0]:][::-1]
        return desc, desc.size - 1 - (self.starts - self.starts[0])

    def apply_t(self, B: np.ndarray) -> np.ndarray:
        """W' B for an n x G matrix B, in O(nG) flops: a cumulative sum of B's
        rows in descending t, read at the last point of each group, sums B
        over t_i >= u_k, which is C'E'B. Then sqrt(h)."""
        if not self.rank:
            return np.zeros((0, B.shape[1]))
        desc, last = self._descending()
        return np.sqrt(self.gaps)[:, None] * np.cumsum(B[desc], axis=0)[last]

    def congruence(self, K) -> np.ndarray:
        """W' K W for a symmetric n x n K, r x r in Fortran order: C'E'KEC,
        then sqrt(h) on both sides.

        (C'E'KEC)_kl sums K over the points with t >= u_k and t >= u_l, in
        ascending x = 1 - t the first e_k and e_l points, e_k = n - starts[k].
        For an array K that takes O(n^2) flops, the cumulative sums of
        apply_t along both axes of K. For the InkKernel of V''s own points
        it is a closed form in O(n log n + r^2): for e_k <= e_l, the rows i
        from e_k to e_l against the first e_k columns a hold p(x_a) +
        q(x_a) x_i, so the entry is a_k + P_k N_l + Q_k X_l, with P, Q, N
        and X the prefix sums of p(x), q(x), 1 and x, F the prefix double sum
        of K and a = F - P N - Q X, all read at the group ends: one
        (r x 3)(3 x r) product, of which only the lower triangle is W'KW and
        is defined, since its only readers, dpstrf and dsytrd, read only that
        triangle. ValueError unless the InkKernel's points are V''s, 1 - x = t.
        """
        root = np.sqrt(self.gaps)
        if isinstance(K, InkKernel):
            x, sums, g = K.prefix_sums(self.matrix.t)
            ends = x.size - self.starts
            P, Q, X = sums[:, ends]
            N = ends.astype(float)
            # the factors (a, P, Q) by group and (1, N, X) by group, times sqrt(h)
            lo = np.column_stack([np.cumsum(g)[ends - 1] - P * N - Q * X, P, Q]) * root[:, None]
            hi = np.array([np.ones(N.size), N, X]) * root
            # their product as the transpose of hi' lo': one BLAS product, in
            # Fortran order, the layout dpstrf and dsytrd take without a copy
            return (hi.T @ lo.T).T
        if not self.rank:
            return np.zeros((0, 0), order="F")
        desc, last = self._descending()
        S = np.cumsum(K[desc], axis=0)[last]
        S = np.take(np.cumsum(np.take(S, desc, axis=1), axis=1), last, axis=1)
        S *= root[:, None]
        S *= root
        return S.T  # equal to S for a symmetric K


def _brownian_factor(V: MinKernel) -> BrownianFactor:
    """The BrownianFactor of V''_ij = min(t_i, t_j), from V's sort of t."""
    ts = V.t_sorted
    new = ts > 0.0
    new[1:] &= ts[1:] != ts[:-1]
    starts = np.flatnonzero(new)
    group = np.empty(ts.size, dtype=np.intp)
    group[V.order] = np.cumsum(new) - 1
    return BrownianFactor(V, group, starts, np.diff(ts[starts], prepend=0.0))


# Smallest gap h between the distinct t = 1 - x of 1-D points (and from 0) at
# which DRE-V solves with the closed-form factor. Its tridiagonal J has
# entries 1/h, and at gaps of 1e-11 and below most columns fail the residual
# check, where pivoted_cholesky and tridiagonalize(W'W) keep passing.
NEAR_TIE_GAP = 1e-9


def factor_v_matrix(V):
    """W W' = V'' for an overlap-volume matrix V, by V's form.

    A MinKernel, the V'' of 1-D points with s = t = 1 - x, gets the
    closed-form BrownianFactor in O(n log n) from its own sort of t. An
    array gets pivoted_cholesky(V).
    """
    if isinstance(V, MinKernel):
        if not np.array_equal(V.s, V.t):
            raise ValueError("a MinKernel V'' must have s = t")
        return _brownian_factor(V)
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
    """Reusable solver for (S @ S + c * S) x = b with S symmetric PSD and b in
    the range of S, factored once for every c. S is a symmetric array
    (ValueError otherwise) or, for the V'' of 1-D points, a MinKernel with
    s = t; factor_v_matrix picks the factor S = W W' by that form, but a
    MinKernel with a gap below NEAR_TIE_GAP gets pivoted_cholesky of its
    dense form. The solution's part in the range of S is the minimal-norm
    solution; README "Cost" has the paths.
    """

    def __init__(self, S):
        if not isinstance(S, MinKernel):
            S = np.asarray(S, dtype=float)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValueError("S must be square")
            _check_symmetric(S, "S")
        self._factor = factor_v_matrix(S)
        if (isinstance(self._factor, BrownianFactor)
                and self._factor.gaps.min(initial=np.inf) < NEAR_TIE_GAP):
            self._factor = pivoted_cholesky(S.dense())
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
    the MinKernel of 1-D points and b in the range of S.

    With S_u = min(u_k, u_l) on the groups, S = E S_u E' and N = E'E. For
    b = E beta the minimal-norm solution is x = E y with
    (N + c J) y = J N^-1 J beta, where J = S_u^-1 is tridiagonal,
    J_kk = 1/h_k + 1/h_{k+1}, J_rr = 1/h_r and J_k,k+1 = -1/h_{k+1}
    (Vandebril, Van Barel & Mastronardi, Matrix Computations and
    Semiseparable Matrices, 2008): all c go into one stacked dpbsv call.
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


def solve_product_ridge_many(factor, K, gammas, b, low_rank=False) -> tuple[np.ndarray, list]:
    """Solve (A K + gamma I) x = b for every gamma, with A = W W' given by
    `factor` (a PivotedCholesky or BrownianFactor), K symmetric PSD (an
    array, or with a BrownianFactor the InkKernel of its points) and b in
    the range of A.

    A K is similar to the symmetric S = W' K W (Golub & Van Loan, Matrix
    Computations, 8.7): with W c = b, x = W (S + gamma I)^-1 c. Paths, each
    taken when the one before is refused (README "Cost"): with `low_rank`,
    _low_rank_basis of K with Z = W'G; for a BrownianFactor, that of S; one
    tridiagonal reduction S = Q T Q' and an O(n) solve of T + gamma I per
    gamma. Returns the n x G solutions and per column None or the failure
    message of its residual check. ValueError with `low_rank` for an
    InkKernel K, or for a factor other than the closed-form BrownianFactor
    of 1-D points.
    """
    if low_rank and not isinstance(factor, BrownianFactor):
        raise ValueError("low_rank takes the BrownianFactor of 1-D points")
    A = factor.matrix
    K, gammas, b = _ridge_inputs(K, gammas, b, array_only=low_rank)
    if K.shape != A.shape:
        raise ValueError("K must match the shape of the factored matrix")

    def apply(X):
        return A @ (K @ X) + X * gammas

    found = _low_rank_basis(K, factor.apply_t, gammas) if low_rank else None
    if found is None:
        S = factor.congruence(K)
        if isinstance(factor, BrownianFactor):
            found = _low_rank_basis(S, lambda G: G, gammas)
        tri = None if found is not None else tridiagonalize(S, overwrite=True)
        del S  # not read again (dsytrd overwrote it): free it before the solves
    if found is not None:
        return _low_rank_solve(*found, 2, factor.range_coords, factor.expand, apply, b, gammas)
    # T + gamma I per gamma: the diagonal and the sub-diagonal padded by one
    bands = np.zeros((2, gammas.size, factor.rank))
    bands[0] = tri.diag + gammas[:, None]
    bands[1, :, :-1] = tri.off
    return _multi_shift_solve(bands, *_factored_basis(factor, tri), apply, b, _SINGULAR_FAILURE)


# Largest rank of pivoted_cholesky(K), as a fraction of K's order n, at which
# a solver solves from the factor; above it the solver takes its next path
# (README "Cost"). Timed by tools/low_rank_crossover.py (RBF Grams of
# uniform 1-D points, 15 gammas, one BLAS thread), the low-rank path is the
# faster at every rank at n = 40, up to about 0.75 n at n = 80, 0.55-0.7 n at
# n = 160 and 0.55 n at n = 640; the INK W'KW of 160 points, rank 0.6 n,
# solves in about the same time either way. 0.4 n lies below all of them.
LOW_RANK_MAX_FRAC = 0.4


def _low_rank_basis(K: np.ndarray, basis, gammas):
    """_eig_basis of basis(G) for K ~ G G' from pivoted_cholesky(K), cut at
    dpstrf's tolerance (Harbrecht, Peters & Schneider, On the low-rank
    approximation by the pivoted Cholesky decomposition, Appl. Numer. Math.
    2012); None, for the solver's next path, when a gamma is 0 (the
    low-rank inverse divides by it), G has more than LOW_RANK_MAX_FRAC n
    columns, basis(G) is empty or dsyevd fails."""
    if not np.all(gammas > 0):
        return None
    chol = pivoted_cholesky(K)
    n, r = K.shape[0], chol.rank
    if r > LOW_RANK_MAX_FRAC * n:
        return None
    G = np.empty((n, r), order="F")
    G[chol.perm] = chol.L[:, :r]
    Z = basis(G)
    return _eig_basis(Z) if min(Z.shape) else None


def _eig_basis(Z: np.ndarray):
    """Y = Z V and lam, clipped at 0, from one LAPACK dsyevd of the r x r
    Z'Z = V diag(lam) V', in O(n r^2 + r^3) for an n x r Z. Then
    Z Z' = Y Y' and Y'Y = diag(lam). None if dsyevd fails."""
    lam, V, info = scipy.linalg.lapack.dsyevd(Z.T @ Z, lower=1, overwrite_a=1)
    return None if info else (Z @ V, np.maximum(lam, 0.0))


def _low_rank_solve(Y, lam, power: int, reduce, expand, apply, b, gammas):
    """Solve apply(X) = b for every gamma from the basis Y, lam that
    _low_rank_basis found for a PSD K ~ Y Y'.

    The reduced system matrix at gamma is taken as Y diag(lam) Y' + gamma I
    for power 2 and, for power 4, (Y Y')(Y Y') + gamma I = Y diag(lam^2) Y'
    + gamma I. By the Sherman-Morrison-Woodbury identity (Golub & Van Loan,
    Matrix Computations, 2.1.4), with Y'Y = diag(lam), its inverse is
    (I - Y diag(phi) Y') / gamma, phi = 1 / (lam + gamma) for power 2 and
    lam / (lam^2 + gamma) for power 4: O(nr) per column, and nothing divides
    by a small lam. `reduce` and `expand` map to and from the reduced
    coordinates as for _multi_shift_solve. `apply` uses K itself, so
    _verified checks every column against the full system and refines it
    with the same inverse; same returns as _verified.
    """
    lam = lam[:, None]
    top, lam_p = (1.0, lam) if power == 2 else (lam, lam * lam)

    def inverse(B, shifts):
        C = reduce(B)
        return expand((C - Y @ (top / (lam_p + shifts) * (Y.T @ C))) / shifts)

    return _verified(inverse(b[:, None], gammas), lambda R, bad: inverse(R, gammas[bad]),
                     apply, b, _SINGULAR_FAILURE)


def solve_nonneg(A, b) -> np.ndarray:
    """Minimize 0.5 x'Ax - b'x subject to x >= 0, for a symmetric positive
    definite A, exactly.

    With A = L L' (Cholesky), this is the least-squares problem
    min ||L'x - L^-1 b|| over x >= 0, which scipy.optimize.nnls solves by
    Lawson & Hanson's active set (Solving Least Squares Problems, 1974).
    The solution is checked like every other solve: with g = Ax - b, the
    projected gradient (g where x > 0, min(g, 0) where x = 0) must have norm
    at most RESIDUAL_RTOL (1 + ||b||). Raises SingularSystemError when A is
    not positive definite, nnls reaches its iteration limit or the check
    fails.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_square(A, b)
    _check_symmetric(A, "A")
    # imported by its only user, so that a run that never solves under x >= 0
    # does not load scipy.optimize (about 150 modules and 0.1 s)
    import scipy.optimize

    try:
        L = scipy.linalg.cholesky(A, lower=True)
        x, _ = scipy.optimize.nnls(L.T, scipy.linalg.solve_triangular(L, b, lower=True))
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SingularSystemError(f"nonnegative solve failed: {exc}") from exc
    g = A @ x - b
    pg_norm = np.linalg.norm(np.where(x > 0, g, np.minimum(g, 0.0)))
    bound = _residual_bound(b)
    if not pg_norm <= bound:
        raise SingularSystemError(_failure("nonnegative solve: projected gradient",
                                           pg_norm, bound))
    return x
