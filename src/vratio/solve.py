"""Dense solvers for the regularized normal systems.

All accepted direct solutions are verified by substitution against the
residual bound ||Ax - b|| <= RESIDUAL_RTOL * (1 + ||b||). The batched solvers
solve one system for many shifts from one symmetric eigendecomposition and
check every column the same way:

* PsdPencilSolver.solve_many: (S S + c S) x = b, from eigh(S);
* solve_ridge_square_many: (K K + gamma I) x = b, from eigh(K);
* solve_product_ridge_many: (A K + gamma I) x = b with A = W W' from
  pivoted_cholesky, from eigh(W' K W); columns that still miss the bound
  after refinement are retried by solve_regularized's LU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

RESIDUAL_RTOL = 1e-8


class SolveMethod(enum.Enum):
    DIRECT = "direct"
    PROJECTED_GRADIENT = "projected-gradient"
    EIG_PENCIL = "eig-pencil"


class SingularSystemError(RuntimeError):
    """The system is singular to working precision."""


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray
    residual_norm: float
    method: SolveMethod


def _check_square(A: np.ndarray, b: np.ndarray):
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if b.shape != (A.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")


def _residual_bound(b: np.ndarray) -> float:
    return RESIDUAL_RTOL * (1.0 + np.linalg.norm(b))


def _failure(what: str, context: str, res_norm: float, bound: float) -> str:
    where = f" ({context})" if context else ""
    return f"{what}{where}: residual {res_norm:.3e} > {bound:.3e}"


def _column_errors(what: str, X: np.ndarray, res_norms: np.ndarray, bound: float,
                   contexts) -> list:
    """None for each column of X that passes the residual check, else its failure message."""
    ok = np.isfinite(res_norms) & (res_norms <= bound) & np.all(np.isfinite(X), axis=0)
    return [None if good else _failure(what, ctx, r, bound)
            for good, r, ctx in zip(ok, res_norms, contexts)]


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
    if ridge < 0:
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
        raise SingularSystemError(
            _failure(_SINGULAR_FAILURE, context, res_norm, bound))
    return SolveReport(x, res_norm, SolveMethod.DIRECT)


_PENCIL_FAILURE = "pencil system inconsistent"


class PsdPencilSolver:
    """Reusable solver for (S @ S + c * S) x = b with S symmetric PSD.

    The pencil can be exactly singular (S may have zero rows), but the
    right-hand sides arising here are orthogonal to the null space, so the
    minimal-norm eigen-solution satisfies the residual check. The
    eigendecomposition is computed once and shared across values of c.
    """

    def __init__(self, S):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("S must be square")
        if not np.allclose(S, S.T, atol=1e-10 * (1.0 + np.abs(S).max())):
            raise ValueError("S must be symmetric")
        self._S = S
        w, Q = scipy.linalg.eigh(S)
        w = np.clip(w, 0.0, None)
        self._w = w
        self._Q = Q
        wmax = float(w.max()) if w.size else 0.0
        self._null = w <= np.finfo(float).eps * max(wmax, 1.0) * S.shape[0]

    def _solve_columns(self, cs, b):
        """Minimal-norm solutions for every shift in `cs` as the columns of an
        n x G matrix, with their residual norms and the residual bound."""
        b = np.asarray(b, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if b.shape != (self._S.shape[0],):
            raise ValueError("b length mismatch")
        if np.any(cs < 0):
            raise ValueError("c must be nonnegative")
        w = self._w[:, None]
        null = self._null[:, None]
        coef = (self._Q.T @ b)[:, None]
        X = self._Q @ np.where(null, 0.0, coef / np.where(null, 1.0, w * (w + cs)))
        SX = self._S @ X
        res_norms = np.linalg.norm(self._S @ SX + SX * cs - b[:, None], axis=0)
        return X, res_norms, _residual_bound(b)

    def solve(self, c: float, b, context: str = "") -> SolveReport:
        """Solve at one shift c; raises SingularSystemError when the solution
        fails the residual check."""
        X, res_norms, bound = self._solve_columns([c], b)
        (error,) = _column_errors(_PENCIL_FAILURE, X, res_norms, bound, [context])
        if error is not None:
            raise SingularSystemError(error)
        return SolveReport(X[:, 0], float(res_norms[0]), SolveMethod.EIG_PENCIL)

    def solve_many(self, cs, b, contexts) -> tuple[np.ndarray, list]:
        """solve() for every shift in `cs` at once.

        Returns the n x G matrix whose column j solves the system at cs[j],
        and per column None or, when that column fails the residual check,
        the message solve() would raise with contexts[j].
        """
        X, res_norms, bound = self._solve_columns(cs, b)
        return X, _column_errors(_PENCIL_FAILURE, X, res_norms, bound, contexts)


def solve_ridge_square_many(K, gammas, b, contexts) -> tuple[np.ndarray, list]:
    """Solve (K @ K + gamma I) x = b for every gamma, K symmetric.

    One eigendecomposition K = Q diag(w) Q' makes every system diagonal,
    K K + gamma I = Q diag(w^2 + gamma) Q', so each gamma costs matrix
    products instead of a factorisation, and K @ K is never formed. Columns
    whose residual misses the bound are refined up to twice with the same
    factors. Returns the n x G solutions and per column None or the failure
    message that solve_regularized would raise with contexts[j].
    """
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    _check_square(K, b)
    if np.any(gammas < 0):
        raise ValueError("ridge must be nonnegative")
    w, Q = scipy.linalg.eigh(K, check_finite=False)
    denom = w[:, None] ** 2 + gammas
    X = Q @ ((Q.T @ b)[:, None] / denom)
    bound = _residual_bound(b)
    for refinement in range(3):
        R = b[:, None] - (K @ (K @ X) + X * gammas)
        res_norms = np.linalg.norm(R, axis=0)
        bad = ~(res_norms <= bound)
        if refinement == 2 or not bad.any():
            break
        X[:, bad] += Q @ ((Q.T @ R[:, bad]) / denom[:, bad])
    return X, _column_errors(_SINGULAR_FAILURE, X, res_norms, bound, contexts)


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


def pivoted_cholesky(A) -> PivotedCholesky:
    """Rank-revealing Cholesky factor of a symmetric PSD matrix (LAPACK dpstrf).

    Pivoting stops once the remaining diagonal falls below LAPACK's default
    tolerance n * eps * max(diag A), so zero rows and repeated rows of A
    (points on the box's upper face, ties) drop out of W.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    n = A.shape[0]
    L, piv, rank, info = scipy.linalg.lapack.dpstrf(A, lower=1)
    if info < 0:
        raise ValueError(f"dpstrf: illegal value in argument {-info}")
    L[~np.tri(n, dtype=bool)] = 0.0  # dpstrf leaves the input in the strict upper triangle
    L[rank:, rank:] = 0.0  # the trailing Schur complement, below the tolerance
    return PivotedCholesky(A, L, piv - 1, int(rank))


def solve_product_ridge_many(factor: PivotedCholesky, K, gammas, b,
                             contexts) -> tuple[np.ndarray, list]:
    """Solve (A K + gamma I) x = b for every gamma, with A = W W' given by
    `factor`, K symmetric PSD and b in the range of A.

    A K is not symmetric, but it is similar to the symmetric S = W' K W
    (Golub & Van Loan, Matrix Computations, 8.7). With S = U diag(s) U' and
    W c = b, x = W U diag(1 / (s + gamma)) U' c solves every system:
    (A K + gamma I) x = W U (diag(s) + gamma) diag(1 / (s + gamma)) U' c = b.
    A K has real eigenvalues >= 0, so for gamma > 0 this is the unique
    solution. One eigh of S serves all gammas.

    Columns whose residual misses the bound are refined up to twice with the
    same factors; a column that still misses it is solved again by
    solve_regularized on A K, and fails only if that fails too. Returns the
    n x G solutions and per column None or the message solve_regularized
    raised with contexts[j].
    """
    A = factor.matrix
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    _check_square(K, b)
    if K.shape != A.shape:
        raise ValueError("K must match the shape of the factored matrix")
    if np.any(gammas < 0):
        raise ValueError("ridge must be nonnegative")
    r, perm, L = factor.rank, factor.perm, factor.L

    # S = L' (P' K P) L in place: a Fortran-ordered P' K P (the transpose of a
    # C-ordered copy of K'[perm][:, perm]) and two triangular products
    S = K.T[np.ix_(perm, perm)].T
    S = scipy.linalg.blas.dtrmm(1.0, L, S, side=1, lower=1, overwrite_b=1)
    S = scipy.linalg.blas.dtrmm(1.0, L, S, lower=1, trans_a=1, overwrite_b=1)
    if r < S.shape[0]:
        S = S[:r, :r].copy(order="F")
    s, U = scipy.linalg.eigh(S, overwrite_a=True, check_finite=False)
    del S
    denom = np.clip(s, 0.0, None)[:, None] + gammas

    def solve(B, denom):
        return factor.expand(U @ ((U.T @ factor.range_coords(B)) / denom))

    X = solve(b[:, None], denom)
    bound = _residual_bound(b)
    for refinement in range(3):
        R = b[:, None] - (A @ (K @ X) + X * gammas)
        res_norms = np.linalg.norm(R, axis=0)
        bad = ~(res_norms <= bound)
        if refinement == 2 or not bad.any():
            break
        X[:, bad] += solve(R[:, bad], denom[:, bad])
    errors = _column_errors(_SINGULAR_FAILURE, X, res_norms, bound, contexts)

    retry = [j for j, err in enumerate(errors) if err is not None]
    if retry:
        AK = A @ K
        for j in retry:
            try:
                X[:, j] = solve_regularized(AK, float(gammas[j]), b, context=contexts[j]).solution
                errors[j] = None
            except SingularSystemError as exc:
                errors[j] = str(exc)
    return X, errors


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
    return SolveReport(x, res_norm, SolveMethod.PROJECTED_GRADIENT)
