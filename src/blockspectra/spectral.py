"""Dense symmetric eigen-computations for graph matrices.

Builds adjacency and distance matrices (exact integers) and computes dominant
eigenpairs in float64 by shifted power iteration. Where it stalls, Lanczos
with full reorthogonalisation finishes, and jacobi_eigh takes the top
eigenpair of its tridiagonal (Jacobi) matrix by Sturm-sequence bisection.
spectral_radii solves many graphs at once: same-order matrices are stacked
and iterated together, with every row getting the bits the one-matrix solver
gives it. The complement distance matrix is the object behind the identity
D(G^c) = J - I + A(G), valid whenever diameter(G) > 3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, _bit_stack, bfs_distances, complement

__all__ = [
    "EigenPair",
    "SpectralError",
    "DEFAULT_TOL",
    "adjacency_matrix",
    "distance_matrix",
    "complement_distance_matrix",
    "dominant_eigenpair",
    "power_iteration",
    "jacobi_eigh",
    "spectral_radius",
    "spectral_radii",
]

DEFAULT_TOL = 1e-10

# spectral_radii stacks at most STACK_ROWS matrices of one order, and fewer
# for large orders, so that no stack holds more than STACK_ENTRIES float64
# entries. 256 rows amortise numpy's per-call overhead (16 rows ran 5x
# slower); a stack of 256 matrices of order 12 takes about 300 KB.
STACK_ROWS = 256
STACK_ENTRIES = 1 << 18

# Both power iteration loops give up after POWER_STEPS steps, and Lanczos
# finishes the matrix. No radius in bench/reference.json or in the golden
# cases takes more than 166 steps, so every verify radius keeps its bits.
POWER_STEPS = 1000
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

SPECTRAL_KINDS = ("adjacency", "distance", "complement_adjacency", "complement_distance")


class SpectralError(RuntimeError):
    """Eigensolver failure or invalid matrix input."""


@dataclass(frozen=True)
class EigenPair:
    """Dominant eigenvalue, unit eigenvector, residual norm, and solver diagnostics."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str


def adjacency_matrix(g):
    """0/1 symmetric adjacency matrix with zero diagonal, exact integers."""
    return _bit_stack([g], g.n)[0].astype(np.int64)


def distance_matrix(g):
    """Exact integer shortest-path distance matrix; rejects disconnected input."""
    d = bfs_distances(g)
    if np.isinf(d).any():
        raise GraphError("distance matrix requires a connected graph")
    return d.astype(np.int64)


def complement_distance_matrix(g):
    """Exact D(G^c), defined whenever G^c is connected, as it is for every g
    of diameter >= 3 and for some of diameter 2, such as the 5-cycle.

    For diameter(g) > 3 this equals J - I + A(g) entrywise; for diameter
    exactly 3 it dominates J - I + A(g) entrywise.
    """
    d = bfs_distances(complement(g))
    if np.isinf(d).any():
        raise GraphError("complement of the input graph is disconnected")
    return d.astype(np.int64)


def _check_symmetric(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectralError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix must be exactly symmetric")
    return a


def _check_tol(tol):
    if not 0 < tol < math.inf:
        raise SpectralError(f"tolerance must be positive and finite, got {tol}")


def _fix_sign(x):
    s = float(x.sum())
    if s < 0:
        return -x
    if s == 0:
        for v in x:
            if v != 0:
                return -x if v < 0 else x
    return x


def power_iteration(m, tol=DEFAULT_TOL):
    """Shifted power iteration for the largest eigenvalue of a symmetric matrix.

    Iterates x <- (m + cI)x with c the largest absolute row sum, so the shifted
    matrix is positive semidefinite and bipartite adjacency matrices cannot
    oscillate. Starts from the normalized all-ones vector; converged when two
    successive Rayleigh quotients differ by less than tol and the residual
    ||mx - lambda x|| drops below tol; the residual is computed only once the
    quotients agree. Returns None if an iterate falls into the kernel of
    m + cI or POWER_STEPS steps pass (dominant_eigenpair then finishes by
    Lanczos). The kernel is never reached for a nonnegative m, such as the
    four graph matrices: (m + cI)x > 0 for every x > 0. A shift c beyond
    the float range is a hard error. Norms are math.sqrt(v @ v), the dot
    product np.linalg.norm takes of a 1-D array.
    """
    a = _check_symmetric(m)
    n = a.shape[0]
    x = np.ones(n) / math.sqrt(n)
    if not a.any():
        return EigenPair(0.0, x, 0.0, 0, "power")
    c = float(np.abs(a).sum(axis=1).max())
    if not math.isfinite(c):
        raise SpectralError(f"eigensolver failed: shift c = {c} is not finite")
    lam_prev = None
    for k in range(POWER_STEPS):
        y = a @ x
        lam = float(x @ y)
        if lam_prev is not None and abs(lam - lam_prev) < tol:
            r = y - lam * x
            residual = math.sqrt(r @ r)
            if residual < tol:
                return EigenPair(lam, _fix_sign(x), residual, k, "power")
        lam_prev = lam
        z = y + c * x
        nz = math.sqrt(z @ z)
        if nz < 1e-12 * (c + 1.0):
            return None
        x = z / nz
    return None


def _start(n):
    """The unit vector along 1 + (frac(i*GOLDEN) - 1/2)/2, i = 1..n: positive,
    so it meets the dominant eigenvector of every nonnegative matrix, and,
    unlike the all-ones vector, no eigenvector of [[0, -1], [-1, 0]]."""
    weyl = np.arange(1.0, n + 1.0) * GOLDEN
    s = 1.0 + 0.5 * (weyl - np.floor(weyl) - 0.5)
    return s / math.sqrt(s @ s)


def jacobi_eigh(alpha, beta):
    """Largest eigenvalue and a unit eigenvector of the Jacobi matrix T (the
    symmetric tridiagonal matrix with diagonal alpha, k floats, and
    off-diagonal beta, k - 1 floats), such as the T_k that Lanczos builds.

    Sturm-sequence bisection (Golub & Van Loan, 4th ed., §8.4.1): every
    eigenvalue of T lies below x iff every pivot of T - xI = LDL^T,
    q_i = alpha_i - x - beta_{i-1}^2 / q_{i-1}, is negative. From the
    Gershgorin bounds, [lo, hi] shrinks to 2^-52 times the largest of its
    first width, |lo| and |hi|; three steps of inverse iteration with the
    shift hi + that width, through the same factorisation, give the vector.
    """
    k = len(alpha)
    b2 = [0.0] + [b * b for b in beta]
    pivmin = sys.float_info.min * max(1.0, *b2)

    def below(x):
        # a pivot of magnitude under pivmin counts as -pivmin
        q = 1.0
        for a, bb in zip(alpha, b2):
            q = a - x - bb / q
            if q >= pivmin:
                return False
            if q > -pivmin:
                q = -pivmin
        return True

    r = [0.0] + [abs(b) for b in beta] + [0.0]
    lo = min(a - r[i] - r[i + 1] for i, a in enumerate(alpha))
    hi = max(a + r[i] + r[i + 1] for i, a in enumerate(alpha))
    width = 2.0**-52 * max(hi - lo, abs(lo), abs(hi))
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            hi = mid
        else:
            lo = mid
    q, d = 1.0, []
    for a, bb in zip(alpha, b2):
        q = a - (hi + width) - bb / q
        q = q if abs(q) >= pivmin else -pivmin
        d.append(q)
    l = [b / q for b, q in zip(beta, d)]
    y = _start(k).tolist()
    for _ in range(3):
        for i in range(1, k):
            y[i] -= l[i - 1] * y[i - 1]
        y = [v / q for v, q in zip(y, d)]
        for i in range(k - 2, -1, -1):
            y[i] -= l[i] * y[i + 1]
        norm = math.hypot(*y)
        y = [v / norm for v in y]
    return hi, np.array(y)


def _lanczos(a, tol):
    """Top eigenpair of a nonzero symmetric float matrix by Lanczos with full
    reorthogonalisation (Lanczos 1950; Golub & Van Loan, 4th ed., §10.1).

    The recurrence runs on a / s, s the largest power of two not above the
    largest absolute entry (so s is finite for every finite a): exact in the
    normal range, and a matrix near the subnormal range does not underflow. From _start(n), step k writes the
    next unit vector q into row k - 1 of an n x n basis allocated once (a
    row is touched only when written) and orthogonalises a @ q / s against
    rows 0..k-1 in two classical Gram-Schmidt passes. Every 32 steps, at a
    next vector shorter than 1e-12 n, and at k = n, jacobi_eigh of T_k gives
    the Ritz vector x, returned as method "ritz" with k as its iterations
    once the true residual ||ax - lambda x||, like lambda scaled back by s,
    is below tol. A value beyond the float range, and a residual at or above
    tol at k = n or at a next vector of length zero, are hard errors.
    """
    n = a.shape[0]
    # no n x n temporary for the largest entry (which raised peak RSS)
    s = 2.0 ** (math.frexp(max(float(a.max()), -float(a.min())))[1] - 1)
    basis = np.empty((n, n))
    alpha, beta = [], []
    q = _start(n)
    for k in range(1, n + 1):
        basis[k - 1] = q
        w = a @ q / s
        alpha.append(float(q @ w))
        done = basis[:k]
        for _ in range(2):
            w -= (done @ w) @ done
        b = math.sqrt(w @ w)
        if k % 32 == 0 or k == n or b <= 1e-12 * n:
            x = jacobi_eigh(alpha, beta)[1] @ done
            x = _fix_sign(x / math.sqrt(x @ x))
            y = a @ x / s
            lam = float(x @ y)
            r = y - lam * x
            residual = math.sqrt(r @ r) * s
            if not math.isfinite(lam * s):
                raise SpectralError(f"eigensolver failed: value {lam * s} after {k} steps is not finite")
            if residual < tol:
                return EigenPair(lam * s, x, residual, k, "ritz")
            if b == 0.0:
                break
        beta.append(b)
        q = w / b
    raise SpectralError(
        f"eigensolver failed: power iteration stalled and the Lanczos residual "
        f"{residual:.3e} exceeds tol {tol:.1e} after {k} steps"
    )


def dominant_eigenpair(m, tol=DEFAULT_TOL):
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    Power iteration first, for at most POWER_STEPS steps; where it stalls or
    its iterate falls into the kernel of m + cI, Lanczos finishes from a
    fixed positive start vector, which meets the dominant eigenvector of every
    nonnegative matrix, reducible or not. A residual below tol certifies an
    eigenpair; one that cannot be met is a hard error, never a silent
    approximation. For nonnegative irreducible input the vector is the Perron
    vector, normalized with positive sign. tol must be positive and finite.
    """
    _check_tol(tol)
    a = _check_symmetric(m)
    pair = power_iteration(a, tol=tol)
    return pair if pair is not None else _lanczos(a, tol)


def _matrix_stack(graphs, kind):
    """Float64 stack of one kind of matrix of graphs of one order.

    complement_distance uses the L4.1 identity D(G^c) = J - I + A(G) for
    every G with two vertices more than three steps apart (no walk of length
    at most 3 joins them), which includes every disconnected G; it runs BFS
    on the complement only for diameter(G) <= 3.
    """
    n = graphs[0].n
    if kind == "distance":
        return np.stack([distance_matrix(g) for g in graphs]).astype(np.float64)
    a = _bit_stack(graphs, n)
    if kind == "adjacency":
        return a
    if kind == "complement_adjacency":
        return 1.0 - np.eye(n) - a
    closed = a + np.eye(n)
    within_three = ((closed @ closed @ closed) > 0).all(axis=(1, 2))
    mats = 1.0 - np.eye(n) + a
    for i in np.flatnonzero(within_three):
        mats[i] = complement_distance_matrix(graphs[i])
    return mats


def _dots(u, v):
    """Row-wise dot products of two (N, n, 1) stacks, one BLAS dot per row."""
    return (u.transpose(0, 2, 1) @ v)[:, 0, 0]


def _same_bits(p, q):
    """True iff two EigenPairs agree in every bit."""
    same = (p.value, p.residual, p.iterations, p.method) == (
        q.value, q.residual, q.iterations, q.method
    )
    return same and np.array_equal(p.vector, q.vector)


def _power_stack(a, tol):
    """power_iteration on every matrix of an (N, n, n) stack at once.

    Each row follows power_iteration's arithmetic exactly. The iterates are
    (N, n, 1) columns, so a @ x, x^T y and z^T z are stacked matmuls that make
    the same per-slice BLAS gemv and dot calls as the one-matrix a @ x, x @ y
    and z @ z, and each row gets the bits it gets alone. As there, the
    residual is computed only for rows whose Rayleigh quotient moved by less
    than tol.
    Returns one EigenPair per row, or None for a row that leaves the batch:
    an iterate in the kernel of m + cI, which a zero matrix's first iterate
    is, or a row still unconverged after POWER_STEPS steps.
    """
    count, n, _ = a.shape
    out = [None] * count
    rows = np.arange(count)
    c = np.abs(a).sum(axis=2).max(axis=1)
    floor = 1e-12 * (c + 1.0)
    x = np.full((count, n, 1), 1 / math.sqrt(n))
    lam_prev = None
    for k in range(POWER_STEPS):
        if not len(rows):
            break
        y = a @ x
        lam = _dots(x, y)
        keep = np.ones(len(rows), dtype=bool)
        if lam_prev is not None:
            near = np.flatnonzero(np.abs(lam - lam_prev) < tol)
            r = y[near] - lam[near, None, None] * x[near]
            residual = np.sqrt(_dots(r, r))
            for j, res in zip(near, residual):
                if res < tol:
                    vector = _fix_sign(x[j, :, 0].copy())
                    out[rows[j]] = EigenPair(float(lam[j]), vector, float(res), k, "power")
                    keep[j] = False
        z = y + c[:, None, None] * x
        nz = np.sqrt(_dots(z, z))
        keep &= ~(nz < floor)
        if not keep.all():
            rows, a, c, floor = rows[keep], a[keep], c[keep], floor[keep]
            z, nz, lam = z[keep], nz[keep], lam[keep]
        x = z / nz[:, None, None]
        lam_prev = lam
    return out


def spectral_radii(graphs, kind, tol=DEFAULT_TOL):
    """Dominant eigenpair of one of the four graph matrices of each graph,
    in input order.

    kind is one of adjacency, distance, complement_adjacency,
    complement_distance. Distance kinds require the relevant graph (g or its
    complement) to be connected. Graphs of one order are solved together in
    stacks by the batched power iteration, and every pair has the bits
    dominant_eigenpair gives that graph's matrix alone. A stack of one matrix
    is solved by dominant_eigenpair itself; a row that leaves a batch through
    the kernel floor or at POWER_STEPS goes straight to the Lanczos finish,
    which never reads the power iterate, and a zero matrix gets
    dominant_eigenpair's zero pair. The first graph of each stack is solved
    alone too, as a check on the stack.
    """
    if kind not in SPECTRAL_KINDS:
        raise GraphError(f"unknown spectral kind {kind!r}; expected one of {SPECTRAL_KINDS}")
    _check_tol(tol)
    graphs = list(graphs)
    by_order = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    pairs = [None] * len(graphs)
    for n, members in by_order.items():
        size = max(1, min(STACK_ROWS, STACK_ENTRIES // (n * n)))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            mats = _matrix_stack([graphs[i] for i in chunk], kind)
            if len(chunk) == 1:
                solved = [dominant_eigenpair(mats[0], tol=tol)]
            else:
                solved = _power_stack(mats, tol)
                # The stack's first graph is solved alone as well: if its pair
                # differs in any bit, this numpy does not reduce the stacked
                # matmuls to the one-matrix BLAS calls, and every row is
                # solved alone instead.
                alone = spectral_radius(graphs[chunk[0]], kind, tol=tol)
                if solved[0] is not None and not _same_bits(solved[0], alone):
                    solved = [dominant_eigenpair(mat, tol=tol) for mat in mats]
                solved[0] = alone
            for i, mat, pair in zip(chunk, mats, solved):
                if pair is None:
                    pair = _lanczos(mat, tol) if mat.any() else dominant_eigenpair(mat, tol=tol)
                pairs[i] = pair
    return pairs


def spectral_radius(g, kind, tol=DEFAULT_TOL):
    """Dominant eigenpair of one of the four graph matrices of g; see
    spectral_radii."""
    return spectral_radii([g], kind, tol=tol)[0]
