"""Dense symmetric eigen-computations for graph matrices.

Builds adjacency and distance matrices (exact integers) and computes dominant
eigenpairs in float64 by shifted power iteration. Where it stalls, a
Rayleigh-Ritz step on repeated squares of the shifted matrix finishes the
solve, with round-robin (parallel-order) Jacobi on the small projected
problems only. spectral_radii solves many graphs at once:
same-order matrices are stacked and iterated together, with every row getting
the bits the one-matrix solver gives it. The complement distance matrix is
the object behind the identity D(G^c) = J - I + A(G), valid whenever
diameter(G) > 3.
"""

from __future__ import annotations

import math
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

# The Ritz fallback carries a start block of this many columns through the
# repeated squares: the all-ones vector and RITZ_BLOCK - 1 Weyl sequences
# frac(i*k*GOLDEN) - 1/2. With the fallback forced on the nonzero test
# matrices of order <= 121 and on I_4 + (1+1e-7)J_100/100, four columns took
# 704 rounds in all and at most 16, against 767 and at most 29 for two; the
# all-ones column alone returns -1 for [[0, -1], [-1, 0]], whose eigenvector
# it is; eight columns tripled the time of P_120's solve.
RITZ_BLOCK = 4
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# Round k holds the 2^(k-1)-th power of the shifted matrix. Two of its
# eigenvalues in the ratio 1 - 2^-53, the least gap float64 holds, are in the
# ratio e^-1024 by round 64, which underflows, so later rounds cannot help.
# The most rounds measured was 16, on the same matrices and on P_120.
RITZ_ROUNDS = 64

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
    m + cI or the 100*n iteration cap is reached (dominant_eigenpair then
    finishes by Rayleigh-Ritz). The kernel is never reached for a nonnegative
    m, such as the four graph matrices: (m + cI)x > 0 for every x > 0. Norms
    are math.sqrt(v @ v), the dot product np.linalg.norm takes of a 1-D array.
    """
    a = _check_symmetric(m)
    n = a.shape[0]
    if not a.any():
        x = np.ones(n) / math.sqrt(n)
        return EigenPair(0.0, x, 0.0, 0, "power")
    c = float(np.abs(a).sum(axis=1).max())
    x = np.ones(n) / math.sqrt(n)
    lam_prev = None
    for k in range(100 * n):
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


def jacobi_eigh(m):
    """Full symmetric eigendecomposition by round-robin (parallel-order)
    Jacobi rotations.

    Each sweep visits every pair (p, q) once, in rounds of disjoint pairs;
    the rotations of one round commute, so they are applied together as one
    J^T A J. Returns (eigenvalues, eigenvectors-as-columns), unsorted. Raises
    SpectralError if the off-diagonal mass has not vanished after 30 sweeps.
    """
    a = _check_symmetric(m).copy()
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    stop = 1e-14 * scale * n
    skip = stop / (2 * n)
    iu = np.triu_indices(n, 1)
    rounds = _round_robin(n)
    # summing the strict upper triangle directly avoids the catastrophic
    # cancellation of frobenius-minus-diagonal once entries are near zero
    for sweep in range(31):
        off = math.sqrt(2.0 * float((a[iu] ** 2).sum()))
        if off <= stop:
            break
        if sweep == 30:
            raise SpectralError(
                f"jacobi failed to converge in 30 sweeps (off-diagonal {off:.3e})"
            )
        for p, q in rounds:
            apq = a[p, q]
            big = np.abs(apq) > skip
            if not big.all():
                p, q, apq = p[big], q[big], apq[big]
                if not len(p):
                    continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            # the sign rule of tau >= 0 (which keeps -0.0 positive) without
            # evaluating a branch that divides by zero
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            cth = 1.0 / np.sqrt(1.0 + t * t)
            sth = (t * cth)[:, None]
            cth = cth[:, None]
            # the columns of a, then its rows, then the columns of v
            for lines in (a.T, a, v.T):
                x, y = lines[p], lines[q]
                lines[p] = cth * x - sth * y
                lines[q] = sth * x + cth * y
            a[p, q] = a[q, p] = 0.0
    return np.diagonal(a).copy(), v


def _round_robin(n):
    """The rounds of one Jacobi sweep over n >= 1 indices, as (p, q) index
    arrays with p < q: every pair once, each round's pairs disjoint.

    The circle method on m = n rounded up to even: round r pairs r + k with
    r - k modulo m - 1 for k = 1 .. m/2 - 1, and r with m - 1. For odd n,
    m - 1 = n is a dummy index and its pair is dropped (n = 1: one empty round).
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(1, m // 2)
    x, y = (r + k) % (m - 1), (r - k) % (m - 1)
    if n % 2 == 0:
        x = np.hstack([x, r])
        y = np.hstack([y, np.full_like(r, n - 1)])
    return list(zip(np.minimum(x, y), np.maximum(x, y)))


def dominant_eigenpair(m, tol=DEFAULT_TOL):
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    Power iteration first (cap 100*n steps). On a stall, Rayleigh-Ritz on
    repeated squares (simultaneous iteration, Rutishauser 1970) finishes:
    B = (m + 2cI)/(3c), with c the largest absolute row sum, has eigenvalues
    in [1/3, 1], in the order of m's, so no power of it vanishes. Each round
    orthonormalises B @ S, for a fixed start block S of RITZ_BLOCK columns,
    through jacobi_eigh of its Gram matrix, dropping directions whose Gram
    eigenvalue is at or below 1e-12 of the largest, and solves the
    projection of m onto it with jacobi_eigh. The top Ritz pair is returned,
    as method "ritz" with the rounds taken as its iterations, once its
    residual is below tol; otherwise B <- B @ B, rescaled by its largest
    entry. A residual below tol certifies an eigenpair, and it is the largest
    one when S meets its eigenvector: S's all-ones column meets the dominant
    eigenvector of every nonnegative matrix, reducible or not. Exceeding
    RITZ_ROUNDS rounds is a hard error, never a silent approximation. For
    nonnegative irreducible input the vector is the Perron vector,
    normalized with positive sign. tol must be positive and finite.
    """
    _check_tol(tol)
    a = _check_symmetric(m)
    pair = power_iteration(a, tol=tol)
    if pair is not None:
        return pair
    n = a.shape[0]
    c = float(np.abs(a).sum(axis=1).max())
    b = (a + 2.0 * c * np.eye(n)) / (3.0 * c)
    weyl = np.arange(1.0, n + 1.0)[:, None] * np.arange(1.0, RITZ_BLOCK) * GOLDEN
    start = np.hstack([np.ones((n, 1)), weyl - np.floor(weyl) - 0.5])
    for rounds in range(1, RITZ_ROUNDS + 1):
        basis = b @ start
        # a second pass restores orthonormality lost to near-parallel
        # columns; with one, I_r + (1+d)J_k/k (r <= 30, k <= 200,
        # 1e-9 <= d <= 1e-4) returned 1 in place of 1 + d for 13 of 80 choices
        for _ in range(2):
            gram = basis.T @ basis
            g, w = jacobi_eigh((gram + gram.T) / 2.0)
            keep = g > 1e-12 * g.max()
            basis = basis @ (w[:, keep] / np.sqrt(g[keep]))
        h = basis.T @ (a @ basis)
        values, vectors = jacobi_eigh((h + h.T) / 2.0)
        x = basis @ vectors[:, int(np.argmax(values))]
        x = _fix_sign(x / math.sqrt(x @ x))
        y = a @ x
        lam = float(x @ y)
        r = y - lam * x
        residual = math.sqrt(r @ r)
        if residual < tol:
            return EigenPair(lam, x, residual, rounds, "ritz")
        b = b @ b
        b /= np.abs(b).max()
    raise SpectralError(
        f"eigensolver failed: power iteration stalled and the Ritz residual "
        f"{residual:.3e} exceeds tol {tol:.1e} after {RITZ_ROUNDS} rounds"
    )


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
    is, or a row at the 100*n cap.
    """
    count, n, _ = a.shape
    out = [None] * count
    rows = np.arange(count)
    c = np.abs(a).sum(axis=2).max(axis=1)
    floor = 1e-12 * (c + 1.0)
    x = np.full((count, n, 1), 1 / math.sqrt(n))
    lam_prev = None
    for k in range(100 * n):
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
    dominant_eigenpair gives that graph's matrix alone: a stack of one
    matrix, and every row that leaves a batch (zero matrix, kernel iterate
    or iteration cap), is solved by dominant_eigenpair itself, and the first
    graph of each stack is solved alone too, as a check on the stack.
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
            solved = [None] * len(chunk)
            if len(chunk) > 1:
                solved = _power_stack(mats, tol)
                # The stack's first graph is solved alone as well: if its pair
                # differs in any bit, this numpy does not reduce the stacked
                # matmuls to the one-matrix BLAS calls, and every row is
                # solved alone instead.
                alone = spectral_radius(graphs[chunk[0]], kind, tol=tol)
                if solved[0] is not None and not _same_bits(solved[0], alone):
                    solved = [None] * len(chunk)
                solved[0] = alone
            for i, mat, pair in zip(chunk, mats, solved):
                pairs[i] = pair if pair is not None else dominant_eigenpair(mat, tol=tol)
    return pairs


def spectral_radius(g, kind, tol=DEFAULT_TOL):
    """Dominant eigenpair of one of the four graph matrices of g; see
    spectral_radii."""
    return spectral_radii([g], kind, tol=tol)[0]
