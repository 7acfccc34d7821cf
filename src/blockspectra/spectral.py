"""Dense symmetric eigen-computations for graph matrices.

Builds adjacency and distance matrices (exact integers) and computes dominant
eigenpairs in float64 by shifted power iteration with a cyclic Jacobi
fallback. The complement distance matrix is the object behind the identity
D(G^c) = J - I + A(G), valid whenever diameter(G) > 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, bfs_distances, complement, diameter, is_connected

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
]

DEFAULT_TOL = 1e-10

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
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def distance_matrix(g):
    """Exact integer shortest-path distance matrix; rejects disconnected input."""
    d = bfs_distances(g)
    if np.isinf(d).any():
        raise GraphError("distance matrix requires a connected graph")
    return d.astype(np.int64)


def complement_distance_matrix(g):
    """Exact D(G^c), defined only when diameter(g) >= 3 so G^c is connected.

    For diameter(g) > 3 this equals J - I + A(g) entrywise; for diameter
    exactly 3 it dominates J - I + A(g) entrywise.
    """
    if diameter(g) < 3:
        raise GraphError("complement distance matrix requires diameter(g) >= 3")
    return distance_matrix(complement(g))


def _check_symmetric(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectralError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix must be exactly symmetric")
    return a


def _fix_sign(x):
    s = float(x.sum())
    if s < 0:
        return -x
    if s == 0:
        for v in x:
            if v != 0:
                return -x if v < 0 else x
    return x


def power_iteration(m, tol=DEFAULT_TOL, max_iter=None):
    """Shifted power iteration for the largest eigenvalue of a symmetric matrix.

    Iterates x <- (m + cI)x with c the largest absolute row sum, so the shifted
    matrix is positive semidefinite and bipartite adjacency matrices cannot
    oscillate. Starts from the normalized all-ones vector; converged when two
    successive Rayleigh quotients differ by less than tol and the residual
    ||mx - lambda x|| drops below tol. Returns None if the iteration cap is
    reached (caller falls back to Jacobi); random restarts fire only on a
    stalled (kernel) iterate.
    """
    a = _check_symmetric(m)
    n = a.shape[0]
    if max_iter is None:
        max_iter = 100 * n
    if not a.any():
        x = np.ones(n) / math.sqrt(n)
        return EigenPair(0.0, x, 0.0, 0, "power")
    c = float(np.abs(a).sum(axis=1).max())
    x = np.ones(n) / math.sqrt(n)
    rng = np.random.default_rng(12345)
    lam_prev = None
    for k in range(max_iter):
        y = a @ x
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        if lam_prev is not None and abs(lam - lam_prev) < tol and residual < tol:
            return EigenPair(lam, _fix_sign(x), residual, k, "power")
        lam_prev = lam
        z = y + c * x
        nz = float(np.linalg.norm(z))
        if nz < 1e-12 * (c + 1.0):
            # x landed in the kernel of m + cI (the minimum eigenspace): restart
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            lam_prev = None
            continue
        x = z / nz
    return None


def jacobi_eigh(m, max_sweeps=30):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted. Raises
    SpectralError if the off-diagonal mass has not vanished after max_sweeps
    sweeps.
    """
    a = _check_symmetric(m).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = max(1.0, float(np.abs(a).max()))
    stop = 1e-14 * scale * n
    skip = stop / (2 * n)
    iu = np.triu_indices(n, 1)
    # summing the strict upper triangle directly avoids the catastrophic
    # cancellation of frobenius-minus-diagonal once entries are near zero
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float((a[iu] ** 2).sum()))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cth * col_p - sth * col_q
                a[:, q] = sth * col_p + cth * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = cth * row_p - sth * row_q
                a[q, :] = sth * row_p + cth * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = cth * vec_p - sth * vec_q
                v[:, q] = sth * vec_p + cth * vec_q
    else:
        off = math.sqrt(2.0 * float((a[iu] ** 2).sum()))
        if off > stop:
            raise SpectralError(
                f"jacobi failed to converge in {max_sweeps} sweeps (off-diagonal {off:.3e})"
            )
    return np.diagonal(a).copy(), v


def dominant_eigenpair(m, tol=DEFAULT_TOL):
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    Power iteration first (cap 100*n steps); on stall, full Jacobi fallback
    (cap 30 sweeps). Exceeding both caps is a hard error, never a silent
    approximation. For nonnegative irreducible input the vector is the Perron
    vector, normalized with positive sign. tol must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise SpectralError(f"tolerance must be positive and finite, got {tol}")
    a = _check_symmetric(m)
    pair = power_iteration(a, tol=tol)
    if pair is not None:
        return pair
    n = a.shape[0]
    values, vectors = jacobi_eigh(a)
    k = int(np.argmax(values))
    x = vectors[:, k]
    x = x / float(np.linalg.norm(x))
    x = _fix_sign(x)
    lam = float(x @ (a @ x))
    residual = float(np.linalg.norm(a @ x - lam * x))
    if residual > tol:
        raise SpectralError(
            f"eigensolver failed: power iteration stalled and jacobi residual "
            f"{residual:.3e} exceeds tol {tol:.1e}"
        )
    return EigenPair(lam, x, residual, 100 * n, "jacobi")


def spectral_radius(g, kind, tol=DEFAULT_TOL):
    """Dominant eigenpair of one of the four graph matrices.

    kind is one of adjacency, distance, complement_adjacency,
    complement_distance. Distance kinds require the relevant graph (g or its
    complement) to be connected.
    """
    if kind == "adjacency":
        mat = adjacency_matrix(g)
    elif kind == "distance":
        mat = distance_matrix(g)
    elif kind == "complement_adjacency":
        mat = adjacency_matrix(complement(g))
    elif kind == "complement_distance":
        gc = complement(g)
        if not is_connected(gc):
            raise GraphError("complement of the input graph is disconnected")
        mat = distance_matrix(gc)
    else:
        raise GraphError(f"unknown spectral kind {kind!r}; expected one of {SPECTRAL_KINDS}")
    return dominant_eigenpair(mat, tol=tol)

