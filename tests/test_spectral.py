"""Eigensolvers and matrix builders, checked against numpy.linalg.eigh.

numpy's eigh appears only as a test oracle. The library's two routes (shifted
power iteration, and Lanczos where it stalls) are exercised through
dominant_eigenpair, power iteration and the Lanczos finish's tridiagonal
solver jacobi_eigh directly, and the batched spectral_radii is held to the
bits of the one-matrix solver.
"""

import math
import random
import warnings

import numpy as np
import pytest
from oracle import random_connected, random_graph

from blockspectra import spectral
from blockspectra import (
    DEFAULT_TOL,
    GraphError,
    SpectralError,
    adjacency_matrix,
    broom,
    complement,
    complement_distance_matrix,
    complete_graph,
    diameter,
    distance_matrix,
    dominant_eigenpair,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    from_edge_list,
    jacobi_eigh,
    parse_family_spec,
    path_graph,
    power_iteration,
    random_clique_tree,
    spectral_radii,
    spectral_radius,
)


def star_graph(n):
    return from_edge_list(n, [(0, i) for i in range(1, n)])


class TestMatrixBuilders:
    def test_adjacency_examples(self):
        assert adjacency_matrix(complete_graph(2)).tolist() == [[0, 1], [1, 0]]
        assert adjacency_matrix(complete_graph(1)).tolist() == [[0]]
        assert adjacency_matrix(path_graph(3)).tolist() == [
            [0, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ]

    def test_distance_examples(self):
        n = 3
        j_minus_i = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        assert np.array_equal(distance_matrix(complete_graph(3)), j_minus_i)
        assert distance_matrix(path_graph(3)).tolist() == [
            [0, 1, 2],
            [1, 0, 1],
            [2, 1, 0],
        ]
        assert distance_matrix(path_graph(2)).tolist() == [[0, 1], [1, 0]]

    def test_distance_rejects_disconnected(self):
        with pytest.raises(GraphError):
            distance_matrix(from_edge_list(4, [(0, 1), (2, 3)]))


class TestDominantEigenpair:
    def test_k5(self):
        pair = dominant_eigenpair(adjacency_matrix(complete_graph(5)))
        assert pair.value == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(pair.vector, np.full(5, 1 / math.sqrt(5)), atol=1e-8)

    def test_p3_adjacency_sqrt2(self):
        pair = dominant_eigenpair(adjacency_matrix(path_graph(3)))
        assert pair.value == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_p3_distance_one_plus_sqrt3(self):
        # largest root of t^3 - 6t - 4, which factors as (t+2)(t^2-2t-2)
        lam = 1 + math.sqrt(3)
        assert lam**3 - 6 * lam - 4 == pytest.approx(0, abs=1e-12)
        pair = dominant_eigenpair(distance_matrix(path_graph(3)))
        assert pair.value == pytest.approx(lam, abs=1e-10)

    def test_star_k14(self):
        pair = dominant_eigenpair(adjacency_matrix(star_graph(5)))
        assert pair.value == pytest.approx(2.0, abs=1e-10)
        # eigen-equation at a leaf: lambda * x_leaf = x_center
        assert pair.vector[0] / pair.vector[1] == pytest.approx(2.0, abs=1e-8)

    def test_bipartite_no_oscillation(self):
        # unshifted power iteration cycles on K2 (eigenvalues +1/-1)
        pair = dominant_eigenpair(adjacency_matrix(complete_graph(2)))
        assert pair.value == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        pair = dominant_eigenpair(np.zeros((3, 3)))
        assert pair.value == 0.0 and pair.residual == 0.0

    def test_residual_bound_and_unit_vector(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 10))
            for mat in (adjacency_matrix(g), distance_matrix(g)):
                pair = dominant_eigenpair(mat)
                assert pair.residual <= DEFAULT_TOL
                assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
                resid = np.linalg.norm(mat @ pair.vector - pair.value * pair.vector)
                assert resid <= DEFAULT_TOL

    def test_agreement_with_eigh_500_random_graphs(self):
        rng = random.Random(2)
        for _ in range(500):
            g = random_connected(rng, rng.randint(2, 12))
            a = adjacency_matrix(g)
            lam = dominant_eigenpair(a).value
            ref = float(np.linalg.eigvalsh(a)[-1])
            assert abs(lam - ref) <= 10 * DEFAULT_TOL

    def test_rejects_non_symmetric(self):
        with pytest.raises(SpectralError):
            dominant_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SpectralError):
            dominant_eigenpair(np.zeros((2, 3)))

    def test_unreachable_tolerance_is_a_hard_error(self):
        with pytest.raises(SpectralError):
            dominant_eigenpair(adjacency_matrix(path_graph(5)), tol=0.0)


def jacobi_matrices():
    """Inputs for the Lanczos finish, reached through dominant_eigenpair with
    power iteration switched off: zero matrices, small integer and Gaussian
    symmetric matrices, P_120 and P_121 (on which power iteration stalls
    anyway), and Gaussian matrices of orders 2, 3, 5, 9 and 33."""
    rng = np.random.default_rng(21)
    mats = [np.zeros((n, n)) for n in range(1, 6)]
    for _ in range(40):
        n = int(rng.integers(1, 13))
        b = rng.integers(-4, 5, size=(n, n)).astype(float)
        mats.append(b + b.T)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        b = rng.standard_normal((n, n))
        mats.append(b + b.T)
    mats.append(adjacency_matrix(path_graph(120)))
    mats.append(adjacency_matrix(path_graph(121)))
    for n in (2, 3, 5, 9, 33):
        b = rng.standard_normal((n, n))
        mats.append(b + b.T)
    return mats


def tridiagonal(alpha, beta):
    t = np.diag(np.asarray(alpha, dtype=float))
    if len(beta):
        t += np.diag(beta, 1) + np.diag(beta, -1)
    return t


class TestSolverRoutes:
    def test_power_iteration_agrees_with_eigvalsh(self):
        rng = random.Random(4)
        for _ in range(500):
            g = random_connected(rng, rng.randint(2, 12))
            a = adjacency_matrix(g)
            p = power_iteration(a)
            assert p is not None
            assert abs(p.value - float(np.linalg.eigvalsh(a)[-1])) <= 10 * DEFAULT_TOL

    def test_jacobi_matrix_top_pair_agrees_with_eigvalsh(self):
        # random T of every order 1..60; Wilkinson's W21+, whose top two
        # eigenvalues agree to about 1e-14; a negative-definite T; and a T
        # with one zero off-diagonal entry (a direct sum of two blocks)
        rng = np.random.default_rng(26)
        cases = [
            (rng.standard_normal(k).tolist(), rng.standard_normal(k - 1).tolist())
            for k in range(1, 61)
        ]
        w21 = ([abs(10.0 - i) for i in range(21)], [1.0] * 20)
        assert np.diff(np.linalg.eigvalsh(tridiagonal(*w21))[-2:])[0] < 1e-13
        cases.append(w21)
        cases.append(((-5.0 - rng.random(20)).tolist(), (0.5 * rng.standard_normal(19)).tolist()))
        beta = rng.standard_normal(11).tolist()
        beta[5] = 0.0
        cases.append((rng.standard_normal(12).tolist(), beta))
        for alpha, beta in cases:
            t = tridiagonal(alpha, beta)
            scale = max(1.0, float(np.abs(t).max()))
            value, vector = jacobi_eigh(alpha, beta)
            assert abs(value - np.linalg.eigvalsh(t)[-1]) <= 1e-12 * scale
            assert abs(float(vector @ vector) - 1.0) < 1e-12
            assert np.abs(t @ vector - value * vector).max() <= 1e-12 * scale

    def test_clique_paths_agree_with_eigvalsh_on_either_route(self):
        # power iteration would need 9782 steps on 40 blocks of 8 and 3007 on
        # 8 blocks of 40, past POWER_STEPS
        for sizes in (["8"] * 40, ["40"] * 8):
            spec = "cliquepath:" + ",".join(sizes)
            a = adjacency_matrix(parse_family_spec(spec))
            ref = float(np.linalg.eigvalsh(a)[-1])
            pair = dominant_eigenpair(a)
            assert abs(pair.value - ref) <= 1e-12 * ref, (spec, pair.method)
            assert pair.residual < DEFAULT_TOL

    def test_kernel_iterate_falls_to_ritz(self):
        # the all-ones start vector is annihilated by m + cI here
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert power_iteration(m) is None
        pair = dominant_eigenpair(m)
        assert pair.method == "ritz"
        assert pair.value == pytest.approx(1.0, abs=1e-12)

    def test_ritz_fallback_agrees_with_eigvalsh(self, monkeypatch):
        # every nonzero matrix goes through the fallback, which must also
        # handle a top eigenvalue of multiplicity n (-I_3), reducible input
        # whose heaviest columns lie outside the dominant block, a basis whose
        # columns are near parallel (I_30 + (1+1e-6)J_100/100), and a
        # disconnected graph
        monkeypatch.setattr(spectral, "power_iteration", lambda m, tol: None)
        mats = [m for m in jacobi_matrices() if m.any()]
        mats += [-np.eye(3), np.array([[0.0, -1.0], [-1.0, 0.0]])]
        for ones, gap in ((4, 1e-7), (30, 1e-6)):
            m = np.zeros((ones + 100, ones + 100))
            m[:ones, :ones] = np.eye(ones)
            m[ones:, ones:] = (1.0 + gap) / 100.0
            mats.append(m)
        mats.append(adjacency_matrix(from_edge_list(181, [(i, i + 1) for i in range(119)])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in mats:
                n = m.shape[0]
                scale = max(1.0, float(np.abs(m).max()))
                pair = dominant_eigenpair(m)
                assert pair.method == "ritz"
                assert 1 <= pair.iterations <= n
                assert abs(pair.value - np.linalg.eigvalsh(m)[-1]) <= 1e-12 * scale * n
                assert pair.residual < DEFAULT_TOL
                assert abs(float(pair.vector @ pair.vector) - 1.0) < 1e-12

    def test_lanczos_residual_above_tol_at_step_n_is_a_hard_error(self):
        message = r"Lanczos residual \S+ exceeds tol 1.0e-300 after 5 steps"
        with pytest.raises(SpectralError, match=message):
            dominant_eigenpair(adjacency_matrix(path_graph(5)), tol=1e-300)

    def test_lanczos_on_a_matrix_near_the_subnormal_range(self):
        # power iteration's kernel floor is absolute, so this reaches Lanczos
        # at step 0; unscaled, its products underflowed and it certified
        # 1.928e-300 with residual 0 after one step
        tol = 1e-310
        pair = dominant_eigenpair(1e-300 * adjacency_matrix(path_graph(120)), tol=tol)
        assert pair.method == "ritz"
        assert abs(pair.value / (2 * math.cos(math.pi / 121) * 1e-300) - 1) <= 1e-12
        assert pair.residual < tol

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_eigenvalue_beyond_the_float_range_is_a_hard_error(self):
        # the top eigenvalue, 2cos(pi/121) * 1e308, exceeds the largest float
        m = 1e308 * adjacency_matrix(path_graph(120))
        with pytest.raises(SpectralError, match=r"shift c = inf is not finite"):
            dominant_eigenpair(m, tol=1e300)
        with pytest.raises(SpectralError, match=r"value inf after 32 steps is not finite"):
            spectral._lanczos(m, 1e300)


class TestRayleigh:
    def test_rayleigh_bound_1000_random_unit_vectors(self):
        rng = np.random.default_rng(6)
        for g in (path_graph(7), star_graph(7), complete_graph(7)):
            for mat in (adjacency_matrix(g), distance_matrix(g)):
                lam = dominant_eigenpair(mat).value
                for _ in range(1000 // 6):
                    y = rng.standard_normal(7)
                    y /= np.linalg.norm(y)
                    assert float(y @ (mat @ y)) <= lam + 10 * DEFAULT_TOL

    def test_edge_sum_identity(self):
        """x^T A(g) x equals twice the sum of x_u * x_v over edges."""
        rng = random.Random(8)
        nprng = np.random.default_rng(8)
        for _ in range(50):
            g = random_connected(rng, rng.randint(2, 9))
            a = adjacency_matrix(g)
            x = nprng.standard_normal(g.n)
            lhs = float(x @ (a @ x))
            rhs = 2.0 * sum(x[u] * x[v] for u, v in g.edges)
            assert abs(lhs - rhs) < 1e-10


class TestPerronPositivity:
    def test_all_connected_graphs_up_to_6(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                for kind in ("adjacency", "distance"):
                    pair = spectral_radius(g, kind)
                    assert (pair.vector > 1e-12).all(), format(n)


class TestComplementDistance:
    def test_diameter_greater_3_pattern(self):
        # adjacent pairs of P5 sit at complement-distance 2, others at 1
        g = path_graph(5)
        dc = complement_distance_matrix(g)
        for u in range(5):
            for v in range(5):
                if u == v:
                    assert dc[u, v] == 0
                elif g.rows[u] >> v & 1:
                    assert dc[u, v] == 2
                else:
                    assert dc[u, v] == 1

    def test_p4_strict_entry(self):
        g = path_graph(4)
        dc = complement_distance_matrix(g)
        target = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64) + adjacency_matrix(g)
        assert (dc >= target).all()
        assert dc[1, 2] == 3 and target[1, 2] == 2

    def test_subdivided_star_dominance(self):
        # K_{1,3} with one edge subdivided has diameter exactly 3
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        dc = complement_distance_matrix(g)
        target = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64) + adjacency_matrix(g)
        assert (dc >= target).all()

    def test_identity_exhaustive_small(self):
        import blockspectra as bs

        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                d = bs.diameter(g)
                if d < 3:
                    continue
                dc = complement_distance_matrix(g)
                target = (
                    np.ones((n, n), dtype=np.int64)
                    - np.eye(n, dtype=np.int64)
                    + adjacency_matrix(g)
                )
                if d > 3:
                    assert np.array_equal(dc, target)
                else:
                    assert (dc >= target).all()

    def test_c5_both_routes_agree(self):
        # diameter 2, yet its complement (another 5-cycle) is connected
        c5 = from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
        dc = complement_distance_matrix(c5)
        assert sorted(dc.sum(axis=1).tolist()) == [6] * 5
        batched = spectral_radius(c5, "complement_distance")
        assert batched.value == pytest.approx(6.0, abs=1e-9)
        assert same_bits(batched, dominant_eigenpair(dc))

    def test_identity_route_keeps_the_bfs_bits(self):
        # spectral_radii builds D(G^c) as J - I + A(G) for diameter > 3; the
        # public builder runs BFS on the complement
        graphs = [
            g for n in range(4, 8) for g in enumerate_connected_graphs(n) if diameter(g) > 3
        ]
        assert len(graphs) == 102
        batch = spectral_radii(graphs, "complement_distance")
        for g, pair in zip(graphs, batch):
            assert same_bits(pair, dominant_eigenpair(complement_distance_matrix(g))), g

    def test_disconnected_complement_is_named(self):
        with pytest.raises(GraphError, match="complement .* disconnected"):
            complement_distance_matrix(path_graph(3))

    def test_rejects_small_diameter(self):
        with pytest.raises(GraphError):
            complement_distance_matrix(path_graph(3))
        with pytest.raises(GraphError):
            complement_distance_matrix(complete_graph(4))


class TestSpectralRadius:
    def test_kinds(self):
        for n in range(2, 8):
            assert spectral_radius(complete_graph(n), "adjacency").value == pytest.approx(n - 1, abs=1e-9)
            assert spectral_radius(path_graph(n), "adjacency").value == pytest.approx(
                2 * math.cos(math.pi / (n + 1)), abs=1e-9
            )
        assert spectral_radius(complete_graph(5), "distance").value == pytest.approx(4.0, abs=1e-9)

    def test_complement_kinds_match_direct_computation(self):
        import blockspectra as bs

        g = path_graph(6)
        ca = spectral_radius(g, "complement_adjacency").value
        ref = dominant_eigenpair(adjacency_matrix(bs.complement(g))).value
        assert ca == pytest.approx(ref, abs=1e-12)
        cd = spectral_radius(g, "complement_distance").value
        ref = dominant_eigenpair(complement_distance_matrix(g)).value
        assert cd == pytest.approx(ref, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            spectral_radius(path_graph(4), "laplacian")

    def test_disconnected_complement_rejected(self):
        with pytest.raises(GraphError):
            spectral_radius(complete_graph(4), "complement_distance")


def same_bits(p, q):
    """Equal value, vector, residual, iteration count and method, bit for bit."""
    return (
        p.value == q.value
        and np.array_equal(p.vector, q.vector)
        and p.residual == q.residual
        and p.iterations == q.iterations
        and p.method == q.method
    )


KIND_MATRICES = {
    "adjacency": adjacency_matrix,
    "distance": distance_matrix,
    "complement_adjacency": lambda g: adjacency_matrix(complement(g)),
    "complement_distance": complement_distance_matrix,
}


class TestSpectralRadii:
    """The batched solver gives every graph the bits it gets alone."""

    def test_clique_trees_of_order_9_in_every_defined_kind(self):
        graphs = [g for s in range(1, 9) for g in enumerate_clique_trees(9, s)]
        for kind, build in KIND_MATRICES.items():
            kept, alone = [], []
            for g in graphs:
                try:
                    alone.append(spectral_radius(g, kind))
                except GraphError:
                    continue
                kept.append(g)
                # one graph is solved by dominant_eigenpair on the public builder's matrix
                assert same_bits(alone[-1], dominant_eigenpair(build(g))), (kind, g)
            assert len(kept) >= 474, kind
            batch = spectral_radii(kept, kind)
            assert all(same_bits(p, q) for p, q in zip(batch, alone)), kind

    def test_mixed_orders_keep_input_order(self):
        rng = random.Random(11)
        graphs = [random_connected(rng, rng.randint(5, 12)) for _ in range(120)]
        graphs += [random_clique_tree(rng.randint(5, 12), 3, rng.randrange(2**32)) for _ in range(60)]
        rng.shuffle(graphs)
        for kind in ("adjacency", "distance", "complement_adjacency"):
            batch = spectral_radii(graphs, kind)
            assert len(batch) == len(graphs)
            assert all(same_bits(p, spectral_radius(g, kind)) for p, g in zip(batch, graphs))

    def test_alone_and_in_a_500_graph_batch(self):
        rng = random.Random(12)
        graphs = [random_graph(rng, 10, 0.4) for _ in range(500)]
        target = graphs[300]
        for kind in ("adjacency", "complement_adjacency"):
            assert same_bits(spectral_radii(graphs, kind)[300], spectral_radius(target, kind))

    def test_zero_matrix_in_a_batch(self):
        graphs = [complete_graph(6), path_graph(6), complete_graph(6)]
        zero, other, again = spectral_radii(graphs, "complement_adjacency")
        assert same_bits(zero, dominant_eigenpair(np.zeros((6, 6))))
        assert zero.value == 0.0 and zero.residual == 0.0 and zero.iterations == 0
        assert same_bits(again, zero) and other.value > 0

    def test_straggler_gets_the_one_matrix_result(self):
        # power iteration reaches POWER_STEPS on P_120 and Lanczos finishes it
        path, tree = spectral_radii([path_graph(120), broom(120)], "adjacency")
        ref = dominant_eigenpair(adjacency_matrix(path_graph(120)))
        assert ref.method == "ritz"
        assert same_bits(path, ref)
        assert same_bits(tree, dominant_eigenpair(adjacency_matrix(broom(120))))

    def test_stalled_rows_past_the_first_keep_their_bits(self):
        # the first row is solved alone anyway; these leave the stack at
        # POWER_STEPS and go straight to the Lanczos finish
        for n in (120, 121):
            ref = dominant_eigenpair(adjacency_matrix(path_graph(n)))
            batch = spectral_radii([broom(n), path_graph(n), broom(n), path_graph(n)], "adjacency")
            assert [p.method for p in batch] == ["power", "ritz", "power", "ritz"]
            assert same_bits(batch[1], ref) and same_bits(batch[3], ref)

    def test_agreement_with_eigh_500_random_graphs(self):
        rng = random.Random(13)
        graphs = [random_graph(rng, rng.randint(2, 12), 0.4) for _ in range(500)]
        for g, pair in zip(graphs, spectral_radii(graphs, "adjacency")):
            ref = float(np.linalg.eigvalsh(adjacency_matrix(g))[-1])
            assert abs(pair.value - ref) <= 1e-9

    def test_stack_that_loses_bits_is_solved_alone(self, monkeypatch):
        # a row-wise dot that sums in another order than BLAS changes the last bits
        monkeypatch.setattr(
            spectral, "_dots", lambda u, v: np.einsum("ijk,ijk->i", u, v)
        )
        graphs = [g for s in range(2, 8) for g in enumerate_clique_trees(8, s)]
        batch = spectral_radii(graphs, "complement_adjacency")
        assert all(
            same_bits(p, dominant_eigenpair(adjacency_matrix(complement(g))))
            for p, g in zip(batch, graphs)
        )

    def test_rejects_bad_kind_and_tolerance(self):
        with pytest.raises(GraphError):
            spectral_radii([path_graph(4)], "laplacian")
        with pytest.raises(SpectralError):
            spectral_radii([path_graph(4), path_graph(4)], "adjacency", tol=float("nan"))
        assert spectral_radii([], "adjacency") == []
