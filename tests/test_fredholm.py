from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hankelpde import fredholm, lapack
from hankelpde.companion import companion_profile
from hankelpde.dispersion import DispersionParams
from hankelpde.fredholm import (
    DiscreteKernel,
    PatchError,
    assemble_Q,
    compose,
    evaluate_solution,
    hankel_values,
    hankel_windows,
    kdv_Q,
    make_quadrature,
    nystrom_matrix,
    paired_Q,
    pairings,
    quadrature_rules,
    solve_edges,
    solve_samples,
    x_runs,
)
from hankelpde.gridkernel import InitialDataSpec, make_uniform_grid, sample_profile
from hankelpde.kinds import resolve_kind
from oracles import scenario_stub


def exp_profile(X, M, amp=1.0, rate=1.0):
    g = make_uniform_grid(X, M)
    return sample_profile(InitialDataSpec(kind="exponential", amplitude=[[amp]], rate=rate),
                          g, 1, 1)


def hankel_kernel(p, x, quad):
    """The Hankel block kernel p(xi_i + xi_j + x), a view of p's samples."""
    return DiscreteKernel(quad, hankel_windows(hankel_values(p, x, quad), quad.node_count))


def last_rows(p, x, quad):
    """P_last, the last block row of the sample's P, as (n, K m)."""
    blocks = hankel_kernel(p, x, quad).blocks[-1]
    return blocks.transpose(1, 0, 2).reshape(p.rows, quad.node_count * p.cols)


def dense_edges(Q, p, x, threshold=fredholm.PATCH_THRESHOLD):
    """The dense reference of one sample on Q: (det2, G(0,0), G(xi_i,0),
    G(0,xi_j), backward error), from solve_edges' det2, row and Z, with
    the column P Z through the gathered Hankel matrix and the backward
    error measured against the assembled A = I + WQ, not through the
    Hankel operators of Run's own check.  A |det2| below threshold gives
    (det2, None, None, None, nan), as the skipped sample's Edges holds."""
    quad, n, m = Q.quad, p.rows, p.cols
    K = quad.node_count
    P_last = last_rows(p, x, quad)
    A = nystrom_matrix(Q)[0]
    d2, R, Z = solve_edges(Q, P_last, threshold)
    if R is None:
        return d2, None, None, None, float("nan")
    row = R.reshape(n, K, m).transpose(1, 0, 2)
    col = (hankel_kernel(p, x, quad).big() @ Z).reshape(K, n, m)
    col[-1] = row[-1]
    E_last = np.zeros_like(Z)
    E_last[-m:] = np.eye(m)
    berr = max(np.abs(R @ A - P_last).max() / np.abs(P_last).max(), np.abs(A @ Z - E_last).max())
    return d2, row[-1], col, row, float(berr)


def full_G(Q, p, x):
    """G from G (I + WQ) = P with all K*m right-hand sides at once, by
    numpy's own solve: the oracle for the edges dense_edges returns."""
    G_big = np.linalg.solve(nystrom_matrix(Q)[0].T, hankel_kernel(p, x, Q.quad).big().T).T
    return DiscreteKernel.from_big(G_big, Q.quad)


def assert_edges_match(G, edges, tol):
    """dense_edges' centre, column G(xi_i, 0) and row G(0, xi_j) against
    the full G, to tol of its largest entry."""
    _, centre, col, row, _ = edges
    scale = np.abs(G.blocks).max()
    for got, want in ((centre, G.blocks[-1, -1]), (col, G.blocks[:, -1]),
                      (row, G.blocks[-1, :])):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * scale


def test_make_quadrature_example():
    q = make_quadrature(1.0, 4, 0.25)
    assert np.allclose(q.nodes, [-1.0, -0.75, -0.5, -0.25, 0.0])
    assert np.allclose(q.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert abs(q.weights.sum() - q.truncation) < 1e-15
    assert q.stride == 1


def test_make_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        make_quadrature(1.0, 4, 0.3)  # incommensurate
    with pytest.raises(ValueError):
        make_quadrature(1.0, 2, 0.25)  # tiny N
    with pytest.raises(ValueError):
        make_quadrature(-1.0, 8, 0.25)
    with pytest.raises(ValueError):
        make_quadrature(1.0, 8, 0.25)  # h = 0.125 < h_x


def test_hankel_rhs_bitwise_symmetry():
    p = exp_profile(8.0, 64, amp=0.7 + 0.2j)
    quad = make_quadrature(2.0, 8, p.grid.spacing)
    k = hankel_kernel(p, 0.5, quad)
    assert np.array_equal(k.blocks[0, 3], k.blocks[3, 0])
    assert np.array_equal(k.blocks[2, 5], k.blocks[4, 3])
    assert k.blocks.shape == (9, 9, 1, 1)


def test_hankel_rhs_domain_overflow():
    p = exp_profile(8.0, 64)
    quad = make_quadrature(2.0, 8, p.grid.spacing)
    with pytest.raises(ValueError):
        hankel_kernel(p, -6.0, quad)  # x - 2L below -X
    with pytest.raises(ValueError):
        hankel_kernel(p, 8.0, quad)  # x beyond the last master node


def test_hankel_kernels_are_views_and_realness_is_exact():
    # the K x K blocks are strided views of the profile samples, never
    # gathered; exactly real windows are read as real, and a single tiny
    # imaginary part keeps the window complex
    g = make_uniform_grid(8.0, 64)
    vals = np.exp(-g.nodes ** 2).astype(complex)[:, None, None]
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 1, 1)
    quad = make_quadrature(2.0, 8, g.spacing)
    k = hankel_kernel(p, 0.5, quad)
    assert np.shares_memory(k.blocks, p.samples)
    assert not k.blocks.flags.writeable
    assert k.blocks.dtype == np.float64
    assert hankel_values(p, 0.5, quad).dtype == np.float64
    noisy = vals.copy()
    noisy[g.node_index(0.0), 0, 0] += 1e-18j
    p = sample_profile(InitialDataSpec(kind="tabulated", values=noisy), g, 1, 1)
    assert hankel_values(p, 0.5, quad).dtype == np.complex128
    assert hankel_kernel(p, 0.5, quad).blocks.dtype == np.complex128


def test_assemble_Q_zero_profile():
    g = make_uniform_grid(8.0, 64)
    z = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    quad = make_quadrature(2.0, 8, g.spacing)
    Q = assemble_Q(z, z, 0.0, quad)
    assert np.all(Q.blocks == 0.0)


def test_assemble_Q_dimension_check():
    g = make_uniform_grid(8.0, 64)
    vals = np.zeros((64, 2, 3), dtype=complex)
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 2, 3)
    quad = make_quadrature(2.0, 8, g.spacing)
    with pytest.raises(ValueError):
        assemble_Q(p, p, 0.0, quad)


def test_compose_is_the_weighted_block_product():
    # rectangular, non-commuting blocks: (K, K, 2, 3) composed with (K, K, 3, 1)
    g = make_uniform_grid(8.0, 64)
    quad = make_quadrature(2.0, 8, g.spacing)
    K = quad.node_count
    rng = np.random.default_rng(3)
    A = rng.standard_normal((K, K, 2, 3)) + 1j * rng.standard_normal((K, K, 2, 3))
    B = rng.standard_normal((K, K, 3, 1)) + 1j * rng.standard_normal((K, K, 3, 1))
    C = compose(DiscreteKernel(quad, A), DiscreteKernel(quad, B))
    want = np.einsum("k,ikab,kjbc->ijac", quad.weights, A, B)
    assert C.quad is quad and C.blocks.shape == (K, K, 2, 1)
    assert np.abs(C.blocks - want).max() <= 1e-13


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("N", [4, 7, 24])
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 2)],
                         ids=lambda d: "%dx%d.%dx%d" % (d[0], d[1], d[1], d[2]))
def test_assemble_Q_matches_compose_of_the_hankel_kernels(dims, N, cplx):
    # the O(K^2) displacement build against the O(K^3) quadrature product,
    # with a x n companion blocks and n x m data blocks
    a, n, m = dims
    g = make_uniform_grid(8.0, 256)
    rng = np.random.default_rng(N + 10 * a + 100 * m)
    env = np.exp(-g.nodes ** 2 / 4.0)[:, None, None]

    def profile(rows, cols):
        vals = rng.standard_normal((256, rows, cols))
        if cplx:
            vals = vals + 1j * rng.standard_normal((256, rows, cols))
        return sample_profile(InitialDataSpec(kind="tabulated", values=env * vals),
                              g, rows, cols)

    p, ptil = profile(n, m), profile(a, n)
    quad = make_quadrature(N * g.spacing * 2, N, g.spacing)
    Q = assemble_Q(p, ptil, 0.375, quad)
    want = compose(hankel_kernel(ptil, 0.375, quad), hankel_kernel(p, 0.375, quad))
    assert Q.quad is quad
    assert Q.blocks.shape == want.blocks.shape == (N + 1, N + 1, a, m)
    assert Q.blocks.dtype == want.blocks.dtype == (np.complex128 if cplx else np.float64)
    assert np.abs(Q.blocks - want.blocks).max() <= 1e-13 * np.abs(want.blocks).max()


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("N", [4, 7, 24])
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 2)],
                         ids=lambda d: "%dx%d.%dx%d" % (d[0], d[1], d[1], d[2]))
def test_windows_of_the_extended_Q_are_the_per_sample_Q(dims, N, cplx):
    # x + l h shifts every node by l, so the window of the kernel built at
    # x with an extension of e nodes, read from node l, is the Q of x + l h
    a, n, m = dims
    g = make_uniform_grid(8.0, 256)
    rng = np.random.default_rng(N + 10 * a + 100 * m + 1000 * cplx)
    env = np.exp(-g.nodes ** 2 / 4.0)[:, None, None]

    def profile(rows, cols):
        vals = rng.standard_normal((256, rows, cols))
        if cplx:
            vals = vals + 1j * rng.standard_normal((256, rows, cols))
        return sample_profile(InitialDataSpec(kind="tabulated", values=env * vals),
                              g, rows, cols)

    p, ptil = profile(n, m), profile(a, n)
    quad = make_quadrature(N * g.spacing * 2, N, g.spacing)
    K, x = N + 1, 0.375
    assert assemble_Q(p, ptil, x, quad, 0).blocks.shape == (K, K, a, m)
    wants = [assemble_Q(p, ptil, x + l * quad.spacing, quad).blocks for l in range(N + 1)]
    for e in range(1, N + 1):
        ext = assemble_Q(p, ptil, x, quad, e)
        assert ext.quad is quad and ext.blocks.shape == (K + e, K + e, a, m)
        for l in range(e + 1):
            got = ext.window(l)
            assert got.quad is quad and got.blocks.shape == (K, K, a, m)
            assert got.blocks.dtype == (np.complex128 if cplx else np.float64)
            want = wants[l]
            assert np.abs(got.blocks - want).max() <= 1e-13 * np.abs(want).max()


def test_x_runs_split_on_the_rule_spacing_and_its_span():
    # master spacing 1/16 and h = 2 master steps, N = 4: a run holds
    # samples a whole number of h apart, wherever they sit in xs,
    # spanning at most N h
    g = make_uniform_grid(8.0, 256)
    quad = make_quadrature(0.5, 4, g.spacing)
    h = quad.spacing

    def runs(steps):
        return x_runs(np.asarray(steps) * h, g, quad)

    assert runs(np.arange(7)) == [(0.0, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
                                  (5 * h, [5, 6], [0, 1])]
    # dx = 1.5 h: every second sample shares a lattice
    assert runs(1.5 * np.arange(4)) == [(0.0, [0, 2], [0, 3]), (1.5 * h, [1, 3], [0, 3])]
    assert runs([0, 1, 2, 3.5, 4.5, 5]) == [(0.0, [0, 1, 2], [0, 1, 2]), (5 * h, [5], [0]),
                                            (3.5 * h, [3, 4], [0, 1])]
    # the offsets count from the run's leftmost sample, ascending, each
    # with its sample's index in xs; a repeated x keeps its xs order
    assert runs([2, 1, 0, -2, 3]) == [(-2 * h, [3, 2, 1, 0], [0, 2, 3, 4]), (3 * h, [4], [0])]
    assert runs([1, 0, 1]) == [(0.0, [1, 0, 2], [0, 1, 1])]
    assert runs([0]) == [(0.0, [0], [0])]
    # a sample off the master nodes is refused, as hankel_values refuses it
    with pytest.raises(ValueError):
        x_runs([0.01], g, quad)


def discrete_tail_sum(quad, rate=1.0):
    # trapezoid value of int_{-L}^0 e^{2*rate*xi} dxi, the exact discrete
    # counterpart of the closed form 1/(2*rate)
    return float((quad.weights * np.exp(2.0 * rate * quad.nodes)).sum())


def test_assemble_Q_rank_one_closed_form():
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    Q = assemble_Q(p, p, 0.0, quad)
    q00 = Q.blocks[-1, -1][0, 0].real
    # continuum value 1/2, discrete trapezoid value matches to 1e-12
    assert abs(q00 - 0.5) <= 1e-3
    assert abs(q00 - discrete_tail_sum(quad)) <= 1e-12


def test_assemble_Q_off_center_value():
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    Q = assemble_Q(p, p, 1.0, quad)
    i = quad.intervals - 8  # node xi = -0.5
    assert abs(quad.nodes[i] + 0.5) < 1e-12
    val = Q.blocks[i, i][0, 0].real
    assert abs(val - np.exp(1.0) / 2.0) <= 5e-3
    assert abs(val - np.exp(1.0) * discrete_tail_sum(quad)) <= 1e-11


def test_assemble_Q_trapezoid_second_order():
    p = exp_profile(32.0, 2048)
    errs = []
    for N in (120, 240, 480):
        quad = make_quadrature(15.0, N, p.grid.spacing)
        Q = assemble_Q(p, p, 0.0, quad)
        errs.append(abs(Q.blocks[-1, -1][0, 0].real - 0.5))
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_kdv_Q_values():
    p = exp_profile(16.0, 256, amp=-1.0)
    quad = make_quadrature(4.0, 16, p.grid.spacing)
    Q = kdv_Q(p, 0.0, quad)
    assert abs(Q.blocks[-1, -1][0, 0] - 1.0) < 1e-12
    assert np.array_equal(Q.blocks[2, 5], Q.blocks[5, 2])
    g = make_uniform_grid(16.0, 256)
    rect = sample_profile(InitialDataSpec(kind="tabulated",
                                          values=np.zeros((256, 1, 2), dtype=complex)),
                          g, 1, 2)
    with pytest.raises(ValueError):
        kdv_Q(rect, 0.0, quad)


def test_det2_identity_and_rank_one():
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    zero = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                          make_uniform_grid(32.0, 1024), 1, 1)
    Q0 = assemble_Q(zero, zero, 0.0, quad)
    assert dense_edges(Q0, p, 0.0)[0] == 1.0
    d2 = dense_edges(assemble_Q(p, p, 0.0, quad), p, 0.0)[0]
    lam = 0.25
    want = (1.0 + lam) * np.exp(-lam)
    assert abs(d2 - want) <= 1e-3
    # exact discrete counterpart: WQ is rank one with eigenvalue S^2,
    # one tail-sum factor from the Q quadrature and one from the trace
    lam_d = discrete_tail_sum(quad) ** 2
    want_d = (1.0 + lam_d) * np.exp(-lam_d)
    assert abs(d2 - want_d) <= 1e-11


def test_solve_G_identity_system():
    g = make_uniform_grid(8.0, 64)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((64, 1, 1)) * np.exp(-np.abs(g.nodes))[:, None, None] + 0j
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 1, 1)
    quad = make_quadrature(2.0, 8, g.spacing)
    zero = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                          g, 1, 1)
    Q = assemble_Q(zero, zero, 0.0, quad)
    G = full_G(Q, p, 0.0)
    rhs = hankel_kernel(p, 0.0, quad)
    assert np.abs(G.blocks - rhs.blocks).max() <= 1e-14
    assert_edges_match(G, dense_edges(Q, p, 0.0), 1e-14)


def rank_one_center(quad, p, x):
    return dense_edges(assemble_Q(p, p, x, quad), p, x)[1][0, 0]


def test_solve_G_rank_one_discrete_oracle():
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    for x in (-1.0, 0.0, 1.0):
        got = rank_one_center(quad, p, x)
        theta = np.exp(x)
        gamma_d = theta / (1.0 + theta ** 2 * discrete_tail_sum(quad) ** 2)
        assert abs(got - gamma_d) <= 1e-12
    # continuum values to trapezoid accuracy
    assert abs(rank_one_center(quad, p, 0.0) - 0.8) <= 1e-3
    want1 = np.exp(1.0) / (1.0 + np.exp(2.0) / 4.0)
    assert abs(rank_one_center(quad, p, 1.0) - want1) <= 5e-3


def test_solve_G_rank_one_richardson():
    p = exp_profile(28.0, 4480)
    h_x = p.grid.spacing
    coarse = make_quadrature(12.8, 512, h_x)
    fine = make_quadrature(12.8, 1024, h_x)
    for x, want in ((0.0, 0.8), (1.0, np.exp(1.0) / (1.0 + np.exp(2.0) / 4.0))):
        g1 = rank_one_center(coarse, p, x)
        g2 = rank_one_center(fine, p, x)
        extrap = (4.0 * g2 - g1) / 3.0
        assert abs(extrap - want) <= 1e-7


def test_truncation_control():
    p = exp_profile(42.0, 1344)
    h_x = p.grid.spacing
    a = rank_one_center(make_quadrature(10.0, 160, h_x), p, 0.0)
    b = rank_one_center(make_quadrature(20.0, 320, h_x), p, 0.0)
    assert abs(a - b) <= 1e-7


def test_nystrom_residual_small():
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    Q = assemble_Q(p, p, 0.5, quad)
    assert dense_edges(Q, p, 0.5)[4] <= 1e-10


def test_solve_G_takes_its_rule_from_the_kernel():
    # Q carries its quadrature rule; a rule passed in the fourth position,
    # the patch threshold's, is refused rather than compared as a number
    g = make_uniform_grid(8.0, 64)
    quad = make_quadrature(2.0, 8, g.spacing)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5]], width=1.0), g, 1, 1)
    Q = assemble_Q(p, p, 0.0, quad)
    assert dense_edges(Q, p, 0.0)[2].shape == (quad.node_count, 1, 1)
    with pytest.raises(TypeError):
        solve_edges(Q, last_rows(p, 0.0, quad), quad)


def test_patch_error_near_rank_one_singularity():
    # positive exponential KdV data hits the rank-one pole where
    # theta * (discrete tail sum) = 1, i.e. theta close to 2
    p = exp_profile(32.0, 1024)
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    S = discrete_tail_sum(quad)
    x_star = -np.log(S)  # theta = e^{x} = 1/S
    assert abs(np.exp(x_star) - 2.0) < 0.01
    Q = kdv_Q(p, round(x_star / p.grid.spacing) * p.grid.spacing, quad)
    # move exactly onto the singular theta by scaling the profile instead
    g = p.grid
    vals = np.exp(g.nodes)[:, None, None] / (S * np.exp(g.nodes[g.node_index(0.0)]))
    p_star = sample_profile(InitialDataSpec(kind="tabulated", values=vals + 0j), g, 1, 1)
    Q_star = kdv_Q(p_star, 0.0, quad)
    d2, centre, *_ = dense_edges(Q_star, p_star, 0.0)
    assert abs(d2) < 1e-8 and centre is None
    # the sample's record skips it, with the det2 of its own solve
    edges, = solve_samples(p_star, None, [0.0], (quad,))
    assert edges.row is None and abs(edges.det2) < 1e-8


def test_det2_of_an_exactly_singular_system_is_zero():
    # WQ = -I on node 0 makes row 0 of I + WQ exactly zero (weights of
    # L = 2, N = 4 are powers of two)
    quad = make_quadrature(2.0, 4, 0.5)
    blocks = np.zeros((5, 5, 1, 1))
    blocks[0, 0] = -1.0 / quad.weights[0]
    Q = DiscreteKernel(quad, blocks)
    g = make_uniform_grid(8.0, 32)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5]], width=1.0), g, 1, 1)
    d2, centre, *_ = dense_edges(Q, p, 0.0)
    assert d2 == 0.0 and centre is None


def kdv_scenario(xs, ts, amp=-1.0, richardson=True):
    X, M = 28.0, 4480
    g = make_uniform_grid(X, M)
    quad = make_quadrature(12.8, 512, g.spacing)
    return scenario_stub(
        kind=resolve_kind("kdv_primitive"), grid=g, quad=quad, richardson=richardson,
        initial=InitialDataSpec(kind="exponential", amplitude=[[amp]], rate=1.0),
        xs=np.asarray(xs), ts=np.asarray(ts))


def test_evaluate_solution_zero_data():
    g = make_uniform_grid(8.0, 64)
    quad = make_quadrature(2.0, 8, g.spacing)
    sc = scenario_stub(kind=resolve_kind("local_nls"), grid=g, quad=quad,
                       initial=InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       xs=np.array([-1.0, 0.0, 1.0]), ts=np.array([0.0, 0.1]))
    field, report = evaluate_solution(sc)
    assert np.all(field.center == 0.0)
    assert np.all(report.det2 == 1.0)
    assert not report.any_below


def test_evaluate_solution_kdv_closed_form():
    sc = kdv_scenario(xs=[0.0], ts=[0.0])
    field, report = evaluate_solution(sc)
    got = field.center[0, 0, 0, 0]
    assert abs(got - (-2.0 / 3.0)) <= 1e-6
    assert not report.any_below
    # the same value from the closed form -2*theta/(2+theta), theta = e^{x-t}
    theta = 1.0
    assert abs(got - (-2.0 * theta / (2.0 + theta))) <= 1e-6


def test_evaluate_solution_kdv_family_values():
    sc = kdv_scenario(xs=[-0.5, 0.0, 0.5], ts=[-0.25, 0.0, 0.25])
    field, _ = evaluate_solution(sc)
    for it, t in enumerate(sc.ts):
        for ix, x in enumerate(sc.xs):
            theta = np.exp(x - t)
            want = -2.0 * theta / (2.0 + theta)
            assert abs(field.center[it, ix, 0, 0] - want) <= 1e-6


def test_evaluate_solution_nls_rank_one():
    X, M = 28.0, 4480
    g = make_uniform_grid(X, M)
    quad = make_quadrature(12.8, 512, g.spacing)
    sc = scenario_stub(kind=resolve_kind("local_nls"), grid=g, quad=quad, richardson=True,
                       initial=InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=1.0),
                       xs=np.array([0.0]), ts=np.array([0.0]))
    field, _ = evaluate_solution(sc)
    assert abs(field.center[0, 0, 0, 0] - 0.8) <= 1e-6


def test_evaluate_solution_patch_skip_and_propagate():
    # positive data runs into the theta ~ 2 pole; pick t so that one
    # sample sits essentially on it
    X, M = 28.0, 4480
    g = make_uniform_grid(X, M)
    quad = make_quadrature(12.8, 512, g.spacing)
    S = float((quad.weights * np.exp(2.0 * quad.nodes)).sum())
    t_star = np.log(S)  # theta(0, t*) = e^{-t*} = 1/S at x = 0
    sc = scenario_stub(kind=resolve_kind("kdv_primitive"), grid=g, quad=quad,
                       richardson=False,
                       initial=InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=1.0),
                       xs=np.array([0.0]), ts=np.array([t_star - 0.4, t_star, t_star + 0.4]))
    field, report = evaluate_solution(sc)
    assert report.any_below
    assert len(report.skipped) == 1
    it, ix, t, x, d2, reason = report.skipped[0]
    assert reason == "det2"
    assert (it, ix) == (1, 0)
    assert np.isnan(field.center[1, 0, 0, 0].real)
    assert np.isfinite(field.center[0, 0, 0, 0].real)
    with pytest.raises(PatchError) as info:
        evaluate_solution(sc, skip_on_patch_error=False)
    assert info.value.t == pytest.approx(t_star)


def test_evaluate_solution_thread_determinism():
    sc = kdv_scenario(xs=[-0.5, 0.0, 0.5], ts=[-0.2, 0.0, 0.2], richardson=False)
    f1, r1 = evaluate_solution(sc, threads=1)
    f3, r3 = evaluate_solution(sc, threads=3)
    assert np.array_equal(f1.center, f3.center)
    assert np.array_equal(r1.det2, r3.det2)
    assert np.array_equal(f1.slice_y, f3.slice_y)


def test_evaluate_solution_slices_match_center():
    sc = kdv_scenario(xs=[0.0], ts=[0.0], richardson=False)
    field, _ = evaluate_solution(sc)
    assert np.array_equal(field.slice_y[0, 0, -1], field.center[0, 0])
    assert np.array_equal(field.slice_z[0, 0, -1], field.center[0, 0])


def test_evaluate_solution_richardson_is_two_plain_runs_combined():
    # richardson=True must equal (4*fine - coarse)/3 of plain runs at N and
    # 2N, the fine slices read at every second node and det2 the fine one;
    # the kdv stub takes the kdv_Q path, the coupled one assemble_Q and
    # the role-swapped partner solve
    g = make_uniform_grid(20.0, 320)
    xs = 0.25 * np.arange(-1, 2)
    ts = np.array([-0.01, 0.0, 0.01])
    cases = (dict(kind=resolve_kind("kdv_primitive"),
                  initial=InitialDataSpec(kind="exponential", amplitude=[[-1.0]],
                                          rate=1.0)),
             dict(kind=resolve_kind("coupled_diffusion"), n=2, m=1,
                  initial=InitialDataSpec(kind="gaussian", amplitude=[[0.6], [0.3]],
                                          width=1.0)))
    for kw in cases:
        def run(N, richardson):
            quad = make_quadrature(6.0, N, g.spacing)
            return evaluate_solution(scenario_stub(grid=g, quad=quad, xs=xs, ts=ts,
                                                   richardson=richardson, **kw))
        rich, report = run(24, True)
        coarse, _ = run(24, False)
        fine, fine_report = run(48, False)
        assert not report.any_below
        assert np.array_equal(rich.center, (4.0 * fine.center - coarse.center) / 3.0)
        assert np.array_equal(rich.slice_y,
                              (4.0 * fine.slice_y[:, :, ::2] - coarse.slice_y) / 3.0)
        assert np.array_equal(rich.slice_z,
                              (4.0 * fine.slice_z[:, :, ::2] - coarse.slice_z) / 3.0)
        assert np.array_equal(report.det2, fine_report.det2)
        if kw["kind"].coupled:
            assert rich.center_tilde.shape == (3, 3, 1, 2)
            assert np.array_equal(rich.center_tilde,
                                  (4.0 * fine.center_tilde - coarse.center_tilde) / 3.0)


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize("pairing", ["neg_identity", "rectangular", "role_swap"])
def test_solve_origin_edges_match_full_solve(pairing, richardson):
    # the narrow row/column solves against the full K*m-column numpy
    # solve: 2x2 data on the neg_identity pairing, 2x1 data with its 1x2
    # adjoint companion (a reshape slip between n and m cannot hide), and
    # the same pairing with its roles swapped, which solves with the 1x2
    # profile on the left
    g = make_uniform_grid(8.0, 256)
    if pairing == "neg_identity":
        p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]],
                                           width=1.0), g, 2, 2)
        ptil = None
    else:
        p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.6], [0.3 + 0.2j]],
                                           width=1.0), g, 2, 1)
        ptil = companion_profile(p, "adjoint")
        if pairing == "role_swap":
            p, ptil = ptil, p
    x = 0.375
    rules = quadrature_rules(make_quadrature(2.0, 16, g.spacing), richardson)
    got, = solve_samples(p, ptil, [x], rules)
    d2, col, row, berr, ranks = got.det2, got.col, got.row, got.berr, got.ranks
    centre = row[-1]
    # the role swap's fine rule (k = 66) has rank 11 <= 66 // 4 and goes
    # low-rank; every other rule's rank passes k/4, so it solves dense
    assert ranks == ((None, 11) if (pairing, richardson) == ("role_swap", True)
                     else (None,) * len(rules))

    full = []
    for quad in rules:
        Q = kdv_Q(p, x, quad) if ptil is None else assemble_Q(p, ptil, x, quad)
        # real Gaussian data are solved in real arithmetic, the complex
        # adjoint pairings in complex; the oracle always runs in complex
        real = ptil is None
        assert nystrom_matrix(Q)[0].dtype == (np.float64 if real else np.complex128)
        Q = replace(Q, blocks=Q.blocks.astype(complex))
        G = full_G(Q, p, x)
        edges = dense_edges(Q, p, x)
        assert_edges_match(G, edges, 1e-12)
        full.append((edges[0], G.blocks[-1, -1], G.blocks[:, -1], G.blocks[-1, :]))
    if richardson:
        (_, *coarse), (want_d2, f_centre, f_col, f_row) = full
        want = [(4.0 * f - c) / 3.0 for f, c in zip((f_centre, f_col[::2], f_row[::2]), coarse)]
    else:
        want_d2, *want = full[0]

    assert abs(d2 - want_d2) <= 1e-13 * abs(want_d2)
    K = rules[0].node_count
    for got, ref, shape in zip((centre, col, row), want,
                               ((p.rows, p.cols), (K, p.rows, p.cols), (K, p.rows, p.cols))):
        assert got.shape == ref.shape == shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # G(0,0) is one number: the centre and the xi = 0 entry of both slices
    assert np.array_equal(col[-1], centre)
    assert np.array_equal(row[-1], centre)
    assert 0.0 <= berr <= 1e-13


@pytest.mark.parametrize("kind, richardson, per_sample", [
    ("kdv_primitive", True, 2), ("local_nls", False, 1), ("coupled_diffusion", True, 2)])
def test_one_factorisation_per_rule_and_no_dense_composition(kind, richardson, per_sample,
                                                             monkeypatch):
    # per sample and rule, one LU where the dense solve runs and no K*m
    # matmul for Q; the coupled kind reads its partner from the solve at
    # -t, so it factors no more than the others (on a t grid symmetric
    # about 0, every -t is a sample time), and local_nls on real data
    # solves the rows t = 0 and 0.01 only: the row at -0.01 is the
    # conjugate of the one at 0.01, and with complex data all 3 solve
    def no_compose(*args):
        raise AssertionError("compose called on the per-sample path")

    made = []

    class CountedLU(lapack.LU):
        def __init__(self, A):
            made.append(A.shape)
            super().__init__(A)

    monkeypatch.setattr(fredholm, "compose", no_compose)
    monkeypatch.setattr(fredholm, "LU", CountedLU)
    g = make_uniform_grid(20.0, 320)
    n = 2 if kind == "coupled_diffusion" else 1
    sc = scenario_stub(kind=resolve_kind(kind), grid=g, n=n, richardson=richardson,
                       quad=make_quadrature(4.0, 16, g.spacing),
                       initial=InitialDataSpec(kind="gaussian", amplitude=[[0.3]] * n,
                                               width=1.0),
                       xs=np.array([-0.25, 0.25]), ts=np.array([-0.01, 0.0, 0.01]))
    rows = 2 if kind == "local_nls" else 3
    cases = [(sc, rows)]
    if kind == "local_nls":
        complex_data = InitialDataSpec(kind="gaussian", amplitude=[[0.24 + 0.18j]], width=1.0)
        cases.append((SimpleNamespace(**dict(vars(sc), p0=sample_profile(complex_data, g, 1, 1))),
                      3))
    for sc, rows in cases:
        made.clear()
        field_out, report = evaluate_solution(sc)
        assert not report.any_below
        assert len(field_out.copies) == 3 - rows
        assert report.dense_solves + report.lowrank_solves == 2 * rows * per_sample
        assert report.lowrank_solves == 0
        assert len(made) == report.dense_solves


def test_pairings_evolve_each_distinct_time_once(monkeypatch):
    calls = []

    def counted(p, params, t):
        calls.append(t)
        return evolve(p, params, t)

    evolve = fredholm.evolve
    monkeypatch.setattr(fredholm, "evolve", counted)
    g = make_uniform_grid(8.0, 64)
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5]], width=1.0), g, 1, 1)
    params = DispersionParams(mu1=-1j, mu2=0.0)
    ts = [-0.5, -0.25, 0.0, 0.25, 0.5, 0.25]
    pairs = pairings(p0, params, "transpose_rev_time", ts)
    assert sorted(calls) == sorted(set(ts))
    assert pairs[3][0] is pairs[5][0]
    for t, (p_t, ptil) in zip(ts, pairs):
        mirror = pairs[ts.index(-t)][0]
        assert np.array_equal(ptil.samples,
                              companion_profile(mirror, "transpose_rev_time").samples)
    calls.clear()
    pairings(p0, params, "adjoint", ts)
    assert sorted(calls) == sorted(set(ts))
    # so does a threaded run, time-reversed or not; local_nls on real
    # data evolves only the times t >= 0, whose rows the rows at -t
    # conjugate, and every time with complex data
    for kind, amplitude, times in (("rev_time_nls", 0.5, set(ts)),
                                   ("local_nls", 0.5, {t for t in ts if t >= 0}),
                                   ("local_nls", 0.3 + 0.4j, set(ts))):
        calls.clear()
        sc = scenario_stub(kind=resolve_kind(kind), grid=g,
                           quad=make_quadrature(2.0, 8, g.spacing),
                           initial=InitialDataSpec(kind="gaussian", amplitude=[[amplitude]],
                                                   width=1.0),
                           xs=np.array([0.0]), ts=np.array(ts))
        evaluate_solution(sc, threads=2)
        assert sorted(calls) == sorted(times)


def test_evaluate_solution_runs_blas_at_one_thread_and_restores_it(monkeypatch):
    have = lapack._routines()
    get, put = have["openblas_get_num_threads"], have["openblas_set_num_threads"]
    seen = []
    solve = fredholm.solve_samples

    def recorded(*args):
        seen.append(get())
        return solve(*args)

    monkeypatch.setattr(fredholm, "solve_samples", recorded)
    sc = kdv_scenario(xs=[0.0], ts=[-0.1, 0.0, 0.1], richardson=False)
    old = get()
    put(2)
    try:
        _, report = evaluate_solution(sc, threads=8)
        assert get() == 2
    finally:
        put(old)
    assert seen == [1, 1, 1]
    assert report.workers == min(8, lapack.cores()) and report.blas_threads == 1
    monkeypatch.setattr(lapack, "_routines", lambda: {})
    _, report = evaluate_solution(sc, threads=1)
    assert report.workers == 1 and report.blas_threads is None


def lowrank_case(name):
    """(p, ptil, x, quad) of a system with k = K m from 385 to 386
    unknowns, Hankel data of low numerical rank; the master grid
    also holds the 2N rule, except for the backward heat flow, which
    needs a coarse grid to keep round-off in its top modes small."""
    coupled = name == "coupled_role_swap"
    g = make_uniform_grid(28.0, 896) if coupled else make_uniform_grid(20.0, 3840)
    amp = [[0.5, 0.32], [0.1, 0.4]]
    if name == "kdv_real":  # rank one, real arithmetic, Q = -P
        p0 = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[-1.0]], rate=1.0),
                            g, 1, 1)
        kind, N = "kdv_primitive", 384
    elif name == "neg_identity_2x2":  # real, Q = -P, 2 x 2 blocks
        p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp, width=1.0), g, 2, 2)
        kind, N = "kdv_primitive", 192
    elif name == "mkdv_real":  # real data under a real flow stay real
        p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.75]], width=1.0),
                            g, 1, 1)
        kind, N = "local_mkdv", 384
    elif name == "nls_complex":
        p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.75]], width=1.0),
                            g, 1, 1)
        kind, N = "local_nls", 384
    elif name == "nls_2x2":
        p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp, width=1.0), g, 2, 2)
        kind, N = "local_nls", 192
    else:  # coupled_role_swap: the coupled partner's 1x2 data on its 2x1 companion
        p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.6], [0.3]],
                                            width=1.0), g, 2, 1)
        kind, N = "coupled_diffusion", 192
    k = resolve_kind(kind)
    (p, ptil), = pairings(p0, k.params, k.companion, [0.005])
    if name == "coupled_role_swap":
        p, ptil = ptil, p
    quad = make_quadrature(12.0 if coupled else 8.0, N, g.spacing)
    return p, ptil, 0.25, quad


LOWRANK_CASES = ["kdv_real", "neg_identity_2x2", "mkdv_real", "nls_complex", "nls_2x2",
                 "coupled_role_swap"]


def assert_same_edges(got, want, tol):
    """An Edges record agrees with a dense_edges tuple: det2 to tol
    relative, the centre and both slices to tol of the row's largest
    entry."""
    assert abs(got.det2 - want[0]) <= tol * abs(want[0])
    scale = np.abs(want[3]).max()
    for a, b in zip((got.row[-1], got.col, got.row), want[1:4]):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= tol * scale


def assert_dense_solve(edges, Q, p, x, threshold=fredholm.PATCH_THRESHOLD):
    """edges is the dense solve of Q: det2 and the row bitwise as
    solve_edges gives them, the column to round-off of dense_edges'."""
    d2, _, col, row, _ = dense_edges(Q, p, x, threshold)
    assert edges.ranks == (None,)
    assert edges.det2 == d2 and np.array_equal(edges.row, row)
    assert np.abs(edges.col - col).max() <= 1e-13 * np.abs(row).max()


def assert_identical(a, b):
    """Two Edges records hold the same bits (a skip's None slices and NaN
    backward error included)."""
    assert (a.det2, a.ranks) == (b.det2, b.ranks)
    assert np.array_equal(a.berr, b.berr, equal_nan=True)
    assert np.array_equal(a.col, b.col) and np.array_equal(a.row, b.row)


@pytest.mark.parametrize("name", LOWRANK_CASES)
def test_lowrank_solve_matches_the_dense_oracle(name):
    p, ptil, x, quad = lowrank_case(name)
    k = quad.node_count * p.cols
    run = fredholm.Run(p, ptil, x, quad)
    edges, = run.solve([0])
    rank, = edges.ranks
    assert rank is not None and rank == run.rank
    dense = dense_edges(paired_Q(p, ptil, x, quad), p, x)
    assert_same_edges(edges, dense, 1e-12)
    assert 1 <= rank <= k // 4
    assert rank == 1 if name == "kdv_real" else rank > 1
    assert 0.0 < edges.berr <= 1e-13
    # real pairings stay real, complex ones complex, as in the dense solve
    real = name in ("kdv_real", "neg_identity_2x2", "mkdv_real", "coupled_role_swap")
    assert np.isrealobj(edges.col) == np.isrealobj(dense[2]) == real
    assert np.array_equal(edges.col[-1], edges.row[-1])
    # solve_samples takes the low-rank path at this size
    got, = solve_samples(p, ptil, [x], (quad,))
    assert got.ranks == (rank,)
    assert_same_edges(got, dense, 1e-12)


def test_lowrank_richardson_matches_the_dense_oracle():
    p, ptil, x, quad = lowrank_case("kdv_real")
    rules = quadrature_rules(quad, True)
    edges, = solve_samples(p, ptil, [x], rules)
    assert edges.ranks == (1, 1)
    (_, *coarse, _), (want_d2, *fine, _) = [dense_edges(paired_Q(p, ptil, x, q), p, x)
                                            for q in rules]
    fine[1], fine[2] = fine[1][::2], fine[2][::2]
    assert abs(edges.det2 - want_d2) <= 1e-12 * abs(want_d2)
    for got, f, c in zip((edges.row[-1], edges.col, edges.row), fine, coarse):
        want = (4.0 * f - c) / 3.0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert edges.berr <= 1e-13


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (2, 1), (1, 3)])
def test_hankel_fft_applies_the_block_hankel_matrix(a, b, real):
    # from both sides, against the gathered block Hankel matrix; a real
    # H also takes complex operands
    K = 37
    rng = np.random.default_rng(10 * a + b)
    vals = rng.standard_normal((2 * K - 1, a, b))
    if not real:
        vals = vals + 1j * rng.standard_normal(vals.shape)
    H = DiscreteKernel(None, hankel_windows(vals, K)).big()
    op = fredholm.HankelFFT(vals)
    Y = rng.standard_normal((K * b, 3)) + 1j * rng.standard_normal((K * b, 3))
    Yl = rng.standard_normal((4, K * a)) + 1j * rng.standard_normal((4, K * a))
    for got, want in ((op.right(Y), H @ Y), (op.right(Y.real), H @ Y.real),
                      (op.left(Yl), Yl @ H), (op.left(Yl.real), Yl.real @ H)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.isrealobj(op.right(Y.real)) == real
    assert op.size >= 2 * K - 1


@pytest.mark.parametrize("kind, richardson, per_sample", [
    ("kdv_primitive", True, 2), ("local_nls", False, 1), ("coupled_diffusion", False, 1)])
def test_lowrank_path_forms_no_dense_system(kind, richardson, per_sample, monkeypatch):
    # on the low-rank path nothing builds Q or I + WQ or factors a k x k
    # matrix, and the results are the unpatched run's; the coupled
    # partner is the solve at -t, so it adds no system, and local_nls on
    # real data solves 2 of the 3 rows (the row at -t is the conjugate of
    # the one at t)
    coupled = kind == "coupled_diffusion"
    g = make_uniform_grid(28.0, 896) if coupled else make_uniform_grid(20.0, 3840)
    if kind == "kdv_primitive":
        n, N = 1, 384
        initial = InitialDataSpec(kind="exponential", amplitude=[[-1.0]], rate=1.0)
    else:
        n, N = 2, 192
        initial = InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]],
                                  width=1.0)
    sc = scenario_stub(kind=resolve_kind(kind), grid=g, n=n, m=n, richardson=richardson,
                       quad=make_quadrature(12.0 if coupled else 8.0, N, g.spacing),
                       initial=initial,
                       xs=np.array([-0.25, 0.25]),
                       # the backward heat flow lifts round-off in the top
                       # modes, and with it the numerical rank, as t grows
                       ts=np.array([-1.0, 0.0, 1.0]) * (5e-4 if coupled else 5e-3))
    want, want_report = evaluate_solution(sc)

    def refused(*args, **kwargs):
        raise AssertionError("dense system built on the low-rank path")

    for name in ("assemble_Q", "kdv_Q", "paired_Q", "nystrom_matrix", "compose",
                 "solve_edges", "LU"):
        monkeypatch.setattr(fredholm, name, refused)
    monkeypatch.setattr(lapack, "LU", refused)
    got, report = evaluate_solution(sc)
    assert not report.any_below
    assert report.dense_solves == 0
    rows = 2 if kind == "local_nls" else 3
    assert report.lowrank_solves == 2 * rows * per_sample == len(report.ranks)
    assert report.ranks == want_report.ranks
    assert np.array_equal(got.center, want.center)
    assert np.array_equal(report.det2, want_report.det2)
    assert np.all(report.backward_error <= 1e-13)


def test_fallback_to_dense_when_the_rank_passes_a_quarter_of_k():
    # 2x2 NLS data at k = 66 need a rank above 66 // 4: the range finder
    # gives up and the dense solve runs
    p, ptil, x, _ = lowrank_case("nls_2x2")
    quad = make_quadrature(8.0, 32, p.grid.spacing)
    assert fredholm._range_basis(fredholm.HankelFFT(hankel_values(p, x, quad)), 16) is None
    run = fredholm.Run(p, ptil, x, quad)
    assert run.rank is None and run.U is None
    edges, = run.solve([0])
    assert_dense_solve(edges, paired_Q(p, ptil, x, quad), p, x)


def test_a_failed_range_finder_stops_before_orthogonalising_past_the_limit(monkeypatch):
    # 2x2 NLS data at k = 66: the first round's 8 probes add 8
    # directions, and the second round's 16 would pass 66 // 4 = 16, so
    # it gives up before its QR; a finder whose rank holds is unchanged
    # by the early exit
    p, _, x, _ = lowrank_case("nls_2x2")
    H = fredholm.HankelFFT(hankel_values(p, x, make_quadrature(8.0, 32, p.grid.spacing)))
    qr = np.linalg.qr
    made = []

    def counted(a, *args, **kwargs):
        made.append(a.shape[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    assert fredholm._range_basis(H, 16) is None
    assert made == [8]
    made.clear()
    assert fredholm._range_basis(H, H.R * H.a).shape[1] == sum(made) > 16


@pytest.mark.parametrize("case, rounds, widths", [("rank_one", [8], [1]),
                                                  ("nls_2x2_k258", [8, 16, 32], [8, 16, 6])])
def test_the_sketch_block_doubles_each_round(case, rounds, widths, monkeypatch):
    # rounds of 8, 16, 32, ... probes, and the first round that keeps
    # fewer directions than it drew ends the search: rank-one data end
    # after one round and one QR of width 1; study-shaped 2x2 NLS data at
    # k = 258 keep 8 and 16 directions and end in the third round
    if case == "rank_one":
        p, _, x, quad = lowrank_case("kdv_real")
    else:
        sc, (p, _) = nls_2x2_run(128, np.array([0.25]))
        x, quad = 0.25, sc.quad
    H = fredholm.HankelFFT(hankel_values(p, x, quad))
    svd, qr = np.linalg.svd, np.linalg.qr
    sketched, made = [], []

    def counted_svd(a, *args, **kwargs):
        sketched.append(a.shape[1])
        return svd(a, *args, **kwargs)

    def counted_qr(a, *args, **kwargs):
        made.append(a.shape[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    U = fredholm._range_basis(H, quad.node_count * p.cols // 4)
    assert sketched == rounds and made == widths and U.shape[1] == sum(widths)


def test_fallback_to_dense_when_the_backward_error_passes_the_bound():
    # the run keeps its factors; the sample alone goes dense
    p, ptil, x, quad = lowrank_case("nls_2x2")
    edges, = fredholm.Run(p, ptil, x, quad).solve([0])
    assert edges.ranks[0] is not None and edges.berr > 0.0
    run = fredholm.Run(p, ptil, x, quad)
    dense, = run.solve([0], tol=edges.berr / 2)
    assert run.rank is not None
    assert_dense_solve(dense, paired_Q(p, ptil, x, quad), p, x)


def test_a_coarse_sketch_is_caught_by_the_exact_backward_error(monkeypatch):
    # truncating P at 1e-4 leaves a backward error near 1e-5 against the
    # exact operators (the truncated system itself is solved to round-off),
    # so the low-rank solve is refused and the dense one runs
    p, ptil, x, quad = lowrank_case("nls_2x2")
    monkeypatch.setattr(fredholm, "SKETCH_TOL", 1e-4)
    edges, = fredholm.Run(p, ptil, x, quad).solve([0], tol=1.0)
    assert edges.ranks[0] is not None and edges.berr > 1e-8
    edges, = fredholm.Run(p, ptil, x, quad).solve([0])
    assert edges.ranks == (None,)


def test_lowrank_patch_error_comes_from_a_singular_core(monkeypatch):
    # positive KdV data exactly on the discrete pole: the rank-one core
    # 1 - V W U vanishes, det2 falls below the threshold and the sample is
    # skipped before any solve, as on the dense path, which never runs
    g = make_uniform_grid(20.0, 1920)
    quad = make_quadrature(8.0, 384, g.spacing)
    S = discrete_tail_sum(quad)
    vals = np.exp(g.nodes)[:, None, None] / S
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals + 0j), g, 1, 1)
    run = fredholm.Run(p, None, 0.0, quad)
    assert run.rank == 1

    def refused(*args, **kwargs):
        raise AssertionError("dense solve on the low-rank path")

    monkeypatch.setattr(fredholm, "solve_edges", refused)
    skip, = run.solve([0])
    assert skip.col is None and skip.row is None and np.isnan(skip.berr)
    assert abs(skip.det2) < 1e-8 and skip.ranks == (1,)
    edges, = solve_samples(p, None, [0.0], (quad,))
    assert edges.row is None and edges.det2 == skip.det2


def test_a_dense_skip_is_a_record():
    # 2x2 NLS data at k = 66 solve dense; above every |det2| the sample
    # is skipped with solve_edges' det2, and nothing is solved
    p, ptil, x, _ = lowrank_case("nls_2x2")
    quad = make_quadrature(8.0, 32, p.grid.spacing)
    run = fredholm.Run(p, ptil, x, quad)
    assert run.rank is None
    skip, = run.solve([0], threshold=1e3)
    assert skip.col is None and skip.row is None and np.isnan(skip.berr)
    assert skip.ranks == (None,)
    assert skip.det2 == dense_edges(paired_Q(p, ptil, x, quad), p, x, 1e3)[0]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("rows, cols", [(9, 14), (14, 9), (1, 6), (6, 1)])
def test_hankel_fft_applies_a_rectangular_block_hankel_matrix(rows, cols, real):
    # rows x cols blocks from rows + cols - 1 values, from both sides
    a, b = 2, 1
    rng = np.random.default_rng(rows + 7 * cols)
    vals = rng.standard_normal((rows + cols - 1, a, b))
    if not real:
        vals = vals + 1j * rng.standard_normal(vals.shape)
    H = hankel_windows(vals, cols).transpose(0, 2, 1, 3).reshape(rows * a, cols * b)
    op = fredholm.HankelFFT(vals, rows)
    assert (op.R, op.C) == (rows, cols) and op.size >= len(vals)
    Y = rng.standard_normal((cols * b, 3)) + 1j * rng.standard_normal((cols * b, 3))
    Yl = rng.standard_normal((4, rows * a)) + 1j * rng.standard_normal((4, rows * a))
    for got, want in ((op.right(Y), H @ Y), (op.left(Yl), Yl @ H)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def count_range_finder(monkeypatch):
    """The (H, limit) of every _range_basis call from now on."""
    made = []
    finder = fredholm._range_basis

    def counted(H, limit):
        made.append((H, limit))
        return finder(H, limit)

    monkeypatch.setattr(fredholm, "_range_basis", counted)
    return made


@pytest.mark.parametrize("name", LOWRANK_CASES)
def test_run_factors_are_the_windows_of_each_sample(name):
    # one range finder for the run x + l h, l = 0..e: at every offset,
    # node rows l..l+K-1 of V and T equal the products a one-sample build
    # takes with the same U through the sample's own Hankel operators, U
    # holds the sample's P, and the run's one batched solve gives, at
    # each l, the sample's dense solve, and bitwise what a run of the same
    # data gives that sample solved alone; the run keeps only its basis,
    # so a second batch gives the same records
    p, ptil, x, quad = lowrank_case(name)
    K, n, m = quad.node_count, p.rows, p.cols
    offsets = [0, 1, 2, 7, 24]
    run = fredholm.Run(p, ptil, x, quad, max(offsets))
    run_V, run_T = run._factors()
    assert run_V.shape == (run.rank, K + 24, m) and run.Q is None
    assert np.iscomplexobj(run.U) == (name in ("nls_complex", "nls_2x2"))
    for l in offsets:
        xl = x + l * quad.spacing
        P = fredholm.HankelFFT(hankel_values(p, xl, quad))
        V = run_V[:, l: l + K].reshape(run.rank, K * m)
        want = P.left(run.U.conj().T)
        assert np.abs(V - want).max() <= 1e-13 * np.abs(want).max()
        if ptil is None:
            assert run_T is None
        else:
            Pt = fredholm.HankelFFT(hankel_values(ptil, xl, quad))
            want = Pt.right(np.repeat(quad.weights, n)[:, None] * run.U)
            T = run_T[l: l + K].reshape(K * m, run.rank)
            assert np.abs(T - want).max() <= 1e-13 * np.abs(want).max()
        dense = hankel_kernel(p, xl, quad).big()
        assert np.abs(run.U @ V - dense).max() <= 1e-12 * np.abs(dense).max()
    batch = run.solve(offsets)
    assert len(batch) == len(offsets)
    for first, again in zip(batch, run.solve(offsets)):
        assert_identical(first, again)
    for l, edges in zip(offsets, batch):
        xl = x + l * quad.spacing
        assert edges.ranks == (run.rank,)
        assert_same_edges(edges, dense_edges(paired_Q(p, ptil, xl, quad), p, xl), 1e-12)
        alone, = fredholm.Run(p, ptil, x, quad, max(offsets)).solve([l])
        assert_identical(edges, alone)


EXACT_CASES = {"kdv_scalar": ("kdv_primitive", [[-1.0]], 1),
               "nls_scalar": ("local_nls", [[0.75]], 1),
               "nls_2x2_full_rank": ("local_nls", [[0.5, 0.32], [0.1, 0.4]], 2),
               "nls_2x2_rank_one": ("local_nls", [[0.5, 0.25], [0.2, 0.1]], 1)}


@pytest.mark.parametrize("name", EXACT_CASES)
def test_exponential_data_take_their_basis_from_the_tag(name, monkeypatch):
    # p0 = A e^{s}: H = e^{x} (c kron I) A (d kron I)^T, so the run takes its
    # basis in closed form and calls no range finder; the basis is
    # orthonormal, spans H, has the rank the finder finds on the same H,
    # and the batch matches each sample's dense solve
    kind, amp, rank = EXACT_CASES[name]
    g = make_uniform_grid(20.0, 3840)
    n, m = np.shape(amp)
    p0 = sample_profile(InitialDataSpec(kind="exponential", amplitude=amp, rate=1.0), g, n, m)
    k = resolve_kind(kind)
    (p, ptil), = pairings(p0, k.params, k.companion, [0.005])
    assert p.exp_tag is not None
    quad, x, offsets = make_quadrature(8.0, 384 // n, g.spacing), 0.25, [0, 1, 7, 24]
    K, e = quad.node_count, max(offsets)
    made = count_range_finder(monkeypatch)
    run = fredholm.Run(p, ptil, x, quad, e)
    batch = run.solve(offsets)
    assert made == [] and run.Q is None and run.rank == rank
    U, vals = run.U, hankel_values(p, x, quad, e)
    H = hankel_windows(vals, K + e).transpose(0, 2, 1, 3).reshape(K * n, (K + e) * m)
    assert np.isrealobj(U) == np.isrealobj(vals) == (kind == "kdv_primitive")
    assert np.abs(U.conj().T @ U - np.eye(rank)).max() <= 1e-13
    assert np.abs(U @ (U.conj().T @ H) - H).max() <= 1e-13 * np.abs(H).max()
    assert fredholm._range_basis(run.H, K * m // 4).shape[1] == rank
    for l, edges in zip(offsets, batch):
        xl = x + l * quad.spacing
        assert edges.ranks == (rank,)
        assert_same_edges(edges, dense_edges(paired_Q(p, ptil, xl, quad), p, xl), 1e-12)


@pytest.mark.parametrize("kind, richardson, calls", [
    # per t row: one run of the 5 x samples, on 2 rules or 1, one field
    ("kdv_primitive", True, 10), ("local_nls", False, 6)])
def test_range_finder_runs_once_per_run_rule_and_field(kind, richardson, calls, monkeypatch):
    if kind == "kdv_primitive":
        g, quad = make_uniform_grid(28.0, 3584), 12.0
        n, xs, ts = 1, np.linspace(-2.0, 2.0, 5), np.linspace(-2.0, 2.0, 5)
        # untagged scalar data (ranks 18 to 40): exponential data take
        # their basis from the tag and call no finder, and evolved
        # exponential_step data pass the rank limit and go dense
        initial = InitialDataSpec(kind="gaussian", amplitude=[[-0.75]], width=1.0)
    else:
        g, quad = make_uniform_grid(20.0, 1920), 8.0
        n, xs, ts = 2, np.linspace(-1.0, 1.0, 5), np.linspace(-0.8, 0.8, 6)
        initial = InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]],
                                  width=1.0)
    sc = scenario_stub(kind=resolve_kind(kind), grid=g, n=n, m=n, richardson=richardson,
                       quad=make_quadrature(quad, 384, g.spacing), initial=initial,
                       xs=xs, ts=ts, tolerances={"patch_threshold": 1e-12, "solver_tol": 1e-10})
    made = count_range_finder(monkeypatch)
    # the real local_nls data solve 5 of the 6 rows: the row at -0.8 is
    # the conjugate of the one at 0.8, while linspace leaves -0.48 and
    # -0.16 an ulp off the negatives of their mirrors, so they solve; with
    # a complex amplitude all 6 rows solve
    cases = [(sc, 5 if kind == "local_nls" else ts.size)]
    if kind == "local_nls":
        complex_data = replace(initial, amplitude=[[0.5, 0.2 + 0.25j], [0.1, 0.4]])
        cases.append((SimpleNamespace(**dict(vars(sc), p0=sample_profile(complex_data, g, n, n))),
                      ts.size))
    for sc, rows in cases:
        made.clear()
        field_out, report = evaluate_solution(sc, threads=2)
        assert not report.any_below
        assert len(field_out.copies) == ts.size - rows
        assert len(made) == calls * rows // ts.size
        # each run's H reaches over all of its samples: 4 x steps of h
        assert {H.C - H.R for H, _ in made} == ({4 * 32, 4 * 64} if richardson else {4 * 24})
        assert report.dense_solves == 0
        assert report.lowrank_solves == xs.size * rows * (2 if richardson else 1)


def nls_2x2_run(N, xs):
    """A one-row local_nls scenario of 2x2 Gaussian data on the rule of N
    intervals over [-8, 0], and its one pairing (p, ptil)."""
    g = make_uniform_grid(20.0, 3840)
    initial = InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]], width=1.0)
    kind = resolve_kind("local_nls")
    sc = scenario_stub(kind=kind, grid=g, n=2, m=2, quad=make_quadrature(8.0, N, g.spacing),
                       initial=initial, xs=xs, ts=np.array([0.005]))
    (pair,) = pairings(sc.p0, kind.params, kind.companion, [0.005])
    return sc, pair


def test_a_run_past_the_rank_limit_calls_the_finder_once_and_goes_dense(monkeypatch):
    # 2x2 NLS data at k = 66 need a rank above 66 // 4: the run's one
    # range finder gives up, and every sample solves dense on its window
    # of the run's one extended Q
    sc, (p, ptil) = nls_2x2_run(32, 0.25 + 0.25 * np.arange(4))
    quad = sc.quad
    made = count_range_finder(monkeypatch)
    built = []
    assemble = fredholm.assemble_Q

    def counted(p, ptil, x, quad, extension=0):
        built.append(extension)
        return assemble(p, ptil, x, quad, extension)

    monkeypatch.setattr(fredholm, "assemble_Q", counted)
    got, report = evaluate_solution(sc)
    assert [limit for _, limit in made] == [16]
    assert built == [3]
    assert report.ranks == [None] * 4
    Q = assemble(p, ptil, sc.xs[0], quad, 3)
    with lapack.one_blas_thread():  # as evaluate_solution runs it
        for l, x in enumerate(sc.xs):
            d2, centre, col, row, _ = dense_edges(Q.window(l), p, x)
            assert np.array_equal(got.center[0, l], centre)
            assert np.array_equal(got.slice_z[0, l], row)
            assert np.abs(got.slice_y[0, l] - col).max() <= 1e-13 * np.abs(row).max()
            assert report.det2[0, l] == d2


def test_2x2_nls_at_k_258_goes_lowrank_with_one_finder_call_per_run(monkeypatch):
    # the same data at N = 128 have ranks 25 and 51 on these two runs,
    # within 258 // 4: each run's one range finder holds, and no sample
    # builds a Q or factors I + WQ
    xs = np.array([-3.0, -2.9375, -2.875, 5.5, 6.0])  # two runs, over N steps apart
    sc, (p, ptil) = nls_2x2_run(128, xs)
    assert [len(offsets) for _, _, offsets in x_runs(xs, p.grid, sc.quad)] == [3, 2]
    dense = [dense_edges(assemble_Q(p, ptil, x, sc.quad), p, x) for x in xs]
    made = count_range_finder(monkeypatch)

    def refused(*args, **kwargs):
        raise AssertionError("dense system built on the low-rank path")

    for name in ("assemble_Q", "paired_Q", "nystrom_matrix", "LU"):
        monkeypatch.setattr(fredholm, name, refused)
    got, report = evaluate_solution(sc)
    assert [limit for _, limit in made] == [64, 64]
    assert report.dense_solves == 0 and not report.any_below
    assert len(report.ranks) == 5 and all(1 <= r <= 64 for r in report.ranks)
    for ix, want in enumerate(dense):
        assert abs(report.det2[0, ix] - want[0]) <= 1e-12 * abs(want[0])
        assert np.abs(got.center[0, ix] - want[1]).max() <= 1e-12 * np.abs(want[3]).max()


def test_a_sample_past_solver_tol_falls_back_to_dense_alone(monkeypatch):
    # a sketch truncated at 1.5e-9 (rank 22, which every truncation from
    # 1e-9 to 3e-9 gives) leaves backward errors of 8.8e-11, 9.0e-11,
    # 9.3e-11 and 3.5e-10 over one run of 2x2 NLS samples (k = 386): only
    # the sample above solver_tol = 1e-10 solves dense, the rest keep the
    # shared factors
    g = make_uniform_grid(20.0, 3840)
    quad = make_quadrature(8.0, 192, g.spacing)
    initial = InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]], width=1.0)
    kind = resolve_kind("local_nls")
    sc = scenario_stub(kind=kind, grid=g, n=2, m=2, quad=quad, initial=initial,
                       xs=0.25 + quad.spacing * np.array([0, 1, 3, 24]), ts=np.array([0.005]),
                       tolerances={"patch_threshold": 1e-8, "solver_tol": 1.0})
    monkeypatch.setattr(fredholm, "SKETCH_TOL", 1.5e-9)
    loose, loose_report = evaluate_solution(sc)
    berr = loose_report.backward_error[0]
    assert berr[:3].max() < 1e-10 < berr[3]
    made = count_range_finder(monkeypatch)
    sc.tolerances = {"patch_threshold": 1e-8, "solver_tol": 1e-10}
    got, report = evaluate_solution(sc)
    assert len(made) == 1
    rank = loose_report.ranks[0]
    assert report.ranks == [rank, rank, rank, None]
    assert not report.any_below
    assert np.array_equal(got.center[0, :3], loose.center[0, :3])
    (p, ptil), = pairings(sc.p0, kind.params, kind.companion, [0.005])
    with lapack.one_blas_thread():  # as evaluate_solution runs it
        dense = dense_edges(paired_Q(p, ptil, sc.xs[3], quad), p, sc.xs[3])
    assert np.array_equal(got.center[0, 3], dense[1])
    assert 0.0 < report.backward_error[0, 3] <= 1e-13


def mixed_batch(monkeypatch):
    """A one-row scenario of 2x2 NLS samples (k = 386) in one low-rank run
    from x = -3: det2 falls and the backward error of a sketch truncated
    at 3e-8 rises with x, so at patch_threshold 0.6 and solver_tol 1e-10
    the last sample (|det2| 0.57) leaves the batch on its det2, the one
    before it (backward error 2.3e-9) solves dense, and the first two
    (9.5e-13 and 5.0e-12) stay low-rank; and its pairing (p, ptil)."""
    g = make_uniform_grid(20.0, 3840)
    quad = make_quadrature(8.0, 192, g.spacing)
    initial = InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]], width=1.0)
    kind = resolve_kind("local_nls")
    monkeypatch.setattr(fredholm, "SKETCH_TOL", 3e-8)
    sc = scenario_stub(kind=kind, grid=g, n=2, m=2, quad=quad, initial=initial,
                       xs=-3.0 + quad.spacing * np.array([0, 8, 80, 120]), ts=np.array([0.005]),
                       tolerances={"patch_threshold": 0.6, "solver_tol": 1e-10})
    (pair,) = pairings(sc.p0, kind.params, kind.companion, [0.005])
    return sc, pair


def test_a_mixed_batch_gives_each_sample_its_own_outcome(monkeypatch):
    # one sample below the patch threshold, one past solver_tol, two
    # low-rank: in one batch each gets exactly what the run gives it
    # solved alone, and the dense one is its own paired_Q's solve
    sc, (p, ptil) = mixed_batch(monkeypatch)
    quad, offsets = sc.quad, [0, 8, 80, 120]
    run = fredholm.Run(p, ptil, sc.xs[0], quad, 120)
    batch = run.solve(offsets, threshold=0.6, tol=1e-10)
    for l, got in zip(offsets, batch):
        fresh = fredholm.Run(p, ptil, sc.xs[0], quad, 120)
        (alone,) = fresh.solve([l], threshold=0.6, tol=1e-10)
        assert_identical(got, alone)
    skip = batch[3]
    assert skip.row is None and skip.col is None and np.isnan(skip.berr)
    assert 0.5 < abs(skip.det2) < 0.6
    assert [edges.ranks for edges in batch] == [(run.rank,), (run.rank,), (None,), (run.rank,)]
    assert max(batch[0].berr, batch[1].berr) <= 1e-10
    assert_dense_solve(batch[2], paired_Q(p, ptil, sc.xs[2], quad), p, sc.xs[2], 0.6)
    for x, edges in zip(sc.xs, batch[:2]):
        assert_same_edges(edges, dense_edges(paired_Q(p, ptil, x, quad), p, x), 1e-9)


def test_a_run_solved_twice_gives_the_same_records(monkeypatch):
    # the mixed batch's low-rank, dense and skipped samples: a Run keeps
    # nothing from one solve to the next
    sc, (p, ptil) = mixed_batch(monkeypatch)
    run = fredholm.Run(p, ptil, sc.xs[0], sc.quad, 120)
    first = run.solve([0, 8, 80, 120], threshold=0.6, tol=1e-10)
    again = run.solve([0, 8, 80, 120], threshold=0.6, tol=1e-10)
    assert [e.ranks for e in first] == [(run.rank,), (run.rank,), (None,), (run.rank,)]
    for a, b in zip(first, again):
        assert_identical(a, b)


def assert_each_sample_is_its_record(steps, N, richardson):
    """solve_samples on [x] alone gives the record the sample x + s h, s
    in steps, gets in a batch of its run, to round-off: the run's
    transforms and range finder see more data, so a rule's path may
    differ (the fine rule at k = 130 goes low-rank alone and dense in the
    batch); a skip is a skip."""
    p, ptil, x, _ = lowrank_case("nls_2x2")
    rules = quadrature_rules(make_quadrature(8.0, N, p.grid.spacing), richardson)
    xs = x + rules[0].spacing * np.asarray(steps)
    batch = solve_samples(p, ptil, xs, rules)
    skips = solve_samples(p, ptil, xs, rules, threshold=1e3)
    for xl, edges, skipped in zip(xs, batch, skips):
        alone, = solve_samples(p, ptil, [xl], rules)
        assert (alone.ranks[0] is None) == (edges.ranks[0] is None) == (N == 32)
        assert abs(alone.det2 - edges.det2) <= 1e-12 * abs(edges.det2)
        scale = np.abs(edges.row).max()
        for a, b in ((alone.col, edges.col), (alone.row, edges.row)):
            assert np.abs(a - b).max() <= 1e-12 * scale
        assert max(alone.berr, edges.berr) <= 1e-13
        skip, = solve_samples(p, ptil, [xl], rules, threshold=1e3)
        assert skip.row is skipped.row is None
        assert abs(skip.det2 - skipped.det2) <= 1e-12 * abs(skipped.det2)


@pytest.mark.parametrize("N, richardson", [(192, False), (32, True)], ids=["lowrank", "dense"])
def test_one_sample_is_its_record_in_a_batch(N, richardson):
    assert_each_sample_is_its_record([0, 1, 7, 24], N, richardson)


@pytest.mark.parametrize("N, richardson", [(192, False), (32, True)], ids=["lowrank", "dense"])
def test_an_off_lattice_unsorted_sample_is_its_record_in_a_batch(N, richardson):
    # samples off the rule's lattice, out of order and one repeated: the
    # lattice runs gather them from anywhere in xs, and each record
    # still lands at its own sample
    assert_each_sample_is_its_record([7, 0.5, 24, 1, 0, 7.25, 1], N, richardson)


@pytest.mark.parametrize("N, richardson", [(192, False), (32, True)], ids=["lowrank", "dense"])
def test_permuting_xs_permutes_the_records(N, richardson):
    # a run is a set of lattice samples, whatever their order in xs, so
    # its records are the same bits in any order
    p, ptil, x, _ = lowrank_case("nls_2x2")
    rules = quadrature_rules(make_quadrature(8.0, N, p.grid.spacing), richardson)
    xs = x + rules[0].spacing * np.array([0, 1, 7, 24, 0.5, 1.5, 7])
    batch = solve_samples(p, ptil, xs, rules)
    for order in ([4, 2, 0, 6, 5, 3, 1], [6, 5, 4, 3, 2, 1, 0]):
        for i, edges in zip(order, solve_samples(p, ptil, xs[order], rules)):
            assert_identical(edges, batch[i])


def test_a_mixed_batch_skips_and_raises_at_its_patch_sample(monkeypatch):
    sc, (p, ptil) = mixed_batch(monkeypatch)
    got, report = evaluate_solution(sc)
    (skip,) = report.skipped
    assert skip[:4] == (0, 3, 0.005, sc.xs[3]) and skip[5] == "det2"
    assert abs(skip[4]) < 0.6 and report.det2[0, 3] == skip[4]
    # the skipped sample's core ran, so its rank counts too
    r = report.ranks[0]
    assert r is not None and report.ranks == [r, r, None, r]
    assert np.isnan(got.center[0, 3]).all() and np.isfinite(got.center[0, :3]).all()
    with pytest.raises(PatchError) as info:
        evaluate_solution(sc, skip_on_patch_error=False)
    assert (info.value.x, info.value.t) == (sc.xs[3], 0.005)


def test_a_skip_inside_a_lattice_run_reports_its_own_sample(monkeypatch):
    # the mixed batch's lattice run, its samples out of order and an
    # off-lattice sample among them: the skipped sample, last in its run,
    # is reported at its own place in xs
    sc, _ = mixed_batch(monkeypatch)
    sc.xs = -3.0 + sc.quad.spacing * np.array([80, 120, 40.5, 0, 8])
    got, report = evaluate_solution(sc)
    (skip,) = report.skipped
    assert skip[:4] == (0, 1, 0.005, sc.xs[1]) and skip[5] == "det2"
    assert np.isnan(got.center[0, 1]).all()
    assert np.isfinite(np.delete(got.center[0], 1, axis=0)).all()
    with pytest.raises(PatchError) as info:
        evaluate_solution(sc, skip_on_patch_error=False)
    assert (info.value.x, info.value.t) == (sc.xs[1], 0.005)


@pytest.mark.parametrize("samples", [3, 17])
def test_the_transforms_are_per_run_not_per_sample(samples, monkeypatch):
    # 2x2 NLS at k = 258, one row, one rule, one field and one low-rank
    # run: the data and the companion are transformed once each, and
    # every sample's core goes through one batched slogdet and the two
    # batched Woodbury solves, however many samples the run holds
    xs = -3.0 + 0.125 * np.arange(samples)
    sc, _ = nls_2x2_run(128, xs)
    made = count_range_finder(monkeypatch)
    transforms = []
    init = fredholm.HankelFFT.__init__

    def counted(self, vals, rows=None):
        transforms.append(len(vals))
        init(self, vals, rows)

    monkeypatch.setattr(fredholm.HankelFFT, "__init__", counted)
    calls = []
    for name in ("slogdet", "solve"):
        def batched(*args, name=name, call=getattr(np.linalg, name)):
            calls.append(name)
            return call(*args)

        monkeypatch.setattr(np.linalg, name, batched)
    _, report = evaluate_solution(sc)
    assert len(made) == 1
    assert report.lowrank_solves == samples and report.dense_solves == 0
    assert transforms == [2 * 128 + 1 + 2 * (samples - 1)] * 2
    assert calls == ["slogdet", "solve", "solve"]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("a, b", [(2, 2), (2, 1), (1, 1)])
def test_hankel_fft_windows_apply_each_square_window(a, b, real):
    # the R x (R+e) matrix's window from node l, one block vector per
    # offset, against the gathered windows; the weights scale the rows of
    # each block vector; a tall shape of the same values shares the spectrum
    R, e = 11, 9
    offsets = [0, 4, 9, 4]
    rng = np.random.default_rng(a + 3 * b)
    vals = rng.standard_normal((2 * R - 1 + e, a, b))
    if not real:
        vals = vals + 1j * rng.standard_normal(vals.shape)
    op = fredholm.HankelFFT(vals, R)
    windows = [DiscreteKernel(None, hankel_windows(vals[l:], R)[:R]).big() for l in offsets]
    S, c = len(offsets), 2
    Y = rng.standard_normal((R * b, S * c)) + 1j * rng.standard_normal((R * b, S * c))
    Yl = rng.standard_normal((S * c, R * a)) + 1j * rng.standard_normal((S * c, R * a))
    w = rng.uniform(0.5, 1.5, R * b)
    right, weighted = op.right_windows(Y, offsets), op.right_windows(Y, offsets, w)
    left = op.left_windows(Yl, offsets)
    for s, H in enumerate(windows):
        cols = slice(s * c, (s + 1) * c)
        for got, want in ((right[:, cols], H @ Y[:, cols]),
                          (weighted[:, cols], H @ (w[:, None] * Y[:, cols])),
                          (left[cols], Yl[cols] @ H)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.isrealobj(op.right_windows(Y.real, offsets)) == real
    tall = op.with_rows(R + e)
    assert (tall.R, tall.C) == (R + e, R) and tall.spec is op.spec
    want = hankel_windows(vals, R).transpose(0, 2, 1, 3).reshape((R + e) * a, R * b) @ Y[:, :c]
    assert np.abs(tall.right(Y[:, :c]) - want).max() <= 1e-13 * np.abs(want).max()


def test_a_skip_reports_the_first_rule_whose_det2_fails(monkeypatch):
    # with Richardson and a threshold above every |det2|, both rules of
    # every sample fail: the skip row and skip_on_patch_error=False carry
    # the coarse rule's det2, as a per-sample loop over the rules would
    sc = kdv_scenario(xs=[-0.5, 0.0, 0.5], ts=[0.0])
    sc.tolerances = {"patch_threshold": 1e3, "solver_tol": 1e-10}
    (p, _), = pairings(sc.p0, sc.kind.params, sc.kind.companion, [0.0])
    _, report = evaluate_solution(sc)
    assert len(report.skipped) == 3
    for (_, ix, _, x, d2, reason), want in zip(report.skipped, sc.xs):
        assert x == want and reason == "det2"
        coarse, fine = (fredholm.Run(p, None, x, q).solve([0], 1e3)[0]
                        for q in quadrature_rules(sc.quad, True))
        assert coarse.row is None and fine.row is None
        gap = abs(fine.det2 - coarse.det2)
        assert abs(d2 - coarse.det2) <= 1e-12 * abs(d2) < gap
    with pytest.raises(PatchError) as info:
        evaluate_solution(sc, skip_on_patch_error=False)
    assert info.value.x == sc.xs[0] and info.value.det2_value == report.skipped[0][4]


def test_coupled_partner_is_the_mirror_solve_on_any_t_grid(monkeypatch):
    # 2x1 coupled data on a t grid that is not symmetric about 0: the
    # partner at t is the solve at -t, transposed, and each -t that is no
    # sample time (-0.004, -0.012) is solved once in its task.  It matches
    # the partner's own system, the role-swapped pairing
    # P~ = G~ (id + P P~), solved here as the reference; the kind itself
    # builds every Run on the 2x1 data, never on the companion
    g = make_uniform_grid(20.0, 320)
    kind = resolve_kind("coupled_diffusion")
    initial = InitialDataSpec(kind="gaussian", amplitude=[[0.6], [0.3]], width=1.0)
    xs = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    ts = np.array([-0.01, 0.0, 0.004, 0.01, 0.012])
    sc = scenario_stub(kind=kind, grid=g, n=2, m=1, quad=make_quadrature(4.0, 16, g.spacing),
                       initial=initial, xs=xs, ts=ts)
    solved = []
    solve = fredholm.Run.solve

    def counted(self, offsets, *args):
        solved.append((self.p.rows, self.p.cols, len(offsets)))
        return solve(self, offsets, *args)

    monkeypatch.setattr(fredholm.Run, "solve", counted)
    field, report = evaluate_solution(sc)
    assert not report.any_below
    assert {tuple(dims) for *dims, _ in solved} == {(2, 1)}
    assert sum(count for *_, count in solved) == 7 * xs.size
    assert report.dense_solves + report.lowrank_solves == 7 * xs.size
    assert field.center_tilde.shape == (ts.size, xs.size, 1, 2)
    pairs = pairings(sample_profile(initial, g, 2, 1), kind.params, kind.companion, ts)
    with lapack.one_blas_thread():  # as evaluate_solution runs it
        for it, (p, ptil) in enumerate(pairs):
            own = solve_samples(p, ptil, xs, (sc.quad,))
            for ix, x in enumerate(xs):
                swapped, = fredholm.Run(ptil, p, x, sc.quad).solve([0])
                assert np.abs(field.center_tilde[it, ix] - swapped.row[-1]).max() <= 1e-15
                assert report.det2[it, ix] == own[ix].det2
                assert abs(swapped.det2 - own[ix].det2) <= 1e-14


def test_a_wrong_block_in_the_assembled_Q_is_caught_and_skipped(monkeypatch):
    # a 10 % error in one block of one dense sample's window of the run's
    # Q: the solve of that wrong system meets its own matrix to round-off,
    # but the check applies the exact Hankel operators, so the sample's
    # backward error passes solver_tol and it is skipped; the others stand
    sc, _ = nls_2x2_run(32, 0.25 + 0.25 * np.arange(4))
    want, want_report = evaluate_solution(sc)
    window = DiscreteKernel.window

    def planted(self, offset):
        Q = window(self, offset)
        if offset != 2:
            return Q
        blocks = Q.blocks.copy()
        blocks[-3, -2] *= 1.1  # near the origin, where the data are large
        return DiscreteKernel(Q.quad, blocks)

    monkeypatch.setattr(DiscreteKernel, "window", planted)
    got, report = evaluate_solution(sc)
    assert want_report.ranks == [None] * 4 and not want_report.any_below
    assert [row[1:2] + row[5:] for row in report.skipped] == [(2, "backward_error")]
    assert report.backward_error[0, 2] > sc.tolerances["solver_tol"]
    assert np.isnan(got.center[0, 2]).all()
    keep = [0, 1, 3]
    assert np.array_equal(got.center[0, keep], want.center[0, keep])
    assert np.all(report.backward_error[0, keep] <= 1e-13)



@pytest.mark.parametrize("kind, sign", [("local_nls", 1), ("local_nls", -1),
                                        ("rev_time_nls", 1), ("rev_spacetime_nls", 1)])
def test_pairings_at_minus_t_are_the_conjugates_on_real_data(kind, sign):
    # the identity the conjugated rows rest on: for real data under a
    # conjugation-reversible kind, (p_-t, p~_-t) = conj (p_t, p~_t), on
    # sampled data and on exp-tagged data, whose tag the reflecting
    # companion carries with its rate negated
    kind = resolve_kind(kind, sign=sign)
    assert kind.conjugation_reversible
    g = make_uniform_grid(20.0, 640)
    gauss = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]],
                                           width=1.0), g, 2, 2)
    tagged = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[0.5, -0.3]],
                                            rate=1.0), g, 1, 2)
    for p0 in (gauss, tagged):
        ahead, back = pairings(p0, kind.params, kind.companion, [0.6, -0.6])
        for a, b in zip(ahead, back):
            assert np.abs(np.conj(a.samples) - b.samples).max() <= 1e-15 * np.abs(b.samples).max()
            assert (a.exp_tag is None) == (b.exp_tag is None) == (p0 is gauss)
            if a.exp_tag is not None:
                assert a.exp_tag[0] == b.exp_tag[0]
                assert np.abs(np.conj(a.exp_tag[1]) - b.exp_tag[1]).max() <= 1e-15
    (_, reflected), = pairings(tagged, kind.params, kind.companion, [0.6])
    assert reflected.exp_tag[0] == (-1.0 if kind.reflect_x else 1.0)
