from types import SimpleNamespace

import numpy as np
import pytest

from hankelpde.companion import companion_profile
from hankelpde.dispersion import DispersionParams
from hankelpde.fredholm import (
    PatchError,
    assemble_Q,
    det2,
    evaluate_solution,
    hankel_rhs,
    kdv_Q,
    make_quadrature,
    nystrom_residual,
    quadrature_rules,
    solve_G,
    solve_origin,
)
from hankelpde.gridkernel import InitialDataSpec, make_uniform_grid, sample_profile

NLS = DispersionParams(mu1=-1j, mu2=0.0)
KDV = DispersionParams(mu1=0.0, mu2=-1.0)
HEAT = DispersionParams(mu1=1.0, mu2=0.0)


def exp_profile(X, M, amp=1.0, rate=1.0):
    g = make_uniform_grid(X, M)
    return sample_profile(InitialDataSpec(kind="exponential", amplitude=[[amp]], rate=rate),
                          g, 1, 1)


def scenario_stub(**kw):
    base = dict(n=1, m=1, companion="adjoint", coupled=False, richardson=False,
                tolerances={"patch_threshold": 1e-8})
    base.update(kw)
    return SimpleNamespace(**base)


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
    k = hankel_rhs(p, 0.5, quad)
    assert np.array_equal(k.blocks[0, 3], k.blocks[3, 0])
    assert np.array_equal(k.blocks[2, 5], k.blocks[4, 3])
    assert k.blocks.shape == (9, 9, 1, 1)


def test_hankel_rhs_domain_overflow():
    p = exp_profile(8.0, 64)
    quad = make_quadrature(2.0, 8, p.grid.spacing)
    with pytest.raises(ValueError):
        hankel_rhs(p, -6.0, quad)  # x - 2L below -X
    with pytest.raises(ValueError):
        hankel_rhs(p, 8.0, quad)  # x beyond the last master node


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
    assert det2(Q0) == 1.0
    Q = assemble_Q(p, p, 0.0, quad)
    lam = 0.25
    want = (1.0 + lam) * np.exp(-lam)
    assert abs(det2(Q) - want) <= 1e-3
    # exact discrete counterpart: WQ is rank one with eigenvalue S^2,
    # one tail-sum factor from the Q quadrature and one from the trace
    lam_d = discrete_tail_sum(quad) ** 2
    want_d = (1.0 + lam_d) * np.exp(-lam_d)
    assert abs(det2(Q) - want_d) <= 1e-11


def test_solve_G_identity_system():
    g = make_uniform_grid(8.0, 64)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((64, 1, 1)) * np.exp(-np.abs(g.nodes))[:, None, None] + 0j
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 1, 1)
    quad = make_quadrature(2.0, 8, g.spacing)
    zero = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                          g, 1, 1)
    Q = assemble_Q(zero, zero, 0.0, quad)
    G = solve_G(Q, p, 0.0, quad)
    rhs = hankel_rhs(p, 0.0, quad)
    assert np.abs(G.blocks - rhs.blocks).max() <= 1e-14


def rank_one_center(quad, p, x):
    Q = assemble_Q(p, p, x, quad)
    G = solve_G(Q, p, x, quad)
    return G.blocks[-1, -1][0, 0]


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
    G = solve_G(Q, p, 0.5, quad)
    assert nystrom_residual(G, Q, p, 0.5) <= 1e-10


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
    d2 = det2(Q_star)
    assert abs(d2) < 1e-8
    with pytest.raises(PatchError) as info:
        solve_G(Q_star, p_star, 0.0, quad)
    assert info.value.x == 0.0


def kdv_scenario(xs, ts, amp=-1.0, richardson=True):
    X, M = 28.0, 4480
    g = make_uniform_grid(X, M)
    quad = make_quadrature(12.8, 512, g.spacing)
    return scenario_stub(
        kind="kdv_primitive", companion="neg_identity",
        params=KDV, grid=g, quad=quad, richardson=richardson,
        initial=InitialDataSpec(kind="exponential", amplitude=[[amp]], rate=1.0),
        xs=np.asarray(xs), ts=np.asarray(ts))


def test_evaluate_solution_zero_data():
    g = make_uniform_grid(8.0, 64)
    quad = make_quadrature(2.0, 8, g.spacing)
    sc = scenario_stub(kind="local_nls", params=NLS, grid=g, quad=quad,
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
    sc = scenario_stub(kind="local_nls", params=NLS, grid=g, quad=quad, richardson=True,
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
    sc = scenario_stub(kind="kdv_primitive", companion="neg_identity",
                       params=KDV, grid=g, quad=quad, richardson=False,
                       initial=InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=1.0),
                       xs=np.array([0.0]), ts=np.array([t_star - 0.4, t_star, t_star + 0.4]))
    field, report = evaluate_solution(sc)
    assert report.any_below
    assert len(report.skipped) == 1
    it, ix, t, x, d2 = report.skipped[0]
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
    cases = (dict(kind="kdv_primitive", companion="neg_identity", params=KDV,
                  initial=InitialDataSpec(kind="exponential", amplitude=[[-1.0]],
                                          rate=1.0)),
             dict(kind="coupled_diffusion", companion="transpose_rev_time",
                  params=HEAT, coupled=True, n=2, m=1,
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
        if kw.get("coupled"):
            assert rich.center_tilde.shape == (3, 3, 1, 2)
            assert np.array_equal(rich.center_tilde,
                                  (4.0 * fine.center_tilde - coarse.center_tilde) / 3.0)


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize("pairing", ["neg_identity", "rectangular", "role_swap"])
def test_solve_origin_edges_match_full_solve(pairing, richardson):
    # the narrow row/column solves against the full K*m-column solve_G
    # oracle: 2x2 data on the neg_identity pairing, 2x1 data with its 1x2
    # adjoint companion (a reshape slip between n and m cannot hide), and
    # the coupled role swap, which solves with the 1x2 profile on the left
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
    rules = quadrature_rules(make_quadrature(2.0, 16, g.spacing), richardson, g.spacing)
    d2, centre, col, row, berr = solve_origin(p, ptil, x, rules)

    full = []
    for quad in rules:
        Q = kdv_Q(p, x, quad) if ptil is None else assemble_Q(p, ptil, x, quad)
        G = solve_G(Q, p, x, quad).blocks
        full.append((det2(Q, quad), G[-1, -1], G[:, -1], G[-1, :]))
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
