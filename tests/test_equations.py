from types import SimpleNamespace

import numpy as np
import pytest

from hankelpde.dispersion import DispersionParams
from hankelpde.equations import (
    miura_check,
    product_rule_check,
    residual_coupled,
    residual_kernel,
    residual_local,
    u_identity_check,
)
from hankelpde.fredholm import (
    SolutionField,
    evaluate_solution,
    kdv_Q,
    make_quadrature,
)
from hankelpde.gridkernel import InitialDataSpec, make_uniform_grid, sample_profile
from hankelpde.kinds import resolve_kind

NLS = DispersionParams(mu1=-1j, mu2=0.0)
KDV = DispersionParams(mu1=0.0, mu2=-1.0)
HEAT = DispersionParams(mu1=1.0, mu2=0.0)


def grid_1d(span, count):
    return np.linspace(-span, span, count)


def wave_field(xs, ts, func):
    T, X = np.meshgrid(ts, xs, indexing="ij")
    G = func(X, T)[:, :, None, None].astype(complex)
    return SolutionField(xs=xs, ts=ts, quad=None, center=G,
                         slice_y=None, slice_z=None)


def scenario_stub(**kw):
    base = dict(n=1, m=1, companion="adjoint", coupled=False, richardson=False,
                tolerances={"patch_threshold": 1e-8})
    base.update(kw)
    return SimpleNamespace(**base)


def gaussian_scenario(X, M, L, N, xs, ts, amp, width=1.0, **kw):
    g = make_uniform_grid(X, M)
    init = InitialDataSpec(kind="gaussian", amplitude=amp, width=width)
    quad = make_quadrature(L, N, g.spacing)
    return scenario_stub(grid=g, quad=quad, initial=init, xs=xs, ts=ts, **kw)


def test_residual_zero_field_every_kind():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    zero = wave_field(xs, ts, lambda X, T: np.zeros_like(X))
    for name in ("local_nls", "kernel_nls", "rev_time_nls", "rev_spacetime_nls",
                 "local_mkdv", "kernel_mkdv", "rev_spacetime_mkdv", "kdv_primitive"):
        res, worst = residual_local(name, zero)
        assert worst == 0.0
        assert np.all(np.isnan(res[0, :])) and np.all(np.isnan(res[:, 1]))
    kind = resolve_kind("combined_degree3", mu1=-1j, mu2=-1.0)
    _, worst = residual_local(kind, zero)
    assert worst == 0.0


def test_residual_nls_plane_wave_both_signs():
    A, k = 0.7, 1.2
    errs = {+1: [], -1: []}
    for sign in (+1, -1):
        omega = 2.0 * sign * A ** 2 - k ** 2
        for step in (0.04, 0.02):
            count = int(round(0.8 / step)) + 1
            xs = grid_1d(0.4, count)
            ts = grid_1d(0.4, count)
            f = wave_field(xs, ts,
                           lambda X, T: A * np.exp(1j * (k * X - omega * T)))
            _, worst = residual_local(resolve_kind("local_nls", sign=sign), f)
            errs[sign].append(worst)
    for sign in (+1, -1):
        ratio = errs[sign][0] / errs[sign][1]
        assert 3.2 < ratio < 4.8
        assert errs[sign][1] < 5e-3


def test_residual_rev_spacetime_nls_plane_wave():
    A, k = 0.6, 1.0
    omega = 2.0 * A ** 2 - k ** 2  # g(-x,-t) conjugates the phase
    errs = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        _, worst = residual_local("rev_spacetime_nls", f)
        errs.append(worst)
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_residual_rev_time_nls_uniform_mode():
    # k = 0 keeps the reversed-time cubic closed: i g_t = 2 A^2 g
    A = 0.8
    omega = 2.0 * A ** 2
    errs = []
    for count in (11, 21):
        xs = grid_1d(0.3, 7)
        ts = grid_1d(0.3, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(-1j * omega * T)
                       + 0.0 * X)
        _, worst = residual_local("rev_time_nls", f)
        errs.append(worst)
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_residual_rev_kinds_need_symmetric_grids():
    xs = np.linspace(-0.4, 0.5, 10)
    ts = grid_1d(0.3, 9)
    f = wave_field(xs, ts, lambda X, T: np.exp(-X ** 2 - T ** 2))
    with pytest.raises(ValueError):
        residual_local("rev_spacetime_nls", f)
    f2 = wave_field(grid_1d(0.4, 9), np.linspace(0.0, 0.4, 9),
                    lambda X, T: np.exp(-X ** 2 - T ** 2))
    with pytest.raises(ValueError):
        residual_local("rev_time_nls", f2)


def test_residual_mkdv_complex_plane_wave():
    A, k = 0.5, 1.0
    omega = -k ** 3 - 6.0 * A ** 2 * k
    errs = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        _, worst = residual_local(resolve_kind("local_mkdv", flavor="complex"), f)
        errs.append(worst)
    assert 3.2 < errs[0] / errs[1] < 4.8
    # the reversed-space-time real flavor closes on the same wave
    errs_rev = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        _, worst = residual_local("rev_spacetime_mkdv", f)
        errs_rev.append(worst)
    assert 3.2 < errs_rev[0] / errs_rev[1] < 4.8


def test_residual_combined_plane_wave():
    A, k = 0.5, 1.0
    mu1, mu2 = -1j, -1.0
    beta = mu1.imag
    omega = beta * k ** 2 + mu2 * k ** 3 + 2.0 * beta * A ** 2 + 6.0 * mu2 * A ** 2 * k
    kind = resolve_kind("combined_degree3", mu1=mu1, mu2=mu2)
    errs = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        _, worst = residual_local(kind, f)
        errs.append(worst)
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_residual_kdv_closed_form():
    # u = -2 theta / (2 + theta), theta = e^{x-t}, solves the primitive form
    def u(X, T):
        th = np.exp(X - T)
        return -2.0 * th / (2.0 + th)

    errs = []
    for step in (0.1, 0.05):
        xs = 0.5 + step * np.arange(-4, 5)
        ts = -0.3 + step * np.arange(-4, 5)
        f = wave_field(xs, ts, u)
        _, worst = residual_local("kdv_primitive", f)
        errs.append(worst)
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert errs[1] < 1e-3


def test_residual_kdv_requires_square():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    G = np.zeros((7, 7, 1, 2), dtype=complex)
    f = SolutionField(xs=xs, ts=ts, quad=None, center=G,
                      slice_y=None, slice_z=None)
    with pytest.raises(ValueError):
        residual_local("kdv_primitive", f)


def test_residual_grid_validation():
    xs = grid_1d(0.5, 7)
    f = wave_field(xs, grid_1d(0.2, 4), lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residual_local("local_nls", f)  # too few t samples
    bad = np.array([-0.2, -0.1, 0.05, 0.1, 0.2])
    f2 = wave_field(xs, bad, lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residual_local("local_nls", f2)
    with pytest.raises(ValueError):
        residual_local("coupled_diffusion",
                       wave_field(xs, grid_1d(0.2, 7), lambda X, T: 0 * X))


def test_residual_solved_nls_field_converges():
    # fixed spans, doubled counts: compare at the shared centre sample so
    # the two levels measure the residual at the same (x, t)
    errs = []
    for N, count in ((32, 5), (64, 9)):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.2, count)
        sc = gaussian_scenario(20.0, 640, 8.0, N, xs, ts, [[0.75]],
                               params=NLS, companion="adjoint")
        field, _ = evaluate_solution(sc)
        res, _ = residual_local("local_nls", field)
        errs.append(abs(res[count // 2, count // 2, 0, 0]))
    assert 2.6 < errs[0] / errs[1] < 5.5
    assert errs[1] < 0.05


def test_residual_kernel_matches_local_at_origin():
    xs = grid_1d(0.5, 9)
    ts = grid_1d(0.15, 7)
    sc = gaussian_scenario(16.0, 512, 6.0, 48, xs, ts, [[0.8]],
                           params=NLS, companion="adjoint")
    field, _ = evaluate_solution(sc)
    worst, (R1, R2) = residual_kernel("kernel_nls", field, return_fields=True)
    res_local, worst_local = residual_local("kernel_nls", field)
    inner = res_local[2:-2, 2:-2]
    assert np.allclose(R1[:, :, -1, :, :], inner, rtol=0.0, atol=1e-12)
    assert np.allclose(R2[:, :, -1, :, :], inner, rtol=0.0, atol=1e-12)
    assert worst_local <= worst + 1e-12
    assert worst < 0.2


def test_residual_kernel_mkdv_converges():
    errs = []
    for N, count in ((24, 5), (48, 9)):
        xs = grid_1d(0.25, count)
        ts = grid_1d(0.1, count)
        sc = gaussian_scenario(16.0, 512, 6.0, N, xs, ts, [[0.6]],
                               params=KDV, companion="neg_transpose")
        field, _ = evaluate_solution(sc)
        errs.append(residual_kernel("kernel_mkdv", field))
    assert 2.6 < errs[0] / errs[1] < 5.5


def test_residual_kernel_validation():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    f = wave_field(xs, ts, lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residual_kernel("local_nls", f)  # no kernel form
    with pytest.raises(ValueError):
        residual_kernel("kernel_nls", f)  # slices missing


def test_coupled_partner_is_time_reflected_transpose():
    # coarse master grid: the reversed-time heat evolution amplifies the
    # DFT roundoff floor by exp(|t| 4 pi^2 kmax^2), so keep kmax small
    xs = 0.25 * np.arange(-2, 3)
    ts = 0.03 * np.arange(-2, 3)
    sc = gaussian_scenario(20.0, 160, 6.0, 24, xs, ts, [[0.6]],
                           params=HEAT, companion="transpose_rev_time",
                           coupled=True)
    field, report = evaluate_solution(sc)
    assert not report.any_below
    assert np.all(np.isfinite(field.center))
    # G~(x,t) agrees with G(x,-t) transposed, here scalar
    flipped = field.center[::-1, :, :, :]
    assert np.allclose(field.center_tilde, flipped, rtol=1e-12, atol=1e-13)


def test_coupled_residual_converges():
    # exponential data evolves analytically (no DFT), so the reversed-time
    # branch stays clean and the stencil plus quadrature error dominates
    g = make_uniform_grid(20.0, 640)
    init = InitialDataSpec(kind="exponential", amplitude=[[-0.4]], rate=1.0)
    errs = []
    for N, count in ((48, 5), (96, 9)):
        xs = grid_1d(0.25, count)
        ts = grid_1d(0.06, count)
        quad = make_quadrature(6.0, N, g.spacing)
        sc = scenario_stub(grid=g, quad=quad, initial=init, xs=xs, ts=ts,
                           params=HEAT, companion="transpose_rev_time",
                           coupled=True)
        field, _ = evaluate_solution(sc)
        _, (R1, R2) = residual_coupled(field, return_fields=True)
        mid_t, mid_x = R1.shape[0] // 2, R1.shape[1] // 2
        errs.append(max(abs(R1[mid_t, mid_x, 0, 0]), abs(R2[mid_t, mid_x, 0, 0])))
    assert 2.6 < errs[0] / errs[1] < 5.5


def test_coupled_residual_needs_partner():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    f = wave_field(xs, ts, lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residual_coupled(f)


def test_miura_scalar_rank_one_converges():
    # xs extends one step past [-0.5, 0.5] so every level measures the
    # defect over the same interior window
    g = make_uniform_grid(20.0, 640)
    p0 = sample_profile(InitialDataSpec(kind="exponential",
                                        amplitude=[[-0.4]], rate=1.0),
                        g, 1, 1)
    errs = []
    for N, dx in ((32, 0.5), (64, 0.25), (128, 0.125)):
        quad = make_quadrature(8.0, N, g.spacing)
        k = int(round(0.5 / dx))
        xs = dx * np.arange(-(k + 1), k + 2)
        errs.append(miura_check(p0, quad, xs, [0.0]))
    assert 2.8 < errs[0] / errs[1] < 5.5
    assert 2.8 < errs[1] / errs[2] < 5.5


def test_miura_matrix_gaussian():
    g = make_uniform_grid(20.0, 640)
    amp = 0.4 * np.array([[1.0, 0.3], [0.3, 0.5]])
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp, width=1.0),
                        g, 2, 2)
    errs = []
    for N, dx in ((64, 0.25), (128, 0.125)):
        quad = make_quadrature(8.0, N, g.spacing)
        k = int(round(0.5 / dx))
        xs = dx * np.arange(-(k + 1), k + 2)
        errs.append(miura_check(p0, quad, xs, [0.15]))
    assert 2.8 < errs[0] / errs[1] < 5.5


def test_miura_rejects_asymmetric_data():
    g = make_uniform_grid(20.0, 320)
    amp = np.array([[1.0, 0.4], [0.1, 0.5]])
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp, width=1.0),
                        g, 2, 2)
    quad = make_quadrature(8.0, 64, g.spacing)
    with pytest.raises(ValueError):
        miura_check(p0, quad, [-0.25, 0.0, 0.25], [0.0])


def test_product_rule_zero_profile():
    g = make_uniform_grid(16.0, 512)
    z = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    quad = make_quadrature(6.0, 24, g.spacing)
    lhs, rhs, err = product_rule_check(lambda y, z_: 1.0, z, z,
                                       lambda y, z_: 1.0, 0.0, quad)
    assert err == 0.0
    assert np.all(lhs == 0.0) and np.all(rhs == 0.0)


def test_product_rule_scalar_converges():
    g = make_uniform_grid(16.0, 512)
    h = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.9]],
                                       width=1.2), g, 1, 1)
    hp = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.7]],
                                        width=0.8, center=-0.5), g, 1, 1)
    f = lambda y, z: np.exp(-(y - z) ** 2) * (1.0 + 0.5 * np.cos(y))
    fp = lambda y, z: 1.0 / (1.0 + (y + z) ** 2)
    errs = []
    for N in (24, 48):
        quad = make_quadrature(6.0, N, g.spacing)
        lhs, rhs, err = product_rule_check(f, h, hp, fp, 0.25, quad)
        errs.append(err)
        assert np.abs(rhs).max() > 1e-3
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_product_rule_matrix_converges():
    g = make_uniform_grid(16.0, 512)
    A = np.array([[0.8, 0.2], [0.1, 0.5]])
    B = np.array([[0.6, -0.3], [0.2, 0.4]])
    h = sample_profile(InitialDataSpec(kind="gaussian", amplitude=A, width=1.0),
                       g, 2, 2)
    hp = sample_profile(InitialDataSpec(kind="gaussian", amplitude=B, width=1.1,
                                        center=-0.4), g, 2, 2)

    def f(y, z):
        return np.array([[1.0, 0.3 * y], [0.2 * z, 1.0]]) * np.exp(-0.5 * (y - z) ** 2)

    def fp(y, z):
        return np.array([[np.exp(-y ** 2), 0.1], [0.4 * z * np.exp(-z ** 2), 0.9]])

    # a rectangular, non-paired input: h is 2 x 1 and hp is 1 x 3
    h_rect = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.8], [0.3]],
                                            width=1.0), g, 2, 1)
    hp_rect = sample_profile(InitialDataSpec(kind="gaussian",
                                             amplitude=[[0.6, -0.3, 0.4]],
                                             width=1.1, center=-0.4), g, 1, 3)

    def fp_rect(y, z):
        return np.array([[np.exp(-y ** 2), 0.1], [0.4 * z * np.exp(-z ** 2), 0.9],
                         [0.2, 0.5 * np.exp(-(y + z) ** 2)]])

    for h, hp, fp in ((h, hp, fp), (h_rect, hp_rect, fp_rect)):
        errs = []
        for N in (24, 48):
            quad = make_quadrature(6.0, N, g.spacing)
            lhs, rhs, err = product_rule_check(f, h, hp, fp, 0.25, quad)
            errs.append(err)
            assert np.abs(rhs).max() > 1e-3
        assert 3.0 < errs[0] / errs[1] < 5.0


def test_u_identity_zero_kernel():
    g = make_uniform_grid(16.0, 512)
    z = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    quad = make_quadrature(6.0, 24, g.spacing)
    rep = u_identity_check(kdv_Q(z, 0.0, quad))
    assert rep.identity_ii_error == 0.0
    assert rep.identity_i_error is None


def test_u_identity_rank_one():
    g = make_uniform_grid(20.0, 640)
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[-0.35]],
                                       rate=1.0), g, 1, 1)
    quad = make_quadrature(8.0, 64, g.spacing)
    errs_i = []
    for dx in (0.125, 0.0625):
        kernels = [kdv_Q(p, x, quad) for x in (-dx, 0.0, dx)]
        rep = u_identity_check(kernels, dx=dx)
        assert rep.identity_ii_error < 1e-10
        errs_i.append(rep.identity_i_error)
    assert 3.0 < errs_i[0] / errs_i[1] < 5.0


def test_u_identity_validation():
    g = make_uniform_grid(20.0, 640)
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[-0.35]],
                                       rate=1.0), g, 1, 1)
    quad = make_quadrature(8.0, 64, g.spacing)
    kernels = [kdv_Q(p, x, quad) for x in (-0.125, 0.0, 0.125)]
    with pytest.raises(ValueError):
        u_identity_check(kernels)  # no dx
    rep = u_identity_check(kernels[0], dx=0.125)
    assert rep.identity_i_error is None
