from dataclasses import replace

import numpy as np
import pytest

from hankelpde.equations import product_rule_check, residuals, stencil_reach, u_identity_check
from hankelpde.fredholm import (
    SolutionField,
    evaluate_solution,
    kdv_Q,
    make_quadrature,
)
from hankelpde.gridkernel import InitialDataSpec, make_uniform_grid, sample_profile
from hankelpde.kinds import _KINDS, KIND_NAMES, resolve_kind
from oracles import miura_check, scenario_stub


def grid_1d(span, count):
    return np.linspace(-span, span, count)


def wave_field(xs, ts, func):
    T, X = np.meshgrid(ts, xs, indexing="ij")
    G = func(X, T)[:, :, None, None].astype(complex)
    return SolutionField(xs=xs, ts=ts, center=G,
                         slice_y=None, slice_z=None)


def local_residual(kind, field):
    """The residual field of the kind's local PDE, its first row."""
    (_, (R,)), *_ = residuals(kind, field)
    return R


def worst(fields):
    """The largest |R| over the fields, NaN samples left out."""
    return max(float(np.nanmax(np.abs(R))) for R in fields)


def gaussian_scenario(X, M, L, N, xs, ts, amp, width=1.0, **kw):
    g = make_uniform_grid(X, M)
    init = InitialDataSpec(kind="gaussian", amplitude=amp, width=width)
    quad = make_quadrature(L, N, g.spacing)
    return scenario_stub(grid=g, quad=quad, initial=init, xs=xs, ts=ts,
                         outputs=("center", "residuals"), **kw)


def test_residual_zero_field_every_kind():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    zero = wave_field(xs, ts, lambda X, T: np.zeros_like(X))
    for name in ("local_nls", "kernel_nls", "rev_time_nls", "rev_spacetime_nls",
                 "local_mkdv", "kernel_mkdv", "rev_spacetime_mkdv", "kdv_primitive"):
        res = local_residual(resolve_kind(name), zero)
        assert worst([res]) == 0.0
        assert res.shape == (3, 3, 1, 1) and np.all(res == 0.0)
    kind = resolve_kind("combined_degree3", mu1=-1j, mu2=-1.0)
    assert worst([local_residual(kind, zero)]) == 0.0


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
            errs[sign].append(worst([local_residual(resolve_kind("local_nls", sign=sign), f)]))
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
        errs.append(worst([local_residual(resolve_kind("rev_spacetime_nls"), f)]))
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
        errs.append(worst([local_residual(resolve_kind("rev_time_nls"), f)]))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_residual_rev_kinds_need_symmetric_grids():
    xs = np.linspace(-0.4, 0.5, 10)
    ts = grid_1d(0.3, 9)
    f = wave_field(xs, ts, lambda X, T: np.exp(-X ** 2 - T ** 2))
    with pytest.raises(ValueError):
        residuals(resolve_kind("rev_spacetime_nls"), f)
    f2 = wave_field(grid_1d(0.4, 9), np.linspace(0.0, 0.4, 9),
                    lambda X, T: np.exp(-X ** 2 - T ** 2))
    with pytest.raises(ValueError):
        residuals(resolve_kind("rev_time_nls"), f2)


def test_residual_mkdv_complex_plane_wave():
    A, k = 0.5, 1.0
    omega = -k ** 3 - 6.0 * A ** 2 * k
    errs = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        errs.append(worst([local_residual(resolve_kind("local_mkdv", flavor="complex"), f)]))
    assert 3.2 < errs[0] / errs[1] < 4.8
    # the reversed-space-time real flavor closes on the same wave
    errs_rev = []
    for count in (21, 41):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.5, count)
        f = wave_field(xs, ts, lambda X, T: A * np.exp(1j * (k * X - omega * T)))
        errs_rev.append(worst([local_residual(resolve_kind("rev_spacetime_mkdv"), f)]))
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
        errs.append(worst([local_residual(kind, f)]))
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
        errs.append(worst([local_residual(resolve_kind("kdv_primitive"), f)]))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert errs[1] < 1e-3


def test_residual_kdv_requires_square():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    G = np.zeros((7, 7, 1, 2), dtype=complex)
    f = SolutionField(xs=xs, ts=ts, center=G,
                      slice_y=None, slice_z=None)
    with pytest.raises(ValueError):
        residuals(resolve_kind("kdv_primitive"), f)


def test_residual_grid_validation():
    xs = grid_1d(0.5, 7)
    f = wave_field(xs, grid_1d(0.2, 4), lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residuals(resolve_kind("local_nls"), f)  # too few t samples
    bad = np.array([-0.2, -0.1, 0.05, 0.1, 0.2])
    f2 = wave_field(xs, bad, lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residuals(resolve_kind("local_nls"), f2)
    with pytest.raises(ValueError):
        residuals(resolve_kind("coupled_diffusion"),
                  wave_field(xs, grid_1d(0.2, 7), lambda X, T: 0 * X))


def test_residual_solved_nls_field_converges():
    # fixed spans, doubled counts: compare at the shared centre sample so
    # the two levels measure the residual at the same (x, t)
    errs = []
    for N, count in ((32, 5), (64, 9)):
        xs = grid_1d(0.5, count)
        ts = grid_1d(0.2, count)
        sc = gaussian_scenario(20.0, 640, 8.0, N, xs, ts, [[0.75]],
                               kind=resolve_kind("local_nls"))
        field, _ = evaluate_solution(sc)
        res = local_residual(resolve_kind("local_nls"), field)
        errs.append(abs(res[count // 2 - 2, count // 2 - 2, 0, 0]))
    assert 2.6 < errs[0] / errs[1] < 5.5
    assert errs[1] < 0.05


def test_residual_kernel_matches_local_at_origin():
    xs = grid_1d(0.5, 9)
    ts = grid_1d(0.15, 7)
    sc = gaussian_scenario(16.0, 512, 6.0, 48, xs, ts, [[0.8]],
                           kind=resolve_kind("kernel_nls"))
    field, _ = evaluate_solution(sc)
    (_, (res_local,)), (_, (R1, R2)) = residuals(resolve_kind("kernel_nls"), field)
    assert np.allclose(R1[:, :, -1, :, :], res_local, rtol=0.0, atol=1e-12)
    assert np.allclose(R2[:, :, -1, :, :], res_local, rtol=0.0, atol=1e-12)
    assert worst([res_local]) <= worst([R1, R2]) + 1e-12
    assert worst([R1, R2]) < 0.2


def test_residual_kernel_mkdv_converges():
    errs = []
    for N, count in ((24, 5), (48, 9)):
        xs = grid_1d(0.25, count)
        ts = grid_1d(0.1, count)
        sc = gaussian_scenario(16.0, 512, 6.0, N, xs, ts, [[0.6]],
                               kind=resolve_kind("kernel_mkdv"))
        field, _ = evaluate_solution(sc)
        _, (_, slices) = residuals(resolve_kind("kernel_mkdv"), field)
        errs.append(worst(slices))
    assert 2.6 < errs[0] / errs[1] < 5.5


def test_coupled_partner_is_time_reflected_transpose():
    # coarse master grid: the reversed-time heat evolution amplifies the
    # DFT roundoff floor by exp(|t| 4 pi^2 kmax^2), so keep kmax small
    xs = 0.25 * np.arange(-2, 3)
    ts = 0.03 * np.arange(-2, 3)
    sc = gaussian_scenario(20.0, 160, 6.0, 24, xs, ts, [[0.6]],
                           kind=resolve_kind("coupled_diffusion"))
    field, report = evaluate_solution(sc)
    assert not report.any_below
    assert np.all(np.isfinite(field.center))
    # G~(x,t) is G(x,-t) transposed: the partner is that very solve
    assert np.array_equal(field.center_tilde, np.swapaxes(field.center[::-1], -1, -2))


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
                           outputs=("center", "residuals"),
                           kind=resolve_kind("coupled_diffusion"))
        field, _ = evaluate_solution(sc)
        (_, (R1,)), (_, (R2,)) = residuals(resolve_kind("coupled_diffusion"), field)
        mid_t, mid_x = R1.shape[0] // 2, R1.shape[1] // 2
        errs.append(max(abs(R1[mid_t, mid_x, 0, 0]), abs(R2[mid_t, mid_x, 0, 0])))
    assert 2.6 < errs[0] / errs[1] < 5.5


def test_coupled_residual_needs_partner():
    xs = grid_1d(0.5, 7)
    ts = grid_1d(0.2, 7)
    f = wave_field(xs, ts, lambda X, T: np.exp(-X ** 2))
    with pytest.raises(ValueError):
        residuals(resolve_kind("coupled_diffusion"), f)


def _random_field(rng, shape, n=7, K=3, partner=False):
    # symmetric n x n (x, t) grid with step 0.5 so the cubic terms weigh
    # as much as the stencils
    axis = 0.5 * np.arange(-(n // 2), n // 2 + 1)

    def draw(*dims):
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    a, b = shape
    return SolutionField(xs=axis, ts=axis, center=draw(n, n, a, b),
                         slice_y=draw(n, n, K, a, b), slice_z=draw(n, n, K, a, b),
                         center_tilde=draw(n, n, b, a) if partner else None)


def _adj(F):
    return np.conj(np.swapaxes(F, -1, -2))


def _tr(F):
    return np.swapaxes(F, -1, -2)


def _stencils(F, h):
    """F's interior, t derivative and x derivatives up to third order."""
    c = F[2:-2, 2:-2]
    ft = (F[3:-1, 2:-2] - F[1:-3, 2:-2]) / (2 * h)
    fx = (F[2:-2, 3:-1] - F[2:-2, 1:-3]) / (2 * h)
    fxx = (F[2:-2, 3:-1] - 2 * c + F[2:-2, 1:-3]) / h ** 2
    fxxx = (F[2:-2, 4:] - 2 * F[2:-2, 3:-1] + 2 * F[2:-2, 1:-3]
            - F[2:-2, :-4]) / (2 * h ** 3)
    return c, ft, fx, fxx, fxxx


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_displayed_equations_on_noncommuting_data(shape):
    # each equation written out as the README table displays it, on
    # random complex matrices, so every cubic product order is pinned
    rng = np.random.default_rng(20200 + shape[1])
    f = _random_field(rng, shape, partner=True)
    G = f.center
    g, gt, gx, gxx, gxxx = _stencils(G, 0.5)
    y, yt, yx, yxx, yxxx = _stencils(f.slice_y, 0.5)
    z, zt, zx, zxx, zxxx = _stencils(f.slice_z, 0.5)
    gk, gkx = g[..., None, :, :], gx[..., None, :, :]
    g_rt = G[::-1][2:-2, 2:-2]          # g(x, -t)
    g_rxt = G[::-1, ::-1][2:-2, 2:-2]   # g(-x, -t)
    mu1, mu2 = -0.7j, 0.4

    cases = []
    for s in (1, -1):
        nls = 1j * gt - gxx - 2 * s * g @ _adj(g) @ g
        cases.append((resolve_kind("local_nls", sign=s), nls, None))
        cases.append((resolve_kind("kernel_nls", sign=s), nls,
                      (1j * yt - yxx - 2 * s * y @ _adj(gk) @ gk,
                       1j * zt - zxx - 2 * s * gk @ _adj(gk) @ z)))
    cases += [
        (resolve_kind("rev_time_nls"),
         1j * gt - gxx - 2 * g @ _tr(g_rt) @ g, None),
        (resolve_kind("rev_spacetime_nls"),
         1j * gt - gxx - 2 * g @ _tr(g_rxt) @ g, None),
        (resolve_kind("local_mkdv"),
         gt + gxxx - 3 * (g @ _tr(g) @ gx + gx @ _tr(g) @ g), None),
        (resolve_kind("local_mkdv", flavor="complex"),
         gt + gxxx - 3 * (g @ _adj(g) @ gx + gx @ _adj(g) @ g), None),
        (resolve_kind("kernel_mkdv"),
         gt + gxxx - 3 * (g @ _tr(g) @ gx + gx @ _tr(g) @ g),
         (yt + yxxx - 3 * (y @ _tr(gk) @ gkx + yx @ _tr(gk) @ gk),
          zt + zxxx - 3 * (gk @ _tr(gk) @ zx + gkx @ _tr(gk) @ z))),
        (resolve_kind("rev_spacetime_mkdv"),
         gt + gxxx - 3 * (g @ _tr(g_rxt) @ gx + gx @ _tr(g_rxt) @ g), None),
        (resolve_kind("rev_spacetime_mkdv", flavor="complex"),
         gt + gxxx - 3 * (g @ _adj(g_rxt) @ gx + gx @ _adj(g_rxt) @ g), None),
        (resolve_kind("combined_degree3", mu1=mu1, mu2=mu2),
         gt - mu1 * gxx - mu2 * gxxx + 2 * mu1 * g @ _adj(g) @ g
         + 3 * mu2 * (g @ _adj(g) @ gx + gx @ _adj(g) @ g), None),
    ]
    if shape[0] == shape[1]:
        cases.append((resolve_kind("kdv_primitive"), gt + gxxx - 3 * gx @ gx, None))

    def same_modulus(R, lit):
        assert np.allclose(np.abs(R), np.abs(lit), rtol=0.0,
                           atol=1e-13 * np.abs(lit).max())

    for kind, local, slices in cases:
        rows = residuals(kind, f)
        (_, (res,)), *kernel_rows = rows
        same_modulus(res, local)
        assert len(kernel_rows) == (slices is not None)
        if slices is not None:
            (_, (R1, R2)), = kernel_rows
            same_modulus(R1, slices[0])
            same_modulus(R2, slices[1])

    p, pt, _, pxx, _ = _stencils(f.center_tilde, 0.5)
    (_, (R1,)), (_, (R2,)) = residuals(resolve_kind("coupled_diffusion"), f)
    same_modulus(R1, gt - gxx - 2 * g @ p @ g)
    same_modulus(R2, pt + pxx + 2 * p @ g @ p)


@pytest.mark.parametrize("name", KIND_NAMES)
def test_residual_rows_per_kind(name):
    # one row per equation the field obeys: the coupled pair's two, else
    # the kind's local PDE, plus for a kernel kind the slices row, with
    # both slice fields, only when the field holds the slices
    kind = resolve_kind(name, **({"mu1": -1j, "mu2": -1.0} if name == "combined_degree3" else {}))
    sliced = _random_field(np.random.default_rng(3), (2, 2), partner=True)
    plain = replace(sliced, slice_y=None, slice_z=None)
    rows = [(name, 1)]
    if name == "coupled_diffusion":
        rows = [("coupled_g", 1), ("coupled_g_tilde", 1)]
    kernel = [(name + "_slices", 2)] if name in ("kernel_nls", "kernel_mkdv") else []
    for f, expected in ((plain, rows), (sliced, rows + kernel)):
        got = residuals(kind, f)
        assert [(row, len(fields)) for row, fields in got] == expected
        assert all(R.shape[:2] == (3, 3) for _, fields in got for R in fields)


def _accepted_kinds():
    """Every kind at each sign and flavor it accepts."""
    for name, (_, companions) in _KINDS.items():
        pinned = {"mu1": -1j, "mu2": -1.0} if name == "combined_degree3" else {}
        for sign, flavor in companions:
            yield resolve_kind(name, sign=sign, flavor=flavor, **pinned)


@pytest.mark.parametrize("kind", list(_accepted_kinds()),
                         ids=lambda k: "%s-%s" % (k.name, k.companion))
def test_stencil_reach_is_what_the_residuals_read(kind):
    # a field on a study's refined axes at f = 4 over 9 base samples per
    # axis: base interior sample j sits at index j f, and the footprint
    # adds the samples within stencil_reach of them
    f = 4
    size = (9 - 1) * f + 1
    axis = np.linspace(-1.0, 1.0, size)
    rng = np.random.default_rng(29)

    def draw(*dims):
        return 0.5 * (rng.standard_normal(dims) + 1j * rng.standard_normal(dims))

    field = SolutionField(xs=axis, ts=axis, center=draw(size, size, 2, 2),
                          slice_y=draw(size, size, 3, 2, 2), slice_z=draw(size, size, 3, 2, 2),
                          center_tilde=draw(size, size, 2, 2))
    base = f * np.arange(2, 9 - 2)
    rows, cols = (np.unique(base[:, None] + np.arange(-r, r + 1))
                  for r in stencil_reach(kind))

    def blanked(mask):
        arrays = {key: getattr(field, key).copy()
                  for key in ("center", "slice_y", "slice_z", "center_tilde")}
        for arr in arrays.values():
            arr[mask] = np.nan
        return replace(field, **arrays)

    def at_base(f_in):
        # the slices' node axis as well as the matrix axes
        R = np.max([np.abs(F).reshape(F.shape[:2] + (-1,)).max(axis=-1)
                    for _, fields in residuals(kind, f_in) for F in fields], axis=0)
        # residuals trim two samples per end
        return R[np.ix_(base - 2, base - 2)]

    off = np.ones((size, size), dtype=bool)
    off[np.ix_(rows, cols)] = False
    assert np.isfinite(at_base(blanked(off))).all()
    for i in rows:
        assert np.isnan(at_base(blanked(np.s_[i, :]))).any(), ("t", i)
    for i in cols:
        assert np.isnan(at_base(blanked(np.s_[:, i]))).any(), ("x", i)


def test_skipped_sample_nan_footprint():
    # a skipped sample is NaN in the centre and both slices; the residual
    # is NaN exactly on the equation's stencil around it: +-1 in t, and
    # +-1 in x for NLS (second order) or +-2 for mKdV (third order)
    rng = np.random.default_rng(7)
    f = _random_field(rng, (2, 2), n=11)
    it, ix = 5, 5
    for arr in (f.center, f.slice_y, f.slice_z):
        arr[it, ix] = np.nan
    for kind, reach in ((resolve_kind("kernel_nls"), 1),
                        (resolve_kind("kernel_mkdv"), 2)):
        expected = np.zeros((11, 11), dtype=bool)
        expected[it - 1:it + 2, ix] = True
        expected[it, ix - reach:ix + reach + 1] = True
        expected = expected[2:-2, 2:-2]
        (_, (res,)), (_, (R1, R2)) = residuals(kind, f)
        assert np.array_equal(np.isnan(res).any(axis=(-2, -1)), expected)
        for R in (R1, R2):
            assert np.array_equal(np.isnan(R).any(axis=(-3, -2, -1)), expected)


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
    dx = quad.spacing
    rep = u_identity_check([kdv_Q(z, x, quad) for x in (-dx, 0.0, dx)], dx)
    assert rep.identity_ii_error == 0.0
    assert rep.identity_i_error == 0.0


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
    # a family whose last member is one step off the spacing fails
    # identity (i), though each member passes identity (ii)
    kernels = [kdv_Q(p, x, quad) for x in (-0.125, 0.0, 0.125, 0.375)]
    even = u_identity_check(kernels[:3], 0.125)
    uneven = u_identity_check(kernels[:2] + kernels[3:], 0.125)
    assert uneven.identity_ii_error < 1e-10
    assert uneven.identity_i_error > 10.0 * even.identity_i_error
