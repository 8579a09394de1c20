import numpy as np
import pytest

from hankelpde.dispersion import (
    DispersionParams,
    GrowthError,
    evolve,
    exp_rate_symbol,
)
from hankelpde.gridkernel import (
    InitialDataSpec,
    make_uniform_grid,
    sample_profile,
)
from oracles import dispersion_residual, spectral_derivative

NLS = DispersionParams(mu1=-1j, mu2=0.0)
KDV = DispersionParams(mu1=0.0, mu2=-1.0)
HEAT = DispersionParams(mu1=1.0, mu2=0.0)


def gaussian_profile(grid, amp=1.0, width=1.0, center=0.0):
    return sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[amp]],
                                          width=width, center=center), grid, 1, 1)


def test_symbol_hand_values():
    # the grid multiplier's exponent at frequency k is the flow
    # polynomial at z = 2*pi*i*k
    assert exp_rate_symbol(NLS, 0.0) == 0.0
    assert abs(exp_rate_symbol(NLS, 2j * np.pi * 1.0) - 4j * np.pi ** 2) < 1e-12
    assert abs(exp_rate_symbol(KDV, 2j * np.pi * 1.0) - 8j * np.pi ** 3) < 1e-12


def test_evolve_zero_time_is_identity():
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g)
    assert evolve(p, NLS, 0.0) is p


def test_schrodinger_preserves_mode_magnitudes():
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g, amp=1.0 + 0.5j, width=0.8)
    q = evolve(p, NLS, 0.7)
    a = np.abs(np.fft.fft(p.samples, axis=0) / 64)
    b = np.abs(np.fft.fft(q.samples, axis=0) / 64)
    assert np.abs(a - b).max() <= 1e-12


def test_heat_gaussian_closed_form():
    # independent oracle: under dp/dt = p_ss a gaussian of variance s0^2
    # becomes amp*s0/sqrt(s0^2+2t) * exp(-s^2/(2*(s0^2+2t)))
    g = make_uniform_grid(16.0, 256)
    s0 = 1.0
    t = 0.1
    p = gaussian_profile(g, amp=2.0, width=s0)
    q = evolve(p, HEAT, t)
    v = s0 ** 2 + 2.0 * t
    exact = 2.0 * s0 / np.sqrt(v) * np.exp(-g.nodes ** 2 / (2.0 * v))
    assert np.abs(q.samples[:, 0, 0] - exact).max() <= 1e-8
    assert q.time_stamp == t


def test_schrodinger_gaussian_closed_form():
    # independent oracle: under dp/dt = -i p_ss the gaussian variance
    # continues analytically, z = s0^2 - 2i t
    g = make_uniform_grid(16.0, 256)
    s0 = 1.0
    t = 0.3
    c = 0.5
    p = gaussian_profile(g, amp=1.5, width=s0, center=c)
    q = evolve(p, NLS, t)
    z = s0 ** 2 - 2j * t
    exact = 1.5 * s0 / np.sqrt(z) * np.exp(-((g.nodes - c) ** 2) / (2.0 * z))
    assert np.abs(q.samples[:, 0, 0] - exact).max() <= 1e-8


def test_semigroup():
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g, width=0.7)
    a = evolve(evolve(p, KDV, 0.3), KDV, 0.5)
    b = evolve(p, KDV, 0.8)
    scale = np.abs(b.samples).max()
    assert np.abs(a.samples - b.samples).max() / scale <= 1e-12
    assert a.time_stamp == pytest.approx(0.8)


def test_reversibility():
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g, width=0.7)
    back = evolve(evolve(p, NLS, 1.3), NLS, -1.3)
    scale = np.abs(p.samples).max()
    assert np.abs(back.samples - p.samples).max() / scale <= 1e-11


def test_l2_norm_preserved_for_unitary_symbols():
    g = make_uniform_grid(8.0, 128)
    p = gaussian_profile(g, amp=1.0 - 0.3j, width=0.6)
    for params, t in ((NLS, 0.9), (KDV, 0.4)):
        q = evolve(p, params, t)
        n0 = (np.abs(p.samples) ** 2).sum() * g.spacing
        n1 = (np.abs(q.samples) ** 2).sum() * g.spacing
        assert abs(n1 - n0) / n0 <= 1e-11


def test_spectral_derivative_single_mode():
    g = make_uniform_grid(2.0, 32)
    kappa = 3 / 4.0  # frequency of integer mode k=3
    vals = np.exp(2j * np.pi * kappa * g.nodes).reshape(32, 1, 1)
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 1, 1)
    d2 = spectral_derivative(p, 2)
    exact = (2j * np.pi * kappa) ** 2 * vals
    assert np.abs(d2.samples - exact).max() <= 1e-10


def test_exponential_tag_evolution_exact():
    g = make_uniform_grid(10.0, 64)
    a = 1.0
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[2.0]], rate=a),
                       g, 1, 1)
    t = 0.8
    q = evolve(p, KDV, t)
    # pure exponential solves the linear flow with rate mu1*a^2 + mu2*a^3
    lam = KDV.mu1 * a ** 2 + KDV.mu2 * a ** 3
    s = g.nodes[17]
    assert abs(q.samples[q.grid.node_index(s)][0, 0] - 2.0 * np.exp(lam * t + a * s)) < 1e-12
    assert q.exp_tag is not None
    d3 = spectral_derivative(q, 3)
    assert abs(d3.samples[d3.grid.node_index(s)][0, 0] - a ** 3 * q.samples[q.grid.node_index(s)][0, 0]) < 1e-12


def test_dispersion_residual_zero_profile():
    g = make_uniform_grid(4.0, 32)
    z = gaussian_profile(g, amp=0.0)
    fam = [evolve(z, NLS, t) for t in (0.0, 0.1, 0.2)]
    # evolve(z, 0) short-circuits; stamps must still be uniform
    fam = [z] + fam[1:]
    assert dispersion_residual(fam, NLS) == 0.0


def test_dispersion_residual_requires_three_uniform_snapshots():
    g = make_uniform_grid(4.0, 32)
    p = gaussian_profile(g)
    with pytest.raises(ValueError):
        dispersion_residual([p, evolve(p, NLS, 0.1)], NLS)
    bad = [p, evolve(p, NLS, 0.1), evolve(p, NLS, 0.3)]
    with pytest.raises(ValueError):
        dispersion_residual(bad, NLS)


def residual_at_dt(p, params, dt):
    fam = [evolve(p, params, j * dt) for j in range(5)]
    fam[0] = p
    return dispersion_residual(fam, params)


def test_dispersion_residual_second_order_gaussian():
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g, width=1.0)
    r1 = residual_at_dt(p, NLS, 0.02)
    r2 = residual_at_dt(p, NLS, 0.01)
    assert 3.0 <= r1 / r2 <= 5.0


def test_dispersion_residual_second_order_step():
    g = make_uniform_grid(8.0, 64)
    p = sample_profile(InitialDataSpec(kind="exponential_step", amplitude=[[1.0]], rate=1.0),
                       g, 1, 1)
    r1 = residual_at_dt(p, KDV, 2e-5)
    r2 = residual_at_dt(p, KDV, 1e-5)
    assert 3.0 <= r1 / r2 <= 5.0


def test_growth_guard_antidiffusion():
    g = make_uniform_grid(10.0, 256)
    p = gaussian_profile(g, width=0.2)
    with pytest.raises(GrowthError):
        evolve(p, DispersionParams(mu1=-1.0, mu2=0.0), 5.0)


def test_growth_guard_exponential_tag():
    g = make_uniform_grid(10.0, 64)
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=2.0),
                       g, 1, 1)
    with pytest.raises(GrowthError):
        evolve(p, DispersionParams(mu1=0.0, mu2=1.0), 100.0)


def test_strong_decay_is_not_flagged():
    g = make_uniform_grid(10.0, 256)
    p = gaussian_profile(g, width=0.2)
    q = evolve(p, HEAT, 5.0)  # Re(t*symbol) is hugely negative, harmless
    assert np.all(np.isfinite(q.samples))


def test_real_flows_keep_real_data_exactly_real():
    # real mu1 and mu2 map real data to real data, and the real inverse
    # transform keeps every imaginary part exactly zero, so the Hankel
    # windows downstream are read as real; the values are the complex
    # transform's to round-off.  An imaginary mu1 (NLS) makes real data
    # complex, and complex data stay complex under a real flow.
    g = make_uniform_grid(8.0, 64)
    p = gaussian_profile(g, amp=0.7, width=0.8, center=0.3)
    z = 2j * np.pi * np.fft.fftfreq(64, d=g.spacing)
    for params, t in ((KDV, 0.4), (HEAT, 0.1), (HEAT, -0.01),
                      (DispersionParams(mu1=0.5, mu2=-1.0), 0.2)):
        q = evolve(p, params, t)
        assert not q.samples.imag.any()
        sym = np.exp(t * exp_rate_symbol(params, z))
        want = np.fft.ifft(sym[:, None, None] * np.fft.fft(p.samples, axis=0), axis=0)
        assert np.abs(q.samples - want).max() <= 1e-14 * np.abs(want).max()
    for order in (1, 2, 3):
        assert not spectral_derivative(p, order).samples.imag.any()
    assert np.abs(evolve(p, NLS, 0.4).samples.imag).max() > 1e-3
    complex_data = gaussian_profile(g, amp=0.7 + 0.1j, width=0.8)
    assert np.abs(evolve(complex_data, KDV, 0.4).samples.imag).max() > 1e-3


def test_conjugation_reverses_the_nls_flow():
    # an imaginary flow polynomial has conj sigma(z) = -sigma(-z) on the
    # imaginary grid modes, so real data evolve to p_{-t} = conj p_t, on
    # sampled data (a non-normal 2x2 Gaussian) and exactly on exp-tagged
    # data; a real flow (heat) has no such symmetry
    g = make_uniform_grid(20.0, 640)
    gauss = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.5, 0.32], [0.1, 0.4]],
                                           width=1.0), g, 2, 2)
    tagged = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[-1.0]], rate=1.0),
                            g, 1, 1)
    for p in (gauss, tagged):
        for t in (0.05, 0.8):
            ahead, back = evolve(p, NLS, t), evolve(p, NLS, -t)
            assert np.abs(ahead.samples.imag).max() > 1e-3
            assert np.abs(np.conj(ahead.samples) - back.samples).max() \
                <= 1e-15 * np.abs(back.samples).max()
    assert evolve(tagged, NLS, 0.8).exp_tag is not None
    ahead, back = evolve(gauss, HEAT, 0.01), evolve(gauss, HEAT, -0.01)
    assert np.abs(ahead.samples - back.samples).max() > 1e-4
