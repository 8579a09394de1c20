import numpy as np
import pytest

from hankelpde.companion import (
    _MAPS,
    companion_field,
    companion_parameters,
    companion_profile,
    reflect_samples,
    space_reversed,
    time_reversed,
)
from hankelpde.dispersion import DispersionParams, evolve
from hankelpde.fredholm import pairings
from hankelpde.gridkernel import (
    InitialDataSpec,
    MatrixProfile,
    make_uniform_grid,
    sample_profile,
)
from oracles import companion_consistency_residual

NLS = DispersionParams(mu1=-1j, mu2=0.0)
KDV = DispersionParams(mu1=0.0, mu2=-1.0)
HEAT = DispersionParams(mu1=1.0, mu2=0.0)


def test_companion_parameters():
    for kind, params, expect in (
        ("adjoint", NLS, (1j, 0.0)),
        ("neg_adjoint", NLS, (1j, 0.0)),
        ("neg_transpose", KDV, (0.0, -1.0)),
        ("transpose_rev_time", NLS, (1j, 0.0)),
        ("transpose_rev_time", HEAT, (-1.0, 0.0)),
        ("transpose_rev_spacetime", NLS, (1j, 0.0)),
        ("neg_transpose_rev_spacetime", KDV, (0.0, -1.0)),
        ("neg_adjoint_rev_spacetime", KDV, (0.0, -1.0)),
    ):
        out = companion_parameters(kind, params)
        assert out.mu1 == expect[0] and out.mu2 == expect[1]


def test_adjoint_of_real_scalar_is_identity():
    g = make_uniform_grid(6.0, 64)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=0.8),
                       g, 1, 1)
    q = companion_profile(p, "adjoint")
    assert np.array_equal(q.samples, p.samples)
    r = companion_profile(p, "transpose_rev_time")
    assert np.array_equal(r.samples, p.samples)


def test_neg_transpose_nilpotent_matrix():
    g = make_uniform_grid(4.0, 32)
    A = [[0.0, 1.0], [0.0, 0.0]]
    p = sample_profile(InitialDataSpec(kind="exponential_step", amplitude=A, rate=1.0),
                       g, 2, 2)
    q = companion_profile(p, "neg_transpose")
    want = np.array([[0.0, 0.0], [-np.exp(-0.5), 0.0]])
    assert np.abs(q.samples[q.grid.node_index(-0.5)] - want).max() < 1e-15


def test_rev_spacetime_of_exponential_closed_form():
    # p(s;t) = e^{s-t} solves the third-order flow with mu2 = -1; the
    # companion reads p at -t and reflects the argument, giving e^{-s+t}
    g = make_uniform_grid(6.0, 48)
    p0 = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=1.0),
                        g, 1, 1)
    t = 0.7
    q = pairings(p0, KDV, "transpose_rev_spacetime", [t])[0][1]
    s = g.nodes[10]
    assert abs(q.samples[q.grid.node_index(s)][0, 0] - np.exp(-s + t)) < 1e-12
    assert q.time_stamp == pytest.approx(t)


def test_reflection_self_inverse_bitwise():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2))
    assert np.array_equal(reflect_samples(reflect_samples(vals)), vals)


def test_adjoint_involution_bitwise():
    g = make_uniform_grid(4.0, 32)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((32, 2, 3)) + 1j * rng.standard_normal((32, 2, 3))
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 2, 3)
    q = companion_profile(companion_profile(p, "adjoint"), "adjoint")
    assert np.array_equal(q.samples, p.samples)
    assert q.rows == 2 and q.cols == 3


def test_dimension_swap():
    g = make_uniform_grid(4.0, 32)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((32, 2, 3)) + 0j
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 2, 3)
    q = companion_profile(p, "neg_adjoint")
    assert q.rows == 3 and q.cols == 2
    assert np.array_equal(q.samples, -np.conj(vals.transpose(0, 2, 1)))


def test_neg_identity_and_unknown_kind_rejected():
    g = make_uniform_grid(4.0, 32)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=1.0),
                       g, 1, 1)
    with pytest.raises(ValueError):
        companion_profile(p, "neg_identity")
    with pytest.raises(ValueError):
        companion_profile(p, "reverse")


def test_exponential_tag_companion_closed_form():
    g = make_uniform_grid(8.0, 64)
    A = np.array([[1.0 + 2.0j, 0.5], [0.0, 1.0 - 1.0j]])
    a = 1.0
    p0 = sample_profile(InitialDataSpec(kind="exponential", amplitude=A, rate=a), g, 2, 2)
    t = 0.4
    q = pairings(p0, KDV, "neg_adjoint_rev_spacetime", [t])[0][1]
    s = g.nodes[20]
    # p(s;t) = A e^{a s - a^3 t}, so -p^dagger(-s;-t) = -A^dagger e^{-a s + a^3 t}
    want = -A.conj().T * np.exp(-a * s + a ** 3 * t)
    assert np.abs(q.samples[q.grid.node_index(s)] - want).max() < 1e-12
    assert q.exp_tag[0] == -a


def test_consistency_zero_profile():
    g = make_uniform_grid(4.0, 32)
    z = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    assert companion_consistency_residual(z, "adjoint", NLS, [0.0, 0.1, 0.2]) == 0.0


def consistency_ratio(p0, kind, params, dt):
    r1 = companion_consistency_residual(p0, kind, params, [j * dt for j in range(5)])
    r2 = companion_consistency_residual(p0, kind, params, [j * dt / 2 for j in range(5)])
    return r1 / r2


def test_consistency_adjoint_nls_second_order():
    g = make_uniform_grid(8.0, 64)
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=1.0),
                        g, 1, 1)
    assert 3.0 <= consistency_ratio(p0, "adjoint", NLS, 0.02) <= 5.0


def test_consistency_rev_spacetime_mkdv_second_order():
    g = make_uniform_grid(8.0, 64)
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.8]], width=1.0),
                        g, 1, 1)
    assert 3.0 <= consistency_ratio(p0, "neg_transpose_rev_spacetime", KDV, 0.02) <= 5.0


def test_consistency_rev_time_heat():
    # companion of the diffusion kind satisfies the backward heat flow;
    # keep the horizon short so nothing blows up
    g = make_uniform_grid(8.0, 64)
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=1.0),
                        g, 1, 1)
    r = companion_consistency_residual(p0, "transpose_rev_time", HEAT,
                                       [j * 0.01 for j in range(5)])
    assert r <= 1e-2


def test_consistency_requires_three_samples():
    g = make_uniform_grid(4.0, 32)
    p0 = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=1.0),
                        g, 1, 1)
    with pytest.raises(ValueError):
        companion_consistency_residual(p0, "adjoint", NLS, [0.0, 0.1])


# every companion kind by hand: (conjugate, sign, reflects s, reads p at -t)
COMPANION_TABLE = {
    "adjoint": (True, 1.0, False, False),
    "neg_adjoint": (True, -1.0, False, False),
    "transpose_rev_spacetime": (False, 1.0, True, True),
    "transpose_rev_time": (False, 1.0, False, True),
    "neg_transpose": (False, -1.0, False, False),
    "neg_transpose_rev_spacetime": (False, -1.0, True, True),
    "neg_adjoint_rev_spacetime": (True, -1.0, True, True),
}


def _hand_matrix_map(vals, conjugate, sign):
    out = np.empty(vals.shape[:-2] + vals.shape[:-3:-1], dtype=complex)
    for index in np.ndindex(vals.shape[:-2]):
        block = vals[index].T
        out[index] = sign * (block.conj() if conjugate else block)
    return out


@pytest.mark.parametrize("kind", sorted(COMPANION_TABLE))
def test_companion_maps_match_the_hand_table(kind):
    conjugate, sign, reflects, reverses = COMPANION_TABLE[kind]
    assert time_reversed(kind) == reverses
    assert space_reversed(kind) == reflects
    rng = np.random.default_rng(17)
    g = make_uniform_grid(4.0, 32)
    vals = rng.standard_normal((32, 2, 3)) + 1j * rng.standard_normal((32, 2, 3))
    p = MatrixProfile(grid=g, samples=vals, time_stamp=0.3)
    q = companion_profile(p, kind)
    # reflection s -> -s maps node j to node -j, modulo the periodic grid
    source = vals[(-np.arange(32)) % 32] if reflects else vals
    assert np.array_equal(q.samples, _hand_matrix_map(source, conjugate, sign))
    assert q.time_stamp == (-0.3 if reverses else 0.3)

    field = rng.standard_normal((5, 4, 2, 3)) + 1j * rng.standard_normal((5, 4, 2, 3))
    want = np.empty((5, 4, 3, 2), dtype=complex)
    for it in range(5):
        for ix in range(4):
            src = field[4 - it if reverses else it, 3 - ix if reflects else ix]
            want[it, ix] = _hand_matrix_map(src, conjugate, sign)
    assert np.array_equal(companion_field(field, kind), want)


def test_companion_table_refuses_neg_identity_and_unknown_names():
    assert not time_reversed("neg_identity")
    assert not space_reversed("neg_identity")
    g = make_uniform_grid(4.0, 32)
    p = MatrixProfile(grid=g, samples=np.ones((32, 2, 3)))
    for kind in ("neg_identity", "reverse"):
        with pytest.raises(ValueError):
            companion_profile(p, kind)
        with pytest.raises(ValueError):
            companion_field(np.ones((5, 4, 2, 3)), kind)
        with pytest.raises(ValueError):
            companion_parameters(kind, NLS)
        with pytest.raises(ValueError):
            companion_consistency_residual(p, kind, NLS, [0.0, 0.1, 0.2])


@pytest.mark.parametrize("kind", sorted(_MAPS))
def test_pairing_is_the_companion_of_the_evolved_data(kind):
    # the hand-built pair: p evolved to t, and the companion map of p
    # evolved to -t (time-reversed maps) or to t; none for neg_identity
    params = DispersionParams(mu1=-0.7j, mu2=0.4)
    g = make_uniform_grid(6.0, 48)
    rng = np.random.default_rng(29)
    vals = rng.standard_normal((48, 2, 3)) + 1j * rng.standard_normal((48, 2, 3))
    amp = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    for p0 in (sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 2, 3),
               sample_profile(InitialDataSpec(kind="exponential", amplitude=amp, rate=0.8),
                              g, 2, 3)):
        ts = (0.0, 0.3, -0.45)
        assert pairings(p0, params, kind, ts)[0][0] is p0
        for t, (p_t, ptil) in zip(ts, pairings(p0, params, kind, ts)):
            want = evolve(p0, params, t)
            assert np.array_equal(p_t.samples, want.samples)
            assert p_t.time_stamp == want.time_stamp == t
            if kind == "neg_identity":
                assert ptil is None
                continue
            reverses = COMPANION_TABLE[kind][3]
            hand = companion_profile(evolve(p0, params, -t if reverses else t), kind)
            assert np.array_equal(ptil.samples, hand.samples)
            assert ptil.time_stamp == hand.time_stamp == t
            if p0.exp_tag is None:
                assert ptil.exp_tag is None
            else:
                assert p_t.exp_tag is not None
                assert ptil.exp_tag[0] == hand.exp_tag[0]
                assert np.array_equal(ptil.exp_tag[1], hand.exp_tag[1])
