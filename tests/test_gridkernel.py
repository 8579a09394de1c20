import numpy as np
import pytest

from hankelpde.gridkernel import (
    InitialDataSpec,
    MatrixProfile,
    make_uniform_grid,
    sample_profile,
)


def test_grid_nodes_small():
    g = make_uniform_grid(1.0, 4)
    assert np.allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5])
    assert g.spacing == 0.5


def test_grid_spacing():
    g = make_uniform_grid(20.0, 512)
    assert g.spacing == 0.078125


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        make_uniform_grid(0.0, 8)
    with pytest.raises(ValueError):
        make_uniform_grid(-2.0, 8)
    with pytest.raises(ValueError):
        make_uniform_grid(1.0, 7)
    with pytest.raises(ValueError):
        make_uniform_grid(1.0, 2)


def test_exponential_step_sampling():
    g = make_uniform_grid(4.0, 32)
    p = sample_profile(InitialDataSpec(kind="exponential_step", amplitude=[[1.0]], rate=1.0),
                       g, 1, 1)
    assert abs(p.samples[p.grid.node_index(-1.0)][0, 0] - np.exp(-1.0)) < 1e-15
    assert p.samples[p.grid.node_index(0.0)][0, 0] == 1.0
    assert p.samples[p.grid.node_index(0.25)][0, 0] == 0.0
    assert p.time_stamp == 0.0


def test_exponential_step_matrix_at_zero():
    g = make_uniform_grid(2.0, 16)
    A = [[0.0, 1.0], [1.0, 0.0]]
    p = sample_profile(InitialDataSpec(kind="exponential_step", amplitude=A, rate=2.0),
                       g, 2, 2)
    assert np.array_equal(p.samples[p.grid.node_index(0.0)], np.array(A, dtype=complex))


def test_zero_gaussian_is_zero_profile():
    g = make_uniform_grid(2.0, 16)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    assert np.all(p.samples == 0.0)


def test_sample_profile_validation():
    g = make_uniform_grid(2.0, 16)
    with pytest.raises(ValueError):
        sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0, 0.0]], width=1.0),
                       g, 2, 2)
    with pytest.raises(ValueError):
        sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=-1.0),
                       g, 1, 1)
    with pytest.raises(ValueError):
        sample_profile(InitialDataSpec(kind="exponential_step", amplitude=[[1.0]], rate=0.0),
                       g, 1, 1)
    with pytest.raises(ValueError):
        sample_profile(InitialDataSpec(kind="nope", amplitude=[[1.0]]), g, 1, 1)


def test_node_index_errors():
    g = make_uniform_grid(1.0, 8)
    with pytest.raises(ValueError):
        g.node_index(2.0)  # out of domain
    with pytest.raises(ValueError):
        g.node_index(0.1)  # between nodes
    assert g.node_index(-0.25) == 3


def test_exponential_kind_tagged_and_exact():
    g = make_uniform_grid(8.0, 64)
    A = np.array([[0.5 + 0.25j]])
    p = sample_profile(InitialDataSpec(kind="exponential", amplitude=A, rate=1.5), g, 1, 1)
    assert p.exp_tag is not None
    rate, amp = p.exp_tag
    assert rate == 1.5
    assert np.array_equal(amp, A)
    s = g.nodes[5]
    assert abs(p.samples[p.grid.node_index(s)][0, 0] - A[0, 0] * np.exp(1.5 * s)) < 1e-14


def test_tabulated_round_trip():
    g = make_uniform_grid(2.0, 16)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((16, 2, 3)) + 1j * rng.standard_normal((16, 2, 3))
    p = sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 2, 3)
    assert np.array_equal(p.samples, vals)
    with pytest.raises(ValueError):
        sample_profile(InitialDataSpec(kind="tabulated", values=vals), g, 3, 2)


def test_boundary_decay_ratio():
    g = make_uniform_grid(10.0, 128)
    pg = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=0.5),
                        g, 1, 1)
    assert pg.decay_ok(1e-10)
    pe = sample_profile(InitialDataSpec(kind="exponential", amplitude=[[1.0]], rate=1.0),
                        g, 1, 1)
    # a pure exponential peaks at the boundary by design
    assert pe.boundary_decay_ratio() == 1.0
    assert not pe.decay_ok(1e-10)
    z = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[0.0]], width=1.0),
                       g, 1, 1)
    assert z.boundary_decay_ratio() == 0.0


def test_profile_rejects_nonfinite():
    g = make_uniform_grid(1.0, 8)
    bad = np.zeros((8, 1, 1), dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        MatrixProfile(grid=g, samples=bad)


def test_samples_are_immutable():
    g = make_uniform_grid(1.0, 8)
    p = sample_profile(InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=0.3),
                       g, 1, 1)
    with pytest.raises(ValueError):
        p.samples[0] = 5.0
