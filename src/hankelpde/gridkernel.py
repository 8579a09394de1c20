"""Uniform periodic master grid and matrix-valued profiles sampled on it.

A profile is a complex n x m matrix function of one real variable s,
sampled at the nodes of a uniform grid covering [-X, X), together with
the time it belongs to.  Downstream code only reads profile values at
grid nodes (the commensurability rules guarantee every needed argument
lands on one), so evaluation is exact lookup, never interpolation.
Pure exponential data amp * e^{rate*s} carry an exact tag; every such
profile, initial, evolved, differentiated or companion, is built by
exponential_profile.
"""

from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

DECAY_TOL = 1e-10
NODE_TOL = 1e-9  # relative to spacing, for on-node tests


@dataclass(frozen=True)
class MasterGrid:
    """Uniform nodes s_i = -X + i*h_x for i = 0..M-1, covering [-X, X)."""

    half_width: float
    node_count: int

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.node_count

    @property
    def nodes(self):
        return -self.half_width + self.spacing * np.arange(self.node_count)

    def node_index(self, s):
        """Index of the node at s.

        Raises ValueError when s is outside [-X, X) or more than
        1e-9*h_x away from every node; an off-node argument signals an
        incommensurate grid configuration, so we refuse to interpolate.
        """
        h = self.spacing
        i = int(round((s + self.half_width) / h))
        if i < 0 or i >= self.node_count:
            raise ValueError("argument %g outside grid domain [%g, %g)"
                             % (s, -self.half_width, self.half_width))
        if abs(s - (-self.half_width + i * h)) > NODE_TOL * h:
            raise ValueError("argument %g is not a grid node (spacing %g); "
                             "check grid commensurability" % (s, h))
        return i


def make_uniform_grid(X, M):
    """Build the master grid with half width X and M nodes."""
    if not X > 0:
        raise ValueError("half width must be positive, got %g" % X)
    if M < 4 or M % 2 != 0:
        raise ValueError("node count must be an even integer >= 4, got %r" % (M,))
    return MasterGrid(half_width=float(X), node_count=int(M))


@dataclass(frozen=True)
class MatrixProfile:
    """Samples of a matrix function on a MasterGrid at one time.

    samples has shape (M, n, m).  exp_tag, when present, is a pair
    (rate, amplitude_matrix) recording that the samples are exactly
    amplitude * e^{rate*s} on every node; evolution and companion maps
    then act on the tag analytically instead of through the DFT.
    """

    grid: MasterGrid
    samples: np.ndarray = field(repr=False)
    time_stamp: float = 0.0
    exp_tag: tuple = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] != self.grid.node_count:
            raise ValueError("samples shape %r is not (M, n, m) with M = %d"
                             % (arr.shape, self.grid.node_count))
        if not np.all(np.isfinite(arr)):
            raise ValueError("profile samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @cached_property
    def spectrum(self):
        """The DFT of the samples along s, taken once per profile."""
        out = np.fft.fft(self.samples, axis=0)
        out.flags.writeable = False
        return out

    @property
    def rows(self):
        return self.samples.shape[1]

    @property
    def cols(self):
        return self.samples.shape[2]

    def boundary_decay_ratio(self):
        """Max sample norm over the outer 5% of the domain relative to
        the global max.  Returns 0 for the zero profile."""
        mags = np.abs(self.samples).max(axis=(1, 2))
        total = mags.max()
        if total == 0.0:
            return 0.0
        outer = np.abs(self.grid.nodes) >= 0.95 * self.grid.half_width
        return float(mags[outer].max() / total)

    def decay_ok(self, decay_tol=DECAY_TOL):
        return self.boundary_decay_ratio() <= decay_tol


@dataclass(frozen=True)
class InitialDataSpec:
    """Description of initial data for sample_profile.

    kind is one of:
      'gaussian'          amplitude * exp(-(s-center)^2 / (2*width^2))
      'exponential_step'  amplitude * exp(rate*s) for s <= 0, zero for s > 0
      'exponential'       amplitude * exp(rate*s) on every node (tagged,
                          so evolution and reflection stay exact)
      'tabulated'         explicit samples, one matrix per node
    """

    kind: str
    amplitude: np.ndarray = None
    width: float = None
    center: float = 0.0
    rate: float = None
    values: np.ndarray = None


def _amplitude_matrix(spec, n, m):
    A = np.asarray(spec.amplitude, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.shape != (n, m):
        raise ValueError("amplitude shape %r does not match (n, m) = %r"
                         % (A.shape, (n, m)))
    return A


def sample_profile(spec, grid, n, m):
    """Sample initial data on the master grid at time 0."""
    s = grid.nodes
    if spec.kind == "gaussian":
        A = _amplitude_matrix(spec, n, m)
        if spec.width is None or not spec.width > 0:
            raise ValueError("gaussian width must be positive, got %r" % (spec.width,))
        prof = np.exp(-((s - spec.center) ** 2) / (2.0 * spec.width ** 2))
        samples = prof[:, None, None] * A[None, :, :]
    elif spec.kind == "exponential_step":
        A = _amplitude_matrix(spec, n, m)
        if spec.rate is None or not spec.rate > 0:
            raise ValueError("exponential rate must be positive, got %r" % (spec.rate,))
        prof = np.where(s <= 0.0, np.exp(spec.rate * s), 0.0)
        samples = prof[:, None, None] * A[None, :, :]
    elif spec.kind == "exponential":
        A = _amplitude_matrix(spec, n, m)
        if spec.rate is None or not spec.rate > 0:
            raise ValueError("exponential rate must be positive, got %r" % (spec.rate,))
        return exponential_profile(grid, float(spec.rate), A, 0.0)
    elif spec.kind == "tabulated":
        samples = np.asarray(spec.values, dtype=complex)
        if samples.shape != (grid.node_count, n, m):
            raise ValueError("tabulated values shape %r does not match (M, n, m) = %r"
                             % (samples.shape, (grid.node_count, n, m)))
    else:
        raise ValueError("unknown initial data kind %r" % (spec.kind,))
    return MatrixProfile(grid=grid, samples=samples)


def exponential_profile(grid, rate, amp, time_stamp):
    """The exp-tagged profile amp * e^{rate*s}, sampled at every node."""
    amp = np.asarray(amp, dtype=complex)
    samples = np.exp(rate * grid.nodes)[:, None, None] * amp[None, :, :]
    return MatrixProfile(grid=grid, samples=samples, time_stamp=time_stamp,
                         exp_tag=(rate, amp))

