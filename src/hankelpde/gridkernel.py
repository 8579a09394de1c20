"""Uniform periodic master grid and matrix-valued profiles sampled on it.

A profile is a complex n x m matrix function of one real variable s,
sampled at the nodes of a uniform grid covering [-X, X), together with
the time it belongs to.  Downstream code only reads profile values at
grid nodes (the commensurability rules guarantee every needed argument
lands on one), so evaluation is exact lookup, never interpolation.
"""

from dataclasses import dataclass, field
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
    rows: int
    cols: int
    samples: np.ndarray = field(repr=False)
    time_stamp: float = 0.0
    exp_tag: tuple = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.node_count, self.rows, self.cols):
            raise ValueError("samples shape %r does not match (M, n, m) = %r"
                             % (arr.shape, (self.grid.node_count, self.rows, self.cols)))
        if not np.all(np.isfinite(arr)):
            raise ValueError("profile samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

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
class SpectralProfile:
    """Fourier coefficients of a MatrixProfile.

    coefficients has shape (M, n, m) and is indexed by ascending integer
    frequency k in {-M/2, ..., M/2-1}; the physical frequency of entry k
    is k/(2X).  Coefficients are Fourier-series normalized: the profile
    is reconstructed as sum_k c_k exp(2*pi*i*(k/(2X))*s).
    """

    grid: MasterGrid
    rows: int
    cols: int
    coefficients: np.ndarray = field(repr=False)
    time_stamp: float = 0.0

    @property
    def frequencies(self):
        M = self.grid.node_count
        return (np.arange(M) - M // 2) / (2.0 * self.grid.half_width)


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
    tag = None
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
        samples = exponential_samples(grid, float(spec.rate), A)
        tag = (float(spec.rate), A)
    elif spec.kind == "tabulated":
        samples = np.asarray(spec.values, dtype=complex)
        if samples.shape != (grid.node_count, n, m):
            raise ValueError("tabulated values shape %r does not match (M, n, m) = %r"
                             % (samples.shape, (grid.node_count, n, m)))
    else:
        raise ValueError("unknown initial data kind %r" % (spec.kind,))
    return MatrixProfile(grid=grid, rows=n, cols=m, samples=samples,
                         time_stamp=0.0, exp_tag=tag)


def exponential_samples(grid, rate, amp):
    """Samples of amp * e^{rate*s} at every grid node."""
    prof = np.exp(rate * grid.nodes)
    return prof[:, None, None] * np.asarray(amp, dtype=complex)[None, :, :]


def eval_at(p, s):
    """Value of the profile at the grid node s (exact lookup)."""
    return p.samples[p.grid.node_index(s)]


def to_spectral(p):
    """Fourier-series coefficients of a profile.

    Entry k (ascending order, k in {-M/2..M/2-1}) approximates
    (1/(2X)) * integral of p(s) exp(-2*pi*i*(k/(2X))*s) ds, so the
    reconstruction uses exp(+2*pi*i*(k/(2X))*s).
    """
    M = p.grid.node_count
    raw = np.fft.fft(p.samples, axis=0) / M
    k = np.fft.fftfreq(M, d=1.0 / M)  # integer frequencies in fft order
    phase = np.where(np.round(k).astype(int) % 2 == 0, 1.0, -1.0)
    coeffs = np.fft.fftshift(raw * phase[:, None, None], axes=0)
    return SpectralProfile(grid=p.grid, rows=p.rows, cols=p.cols,
                           coefficients=coeffs, time_stamp=p.time_stamp)


def from_spectral(sp):
    """Inverse of to_spectral."""
    M = sp.grid.node_count
    raw = np.fft.ifftshift(sp.coefficients, axes=0)
    k = np.fft.fftfreq(M, d=1.0 / M)
    phase = np.where(np.round(k).astype(int) % 2 == 0, 1.0, -1.0)
    samples = np.fft.ifft(raw * phase[:, None, None] * M, axis=0)
    return MatrixProfile(grid=sp.grid, rows=sp.rows, cols=sp.cols,
                         samples=samples, time_stamp=sp.time_stamp)
