"""Companion maps of kernel profiles and of solved fields.

Each equation family pairs the kernel profile p with a companion
profile built by some combination of matrix transpose or conjugate
transpose, an overall sign, reflection of the argument s -> -s, and
reflection of time.  The companion is always derived from the evolved
p, never evolved on its own, so the pairing conditions hold by
construction.  This module is the only place the map is encoded:
companion_profile applies it to a profile (an exp-tagged profile keeps
its tag), companion_at gives the companion at a wall-clock time (the
study's rank-one closed form reads its partner there),
companion_field applies it to a solved field (the residual flow's
partner), and companion_consistency_residual certifies the pairing
numerically.
"""

import numpy as np

from .dispersion import DispersionParams, dispersion_residual, evolve
from .gridkernel import MatrixProfile, exponential_profile

COMPANION_KINDS = (
    "adjoint",
    "neg_adjoint",
    "transpose_rev_spacetime",
    "transpose_rev_time",
    "neg_transpose",
    "neg_transpose_rev_spacetime",
    "neg_adjoint_rev_spacetime",
    "neg_identity",
)

# which structural pieces each kind applies
_CONJ = {"adjoint", "neg_adjoint", "neg_adjoint_rev_spacetime"}
_NEG = {"neg_adjoint", "neg_transpose", "neg_transpose_rev_spacetime",
        "neg_adjoint_rev_spacetime"}
_SPACE_REV = {"transpose_rev_spacetime", "neg_transpose_rev_spacetime",
              "neg_adjoint_rev_spacetime"}
_TIME_REV = {"transpose_rev_spacetime", "transpose_rev_time",
             "neg_transpose_rev_spacetime", "neg_adjoint_rev_spacetime"}


def time_reversed(kind):
    """Whether the companion at time t reads p at time -t."""
    return kind in _TIME_REV


def space_reversed(kind):
    """Whether the companion reflects the profile argument s -> -s."""
    return kind in _SPACE_REV


def reflect_samples(samples):
    """Reflect master-grid samples about s = 0.

    The grid -X + h*arange(M) holds every reflected node except for the
    extreme one at -X, whose image +X is identified with -X by periodic
    wrap.  Decaying data makes that wrapped value negligible.
    """
    out = np.empty_like(samples)
    out[0] = samples[0]
    out[1:] = samples[1:][::-1]
    return out


def _matrix_map(vals, kind):
    """The kind's (conjugate) transpose and sign on the last two axes."""
    if kind == "neg_identity":
        raise ValueError("neg_identity has no companion profile; "
                         "the Fredholm layer forms Q = -P directly")
    if kind not in COMPANION_KINDS:
        raise ValueError("unknown companion kind %r" % (kind,))
    vals = np.swapaxes(vals, -1, -2)
    if kind in _CONJ:
        vals = np.conj(vals)
    return (-1.0 if kind in _NEG else 1.0) * vals


def companion_profile(p, kind):
    """Companion profile of shape m x n built from the evolved p.

    For time-reversed kinds the caller must supply p evolved to -t; the
    returned profile carries time_stamp -p.time_stamp so that it is
    stamped with the wall-clock time it belongs to.
    """
    t_out = -p.time_stamp if kind in _TIME_REV else p.time_stamp

    if p.exp_tag is not None:
        rate, amp = p.exp_tag
        return exponential_profile(p.grid, -rate if kind in _SPACE_REV else rate,
                                   _matrix_map(amp, kind), t_out)

    vals = _matrix_map(p.samples, kind)
    if kind in _SPACE_REV:
        vals = reflect_samples(vals)
    return MatrixProfile(grid=p.grid, rows=p.cols, cols=p.rows,
                         samples=vals, time_stamp=t_out)


def companion_field(G, kind):
    """The companion map applied to a solved (nt, nx, a, b) field array.

    Reverses the t axis for time-reversed kinds and the x axis for
    space-reversed kinds (those sample grids must be symmetric about 0),
    then applies the (conjugate) transpose and sign of companion_profile.
    """
    if kind in _TIME_REV:
        G = G[::-1]
    if kind in _SPACE_REV:
        G = G[:, ::-1]
    return _matrix_map(G, kind)


def companion_parameters(kind, params):
    """Linear-flow parameters (-mu1, mu2) of the companion profile.

    Every pairing in COMPANION_KINDS leaves its companion satisfying
    dp~/dt = -mu1 p~_ss + mu2 p~_sss: conjugate-transpose kinds because
    their mu1 is imaginary and mu2 real, time-reversed kinds because
    reading p at -t negates both coefficients, and space-reversed kinds
    because s -> -s restores the sign of the odd-order term.
    """
    if kind not in COMPANION_KINDS:
        raise ValueError("unknown companion kind %r" % (kind,))
    return DispersionParams(mu1=-params.mu1, mu2=params.mu2)


def companion_at(p0, kind, params, t):
    """Companion profile at wall-clock time t, built from data p0."""
    source_t = -t if kind in _TIME_REV else t
    return companion_profile(evolve(p0, params, source_t), kind)


def companion_consistency_residual(p0, kind, params, t_samples):
    """Finite-difference residual of the companion linear flow.

    Builds the companion family over t_samples and measures how well it
    satisfies dp~/dt = -mu1 p~_ss + mu2 p~_sss (companion parameters).
    Small values certify the kind/parameter pairing.
    """
    if len(t_samples) < 3:
        raise ValueError("need at least 3 time samples, got %d" % len(t_samples))
    family = [companion_at(p0, kind, params, t) for t in t_samples]
    return dispersion_residual(family, companion_parameters(kind, params))
