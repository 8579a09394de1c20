"""Companion maps of kernel profiles and of solved fields.

Each equation family pairs the kernel profile p with a companion
profile built by some combination of matrix transpose or conjugate
transpose, an overall sign, reflection of the argument s -> -s, and
reflection of time.  The companion is always derived from the evolved
p, never evolved on its own, so the pairing conditions hold by
construction.  The map is encoded once, in the table _MAPS: per kind
whether it conjugates, its sign, whether it reflects s, and whether it
reads p at -t.  Everything here reads that table: companion_profile
applies the map to a profile (an exp-tagged profile keeps its tag),
companion_field applies it to a solved field (the residual flow's
partner), companion_parameters gives the companion's linear flow, and
time_reversed and space_reversed answer for the scenario and residual
layers.  Which profile the map is applied to at time t (p_t, or p at -t)
is decided once, in fredholm.pairings.
"""

import numpy as np

from .dispersion import DispersionParams
from .gridkernel import MatrixProfile, exponential_profile

# name -> (conjugate, sign, reflects s, reads p at -t); neg_identity has
# no companion profile: fredholm.paired_Q forms Q = -P directly
_MAPS = {
    "adjoint": (True, 1.0, False, False),
    "neg_adjoint": (True, -1.0, False, False),
    "transpose_rev_spacetime": (False, 1.0, True, True),
    "transpose_rev_time": (False, 1.0, False, True),
    "neg_transpose": (False, -1.0, False, False),
    "neg_transpose_rev_spacetime": (False, -1.0, True, True),
    "neg_adjoint_rev_spacetime": (True, -1.0, True, True),
    "neg_identity": None,
}


def _entry(kind):
    """The table entry of a kind that has a companion profile."""
    if _MAPS.get(kind) is None:
        raise ValueError("no companion profile for kind %r" % (kind,))
    return _MAPS[kind]


def time_reversed(name):
    """Whether the companion at time t reads p at time -t."""
    return bool(_MAPS.get(name) and _MAPS[name][3])


def space_reversed(name):
    """Whether the companion reflects the profile argument s -> -s."""
    return bool(_MAPS.get(name) and _MAPS[name][2])


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


def _matrix_map(vals, conjugate, sign):
    """The (conjugate) transpose on the last two axes, times sign."""
    vals = np.swapaxes(vals, -1, -2)
    return sign * (np.conj(vals) if conjugate else vals)


def companion_profile(p, kind):
    """Companion profile of shape m x n built from the evolved p.

    For time-reversed kinds the caller must supply p evolved to -t, as
    fredholm.pairings does.
    """
    conjugate, sign, reflect, _ = _entry(kind)

    if p.exp_tag is not None:
        rate, amp = p.exp_tag
        return exponential_profile(p.grid, -rate if reflect else rate,
                                   _matrix_map(amp, conjugate, sign))

    vals = _matrix_map(p.samples, conjugate, sign)
    if reflect:
        vals = reflect_samples(vals)
    return MatrixProfile(grid=p.grid, samples=vals)


def companion_field(G, kind):
    """The companion map applied to a solved (nt, nx, a, b) field array.

    Reverses the t axis for time-reversed kinds and the x axis for
    space-reversed kinds (those sample grids must be symmetric about 0),
    then applies the (conjugate) transpose and sign of companion_profile.
    """
    conjugate, sign, reflect, reverse = _entry(kind)
    if reverse:
        G = G[::-1]
    if reflect:
        G = G[:, ::-1]
    return _matrix_map(G, conjugate, sign)


def companion_parameters(kind, params):
    """Linear-flow parameters (-mu1, mu2) of the companion profile.

    Every companion map in _MAPS leaves its companion satisfying
    dp~/dt = -mu1 p~_ss + mu2 p~_sss: conjugate-transpose kinds because
    their mu1 is imaginary and mu2 real, time-reversed kinds because
    reading p at -t negates both coefficients, and space-reversed kinds
    because s -> -s restores the sign of the odd-order term.  neg_identity
    has no companion profile, so it has no companion flow.
    """
    _entry(kind)
    return DispersionParams(mu1=-params.mu1, mu2=params.mu2)

