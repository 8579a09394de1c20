"""Exact-in-time linear evolution of profiles.

The linear flow is dp/dt = mu1 * d^2p/ds^2 + mu2 * d^3p/ds^3.  Every
function of the wavenumber acts through one Fourier multiplier, a
factor f(z) on each mode e^{z*s}: z = 2*pi*i*k for the grid frequencies
k, or z = rate for the single mode of an exp-tagged profile.  evolve is
f(z) = e^{t*sigma(z)} with the flow polynomial sigma(z) = mu1*z^2 +
mu2*z^3, so a profile at time t is one multiplier application from the
data and there is no time stepping anywhere; spectral_derivative is
f(z) = z^order.
"""

from dataclasses import dataclass
import numpy as np

from .gridkernel import MatrixProfile, exponential_profile

EXP_GUARD = 700.0  # natural-log scale, past this exp() overflows doubles


class GrowthError(ValueError):
    """Raised when the requested evolution amplifies some resolved
    frequency beyond double range (anti-diffusive branch)."""


@dataclass(frozen=True)
class DispersionParams:
    mu1: complex
    mu2: complex


def exp_rate_symbol(params, a):
    """Flow polynomial mu1*a^2 + mu2*a^3, the growth rate of e^{a*s}."""
    return params.mu1 * a ** 2 + params.mu2 * a ** 3


def _multiply(p, factor, t=0.0):
    """Apply factor(z) to every mode e^{z*s} of p; stamp p.time_stamp + t."""
    if p.exp_tag is not None:
        rate, amp = p.exp_tag
        return exponential_profile(p.grid, rate, amp * factor(rate),
                                   p.time_stamp + t)
    z = 2j * np.pi * np.fft.fftfreq(p.grid.node_count, d=p.grid.spacing)
    samples = np.fft.ifft(factor(z)[:, None, None] * p.spectrum, axis=0)
    return MatrixProfile(grid=p.grid, samples=samples, time_stamp=p.time_stamp + t)


def evolve(p, params, t):
    """Profile at time p.time_stamp + t under the exact linear flow."""
    if t == 0.0:
        return p

    def factor(z):
        lam = t * exp_rate_symbol(params, z)
        growth = np.max(lam.real)
        if growth > EXP_GUARD:
            raise GrowthError("evolution amplifies the data by up to e^%.3g; "
                              "use band-limited data or a shorter horizon"
                              % growth)
        return np.exp(lam)

    return _multiply(p, factor, t)


def spectral_derivative(p, order=1):
    """Exact d^order/ds^order of a profile on its grid."""
    return _multiply(p, lambda z: z ** order)


def dispersion_residual(profiles, params):
    """Max norm of dp/dt - mu1 p_ss - mu2 p_sss over interior snapshots.

    Takes a family of >= 3 profiles at uniformly spaced times; the time
    derivative is a centered difference across neighbouring snapshots,
    the space derivatives are exact spectral ones, so the result decays
    like dt^2 when the family really solves the linear equation.
    """
    if len(profiles) < 3:
        raise ValueError("need at least 3 snapshots, got %d" % len(profiles))
    ts = np.array([q.time_stamp for q in profiles])
    dts = np.diff(ts)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("snapshots must be at uniformly increasing times")
    worst = 0.0
    for j in range(1, len(profiles) - 1):
        dpdt = (profiles[j + 1].samples - profiles[j - 1].samples) / (2.0 * dt)
        rhs = (params.mu1 * spectral_derivative(profiles[j], 2).samples
               + params.mu2 * spectral_derivative(profiles[j], 3).samples)
        worst = max(worst, float(np.abs(dpdt - rhs).max()))
    return worst
