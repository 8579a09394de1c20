"""Exact-in-time linear evolution of profiles.

The linear flow is dp/dt = mu1 * d^2p/ds^2 + mu2 * d^3p/ds^3.  Every
function of the wavenumber acts through one Fourier multiplier, a
factor f(z) on each mode e^{z*s}: z = 2*pi*i*k for the grid frequencies
k, or z = rate for the single mode of an exp-tagged profile.  evolve is
f(z) = e^{t*sigma(z)} with the flow polynomial sigma(z) = mu1*z^2 +
mu2*z^3, so a profile at time t is one multiplier application from the
data and there is no time stepping anywhere (the test suite's spectral
derivative is f(z) = z^order).  A symbol with real coefficients (every
derivative, and the flow when mu1 and mu2 are real) maps real data to
real data; _multiply then uses the real inverse transform, so real
profiles stay exactly real.
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


def _multiply(p, symbol, lift=lambda v: v, t=0.0, real=False):
    """Scale every mode e^{z*s} of p by lift(symbol(z)); stamp
    p.time_stamp + t.

    real says that symbol(-z) = conj symbol(z) on the grid frequencies
    (a polynomial with real coefficients), so the multiplier maps real
    functions to real ones.  Exactly real samples then go back through
    the real inverse transform over the non-negative frequencies, and the
    result is exactly real.  On an even grid the Nyquist mode is the one
    node pattern (-1)^j that e^{z s} and e^{-z s} share; the real path
    scales it by lift(Re symbol(z)), the symbol's even part, so the
    evolution stays a group and the spectral derivative (f(z) = z) stays
    its generator there as on every other mode.
    """
    if p.exp_tag is not None:
        rate, amp = p.exp_tag
        return exponential_profile(p.grid, rate, amp * lift(symbol(rate)),
                                   p.time_stamp + t)
    M, h = p.grid.node_count, p.grid.spacing
    if real and not p.samples.imag.any():
        values = symbol(2j * np.pi * np.fft.rfftfreq(M, d=h))
        if M % 2 == 0:
            values[-1] = values[-1].real
        # the leading half of a real signal's DFT is its rfft
        samples = np.fft.irfft(lift(values)[:, None, None] * p.spectrum[:M // 2 + 1],
                               n=M, axis=0)
    else:
        values = symbol(2j * np.pi * np.fft.fftfreq(M, d=h))
        samples = np.fft.ifft(lift(values)[:, None, None] * p.spectrum, axis=0)
    return MatrixProfile(grid=p.grid, samples=samples, time_stamp=p.time_stamp + t)


def evolve(p, params, t):
    """Profile at time p.time_stamp + t under the exact linear flow."""
    if t == 0.0:
        return p

    def guarded_exp(lam):
        growth = np.max(lam.real)
        if growth > EXP_GUARD:
            raise GrowthError("evolution amplifies the data by up to e^%.3g; "
                              "use band-limited data or a shorter horizon"
                              % growth)
        return np.exp(lam)

    real = complex(params.mu1).imag == 0.0 and complex(params.mu2).imag == 0.0
    return _multiply(p, lambda z: t * exp_rate_symbol(params, z), guarded_exp, t, real)
