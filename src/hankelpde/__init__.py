"""Solver and verification toolkit for matrix integrable PDEs built from
Hankel kernel linearisation: exact spectral evolution of the kernel
profile, Nystrom solve of the linearising Fredholm system, low-rank or
dense by the data's rank, and residual checks of the nonlinear equations."""

__version__ = "0.1.0"
