"""Exact-arithmetic toolkit for a discrete periodic delta Bose gas:
affine Weyl combinatorics, integral-reflection operators, the propagation
operator, and Bethe-ansatz eigenfunctions."""

# Lattice functions memoize with functools.cache; perfbench/workloads.py
# `counted` builds its counting lattice functions with this name.
from functools import cache as LatticeFunction

from .weyl import Params, is_dominant, shortest_element
from .laurent import LaurentPolynomial, apply_T_check, pairing
from .hamiltonian import apply_H, d_plus
from .hecke import apply_Q, apply_Qw
from .propagation import plane_wave, propagate
from .bethe import (
    BetheSolverError,
    SpectralPoint,
    bethe_residual,
    bethe_wave,
    bethe_wave_function,
    hall_littlewood_P,
    hall_littlewood_R,
    solve_bethe,
)
from .verify import random_rational_function

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
