"""Exact-arithmetic toolkit for a discrete periodic delta Bose gas:
affine Weyl combinatorics, integral-reflection operators, the propagation
operator, and Bethe-ansatz eigenfunctions."""

from .weyl import (
    AffineWeylElement,
    Params,
    act,
    act_on_function,
    is_dominant,
    shortest_element,
)
from .functions import LatticeFunction, random_rational_function
from .laurent import LaurentPolynomial, apply_T_check, pairing
from .hamiltonian import apply_H, d_minus, d_plus
from .hecke import apply_Q, apply_Qw
from .propagation import plane_wave, propagate
from .bethe import (
    BetheSolverError,
    Partition,
    SpectralPoint,
    bethe_residual,
    bethe_wave,
    bethe_wave_function,
    hall_littlewood_P,
    hall_littlewood_R,
    solve_bethe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
