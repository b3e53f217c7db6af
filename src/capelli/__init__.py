"""Exact construction and verification of the central elements of the
classical enveloping algebras.

The package computes, with exact rational arithmetic throughout, the two
distinguished families of invariants of U(so_N) and U(sp_N) (and the
classical Capelli elements of U(gl_N)), their images as differential
operators, and verifies every defining identity at small rank: the
determinant/permanent identities, the Pfaffian and Hafnian formulas,
the R-matrix fusion constructions, the quantum-determinant formula, the
dual-pair transfer, and the generating-series inversion.
"""

from .core import DimensionError, ExactDivisionError, Scalar, SymPoly, det, per
from .symfun import (
    Partition,
    ShiftSequence,
    a_lambda,
    check_characterization,
    check_generating_series,
    e_factorial,
    factorial_power,
    h_factorial,
    schur_factorial,
)
from .weyl import (
    WeylContext,
    WeylOperator,
    cayley,
    paired_blocks,
)
from .uea import (
    LieContext,
    UEAElement,
    block_expr,
    capelli_element,
    central_series,
    clear_caches,
    dual_pair_coeffs,
    eigenvalue_on_hwv,
    family_expr,
    gamma,
    hc_image,
    hc_polynomial,
    pbw_normal_form,
    singular_vector,
    uea_ring,
)
from .tensor import (
    TMat,
    fused_F,
    fusion_capelli,
    generating_functions,
    quantum_det_gl,
    sklyanin_det,
    theorem_62_check,
    verify_relations,
    verify_vanishing,
)
from .suites import SUITES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
