"""Affine pavings of Hessenberg varieties in the classical families.

The package computes, for an operator M = S + N in canonical form and a
Hessenberg space H, which Bruhat cells meet the Hessenberg variety and the
dimension of each intersection, three independent ways: one closed
root-theoretic formula, Young-diagram counting in type A, and a probabilistic
row-by-row affine solver over a large prime field.
"""

from .hessenberg import (
    HessenbergSpace,
    HessFunction,
    all_hess_functions,
    borel_space,
    enumerate_spaces,
    from_h,
    full_space,
    peterson_space,
    to_h,
)
from .operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from .paving import (
    CellReport,
    PavingResult,
    PoincarePolynomial,
    cell_report,
    pave,
)
from .rootsys import Root, RootSystemId, positive_roots
from .weyl import WeylElement, enumerate_weyl

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RootSystemId",
    "Root",
    "positive_roots",
    "WeylElement",
    "enumerate_weyl",
    "HessenbergSpace",
    "HessFunction",
    "all_hess_functions",
    "enumerate_spaces",
    "from_h",
    "to_h",
    "peterson_space",
    "borel_space",
    "full_space",
    "RegularNilpotent",
    "TypeANilpotent",
    "TypeAGeneral",
    "SemisimpleClassical",
    "CellReport",
    "PoincarePolynomial",
    "PavingResult",
    "cell_report",
    "pave",
]
