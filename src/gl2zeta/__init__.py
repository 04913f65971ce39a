"""Exact character tables, fusion rings and surface-counting zeta functions
for GL(2,F_q) and PGL(2,F_q), with a brute-force enumeration oracle."""

from .cyclo import CycNumber, cyclotomic_polynomial
from .ffield import CapExceeded, ExtField, Field, FieldError, build_extension, build_field, prime_power
from .grp import ClassFunction, ConjClass, GLContext, PGLContext
from .oracle import GroupTable, brute_hom_count, brute_quotient_count
from .reptheory import CharacterTable, Irrep
from .topo import HomCount, SurfaceSpec, hom_count, induced_char_value, quotient_count
from .verify import run_verify
from .zeta import (
    ClosedFormUnavailable,
    zeta,
    zeta_closed_gl,
    zeta_closed_pgl,
    zeta_double,
    zeta_double_closed,
    zeta_fs,
    zeta_fs_closed_gl,
    zeta_fs_closed_pgl,
    zeta_insert,
    zeta_insert_closed,
    zeta_insert_elements,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CharacterTable",
    "ClassFunction",
    "ClosedFormUnavailable",
    "ConjClass",
    "CycNumber",
    "ExtField",
    "Field",
    "FieldError",
    "GLContext",
    "GroupTable",
    "HomCount",
    "Irrep",
    "PGLContext",
    "SurfaceSpec",
    "brute_hom_count",
    "brute_quotient_count",
    "build_extension",
    "build_field",
    "cyclotomic_polynomial",
    "hom_count",
    "induced_char_value",
    "prime_power",
    "quotient_count",
    "run_verify",
    "zeta",
    "zeta_closed_gl",
    "zeta_closed_pgl",
    "zeta_double",
    "zeta_double_closed",
    "zeta_fs",
    "zeta_fs_closed_gl",
    "zeta_fs_closed_pgl",
    "zeta_insert",
    "zeta_insert_closed",
    "zeta_insert_elements",
]
