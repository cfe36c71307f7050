"""Exact verification engine for quantum skew Howe duality.

Commuting U_q(sl_m) and U_q(sl_2) actions on quantum exterior algebras,
quantum Weyl group elements, the quasi-R-matrix product R and braiding, the
decategorified sl_2 relations with their Grothendieck-group shifts, and the
Grassmannian-fibration bookkeeping behind them; everything checked by exact
arithmetic over Z[q^(1/m), q^(-1/m)].
"""

__version__ = "0.1.0"

from .qring import (
    InexactDivisionError,
    Laurent,
    qbinom,
    qfact,
    qint,
)
from .qmodule import Module, act_divided, singular_vectors, straighten
from .howe import HoweSpace, SlotModule, lowest_weight_vector, verify_commuting
from .braidgrp import braiding_beta, half_twist_R, rank1_weyl, weyl_longest
from .ktheory import divided_block, grading_sign, rickard_euler, shift_class
from .geomcheck import FlagSpec, LineBundleClass, canonical_class, dim_flag

__all__ = [
    "InexactDivisionError",
    "Laurent",
    "qint",
    "qfact",
    "qbinom",
    "Module",
    "straighten",
    "act_divided",
    "singular_vectors",
    "HoweSpace",
    "SlotModule",
    "lowest_weight_vector",
    "verify_commuting",
    "rank1_weyl",
    "weyl_longest",
    "half_twist_R",
    "braiding_beta",
    "grading_sign",
    "shift_class",
    "divided_block",
    "rickard_euler",
    "FlagSpec",
    "LineBundleClass",
    "dim_flag",
    "canonical_class",
    "__version__",
]
