"""Exact-arithmetic engine for free-field realizations of the N=0/1/2
superconformal algebras on truncated boson-fermion Fock superspaces, and
for minimal-nilpotent W-algebra structure data.

Everything algebraic is computed over the Gaussian rationals; floating
point appears only in the optional operator-norm estimates.
"""

__version__ = "0.1.0"

from .fock import (
    ContentMismatch,
    FieldContent,
    FockState,
    FockVector,
    enumerate_basis,
    inner_product,
    state_norm_sq,
)
from .halfint import HalfInt, half
from .oscillators import (
    BilinearSpec,
    ModeOperator,
    bilinear_mode,
    boson_mode,
    fermion_mode,
    tail_sum,
)
from .ratfunc import RationalFunction
from .realizations import RealizationParams, cyclic_words, make_mode, realize_word
from .scalars import GaussianRational, format_rational, parse_rational
from .superalg import (
    GramMatrix,
    LowestWeightData,
    Presentation,
    abstract_gram,
    discrete_series,
    family_presentation,
    pbw_words,
    presentation_n2,
    presentation_ns,
    presentation_virasoro,
    psd_check,
    vacuum_expectation,
)
from .walgebra import (
    LieSuperalgebra,
    StructureDataError,
    borcherds_modes,
    central_charge,
    central_charge_data,
    collapsing_levels,
    dual_coxeter,
    g_natural,
    lambda_bracket,
    load_superalgebra,
    minimal_gradation,
    unitary_range,
)

__all__ = [name for name in dir() if not name.startswith("_")]
