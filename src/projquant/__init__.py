"""Exact symbolic engine for the projective-algebra action on
bidifferential operators over tensor densities: Casimir operators and their
spectra, resonant and critical shift classification, and the equivariant
quantization map with exact obstruction reporting."""

from .casimir import (
    LabelRangeError,
    SpectralLabel,
    casimir_correction,
    casimir_direct,
    casimir_eigenvalue,
    casimir_symbol,
    highest_weight_vector,
    labels_for_degree,
)
from .densities import (
    ArityError,
    BidiffOp,
    Context,
    Density,
    SymbolPoly,
    VectorField,
    WeightMismatchError,
    apply_operator,
    bracket,
    lie_derivative_density,
    lie_derivative_operator,
    lie_derivative_symbol,
    lie_derivative_via_definition,
)
from .isotypic import decompose, isotypic_project
from .parsing import ParseError, format_poly, parse_poly
from .poly import ALPHA, BETA, X, DimensionMismatchError, Poly
from .quantization import (
    CriticalShiftError,
    ObstructionError,
    QuantizationResult,
    SymbolMapResult,
    linear_quantize_order2,
    order2_critical_family,
    quantize,
    quantize_order2_closed,
    symbol_map,
    t1,
    t2,
    tau_maps,
)
from .resonance import (
    ResonanceTuple,
    ShiftClassification,
    classify_shift,
    critical_bound_index,
    critical_lower_bound,
    critical_values_in_interval,
    is_critical,
    one_dimensional_resonances,
    resonant_delta,
)
from .slbasis import (
    DualBasisPair,
    basis_fields,
    bracket_closure_check,
    euler_field,
    sl_basis,
    span_decompose,
)

__all__ = [
    # casimir
    "LabelRangeError", "SpectralLabel", "casimir_correction", "casimir_direct",
    "casimir_eigenvalue", "casimir_symbol", "highest_weight_vector",
    "labels_for_degree",
    # densities
    "ArityError", "BidiffOp", "Context", "Density", "SymbolPoly", "VectorField",
    "WeightMismatchError", "apply_operator", "bracket", "lie_derivative_density",
    "lie_derivative_operator", "lie_derivative_symbol",
    "lie_derivative_via_definition",
    # isotypic
    "decompose", "isotypic_project",
    # parsing
    "ParseError", "format_poly", "parse_poly",
    # poly
    "ALPHA", "BETA", "X", "DimensionMismatchError", "Poly",
    # quantization
    "CriticalShiftError", "ObstructionError", "QuantizationResult",
    "SymbolMapResult", "linear_quantize_order2", "order2_critical_family",
    "quantize", "quantize_order2_closed", "symbol_map", "t1", "t2", "tau_maps",
    # resonance
    "ResonanceTuple", "ShiftClassification", "classify_shift",
    "critical_bound_index", "critical_lower_bound", "critical_values_in_interval",
    "is_critical", "one_dimensional_resonances", "resonant_delta",
    # slbasis
    "DualBasisPair", "basis_fields", "bracket_closure_check", "euler_field",
    "sl_basis", "span_decompose",
]
__version__ = "0.1.0"
