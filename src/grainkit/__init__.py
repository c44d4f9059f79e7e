"""Grain stream ciphers in Fibonacci and Galois shift-register form.

The package bundles the Grain-80 and Grain-128 systems, the shifting
transformation between register configurations, uniformity and
equivalence checkers, an initial-state mapping that makes transformed
registers replay the original bit for bit, and a gate-depth timing
model for comparing configurations.
"""

from .anf import (
    Anf,
    ForeignVariableError,
    MissingVariableError,
    Term,
    Var,
    evaluate,
    parse_expr,
    parse_term,
    remap_indices,
    substitute_var,
    xor_merge,
)
from .bits import int_bits, pack_bits, pack_int, unpack_hex, unpack_int
from .engine import (
    Injection,
    OutputSpec,
    RegisterSpec,
    SystemSpec,
    SystemState,
    output_values,
    run,
    run_ints,
    shift_expr,
    step,
    tap_trace,
)
from .grain import (
    INIT_MODE,
    VARIANT_NAMES,
    GrainVariant,
    KeyIv,
    UnknownVariantError,
    generate_keystream,
    generate_keystream_int,
    initialize,
    keystream,
    load,
    state_from_hex,
    state_to_hex,
    variant,
)
from .specfile import SpecDocument, SpecError, format_spec, parse_spec
from .timing import (
    CostModel,
    TimingReport,
    area_proxy,
    critical_depths,
    divider_factor,
    expr_depth,
    parse_cost_model,
)
from .transform import (
    Distribution,
    ExhaustiveVerdict,
    MappedVerdict,
    MissingTermError,
    ScriptResult,
    ShiftMove,
    UniformityReport,
    Violation,
    allowed_feedback_positions,
    apply_shift,
    auto_distribute,
    check_equivalence_exhaustive,
    check_equivalence_mapped,
    check_script,
    check_uniform,
    collapse_to_fibonacci,
    format_shift_script,
    map_system_state,
    max_hw_parallel_degree,
    min_terminal_bit,
    parse_shift_script,
    required_terminal_bit,
    terminal_bit,
)

__version__ = "0.1.0"
