"""Validating interpreter and transformation toolkit for generalised
sequential algorithms over well-ordered universes."""

from .errors import (
    ArityMismatch,
    BadLift,
    D6Violation,
    GseqaError,
    KappaMismatch,
    MachineInvalid,
    MissingSymbol,
    NotBounded,
    NotClosed,
    NotSimple,
    ParseError,
    ThresholdViolation,
    Unrepresentable,
    Unsupported,
    ValidationIssue,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    OrdinalNotation,
    OrdinalSet,
    godel_pair,
    godel_unpair,
    next_limit,
    ord_compare,
    parse_ordinal,
    parse_ordinal_set,
)
from .logic import (
    MEMBERSHIP,
    Signature,
    SymbolDecl,
    format_formula,
    free_vars,
    parse_formula,
    quantifier_rank,
    with_copy,
)
from .states import State, Tci, models_tci
from .satisfaction import (
    EvalDomain,
    defined_relation,
    defined_set,
    sat,
    sat2,
    threshold_bound,
)
from .validator import (
    MachineSpec,
    ValidatedMachine,
    apply_transition,
    check_bounded,
    check_machine,
    check_simple,
    sample_states,
    witness_variables,
)
from .runtime import (
    Budget,
    Failed,
    LimitUnresolved,
    OutOfBudget,
    RunTrace,
    Terminated,
    certify_reduction,
    classify_tail,
    dump_trace,
    limit_state,
    load,
    run,
    unload,
)
from .transforms import (
    Jump,
    OracleRead,
    TmRule,
    TmSpec,
    compile_tm,
    compose,
    dovetail,
    flip,
    format_tm,
    lift,
    parse_tm,
)
from .alpharef import (
    Halted,
    NotHalted,
    code_sets,
    decode_sets,
    parse_alpha_program,
    run_alpha_machine,
    simulate_alpha_as_gseqap,
)
from .specfiles import format_machine, parse_machine

__version__ = "0.1.0"
