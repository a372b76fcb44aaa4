"""Factored algebraic expressions for square-rhomboid two-terminal DAGs.

The package builds square rhomboids as explicit labeled st-dags, generates
their factored expressions by one-vertex decomposition (midpoint splits into
six subgraphs plus two bridge literals), verifies the results against the
canonical path-sum with exact and randomized oracles, and reproduces the
literal-count recurrences, closed forms, and published comparison table.
"""

from .complexity import (
    ComplexityRow,
    REFERENCE_COMPARISON_TABLE,
    asymptotic_check,
    closed_form,
    derived_dipterous_count,
    dipterous_count,
    discrepancy_report,
    generated_counts,
    recurrence_table,
    single_leaf_count,
    sr_count,
)
from .errors import (
    BaseCaseExpectedError,
    CapacityError,
    DomainError,
    EmptySubgraphError,
    IntegrityError,
    InvalidSizeError,
    MalformedExpressionError,
    OrderingError,
    RangeError,
    SrexprError,
    UnboundLabelError,
)
from .expr import (
    DEFAULT_PRIME,
    EMPTY_MONOMIAL,
    Expr,
    Lit,
    Monomial,
    ONE,
    One,
    Prod,
    Sum,
    evaluate,
    expand,
    expansion_size,
    from_json,
    iter_expansion,
    lit,
    literal_count,
    make_product,
    make_sum,
    to_json,
    to_text,
)
from .graph import (
    EdgeLabel,
    Family,
    LabeledDigraph,
    SubgraphKind,
    Terminal,
    TerminalKind,
    basic,
    build_sr,
    classify,
    enumerate_paths,
    induced_subgraph,
    lower,
    path_count,
    path_length_range,
    to_dot,
    upper,
)
from .oracle import (
    SplitMix64,
    VerificationReport,
    check_exact,
    check_fingerprint,
    dp_eval,
)
from .vda import (
    SubExprKey,
    base_expression,
    choose_split,
    expression,
    generate,
    reference_trap_base_variant,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Made on first access, as in `complexity`, so that importing the package
    # does not import `fractions`.
    if name == "LEADING_TERM_COEFFICIENTS":
        return complexity.LEADING_TERM_COEFFICIENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
