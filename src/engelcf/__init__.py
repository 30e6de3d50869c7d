"""Exact continued fractions of Engel series with x_n^2 | x_{n+1}.

The reciprocal sum S = sum 1/x_n of such a sequence has a continued
fraction whose expansion doubles in a rigid pattern; this package builds
the sequences (from factors, recurrences, or exponent lists), constructs
and certifies the expansions in exact arithmetic, and reports growth and
effective-irrationality diagnostics.
"""

from .cf import (
    CFExpansion,
    ConvergentTable,
    cf_text,
    convergents,
    evaluate,
    expand_rational,
    normalize_zeros,
    parse_cf_text,
)
from .exceptions import (
    BitBudgetExceeded,
    DegenerateRoot,
    DivisibilityViolation,
    EngelError,
    IdentityViolation,
    InsufficientFactors,
    InvalidSpec,
    NegativeGap,
    TrailingZero,
    ZeroCoefficient,
)
from .sequences import (
    BitBudget,
    EngelSequence,
    FactorSequence,
    RecurrenceSpec,
    SecondOrderSpec,
    SeriesClass,
    SeriesSource,
    ThirdOrderSpec,
    closed_form_numerator,
    factors_from_sequence,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
    parse_spec_line,
    partial_sum,
    shallit_factors,
    spec_line,
    strip_leading_ones,
)
from .expansion import (
    EngelStream,
    StreamResult,
    PartialCF,
    certified_decimal,
    enclosure,
    partial_cf,
    partial_lengths,
    stream,
)
from .asymptotics import (
    AsymptoticsReport,
    GrowthReport,
    RothReport,
    dominant_root,
    empirical_growth_constant,
    estimate_C,
    full_report,
    growth_report,
    log_big,
    roth_exponents,
)

__version__ = "0.1.0"
