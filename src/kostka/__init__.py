"""Exact Kostka-Foulkes polynomials with closed-form fast paths and independent oracles."""

from .core import (
    ALL_FAST_PATHS,
    CacheConflictError,
    CacheFormatError,
    KostkaCache,
    PreconditionViolated,
    kostka,
    kostka_column,
    kostka_hook,
    kostka_one_row,
    prefix_reduce,
    recursion_children,
)
from .oracles import (
    ContentMismatch,
    charge,
    charge_polynomials,
    enumerate_ssyt,
    kostka_number,
    kostka_via_charge,
    reading_word,
)
from .partitions import (
    Partition,
    PartitionParseError,
    branch_shape,
    conjugate,
    dominates,
    format_partition,
    hook_lengths,
    horizontal_strip_additions,
    parse_partition,
    partitions_of,
    tail,
    weight,
    weighted_size,
)
from .polynomials import (
    ONE,
    ZERO,
    NotDivisible,
    TPoly,
    exact_divide,
    not_divisible_count,
    t_binomial,
    t_factorial,
    t_integer,
    t_quotient,
)

__version__ = "0.1.0"
