"""Hyperbolic Pascal triangles on the square mosaics {4,q}.

Exact construction of the path-count triangle, its cell-count and
row-sum sequences by recurrence and closed form, q = 5 alternating
sums, the binary row-pattern code, and the constructive placement of
integer pairs and binary recurrence sequences inside the triangle.
"""

from .linrec import CoupledSystem, TernaryCoeffs, eliminate, eliminate_homogeneous
from .locator import (
    PairLocation,
    embed_recurrence,
    euclid_chain,
    locate_pair,
    locate_pairs,
    locate_row,
)
from .quadfield import QuadElem
from .sequences import (
    alt_sum,
    alt_triple_from_row,
    counts_closed,
    counts_coupled,
    counts_ternary,
    parity_s,
    sums_closed,
    sums_coupled,
    sums_ternary,
    weighted_sum,
)
from .triangle import (
    BudgetExceeded,
    Cell,
    DEFAULT_CELL_BUDGET,
    Row,
    central_cell,
    generate_rows,
    initial_row,
    next_row,
    row_counts,
    row_sums,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Cell",
    "CoupledSystem",
    "DEFAULT_CELL_BUDGET",
    "PairLocation",
    "QuadElem",
    "Row",
    "TernaryCoeffs",
    "alt_sum",
    "alt_triple_from_row",
    "central_cell",
    "counts_closed",
    "counts_coupled",
    "counts_ternary",
    "eliminate",
    "eliminate_homogeneous",
    "embed_recurrence",
    "euclid_chain",
    "generate_rows",
    "initial_row",
    "locate_pair",
    "locate_pairs",
    "locate_row",
    "next_row",
    "parity_s",
    "row_counts",
    "row_sums",
    "sums_closed",
    "sums_coupled",
    "sums_ternary",
    "weighted_sum",
]
