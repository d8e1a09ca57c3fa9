"""Figure definitions — importing this package registers every figure.

Each module holds one family of figures: its grids, its summaries and
the paper-shape checks on them.
"""

from repro.figures.defs import (  # noqa: F401
    ablations,
    fig02_03_04,
    fig10,
    fig17_18_19,
    microbench,
    misc,
    sensitivity,
    tables,
)
