"""Exact Sylow branching coefficients for symmetric groups.

Computes the decomposition of an irreducible symmetric-group character
restricted to a Sylow p-subgroup, entirely in integer arithmetic, together
with the closed forms and classifications for the number of linear
constituents, and brute-force oracles that cross-check everything at small
degrees.
"""

from .partitions import (
    almost_hook,
    check_partition,
    conjugate,
    format_partition,
    hook,
    parse_partition,
    partitions,
)
from .characters import (
    character_value,
    lr_coefficient,
    lr_multi,
    plethysm_split,
    sn_degree,
    stretch_coefficient,
)
from .tower import (
    hook_to_linear,
    irr_labels,
    label_degree,
    label_text,
    linear_labels,
    linear_to_hook,
    parse_label,
    sgn_twist,
)
from .engine import (
    count_lin,
    lin_constituents,
    linear_sylow,
    restrict_sylow,
    restrict_tower,
    sbc,
)
from .oracle import BudgetExceeded
from .closedform import (
    almost_hook_linear_set,
    almost_hook_sbc,
    almost_hook_sbc_recursive,
    odd_prime_classification,
    two_linear_classification,
)

__version__ = "0.1.0"
