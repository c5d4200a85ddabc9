"""Constructive maximin-share allocation for near-equal item counts.

Solves fair-division instances with n agents and up to n + c indivisible
goods or chores by chaining valid reductions, certifying every result
against exact maximin values.
"""

from .core import (
    CHORES,
    GOODS,
    Instance,
    OrderedInstance,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    lift_allocation,
    make_instance,
    to_ordered,
    validate_allocation,
)
from .bounds import (
    n_c_chores,
    n_c_goods,
    required_agents_chores,
    required_agents_goods,
)
from .mms import (
    exhaustive_partition,
    find_allocation_meeting,
    maximin_partition,
    mms_value,
    mu_vector,
)
from .pipeline import SolveOutcome
from .reductions import ReductionStep, ReductionTrace, verify_step
from .solver_chores import solve_chores
from .solver_goods import solve

__all__ = [
    "SolveOutcome",
    "exhaustive_partition",
    "find_allocation_meeting",
    "maximin_partition",
    "n_c_chores",
    "n_c_goods",
    "required_agents_chores",
    "required_agents_goods",
    "solve",
    "solve_chores",
    "CHORES",
    "GOODS",
    "Instance",
    "OrderedInstance",
    "ReductionStep",
    "ReductionTrace",
    "allocation_from_json",
    "allocation_to_json",
    "bundle_value",
    "instance_from_json",
    "instance_to_json",
    "lift_allocation",
    "make_instance",
    "mms_value",
    "mu_vector",
    "to_ordered",
    "validate_allocation",
    "verify_step",
]
