"""Constructive maximin-share allocation for near-equal item counts.

Solves fair-division instances with n agents and up to n + c indivisible
goods or chores by chaining valid reductions, certifying every result
against exact branch-and-bound maximin values.
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
    BoundParams,
    BoundTable,
    n_c_chores,
    n_c_goods,
    required_agents_chores,
    required_agents_goods,
)
from .mms import find_allocation_meeting, maximin_partition, mms_value, mu_vector
from .pipeline import SolveOutcome
from .reductions import ReductionStep, ReductionTrace, verify_step
from .solver_chores import solve_chores
from .solver_goods import solve, solve_c6, solve_c7

__all__ = [
    "BoundParams",
    "BoundTable",
    "SolveOutcome",
    "find_allocation_meeting",
    "maximin_partition",
    "n_c_chores",
    "n_c_goods",
    "required_agents_chores",
    "required_agents_goods",
    "solve",
    "solve_c6",
    "solve_c7",
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
