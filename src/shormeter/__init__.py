"""Simulator of the quantum order-finding routine with resource meters.

The package builds the uniform stage H^t|0>|1> directly, evolves it
through modular exponentiation and the inverse Fourier transform, computes
coherence and entanglement quantifiers on the simulated states, evaluates
the matching closed forms independently, cross-validates the two, and
finishes the classical factoring post-processing.
"""

from shormeter.numtheory import (
    RegisterLayout,
    ShorInstance,
    extract_factors,
    find_order_bruteforce,
    recover_order,
    register_sizes,
)
from shormeter.statevec import PureState, run_order_finding_circuit

__version__ = "0.1.0"

__all__ = [
    "PureState",
    "RegisterLayout",
    "ShorInstance",
    "extract_factors",
    "find_order_bruteforce",
    "recover_order",
    "register_sizes",
    "run_order_finding_circuit",
]
