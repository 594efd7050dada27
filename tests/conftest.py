import pytest

from oracles import make_instance
from shormeter import run_order_finding_circuit


@pytest.fixture(scope="session")
def inst15():
    return make_instance(15, 7)


@pytest.fixture(scope="session")
def pipeline15(inst15):
    """(psi1, psi2, psi3) for the N=15, x=7, t=11 reference instance."""
    return tuple(run_order_finding_circuit(inst15))
