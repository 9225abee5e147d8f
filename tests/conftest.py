import pytest

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import FieldSpec, QQ


@pytest.fixture
def rationals():
    return QQ


@pytest.fixture
def f2():
    return FieldSpec.prime(2)


@pytest.fixture
def f5():
    return FieldSpec.prime(5)


@pytest.fixture
def odd_pair():
    """Two odd degree-1 generators over Q."""
    return Generator("x", 1), Generator("y", 1)


def span(field, gen, coeff=1):
    return Element.from_monomial(field, Monomial(((gen, 1),)), coeff)
