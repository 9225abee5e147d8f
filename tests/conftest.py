import pytest
from hypothesis import settings

from bvalg.algebra import Element, Generator, Monomial
from bvalg.fields import FieldSpec, QQ

# Tier-1 draws the same examples on every run and reads no example database, so
# two runs of one tree reach the same code.  `--hypothesis-profile=default`
# (with `--hypothesis-seed=<n>` to repeat a run) searches with fresh draws.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


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
