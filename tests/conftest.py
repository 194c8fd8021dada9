import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

# props holds the property suites' asserts; rewriting them keeps them live
# under python -O, where plain asserts outside test modules are stripped
pytest.register_assert_rewrite("props")

from galoispoints.gf import make_field
from galoispoints.polyring import Polynomial


@pytest.fixture(scope="session")
def F7():
    return make_field(7)


@pytest.fixture(scope="session")
def F13():
    return make_field(13)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F16():
    return make_field(2, 4)


def upoly(ctx, coeffs):
    """Univariate polynomial from ascending integer coefficients."""
    return Polynomial.from_terms(ctx, 1, {(i,): c for i, c in enumerate(coeffs)})


def rand_poly(rng, ctx, nvars, maxdeg, nterms):
    data = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))
        data[exp] = rng.randrange(ctx.order)
    return Polynomial.from_terms(ctx, nvars, data)


def rand_univ(rng, ctx, degree):
    """Random univariate of exact degree ``degree``."""
    coeffs = [rng.randrange(ctx.order) for _ in range(degree)]
    coeffs.append(rng.randrange(1, ctx.order))
    return upoly(ctx, coeffs)
