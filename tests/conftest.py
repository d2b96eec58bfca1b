import math
import random
from fractions import Fraction

import pytest

from chaos_edge import build_base, build_stunted

# zero sides of locate_boundary(..., resolution=2^-60) on the m = 1 path
# xi = (t), t in [1/2, 3/2], and on the m = 2 diagonal path xi = (t, t),
# t in [1/2, 8/3]: Markov graphs of 35 and 69 states whose components are
# chained simple cycles, so their 0/1 matrices are defective
ZERO_SIDE_2_60 = {1: Fraction(1434739046586476969, 2**60),
                  2: Fraction(52542695141702555945, 3 * 2**63)}


@pytest.fixture
def base1():
    return build_base(1, 1)


@pytest.fixture
def base2():
    return build_base(2, 1)


@pytest.fixture
def T32(base1):
    return build_stunted(base1, [Fraction(3, 2)])


@pytest.fixture
def T12(base1):
    return build_stunted(base1, [Fraction(1, 2)])


def random_xi(rnd: random.Random, base, q: int):
    """Admissible random plateau parameters with denominator q."""
    xi = []
    for _ in range(base.m):
        lo = max(-base.e, -xi[-1]) if xi else -base.e
        xi.append(Fraction(rnd.randint(math.ceil(lo * q), math.floor(base.e * q)), q))
    return tuple(xi)
