import pytest
from hypothesis import settings

import skewbrace as sb

# Property tests draw the same examples on every run, with no time limit per
# example and no example database left on disk.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def z4():
    return sb.cyclic_group(4)


@pytest.fixture(scope="session")
def v4():
    return sb.klein_four_group()


@pytest.fixture(scope="session")
def s3():
    return sb.symmetric_group_s3()


@pytest.fixture(scope="session")
def xor_brace(z4, v4):
    # dot = addition mod 4, circ = x + y + 2xy mod 4, which is the xor table
    return sb.SkewBrace(z4, v4)


@pytest.fixture(scope="session")
def raw_catalogs():
    """Raw catalogs for orders 1..6, computed once per session."""
    return {n: sb.enumerate_braces(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def raw_catalog_8():
    return sb.enumerate_braces(8)
