import os

import pytest

from redwords.coxeter import SymmetricGroup


def max_rank() -> int:
    return int(os.environ.get("REDWORDS_MAX_RANK", "4"))


requires_s5 = pytest.mark.skipif(
    max_rank() < 5,
    reason="set REDWORDS_MAX_RANK=5 to include the larger enumerations",
)

requires_s6 = pytest.mark.skipif(
    max_rank() < 6,
    reason="set REDWORDS_MAX_RANK=6 to include the 292,864-state S6 walk and the S6/S7 Schur routes",
)


@pytest.fixture(scope="session")
def s3():
    return SymmetricGroup(3)


@pytest.fixture(scope="session")
def s4():
    return SymmetricGroup(4)


def packed_q(rows, top):
    """A recording tableau with entries 1, 2, ... packed as
    ``edelman_greene._eg_walk`` packs Q for letters in 1..top: each cell of
    row r holding j adds one to the field of top.bit_length() bits at bit
    ((j - 1) * top + r) * top.bit_length()."""
    width = top.bit_length()
    return sum(1 << ((j - 1) * top + r) * width for r, row in enumerate(rows) for j in row)
