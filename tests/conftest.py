"""The hypothesis profile of every property test, and wall-clock budgets that scale with the host's speed.

Each budget was set on a 2-vCPU Xeon under Python 3.11, where the best of three
`_reference_s()` is REFERENCE_S (the median over 40 processes).  `within_budget`
scales a budget by that loop's time in the same test, so a slower host or a line
tracer slows both sides alike.
"""

import time

import pytest
from hypothesis import settings

# no per-example deadline, since some examples run the oracle, and no example database,
# so a run neither replays nor leaves behind the failures of an earlier one
settings.register_profile("germkit", deadline=None, database=None)
settings.load_profile("germkit")

REFERENCE_S = 0.0057


def _reference_s():
    """The time of one fixed pure-Python loop of integer, tuple and dict work."""
    start = time.perf_counter()
    acc = {}
    for i in range(20_000):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - start


@pytest.fixture
def within_budget():
    """check(elapsed, seconds): assert elapsed < seconds on the reference host, scaled to this one."""
    def check(elapsed, seconds):
        limit = seconds * min(_reference_s() for _ in range(3)) / REFERENCE_S
        assert elapsed < limit, f"took {elapsed:.6f}s, budget {limit:.6f}s ({seconds} s on the reference host)"

    return check
