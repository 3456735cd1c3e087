import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, settings

from hlab import folang
from hlab.asymptotics import profile_family
from hlab.finitemodels import make_cyclic_group, make_prime_field, primes_in

settings.register_profile(
    "lab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture(scope="session")
def gf7():
    return make_prime_field(7)


@pytest.fixture(scope="session")
def gf11():
    return make_prime_field(11)


@pytest.fixture(scope="session")
def z13():
    return make_cyclic_group(13)


@pytest.fixture(scope="session")
def small_prime_family():
    """GF(p) for odd primes up to 47; shared by profiling tests."""
    return [make_prime_field(p) for p in primes_in(3, 47)]


@pytest.fixture(scope="session")
def profiled():
    """profiled(family, formulas) profiles each formula over the family, in
    order: the profile lists that derive_config and schedule_in take."""
    return lambda family, formulas: [profile_family(family, pf) for pf in formulas]


@pytest.fixture
def shrink_budget(monkeypatch):
    """shrink_budget(cells) sets the one evaluation budget, folang.BUDGET,
    to `cells` for the rest of the test: evaluation blocks narrow and every
    decision that reads the budget sees the small value."""
    return lambda cells: monkeypatch.setattr(folang, "BUDGET", cells)


@pytest.fixture
def race():
    """race(fn, threads=8) calls fn() from `threads` threads that a barrier
    releases together, under a short switch interval so they interleave,
    and returns the results in thread order."""

    def run(fn, threads=8):
        barrier = threading.Barrier(threads, timeout=60)

        def call(_):
            barrier.wait()
            return fn()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(call, range(threads), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    return run
