import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")

_ACCEPTANCE = pytest.StashKey[list]()


@pytest.fixture
def acceptance(request):
    """Record an acceptance verdict and its wall time for the terminal summary.

    Call it as ``acceptance(num, label, ok, start)`` with ``start`` taken
    from ``time.perf_counter()`` when the criterion began.
    """
    lines = request.config.stash.setdefault(_ACCEPTANCE, [])

    def record(num: int, label: str, ok: bool, start: float) -> None:
        wall = time.perf_counter() - start
        lines.append(f"ACCEPTANCE {num} [{label}]: "
                     f"{'PASS' if ok else 'FAIL'} ({wall:.2f} s)")

    return record


def pytest_terminal_summary(terminalreporter, config):
    """List the recorded acceptance lines in their own summary section."""
    lines = config.stash.get(_ACCEPTANCE, [])
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
