import contextlib
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def write_corpus(tmp_path):
    """Write text to a corpus file and return its path."""

    def _write(text, name="corpus.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


@pytest.fixture
def traced_peak():
    """A context manager that traces allocations with ``tracemalloc`` while
    its block runs; the object it yields holds the peak, in bytes, as
    ``bytes`` once the block has finished."""

    @contextlib.contextmanager
    def _trace():
        peak = SimpleNamespace(bytes=None)
        tracemalloc.start()
        try:
            yield peak
            peak.bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return _trace
