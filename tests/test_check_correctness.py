"""The query-contract checker's per-query deadline: a query that never
returns is reported instead of blocking the sweep."""

from __future__ import annotations

import importlib.util
import threading
import time
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "check_correctness",
    Path(__file__).resolve().parent.parent / "tools" / "check_correctness.py",
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def test_finished_query_returns_its_result():
    assert checker.run_with_deadline(lambda: (True, "3 rows"), 5) == (True, "3 rows")


def test_hung_query_times_out_without_blocking():
    release = threading.Event()
    t0 = time.perf_counter()
    assert checker.run_with_deadline(release.wait, 0.2) is None
    assert time.perf_counter() - t0 < 5
    release.set()


def test_deadline_is_on_by_default():
    assert 0 < checker.QUERY_DEADLINE_S <= 3600
