#!/usr/bin/env python3
"""Query-contract checker: run every ``__ray_entry__.queries()`` entry
against a testdata scale and diff each one that has an
``oracle_sql()`` twin against DuckDB over the same parquet tables.

    python tools/check_correctness.py                      # all queries
    python tools/check_correctness.py dedup_exact event_trigrams
    python tools/check_correctness.py --sf-dir /path/to/sf0.01 --cpus 8

A query passes when it runs and, if it has an oracle, returns the same
column names, the same row count and the same rows (columns compared
by name, rows sorted by all columns; floats rounded to 9 decimals, then
compared with ``math.isclose`` at 1e-9). Queries without an oracle only
have to run. Prints one line per query and a summary; exits non-zero
when any query fails. A query still running after ``QUERY_DEADLINE_S``
fails as ``(timeout)`` and ends the sweep: its execution keeps its CPUs.
"""

from __future__ import annotations

import argparse
import datetime as dt
import decimal
import math
import os
import sys
import threading
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUERY_DEADLINE_S = 600
TABLES = (
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
)


def _norm(v):
    """One cell as a hashable, orderable, engine-neutral Python value."""
    if v is None:
        return None
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, decimal.Decimal):
        v = float(v)
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if v.is_integer() and abs(v) < 2**53:
            return int(v)
        return round(v, 9)
    if isinstance(v, dt.date) and not isinstance(v, dt.datetime):
        v = dt.datetime(v.year, v.month, v.day)  # DATE == midnight TIMESTAMP
    if isinstance(v, dt.datetime) and v.tzinfo is not None:
        v = v.astimezone(dt.timezone.utc).replace(tzinfo=None)
    if isinstance(v, (dt.datetime, dt.time, dt.timedelta)):
        return str(v)
    if isinstance(v, bytes):
        return v.hex()
    if isinstance(v, dict):
        return tuple(sorted((k, _norm(x)) for k, x in v.items()))
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    return v


def _sort_key(row):
    # None sorts first; numbers before strings so mixed columns order
    return tuple(
        (0, 0) if v is None else (1, v) if isinstance(v, (int, float))
        else (2, str(v))
        for v in row
    )


def _rows(table):
    names = sorted(table.column_names)
    cols = [table.column(n).to_pylist() for n in names]
    rows = [tuple(_norm(v) for v in r) for r in zip(*cols)]
    return names, sorted(rows, key=_sort_key)


def _same(a, b) -> bool:
    if a == b:
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return all(_same(x, y) for x, y in zip(a, b))
    return False


def _to_arrow(out):
    """Engine output (Dataset, Arrow, pandas, rows) as one Arrow table."""
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.block import BlockAccessor

    if isinstance(out, ray.data.Dataset):
        # to_arrow_refs can hand back pandas blocks as they are
        parts = [BlockAccessor.for_block(b).to_arrow()
                 for b in ray.get(out.to_arrow_refs())]
        parts = [t for t in parts if t.num_rows]
        if not parts:
            return pa.table({n: [] for n in out.schema().names}) \
                if out.schema() is not None else pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")
    if isinstance(out, pa.Table):
        return out
    if isinstance(out, pd.DataFrame):
        return pa.Table.from_pandas(out, preserve_index=False)
    if isinstance(out, list):
        return pa.Table.from_pylist(out)
    if isinstance(out, dict):
        return pa.Table.from_pylist([out])
    return pa.table({"value": [out]})


def check(name, fn, sql, sf_dir, con) -> tuple[bool, str]:
    got = _to_arrow(fn(sf_dir))
    if sql is None:
        return True, f"{got.num_rows} rows (no oracle)"
    want = con.execute(sql).arrow()
    if hasattr(want, "read_all"):  # newer DuckDB returns a reader
        want = want.read_all()
    gnames, grows = _rows(got)
    wnames, wrows = _rows(want)
    if gnames != wnames:
        return False, f"columns {gnames} != oracle {wnames}"
    if len(grows) != len(wrows):
        return False, f"{len(grows)} rows != oracle {len(wrows)}"
    for i, (g, w) in enumerate(zip(grows, wrows)):
        if not _same(g, w):
            return False, f"row {i} differs: {g} != oracle {w}"
    return True, f"{len(grows)} rows match"


def run_with_deadline(fn, deadline_s: float):
    """``fn()``, or None when it is still running after ``deadline_s``:
    it then keeps running in a daemon thread, which neither
    ``ray.shutdown()`` nor the exit waits for."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    worker.start()
    worker.join(deadline_s)
    return box[0] if box else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="query names (default: all)")
    ap.add_argument("--sf-dir", help="testdata scale to run at (default: "
                    "the sf0.01 sibling of __ray_entry__.SF0001)")
    # logical CPUs for the local Ray session: some queries run fixed-size
    # 4-actor pools, which need CPUs to spare for their input tasks
    ap.add_argument("--cpus", type=int, default=8)
    args = ap.parse_args(argv)

    # Ray workers import ctinexus_ray from the repo root
    os.chdir(REPO)
    sys.path.insert(0, str(REPO))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO), os.environ.get("PYTHONPATH")) if p
    )
    import duckdb
    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    try:
        import __ray_entry__ as entry

        sf_dir = args.sf_dir or str(Path(entry.SF0001).with_name("sf0.01"))
        qs = entry.queries()
        oracles = entry.oracle_sql()
        unknown = [n for n in args.names if n not in qs]
        if unknown:
            print(f"unknown queries: {unknown}", file=sys.stderr)
            return 2
        names = args.names or list(qs)
        con = duckdb.connect()
        for t in TABLES:
            path = Path(sf_dir) / f"{t}.parquet"
            if path.exists():
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')"
                )
        failed = []

        def run(name):
            try:
                return check(name, qs[name], oracles.get(name), sf_dir, con)
            except Exception:  # noqa: BLE001 — report and keep sweeping
                return False, traceback.format_exc().strip().splitlines()[-1]

        for i, name in enumerate(names):
            t0 = time.perf_counter()
            res = run_with_deadline(lambda: run(name), QUERY_DEADLINE_S)
            if res is None:
                print(f"FAIL {name} (timeout): running after {QUERY_DEADLINE_S}"
                      f"s; not run: {names[i + 1:]}", flush=True)
                failed.append(name)
                break
            ok, msg = res
            took = time.perf_counter() - t0
            print(f"{'ok  ' if ok else 'FAIL'} {name} ({took:.1f}s): {msg}",
                  flush=True)
            if not ok:
                failed.append(name)
        n_oracle = sum(1 for n in names if n in oracles)
        print(f"{len(names)} queries ({n_oracle} with an oracle), "
              f"{len(failed)} failed" + (f": {failed}" if failed else ""))
        return 1 if failed else 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
