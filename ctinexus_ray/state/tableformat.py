"""Minimal versioned-table format: atomic manifest commits over
immutable parquet files + time-travel reads — the Iceberg-lite shape a
100-TB pipeline needs so a reader NEVER sees a half-written table and a
bad load can be rolled back by pointing at the previous version.

Layout: <table_dir>/manifest-v<N>.json, each listing the IMMUTABLE
parquet files that make up version N (append mode unions the parent's
files; overwrite starts fresh). Commits are optimistic: the manifest is
created with O_EXCL, so two concurrent committers race on the version
number and the loser retries against the new parent — no coordinator,
no locks, safe on any POSIX filesystem. Data files are never rewritten
or deleted by a commit, so every historical version stays readable
until an explicit vacuum.

The reference system has no table format (single-document tool); this
exists for the corpus-scale output-management path, and is the commit
record of every output: ``state/checkpoint.run_resumable`` commits each
input shard here as one ledgered append carrying its lineage."""

from __future__ import annotations

import json
import os

import ray.data

_PREFIX = "manifest-v"


class ConcurrentWriteError(RuntimeError):
    """A snapshot-derived commit (merge / compact / delete) found the
    table advanced past the version it was computed from — committing
    would silently drop the concurrent writer's rows."""


def _versions(table_dir: str) -> list[int]:
    try:
        names = os.listdir(table_dir)
    except FileNotFoundError:
        return []
    out = []
    for n in names:
        if n.startswith(_PREFIX) and n.endswith(".json"):
            try:
                out.append(int(n[len(_PREFIX):-5]))
            except ValueError:
                continue
    return sorted(out)


def latest_version(table_dir: str) -> int | None:
    vs = _versions(table_dir)
    return vs[-1] if vs else None


def _manifest_path(table_dir: str, version: int) -> str:
    return os.path.join(table_dir, f"{_PREFIX}{version}.json")


def _schema_to_json(schema) -> str:
    import base64

    return base64.b64encode(schema.serialize().to_pybytes()).decode("ascii")


def _schema_from_json(s: str):
    import base64

    import pyarrow as pa

    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


def _unify_schemas(base, file_schemas):
    """Union of field names across schemas, first-seen order — the
    table's evolved schema. A name reappearing with a DIFFERENT type is
    refused loudly (silent casts corrupt downstream readers); a file
    missing a field null-fills it at read time."""
    import pyarrow as pa

    fields: list = list(base) if base is not None else []
    seen = {f.name: f.type for f in fields}
    for sch in file_schemas:
        for f in sch:
            if f.name not in seen:
                fields.append(pa.field(f.name, f.type))
                seen[f.name] = f.type
            elif seen[f.name] != f.type:
                raise ValueError(
                    f"schema evolution: column {f.name!r} changes type "
                    f"{seen[f.name]} -> {f.type}; type changes are "
                    "refused — add a NEW column or rewrite the table"
                )
    return pa.schema(fields)


_UNSET = object()


def _align_to(schema):
    """A ``map_batches`` function that conforms each batch to
    ``schema``: its columns in the schema's order, null-filling the ones
    the batch lacks (files that predate a column added by schema
    evolution)."""
    import pyarrow as pa

    def align(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column(f.name) if f.name in batch.column_names
             else pa.nulls(batch.num_rows, type=f.type) for f in schema],
            schema=schema,
        )

    return align


# the manifest key of the applied-batch ledger, and the per-caller keys
# manifests kept it under before ``commit_version`` owned it
_LEDGER = "applied"
_OLD_LEDGERS = ("ivm_applied", "kg_applied", "webtext_applied")


def _ledger_of(extra: dict) -> list[str]:
    """The applied-batch ledger stored in a manifest's ``extra``. A
    manifest written before the ledger had one key holds it under an
    old per-caller key (or the text index's ``applied`` field); read
    that instead, so an existing view or index never folds a batch
    twice."""
    if _LEDGER in extra:
        return list(extra[_LEDGER])
    old = [b for k in _OLD_LEDGERS for b in extra.get(k, [])]
    return old + list(extra.get("text_index", {}).get(_LEDGER, []))


def applied_ids(table_dir: str, version: int | None = None) -> list[str]:
    """Batch ids already committed into the table as of ``version``
    (latest when None) — the exactly-once ledger ``commit_version``
    keeps in every manifest."""
    return _ledger_of(version_extra(table_dir, version))


def extend_ledger(ledger: list[str], batch_ids: list[str]) -> list[str] | None:
    """``ledger`` plus ``batch_ids``, or None when every id is already
    in it. A partly applied set raises: one data commit covering some
    replayed batches would count them twice."""
    done = [b for b in batch_ids if b in ledger]
    if not done:
        return ledger + list(batch_ids)
    if len(done) != len(batch_ids):
        raise ValueError(
            f"batch ids {done} already applied but "
            f"{sorted(set(batch_ids) - set(done))} are not — a "
            "multi-batch commit must be all-or-nothing"
        )
    return None


def commit_version(
    table_dir: str,
    files: list[str],
    mode: str = "append",
    max_retries: int = 16,
    extra: dict | None = None,
    expected_parent=_UNSET,
    batch_ids: list[str] | None = None,
) -> int | None:
    """Commit ``files`` (immutable parquet paths) as a new table
    version. ``append`` unions the current latest version's files;
    ``overwrite`` replaces the file set; ``compact`` is overwrite's
    ROW-PRESERVING twin (same logical rows, rewritten files) — the
    distinct mode lets incremental consumers (IVM views, the text
    index fold) know a version carries no logical delta instead of
    re-counting rewritten files. Returns the committed version
    number. Optimistic concurrency: O_EXCL manifest creation — a racing
    committer retries against the winner's version. ``extra`` is an
    opaque JSON dict stored IN the manifest — metadata that must be
    atomic with the data commit (e.g. the text index's corpus totals).
    ``extra=None`` INHERITS the parent's extra, so tables survive
    compaction/merge commits that don't know about the metadata; pass
    ``{}`` to clear it.

    ``batch_ids`` makes the commit EXACTLY-ONCE: the ledger of applied
    batch ids (``extra["applied"]``, read with ``applied_ids``) is read
    from the parent this commit lands on, inside the retry loop. When
    every id is already in it, nothing is committed and the call
    returns None; a partly applied set raises ``ValueError``; otherwise
    the new manifest's ledger is the parent's plus ``batch_ids``. Every
    commit carries the parent's ledger forward whatever ``extra`` it
    passes, so no caller can drop a racing commit's entry. A
    ledger-only commit is ``commit_version(dir, [], "append",
    batch_ids=[bid])``.

    ``expected_parent`` is the SNAPSHOT-ISOLATION guard for commits
    whose file set was COMPUTED FROM a specific version (merge_upsert,
    compaction, copy-on-write deletes): pass the version the snapshot
    was read from (or None for "the table must still be empty"), and
    the commit ABORTS with ConcurrentWriteError instead of retrying
    when the table has advanced — a blind optimistic retry would
    commit the stale snapshot over a concurrent append and silently
    drop its rows. Plain appends (file sets independent of the current
    state) leave it unset and keep the lock-free retry behavior."""
    if mode not in ("append", "overwrite", "compact"):
        raise ValueError("mode must be 'append', 'overwrite' or 'compact'")
    os.makedirs(table_dir, exist_ok=True)
    for _ in range(max_retries):
        parent = latest_version(table_dir)
        base = []
        inherited = {}
        if parent is not None:
            with open(_manifest_path(table_dir, parent)) as fh:
                pman = json.load(fh)
            if mode == "append":
                base = pman["files"]
            inherited = pman.get("extra", {})
        ledger = _ledger_of(inherited)
        if batch_ids:
            ledger = extend_ledger(ledger, list(batch_ids))
            if ledger is None:
                return None  # a replay: every batch is already in
        if expected_parent is not _UNSET and parent != expected_parent:
            raise ConcurrentWriteError(
                f"{table_dir}: snapshot computed from version "
                f"{expected_parent} but the table is now at {parent} — "
                "recompute from the new latest version"
            )
        version = 1 if parent is None else parent + 1
        manifest = {
            "version": version,
            "parent": parent,
            "mode": mode,
            "files": base + [f for f in files if f not in base],
        }
        # schema evolution (Iceberg-lite): the manifest records the
        # UNION schema plus, per file, WHICH schema in the pool it was
        # written with — so a read can scan homogeneous groups with
        # full column pushdown and null-fill columns a file predates.
        # Parent pool/map carry forward on append (a legacy schemaless
        # parent derives them once from its files' footers); overwrite
        # starts fresh. A column reappearing with a different type
        # refuses the commit loudly (_unify_schemas).
        import pyarrow.parquet as _pq

        pool: list = []  # serialized schema pool
        fmap: dict = {}  # file path -> index into pool
        if parent is not None:
            # reuse the parent's schema map for EVERY mode — data files
            # are immutable, so a file the parent already mapped never
            # needs its footer re-read (an overwrite/compact carrying
            # thousands of kept files by reference previously paid one
            # driver footer read per file per commit attempt); on
            # non-append modes only entries for files still present
            # carry over, keeping the manifest map exact
            if "schema_pool" in pman:
                ppool = list(pman["schema_pool"])
                pmap = dict(pman["file_schemas"])
                if mode == "append":
                    pool, fmap = ppool, pmap
                else:
                    for f in files:
                        if f in pmap:
                            s = ppool[pmap[f]]
                            if s not in pool:
                                pool.append(s)
                            fmap[f] = pool.index(s)
            elif mode == "append" and base:
                for f in base:
                    s = _schema_to_json(_pq.read_schema(f))
                    if s not in pool:
                        pool.append(s)
                    fmap[f] = pool.index(s)
        for f in files:
            if f in fmap:
                continue
            s = _schema_to_json(_pq.read_schema(f))
            if s not in pool:
                pool.append(s)
            fmap[f] = pool.index(s)
        if not manifest["files"] and parent is not None:
            # a file-less commit keeps the parent's schema, so its
            # empty read stays typed
            pool = list(pman.get("schema_pool", []))
        if pool:
            union = _unify_schemas(
                None, [_schema_from_json(s) for s in pool]
            )
            manifest["schema"] = _schema_to_json(union)
            manifest["schema_pool"] = pool
            manifest["file_schemas"] = fmap
        # the ledger is only ever the one computed above
        chosen = {k: v for k, v in (inherited if extra is None else extra)
                  .items() if k not in (_LEDGER, *_OLD_LEDGERS)}
        if _LEDGER in chosen.get("text_index", {}):
            chosen["text_index"] = {
                k: v for k, v in chosen["text_index"].items() if k != _LEDGER
            }
        if ledger:
            chosen[_LEDGER] = ledger
        if chosen:
            manifest["extra"] = chosen
        # write the FULL manifest to a private temp file first, then
        # os.link() it into place: link is atomic create-if-absent, so
        # a concurrent reader can never observe a half-written manifest
        # (O_EXCL + streaming json.dump had exactly that window — a
        # racing append-mode committer reading its parent crashed with
        # JSONDecodeError under test_optimistic_commit_race)
        # uuid in the temp name: (version, pid) alone collides for two
        # same-process committers (threads / async actor), and the
        # loser's open(tmp, 'w') would truncate the inode the winner
        # just linked into place
        import uuid as _uuid

        tmp = os.path.join(
            table_dir,
            f".manifest-{version}.{os.getpid()}.{_uuid.uuid4().hex[:8]}.tmp",
        )
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
        try:
            os.link(tmp, _manifest_path(table_dir, version))
        except FileExistsError:
            os.remove(tmp)
            continue  # lost the race — re-resolve the parent and retry
        os.remove(tmp)
        return version
    raise RuntimeError(
        f"commit contention: {max_retries} losing races in {table_dir}"
    )


def version_files(table_dir: str, version: int) -> list[str]:
    """The exact immutable file list of a version (from its manifest)."""
    with open(_manifest_path(table_dir, version)) as fh:
        return list(json.load(fh)["files"])


def version_mode(table_dir: str, version: int) -> str:
    """The commit mode recorded in a version's manifest — ``append``,
    ``overwrite`` or ``compact`` (row-preserving rewrite). Legacy
    manifests without the field read as ``append``."""
    with open(_manifest_path(table_dir, version)) as fh:
        return str(json.load(fh).get("mode", "append"))


def version_extra(table_dir: str, version: int | None = None) -> dict:
    """The ``extra`` metadata dict of a version's manifest ({} when
    absent or the table has no versions yet)."""
    if version is None:
        version = latest_version(table_dir)
        if version is None:
            return {}
    with open(_manifest_path(table_dir, version)) as fh:
        return json.load(fh).get("extra", {})


def version_schema(table_dir: str, version: int | None = None):
    """The union schema a version's manifest records (latest when
    None); None when it records none, as when no commit up to it ever
    listed a file."""
    if version is None:
        version = latest_version(table_dir)
        if version is None:
            return None
    with open(_manifest_path(table_dir, version)) as fh:
        schema = json.load(fh).get("schema")
    return None if schema is None else _schema_from_json(schema)


def read_version(
    table_dir: str,
    version: int | None = None,
    columns: list[str] | None = None,
    filter=None,
) -> ray.data.Dataset:
    """Dataset over exactly the files of ``version`` (latest when
    None) — a time-travel read; concurrent commits never change what
    this scan sees because data files are immutable. ``columns`` and
    ``filter`` (a pyarrow dataset expression) push straight into the
    parquet scan so only needed columns/row-groups leave storage."""
    if version is None:
        version = latest_version(table_dir)
        if version is None:
            raise FileNotFoundError(f"no manifests in {table_dir}")
    with open(_manifest_path(table_dir, version)) as fh:
        manifest = json.load(fh)
    if not manifest["files"]:
        # a ledger-only commit or an empty tick: no rows, typed by the
        # schema it carries; a column no commit ever had reads null-typed
        import pyarrow as pa

        types = {}
        if "schema" in manifest:
            types = {f.name: f.type for f in _schema_from_json(manifest["schema"])}
        names = list(types) if columns is None else columns
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], types.get(c, pa.null())) for c in names}))
    kwargs: dict = {}
    if columns is not None:
        kwargs["columns"] = columns
    if filter is not None:
        kwargs["filter"] = filter

    pool = manifest.get("schema_pool")
    if not pool or len(pool) == 1:
        # homogeneous table (or legacy manifest): one pushdown scan
        return ray.data.read_parquet(manifest["files"], **kwargs)

    # evolved schema: scan each schema group homogeneously (full
    # column/filter pushdown within the group), align every batch to
    # the manifest's union schema — files that predate an added column
    # null-fill it — then union the groups (a metadata-only op).
    import pyarrow as pa

    union = _schema_from_json(manifest["schema"])
    wanted = list(columns) if columns is not None else list(union.names)
    target = pa.schema([union.field(n) for n in wanted])
    fmap = manifest["file_schemas"]
    groups: dict[int, list[str]] = {}
    for f in manifest["files"]:
        groups.setdefault(fmap[f], []).append(f)

    def _binds(expr, schema: pa.Schema) -> bool:
        # does the filter reference only columns this schema has?
        # binding against an empty in-memory dataset answers without
        # touching any file
        import pyarrow.dataset as pads

        try:
            pads.dataset(schema.empty_table()).to_table(filter=expr)
            return True
        except (pa.ArrowInvalid, KeyError):
            return False

    parts = []
    for idx, paths in sorted(groups.items()):
        gschema = _schema_from_json(pool[idx])
        names = set(gschema.names)
        present = [c for c in wanted if c in names]
        gkw: dict = {}
        post_filter = None
        if filter is not None:
            if _binds(filter, gschema):
                gkw["filter"] = filter
            else:
                # Iceberg semantics: files that predate an added column
                # hold NULL for it — evaluate the filter AFTER aligning
                # to the union schema (Kleene logic drops null-valued
                # comparisons, keeps is_null matches) instead of raising
                if not _binds(filter, union):
                    raise ValueError(
                        f"read_version: filter references columns outside "
                        f"the table schema {union.names}"
                    )
                post_filter = filter
        # always read at least one column so row counts survive a
        # projection that misses this group entirely
        gkw["columns"] = present or [next(iter(names))]
        if post_filter is None:
            part = ray.data.read_parquet(paths, **gkw).map_batches(
                _align_to(target), batch_format="pyarrow"
            )
        else:
            # align to the FULL union schema first so the filter sees
            # the (null) added columns, filter, then project. The filter
            # may also reference group columns outside the projection —
            # we can't enumerate an Expression's fields, so read all of
            # this group's columns (rare path: pre-evolution files under
            # a filter on an added column)
            def filter_project(batch: pa.Table, _f=post_filter) -> pa.Table:
                import pyarrow.dataset as pads

                return pads.dataset(batch).to_table(filter=_f).select(wanted)

            part = (
                ray.data.read_parquet(paths)
                .map_batches(_align_to(union), batch_format="pyarrow")
                .map_batches(filter_project, batch_format="pyarrow")
            )
        parts.append(part)
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def merge_upsert(
    table_dir: str,
    updates: ray.data.Dataset,
    key_col: str,
    delete_col: str | None = None,
    max_broadcast_keys: int = 4_000_000,
    num_partitions: int | None = None,
    assume_unique: bool = False,
    extra: dict | None = None,
) -> dict:
    """MERGE INTO the table's latest version: update rows replace base
    rows with the same key, rows with new keys are inserted, and rows
    flagged TRUE in ``delete_col`` remove the key (insert-flavored
    deletes of absent keys are no-ops). Commits a new
    version; every prior version stays readable (copy-on-write, files
    immutable).

    Scale shape (the Iceberg/Delta copy-on-write discipline):

      * updates with at most ``max_broadcast_keys`` rows broadcast a
        sorted key array ONCE (``ray.put``); base files whose parquet
        FOOTER min/max key range contains no update key are carried
        into the new version BY REFERENCE — zero read, zero write —
        and only overlapping files are rewritten through a vectorized
        ``searchsorted`` drop filter. A merge touching one key range
        rewrites one file, not the table.
      * larger update sets fall back to a full distributed anti-join
        (``ops.distjoin.hash_join`` left_anti) — every base file is
        rewritten, both sides stream, nothing driver-sized.

    Update keys must be unique (SQL MERGE's "multiple matching rows"
    error) — verified with one count reduce unless ``assume_unique``.
    The commit is pinned to the merged version: a table that moved past
    it raises ``ConcurrentWriteError``.
    Returns {"version", "files_kept", "files_rewritten", "n_updates"}.
    ``key_col`` must be int64-compatible.
    """
    import uuid

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray

    from ctinexus_ray.ops.groupagg import partitioned_agg

    if not assume_unique:
        dups = (
            partitioned_agg(
                updates.select_columns([key_col]),
                keys=[key_col],
                named_aggs={"n": (key_col, "size")},
                num_partitions=num_partitions,
            )
            .filter(expr="n > 1")
            .count()
        )
        if dups:
            raise ValueError(
                f"merge_upsert: {dups} update keys appear more than once "
                "(SQL MERGE multiple-matching-rows error)"
            )

    parent = latest_version(table_dir)
    base_files: list[str] = []
    if parent is not None:
        with open(_manifest_path(table_dir, parent)) as fh:
            base_files = json.load(fh)["files"]

    data_dir = os.path.join(table_dir, f"data-{uuid.uuid4().hex[:12]}")
    os.makedirs(data_dir, exist_ok=True)

    def survivors_filter(keys_ref):
        def drop_updated(batch: pa.Table) -> pa.Table:
            keys = ray.get(keys_ref)
            col = batch.column(key_col).to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, col)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == col if len(keys) else np.zeros(len(col), bool)
            return batch.filter(pa.array(~hit))

        return drop_updated

    inserts = updates
    if delete_col is not None:

        def not_deleted(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            flag = pc.fill_null(
                batch.column(delete_col).cast(pa.bool_()), False
            )
            return batch.drop_columns([delete_col]).filter(pc.invert(flag))

        inserts = updates.map_batches(not_deleted, batch_format="pyarrow")

    union_schema = None
    if base_files:
        # align insert columns to the TABLE's schema — the manifest's
        # evolved UNION schema when present (a schema-evolved table's
        # base_files[0] may predate newer columns and would wrongly
        # reject union-shaped updates), else the first file's schema;
        # extra/missing columns are a caller error, surfaced loudly
        with open(_manifest_path(table_dir, parent)) as fh:
            _pman = json.load(fh)
        if "schema" in _pman:
            union_schema = _schema_from_json(_pman["schema"])
            base_names = list(union_schema.names)
        else:
            base_names = list(pq.read_schema(base_files[0]).names)

        def align(batch: pa.Table) -> pa.Table:
            if sorted(batch.schema.names) != sorted(base_names):
                raise ValueError(
                    f"merge_upsert: update columns {batch.schema.names} "
                    f"!= base columns {base_names}"
                )
            return batch.select(base_names)

        inserts = inserts.map_batches(align, batch_format="pyarrow")

    n_updates = updates.count()
    kept: list[str] = []
    if n_updates <= max_broadcast_keys:
        # broadcast path: footer-stats pruning + vectorized drop
        key_blocks = [
            t.column(key_col).to_numpy(zero_copy_only=False)
            for t in ray.get(updates.select_columns([key_col]).to_arrow_refs())
            if t.num_rows
        ]
        raw_keys = (
            np.concatenate(key_blocks)
            if key_blocks
            else np.empty(0, dtype=np.int64)
        )
        # NULL keys surface as float64 NaN and astype(int64) would turn
        # them into arbitrary phantom keys in the drop set — refuse
        if (
            np.issubdtype(raw_keys.dtype, np.floating)
            and np.isnan(raw_keys).any()
        ):
            raise ValueError(
                f"merge_upsert: update rows contain NULL {key_col} "
                "values — key every update row before merging"
            )
        keys = np.sort(raw_keys.astype(np.int64))
        keys_ref = ray.put(keys)
        touched: list[str] = []
        for f in base_files:
            meta = pq.ParquetFile(f).metadata
            idx = next(
                (
                    i
                    for i in range(meta.num_columns)
                    if meta.schema.column(i).name == key_col
                ),
                None,
            )
            lo = hi = None
            if idx is not None:
                for rg in range(meta.num_row_groups):
                    st = meta.row_group(rg).column(idx).statistics
                    if st is None or not st.has_min_max:
                        lo = None
                        break
                    lo = st.min if lo is None else min(lo, st.min)
                    hi = st.max if hi is None else max(hi, st.max)
            if lo is None or hi is None:
                touched.append(f)  # no stats: must rewrite
                continue
            i0 = int(np.searchsorted(keys, int(lo), side="left"))
            i1 = int(np.searchsorted(keys, int(hi), side="right"))
            (touched if i1 > i0 else kept).append(f)
        to_write = inserts
        if touched:
            base_read = ray.data.read_parquet(touched)
            if union_schema is not None:
                # a touched file may predate evolved columns: null-fill
                # and reorder to the union schema (read_version's rule)
                # so the union with the aligned inserts is one schema
                base_read = base_read.map_batches(
                    _align_to(union_schema), batch_format="pyarrow"
                )
            to_write = (
                base_read
                .map_batches(survivors_filter(keys_ref), batch_format="pyarrow")
                .union(inserts)
            )
    else:
        # big-updates path: full distributed anti-join rewrite
        from ctinexus_ray.ops.distjoin import hash_join

        to_write = inserts
        if base_files:
            big_base = ray.data.read_parquet(base_files)
            if union_schema is not None:
                big_base = big_base.map_batches(
                    _align_to(union_schema), batch_format="pyarrow"
                )
            to_write = hash_join(
                big_base,
                updates.select_columns([key_col]),
                on=[key_col],
                how="left_anti",
                num_partitions=num_partitions,
            ).union(inserts)

    # ONE write executes the whole merge pipeline exactly once
    to_write.write_parquet(data_dir)
    new_files = sorted(
        os.path.join(data_dir, n)
        for n in os.listdir(data_dir)
        if n.endswith(".parquet")
    )
    committed = commit_version(
        table_dir, kept + new_files, mode="overwrite", extra=extra,
        expected_parent=parent,  # snapshot guard: abort on concurrent commits
    )
    return {
        "version": committed,
        "files_kept": len(kept),
        "files_rewritten": len(base_files) - len(kept),
        "n_updates": n_updates,
    }


def vacuum(
    table_dir: str, keep_versions: int = 1, older_than_sec: float = 600.0
) -> dict:
    """Garbage-collect table history: drop all but the newest
    ``keep_versions`` manifests, then delete every parquet file UNDER
    ``table_dir`` that no surviving manifest references (merge/commit
    never deletes, so history accumulates until an explicit vacuum —
    the Iceberg ``expire_snapshots`` + ``remove_orphan_files`` pair).

    ``older_than_sec`` is the orphan GRACE PERIOD (Iceberg's
    remove_orphan_files ``older-than`` rule): a committer writes data
    files BEFORE its manifest exists, so an unreferenced-but-recent
    file may belong to an in-flight commit — deleting it would leave
    the about-to-land version referencing vanished files. Only
    unreferenced files older than the threshold are removed; newly
    landed manifests are ALSO re-read after the file scan so a commit
    racing the vacuum keeps its files regardless of age. Pass 0.0 only
    when the caller owns the table exclusively (tests, single-writer
    maintenance windows).

    SAFETY: only files physically inside ``table_dir`` are ever
    deleted. Externally committed paths (e.g. a shared input parquet
    referenced by an early version) are left untouched — they may be
    someone else's data. Returns {"manifests_dropped",
    "files_deleted", "files_kept"}.
    """
    import time as _time

    if keep_versions < 1:
        raise ValueError("vacuum: keep_versions must be >= 1")
    vs = _versions(table_dir)
    keep = set(vs[-keep_versions:])
    referenced: set[str] = set()
    for v in keep:
        with open(_manifest_path(table_dir, v)) as fh:
            referenced.update(
                os.path.realpath(f) for f in json.load(fh)["files"]
            )
    dropped = 0
    for v in vs:
        if v not in keep:
            os.remove(_manifest_path(table_dir, v))
            dropped += 1
    root = os.path.realpath(table_dir)
    now = _time.time()
    candidates: list[str] = []
    kept = 0
    for dirpath, dirnames, filenames in os.walk(root):
        # a nested directory with its own manifests is an INDEPENDENT
        # table (e.g. stream_job's <table>/lsh index) — its files are
        # referenced by manifests this vacuum never reads, so never
        # descend into it
        dirnames[:] = [
            d
            for d in dirnames
            if not _versions(os.path.join(dirpath, d))
        ]
        for name in filenames:
            if not name.endswith(".parquet"):
                continue
            path = os.path.realpath(os.path.join(dirpath, name))
            if path in referenced:
                kept += 1
                continue
            try:
                age = now - os.stat(path).st_mtime
            except FileNotFoundError:
                continue
            if age < older_than_sec:
                kept += 1  # grace: possibly an in-flight commit's file
                continue
            candidates.append(path)
    # re-read any manifests that landed DURING the scan: a commit that
    # raced the walk keeps its files even past the age threshold
    for v in _versions(table_dir):
        if v in keep:
            continue
        with open(_manifest_path(table_dir, v)) as fh:
            referenced.update(
                os.path.realpath(f) for f in json.load(fh)["files"]
            )
    deleted = 0
    for path in candidates:
        if path in referenced:
            kept += 1
            continue
        os.remove(path)
        deleted += 1
    # prune now-empty data dirs so vacuumed tables stay tidy
    for dirpath, dirnames, filenames in os.walk(root, topdown=False):
        if dirpath != root and not dirnames and not filenames:
            os.rmdir(dirpath)
    return {
        "manifests_dropped": dropped,
        "files_deleted": deleted,
        "files_kept": kept,
    }


def compact_table(
    table_dir: str,
    target_bytes: int = 256 << 20,
    min_files: int = 2,
) -> dict:
    """Size-tiered small-file compaction as a new table version: files
    at or above ``target_bytes`` carry over BY REFERENCE; smaller ones
    are greedily packed into ~``target_bytes`` buckets and each bucket
    rewritten by one Ray task (row-preserving — same rows, fewer
    files). The driver holds only paths+sizes; a no-op (fewer than
    ``min_files`` small files) commits nothing. Completes the
    merge/vacuum/compact lifecycle (jobs/compact_job.py is the
    standalone-directory sibling).

    Returns {"version", "files_kept", "files_compacted", "buckets"}
    (version None when nothing to do).
    """
    import uuid

    import ray.data

    parent = latest_version(table_dir)
    if parent is None:
        raise FileNotFoundError(f"no manifests in {table_dir}")
    with open(_manifest_path(table_dir, parent)) as fh:
        files = json.load(fh)["files"]
    small = [
        f for f in files if os.path.getsize(f) < target_bytes
    ]
    kept = [f for f in files if f not in set(small)]
    if len(small) < min_files:
        return {
            "version": None,
            "files_kept": len(files),
            "files_compacted": 0,
            "buckets": 0,
        }
    # greedy first-fit packing over sorted sizes (compact_job's rule)
    buckets: list[list[str]] = []
    sizes: list[int] = []
    for f in sorted(small, key=os.path.getsize, reverse=True):
        sz = os.path.getsize(f)
        for i, total in enumerate(sizes):
            if total + sz <= target_bytes:
                buckets[i].append(f)
                sizes[i] += sz
                break
        else:
            buckets.append([f])
            sizes.append(sz)

    data_dir = os.path.join(table_dir, f"compact-{uuid.uuid4().hex[:12]}")
    os.makedirs(data_dir)

    @ray.remote
    def rewrite(paths: list[str], out: str) -> str:
        import pyarrow.parquet as pq

        tables = [pq.read_table(p) for p in paths]
        import pyarrow as _pa

        merged = _pa.concat_tables(tables, promote_options="default")
        tmp = out + ".tmp"
        pq.write_table(merged, tmp)
        os.replace(tmp, out)
        return out

    outs = ray.get(
        [
            rewrite.remote(b, os.path.join(data_dir, f"bucket-{i:05d}.parquet"))
            for i, b in enumerate(buckets)
        ]
    )
    version = commit_version(
        table_dir, kept + sorted(outs), mode="compact",
        expected_parent=parent,  # snapshot guard: abort on concurrent commits
    )
    return {
        "version": version,
        "files_kept": len(kept),
        "files_compacted": len(small),
        "buckets": len(buckets),
    }


def cow_delete_rows(
    files: list[str],
    key_col: str,
    ids,
    data_dir: str,
    capture_cols: list[str] | None = None,
):
    """Copy-on-write row deletion across a version's immutable files —
    the shared machinery of ``ops/textindex.py text_index_delete`` and
    ``ops/annindex.py ivf_index_delete``: the sorted-unique int64 drop
    set broadcasts ONCE (``ray.put``), one Ray task per file drops its
    matching rows via ``np.isin`` (sorted keys take the fast path),
    untouched files return themselves BY REFERENCE, emptied files
    return None. Rewritten files are named ``<input-index>-<basename>``
    — two source files sharing a basename (a bucket/cell touched by
    both a build and an append commit) must NOT collide in the one
    output dir, and tmp suffixes are uuid-unique (two tasks on one
    worker share a pid).

    Returns ``(new_files, captured)``: the surviving file list, plus —
    when ``capture_cols`` is given — one pyarrow table per file of the
    DROPPED rows' requested columns (stat adjustments, e.g. the text
    index's per-doc dl)."""
    import uuid as _uuid

    import numpy as np

    import ray

    ids = np.unique(np.asarray(ids, dtype=np.int64))
    ids_ref = ray.put(ids)

    @ray.remote
    def rewrite(i: int, path: str):
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        keys = ray.get(ids_ref)
        t = _pq.read_table(path)
        col = t.column(key_col).to_numpy(zero_copy_only=False)
        hit = np.isin(col, keys)
        if not hit.any():
            return path, None
        cap = (
            t.filter(_pa.array(hit)).select(capture_cols)
            if capture_cols
            else None
        )
        kept = t.filter(_pa.array(~hit))
        if kept.num_rows == 0:
            return None, cap
        out = os.path.join(
            data_dir, f"{i:05d}-{os.path.basename(path)}"
        )
        tmp = out + f".tmp.{_uuid.uuid4().hex[:8]}"
        _pq.write_table(kept, tmp)
        os.replace(tmp, out)
        return out, cap

    results = ray.get(
        [rewrite.remote(i, f) for i, f in enumerate(files)]
    )
    new_files = sorted(p for p, _ in results if p is not None)
    captured = [c for _, c in results if c is not None]
    return new_files, captured


def collect_delete_ids(ids, key_col: str, max_broadcast_ids: int):
    """Normalize a delete-id input (int iterable, numpy array, or a
    Dataset with ``key_col``) to a sorted-unique int64 array, refusing
    loudly above ``max_broadcast_ids``. A Dataset is MATERIALIZED once
    — counting and collecting on the lazy pipeline would execute the
    caller's (possibly expensive) drop-set computation twice."""
    import numpy as np

    import ray
    import ray.data

    if isinstance(ids, ray.data.Dataset):
        ds = ids.select_columns([key_col]).materialize()
        n = ds.count()
        if n > max_broadcast_ids:
            raise ValueError(
                f"{n} {key_col}s > max_broadcast_ids={max_broadcast_ids}; "
                "shard the delete into multiple ticks"
            )
        blocks = [
            t.column(key_col).to_numpy(zero_copy_only=False)
            for t in ray.get(ds.to_arrow_refs())
            if t.num_rows
        ]
        raw = (
            np.concatenate(blocks)
            if blocks
            else np.empty(0, dtype=np.int64)
        )
        # an int64 column with NULLs surfaces as float64-with-NaN here;
        # astype would silently turn each NaN into an arbitrary key
        # (typically INT64_MIN) and corrupt the drop set — refuse
        if np.issubdtype(raw.dtype, np.floating) and np.isnan(raw).any():
            raise ValueError(
                f"delete ids contain NULL {key_col} values — filter "
                "nulls out (or key the rows) before deleting"
            )
        arr = raw.astype(np.int64)
    else:
        arr = np.asarray(list(ids), dtype=np.int64)
        if len(arr) > max_broadcast_ids:
            raise ValueError(
                f"{len(arr)} {key_col}s > max_broadcast_ids="
                f"{max_broadcast_ids}; shard the delete into ticks"
            )
    return np.unique(arr)


def write_dataset_version(
    table_dir: str,
    ds,
    mode: str = "append",
    extra: dict | None = None,
    prefix: str = "data",
    expected_parent=_UNSET,
    batch_ids: list[str] | None = None,
):
    """Execute a Dataset into a fresh immutable file set under the
    table dir and commit it as ONE version (``commit_version``'s
    arguments pass through) — the write-then-commit idiom of IVM delta
    appends and compactions, stream_job's corpus tick, LSH band and
    wordcount rebuild commits, and the webtext corpus commit. A crash
    between the write and the commit leaves only an orphaned data dir
    (vacuumable); an empty dataset commits an empty file list.
    Returns ``(version, files)``; version is None when every batch id
    was already applied."""
    import uuid as _uuid

    data_dir = os.path.join(table_dir, f"{prefix}-{_uuid.uuid4().hex[:12]}")
    os.makedirs(data_dir, exist_ok=True)
    ds.write_parquet(data_dir)
    files = sorted(
        os.path.join(data_dir, n)
        for n in os.listdir(data_dir)
        if n.endswith(".parquet")
    )
    version = commit_version(
        table_dir, files, mode=mode, extra=extra,
        expected_parent=expected_parent, batch_ids=batch_ids,
    )
    return version, files
