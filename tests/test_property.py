"""Property-based tests (hypothesis) for the parser/normalizer invariants
the pipeline depends on."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ctinexus_ray.functions.jsonrescue import extract_json_from_response
from ctinexus_ray.functions.text import build_cti_focus_text, normalize_text
from ctinexus_ray.llm.mock import embed_text, rule_extract_triples
from ctinexus_ray.ops.dedup import word_shingles
from ctinexus_ray.stages.docops import preprocess_doc

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(min_size=1, max_size=10), children, max_size=4),
    max_leaves=10,
)


class TestJSONRescue:
    @given(st.dictionaries(st.text(min_size=1, max_size=10), json_values, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_valid_json_roundtrips(self, obj):
        assert extract_json_from_response(json.dumps(obj)) == obj

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_fenced_json_recovered(self, obj):
        assert extract_json_from_response(f"```json\n{json.dumps(obj)}\n```") == obj


class TestNormalize:
    @given(st.text(max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_focus_respects_cap(self, text):
        out = build_cti_focus_text(normalize_text(text), max_chars=200)
        assert len(out) <= 200


class TestMockDeterminism:
    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_extraction_deterministic_and_valid(self, text):
        a = rule_extract_triples(text)
        assert a == rule_extract_triples(text)
        for t in a:
            assert t["subject"].strip() and t["object"].strip() and t["relation"]

    @given(st.text(min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_embedding_unit_norm(self, text):
        import numpy as np

        v = embed_text(text)
        norm = float(np.linalg.norm(v))
        assert norm == 0.0 or abs(norm - 1.0) < 1e-5


class TestShingles:
    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_shingle_sets_are_sets(self, text):
        shingles = word_shingles(text, 3)
        assert len(shingles) == len(set(shingles))
        words = text.strip().split()
        if len(words) >= 3:
            assert len(shingles) <= len(words) - 2


class TestPreprocess:
    node = st.fixed_dictionaries(
        {"text": st.text(min_size=1, max_size=12), "class": st.text(min_size=1, max_size=8)}
    )
    triple = st.fixed_dictionaries(
        {"subject": node, "relation": st.text(min_size=1, max_size=8), "object": node}
    )

    @given(st.lists(triple, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_mention_ids_dense_and_consistent(self, triplets):
        aligned, mentions_num, dropped = preprocess_doc(triplets)
        ids = {}
        for t in aligned:
            for side in ("subject", "object"):
                node = t[side]
                prev = ids.setdefault(node["mention_text"], node["mention_id"])
                assert prev == node["mention_id"]  # same text -> same id
        assert mentions_num == len(ids)
        if ids:
            assert set(ids.values()) == set(range(mentions_num))  # dense


class TestPartitionedAgg:
    """partitioned_agg must equal a direct pandas groupby on any input."""

    import pandas as _pd

    rows = st.lists(
        st.tuples(
            st.one_of(st.text(max_size=6), st.none()),     # string key (w/ nulls)
            st.integers(min_value=-10**9, max_value=10**9),
        ),
        min_size=1,
        max_size=60,
    )

    @given(rows)
    @settings(max_examples=30, deadline=None)
    def test_matches_pandas(self, rows):
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import partitioned_agg

        keys = [k for k, _ in rows]
        vals = [v for _, v in rows]
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": pa.array(keys, type=pa.string()),
                 "v": pa.array(vals, type=pa.int64())}
            )
        )
        got = {
            (r["k"], r["mn"], r["n"])
            for r in partitioned_agg(
                ds, keys=["k"], named_aggs={"mn": ("v", "min"), "n": ("v", "size")},
                num_partitions=8,
            ).take_all()
        }
        df = pd.DataFrame({"k": keys, "v": vals})
        want = {
            (k if k is not None else None, int(g["v"].min()), len(g))
            for k, g in df.groupby("k", dropna=False)
        }
        want = {(None if pd.isna(k) else k, mn, n) for k, mn, n in want}
        assert got == want

    key_rows = st.lists(
        st.tuples(
            st.one_of(st.sampled_from(["a", "b", "", "ü"]), st.none()),
            st.one_of(st.text(max_size=3), st.none()),
        ),
        min_size=1,
        max_size=60,
    )

    @given(key_rows)
    @settings(max_examples=20, deadline=None)
    def test_hash_reduce_colocates_null_string_keys(self, ray_session, rows):
        """Every (k1, k2) key — NULLs included — reaches exactly one
        reducer call, with all of its rows."""
        from collections import Counter

        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import hash_reduce

        table = pa.Table.from_pydict(
            {"k1": pa.array([a for a, _ in rows], type=pa.string()),
             "k2": pa.array([b for _, b in rows], type=pa.string())}
        )
        # several input blocks, so co-location is the shuffle's doing
        ds = ray.data.from_arrow(
            [table.slice(i, 7) for i in range(0, table.num_rows, 7)]
        )

        def per_partition(part: pa.Table) -> pa.Table:
            counts = Counter(zip(part.column("k1").to_pylist(),
                                 part.column("k2").to_pylist()))
            return pa.Table.from_pydict(
                {"k1": pa.array([k[0] for k in counts], type=pa.string()),
                 "k2": pa.array([k[1] for k in counts], type=pa.string()),
                 "n": pa.array(list(counts.values()), type=pa.int64())}
            )

        out = hash_reduce(ds, ["k1", "k2"], per_partition, num_partitions=4,
                          batch_format="pyarrow").take_all()
        got = [(r["k1"], r["k2"]) for r in out]
        assert len(got) == len(set(got))  # no key split across calls
        assert {(r["k1"], r["k2"]): r["n"] for r in out} == dict(Counter(rows))

    @given(
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                 max_size=50),
        st.integers(min_value=0, max_value=13),
    )
    @settings(max_examples=50, deadline=None)
    def test_int_pkey_is_low_bits(self, values, log_p):
        """For one integer key and P <= 8192 the hash partition is the
        key's low bits: ``(x << 13) ^ x`` keeps x's low 13 bits."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from ctinexus_ray.ops.groupagg import add_hash_pkey

        p = 1 << log_p
        col = pa.array(values, type=pa.int64())
        got = add_hash_pkey(pa.table({"k": col}), ["k"], p).column("pkey")
        assert got.to_pylist() == pc.bit_wise_and(col, p - 1).to_pylist()

    typed_rows = st.lists(
        st.tuples(
            st.one_of(st.sampled_from(["a", "b", "", "ü"]), st.none()),  # k1
            st.integers(min_value=0, max_value=2),                       # k2
            st.one_of(st.integers(min_value=-10**9, max_value=10**9), st.none()),
            st.one_of(st.floats(min_value=-1e6, max_value=1e6), st.none(),
                      st.just(float("nan"))),
            st.one_of(st.text(max_size=3), st.none()),
        ),
        min_size=1,
        max_size=60,
    )

    @given(typed_rows)
    @settings(max_examples=25, deadline=None)
    def test_typed_values_match_sql(self, ray_session, rows):
        """sum/size/min/max over nullable int64, float64 and string
        values, by a NULL-bearing string key alone and with an int key,
        equal the SQL answer with pandas' empty sum: NULLs skipped, an
        all-NULL sum 0, an all-NULL min/max NULL, NULL keys grouped; a NaN
        counts as NULL and an integer sum stays int64 in every block."""
        import math

        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import partitioned_agg

        cols = ["k1", "k2", "i", "f", "s"]
        table = pa.Table.from_pydict(
            {c: pa.array([r[j] for r in rows],
                         type=[pa.string(), pa.int64(), pa.int64(),
                               pa.float64(), pa.string()][j])
             for j, c in enumerate(cols)}
        )
        ds = ray.data.from_arrow(
            [table.slice(i, 9) for i in range(0, table.num_rows, 9)]
        )
        aggs = {f"{c}_{fn}": (c, fn) for c in ("i", "f", "s")
                for fn in ("sum", "size", "min", "max") if (c, fn) != ("s", "sum")}

        def sql(vals, fn):
            vals_nn = [v for v in vals if v is not None and v == v]
            if fn == "size":
                return len(vals)
            if fn == "sum":
                return sum(vals_nn)
            return (min if fn == "min" else max)(vals_nn) if vals_nn else None

        def same(a, b):
            if isinstance(a, float) or isinstance(b, float):
                return a is not None and b is not None and math.isclose(
                    a, b, rel_tol=1e-9, abs_tol=1e-6)
            return a == b

        for keys in (["k1"], ["k1", "k2"]):
            out = pa.concat_tables(t for t in ray.get(partitioned_agg(
                ds, keys, aggs, num_partitions=4).to_arrow_refs()) if t.num_rows)
            assert out.column_names == keys + list(aggs)
            assert out.schema.field("i_size").type == pa.int64()
            assert out.schema.field("i_sum").type == pa.int64()
            groups: dict = {}
            for r in rows:
                groups.setdefault(tuple(r[cols.index(k)] for k in keys), []).append(r)
            got = {tuple(r[k] for k in keys): r for r in out.to_pylist()}
            assert set(got) == set(groups)
            for key, members in groups.items():
                for name, (c, fn) in aggs.items():
                    want = sql([m[cols.index(c)] for m in members], fn)
                    assert same(got[key][name], want), (key, name)


class TestMetricsTotal:
    COUNTERS = ["triples_count", "mentions_num", "entity_num", "subgraph_num",
                "dropped_triplets", "llm_input_tokens", "llm_output_tokens",
                "embed_tokens"]

    def _docs_kg(self, n, off):
        import pyarrow as pa

        return pa.table({c: pa.array([i + j + off for i in range(n)], pa.int64())
                         for j, c in enumerate(self.COUNTERS)})

    def test_empty_docs_kg_has_no_row(self, tmp_path):
        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines.kg import metrics_total

        pq.write_table(self._docs_kg(0, 0), tmp_path / "part-0.parquet")
        assert metrics_total(str(tmp_path)).to_pylist() == []

    def test_multi_file_totals_one_row(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines.kg import metrics_total

        blocks = [self._docs_kg(3, 0), self._docs_kg(5, 10),
                  self._docs_kg(0, 0), self._docs_kg(7, 100)]
        for i, block in enumerate(blocks):
            pq.write_table(block, tmp_path / f"part-{i}.parquet")
        out = metrics_total(str(tmp_path))
        names = ["stage", "docs", "triples", "mentions", "entities", "subgraphs",
                 "dropped_triplets", "llm_input_tokens", "llm_output_tokens",
                 "embed_tokens"]
        assert out.schema == pa.schema(
            [("stage", pa.string())] + [(n, pa.int64()) for n in names[1:]])
        whole = pa.concat_tables(blocks)
        want = {"stage": "kg", "docs": 15}
        want.update({n: sum(whole.column(c).to_pylist())
                     for n, c in zip(names[2:], self.COUNTERS)})
        assert out.to_pylist() == [want]


class TestHashReduce:
    def test_non_power_of_two_refuses(self, ray_session):
        import pytest
        import ray.data

        from ctinexus_ray.ops.groupagg import hash_reduce

        ds = ray.data.from_items([{"k": 1}])
        for bad in (0, 3, 6, 100):
            with pytest.raises(ValueError, match="power of two"):
                hash_reduce(ds, ["k"], lambda g: g, num_partitions=bad)

    def test_reducer_never_sees_pkey(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import hash_reduce

        ds = ray.data.from_items(
            [{"k": i % 5, "v": i} for i in range(40)], override_num_blocks=4
        )
        for fmt, kind in (("pandas", pd.DataFrame), ("pyarrow", pa.Table)):

            def cols(part, kind=kind):
                assert isinstance(part, kind)
                names = list(part.columns) if kind is pd.DataFrame \
                    else part.column_names
                return pa.table({"cols": [",".join(names)]})

            out = hash_reduce(ds, ["k"], cols, num_partitions=2,
                              batch_format=fmt).take_all()
            assert out and {r["cols"] for r in out} == {"k,v"}


class TestProbeNeverRaises:
    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, payload):
        from ctinexus_ray.ops.multimodal import probe_media_bytes

        out = probe_media_bytes(payload)
        assert "fmt" in out and isinstance(out["fmt"], str)

    @given(st.binary(min_size=2, max_size=120), st.sampled_from(
        [b"\x89PNG\r\n\x1a\n", b"GIF8", b"BM", b"P6 ", b"\xff\xd8", b"RIFF"]
    ))
    @settings(max_examples=200, deadline=None)
    def test_magic_prefixed_garbage(self, tail, magic):
        from ctinexus_ray.ops.multimodal import probe_media_bytes

        out = probe_media_bytes(magic + tail)
        assert isinstance(out, dict)  # never raises on truncated headers


class TestJsonCoerce:
    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_coerce_total_int(self, v):
        import pyarrow as pa

        from ctinexus_ray.ops.semistruct import _coerce

        out = _coerce(v, pa.int64())
        assert out is None or isinstance(out, int)

    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_coerce_total_string(self, v):
        import pyarrow as pa

        from ctinexus_ray.ops.semistruct import _coerce

        out = _coerce(v, pa.string())
        assert out is None or isinstance(out, str)


class TestChecksumXor:
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.text(max_size=20)),
                    min_size=1, max_size=30, unique_by=lambda t: t[0]))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant_partials(self, rows):
        """The per-batch partial fold equals the whole-table fold for any
        split — XOR associativity is what makes the op reshard-stable."""
        import hashlib

        def h(i, t):
            return int(
                hashlib.md5(f"{i}|{t}".encode()).hexdigest()[:15], 16
            )

        full = 0
        for i, t in rows:
            full ^= h(i, t)
        mid = len(rows) // 2
        a = 0
        for i, t in rows[:mid]:
            a ^= h(i, t)
        b = 0
        for i, t in rows[mid:]:
            b ^= h(i, t)
        assert a ^ b == full


class TestCdcBoundaries:
    @given(
        st.binary(min_size=0, max_size=2000),
        st.sampled_from([(4, 16, 64), (8, 32, 128), (16, 64, 256)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiling_and_bounds(self, data, params):
        """Cuts tile the input exactly; every chunk <= max and every
        non-tail chunk >= min."""
        from ctinexus_ray.ops.shards import cdc_boundaries

        mn, avg, mx = params
        cuts = cdc_boundaries(data, mn, avg, mx)
        if not data:
            assert cuts == []
            return
        assert cuts[-1] == len(data)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        sizes = [b - a for a, b in zip([0] + cuts[:-1], cuts)]
        assert all(s <= mx for s in sizes)
        assert all(s >= mn for s in sizes[:-1])

    @given(st.binary(min_size=64, max_size=1500), st.binary(min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_suffix_stability(self, data, insert):
        """Appending a PREFIX never changes cuts in the far suffix once
        the cut streams re-synchronize (content-defined property)."""
        from ctinexus_ray.ops.shards import cdc_boundaries

        mn, avg, mx = 8, 32, 128
        base = cdc_boundaries(data, mn, avg, mx)
        shifted = cdc_boundaries(insert + data, mn, avg, mx)
        k = len(insert)
        # compare cut positions relative to the original data
        base_set = set(base)
        shifted_set = {c - k for c in shifted}
        common = base_set & shifted_set
        if common:
            resync = min(common)
            # after the first shared cut, the streams are identical
            assert {c for c in base_set if c >= resync} == {
                c for c in shifted_set if c >= resync
            }


class TestPhraseSearchProperty:
    @given(
        st.lists(
            st.lists(st.sampled_from("ab"), min_size=0, max_size=12).map(
                " ".join
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_scan(self, ray_session, texts, phrase):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.textstats import phrase_match_counts

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": texts,
                }
            )
        ).repartition(2)
        got = {
            r["doc_id"]: r["n_matches"]
            for r in phrase_match_counts(ds, list(phrase), num_partitions=4).take_all()
        }
        want = {}
        k = len(phrase)
        for i, t in enumerate(texts):
            toks = t.split()
            n = sum(
                1
                for j in range(len(toks) - k + 1)
                if toks[j : j + k] == list(phrase)
            )
            if n:
                want[i] = n
        assert got == want


class TestAvroWireProperties:
    """Avro OCF codec invariants (sources/avro.py) — pure functions, no
    Ray: arbitrary values must round-trip bit-exactly."""

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_zigzag_varint_roundtrip(self, n):
        from ctinexus_ray.sources.avro import _Cursor, _encode_long

        cur = _Cursor(_encode_long(n))
        assert cur.read_long() == n
        assert cur.pos == len(cur.data)  # consumed exactly

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.none() | st.text(max_size=80),
            ),
            max_size=30,
        ),
        st.sampled_from(["null", "deflate"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_corpus_rows_roundtrip(self, rows, codec):
        from ctinexus_ray.sources.avro import (
            CORPUS_SCHEMA,
            build_avro,
            parse_avro_file,
        )

        recs = [{"doc_id": i, "text": t} for i, t in rows]
        got = parse_avro_file(
            build_avro(recs, CORPUS_SCHEMA, codec=codec, block_rows=7)
        )
        assert got.to_pylist() == recs

    @given(st.binary(max_size=60), st.floats(allow_nan=False, width=64))
    @settings(max_examples=60, deadline=None)
    def test_bytes_and_double_fields_roundtrip(self, payload, x):
        from ctinexus_ray.sources.avro import build_avro, parse_avro_file

        schema = {
            "type": "record",
            "name": "P",
            "fields": [
                {"name": "y", "type": "bytes"},
                {"name": "d", "type": "double"},
            ],
        }
        got = parse_avro_file(build_avro([{"y": payload, "d": x}], schema))
        row = got.to_pylist()[0]
        assert row["y"] == payload
        assert row["d"] == x  # bit-exact (no NaN in strategy)
