"""Pipeline configuration.

Replaces the reference's hydra/omegaconf config tree
(reference ctinexus/config/config.yaml, ctinexus/utils/model_utils.py) with a
plain frozen dataclass that is cheap to ship to Ray workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs mirroring the reference defaults.

    Defaults follow reference ctinexus/config/config.yaml:9-30 where a
    counterpart exists; Ray-specific knobs (batch sizes, concurrency) are new.
    """

    # --- model / provider (reference config.yaml:9-11) -------------------
    provider: str = "mock"            # mock | openai | anthropic | gemini | meta | ollama
    model: str = "mock-1"
    embedding_model: str = "mock-embed-64"

    # --- stage behavior ---------------------------------------------------
    similarity_threshold: float = 0.6  # EA cosine threshold (config.yaml:14)
    shot: int = 3                      # few-shot demo count (config.yaml:29)
    permutation: str = "asc"           # demo order (config.yaml:28)
    retriever: str = "knn"             # knn | fixed (config.yaml:27)
    temperature: float = 0.8           # IE/ET/LP temp (llm_processor.py:1049..)
    summary_temperature: float = 0.0   # URL summarize temp (llm_processor.py:680)
    max_retries: int = 5               # app-level retry (llm_processor.py:140-160)

    # --- Ray execution knobs ---------------------------------------------
    # Batch of documents handled per LLM-stage call. A large batch
    # amortizes per-task dispatch overhead (measured with the mock: 64 ->
    # 512 nearly doubled throughput at 32 CPUs). A read block larger than
    # the batch reaches one task as one bundle anyway, so LLM waits are
    # hidden by in-task overlap (llm_max_inflight), not a smaller batch.
    # The batch also sets the size of the KG stage's embedding requests:
    # one request per batch carries every mention the plan's cache lacks
    # (up to 2048 per request, singledoc.EMBED_MAX_INPUTS).
    doc_batch_size: int = 512
    # LLM stages run as task maps over per-process state
    # (llm.client.stage_task_map); only the max (or an int) bounds tasks.
    llm_concurrency: tuple[int, int] = (2, 8)
    # CPUs reserved per LLM-stage task. Against a real rate-limited API
    # this should drop to ~0.25 with a much higher concurrency ceiling.
    llm_num_cpus: float = 1.0
    # LLM requests one task keeps in flight (documents overlapped on a
    # per-process, per-plan thread pool). 0 = the client's own bound:
    # HTTP 16 (threads block on sockets), mock 1 (serial, reference parity:
    # llm_processor.py:911-974 loops documents serially). The total in
    # flight against a provider is concurrent tasks x this bound; set it
    # explicitly to fit the provider's rate limit. A server's accept
    # backlog caps it too: against perfbench's loopback stub (a
    # ThreadingHTTPServer with socketserver's listen backlog of 5), 64 or
    # 128 in flight made a 128-doc KG batch 2.5-3x slower than 16 (3.6-6.4
    # s vs 1.7-1.8 s, 4-CPU sandbox), as dropped SYNs wait out TCP's 1 s
    # retransmit; with the stub's backlog raised to 128 the same batch took
    # 0.5-0.7 s at 64/128 and 0.9 s at 16. The default stays 16; more
    # overlap has to come from fewer requests.
    llm_max_inflight: int = 0
    # Stateless CPU stages (extraction, preprocess, explode).
    cpu_batch_size: int = 256

    # canonicalization shuffle
    # Its reduce partitions in kg.reduce_entity_partials (0 = 64). The
    # incremental nodes view reduces at read time (ivm.read_view), sized
    # from plan metadata.
    canon_num_partitions: int = 0

    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# compose + dotted overrides (the reference's hydra compose/override
# surface — reference ctinexus/utils/gradio_utils.py:70-86 builds its
# config with hydra.compose(config_name=..., overrides=["k=v", ...]) —
# re-expressed over the plain dataclass: JSON/dict layers merge in order,
# then "key=value" overrides win, with types coerced from the dataclass
# field defaults and unknown keys rejected loudly).
# ---------------------------------------------------------------------------


def _coerce(value: str, template):
    """Parse a string override to the type of the field's default."""
    if isinstance(template, int):
        return int(value)
    if isinstance(template, float):
        return float(value)
    if isinstance(template, tuple):
        parts = [p for p in value.replace("(", "").replace(")", "").split(",") if p]
        inner = template[0] if template else 0
        return tuple(_coerce(p.strip(), inner) for p in parts)
    return value


def compose_config(*layers, overrides: tuple | list = ()) -> PipelineConfig:
    """Build a PipelineConfig from ordered layers + dotted overrides.

    ``layers`` are dicts or paths to JSON files; later layers win, and
    each layer's ``extra`` dict MERGES instead of replacing (the config-
    group behavior of the reference's compose tree). ``overrides`` are
    ``"key=value"`` strings — ``extra.some_key=v`` targets the extras
    dict, everything else must name a dataclass field (typo-checked
    against the field list, value coerced to the field default's type).
    """
    import dataclasses
    import difflib
    import json

    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    merged: dict = {}
    extra: dict = {}
    for layer in layers:
        if isinstance(layer, (str, bytes)):
            with open(layer, encoding="utf-8") as fh:
                layer = json.load(fh)
        if not isinstance(layer, dict):
            raise TypeError(f"config layer must be dict or path, got {type(layer)}")
        layer = dict(layer)
        extra.update(layer.pop("extra", {}) or {})
        for key in layer:
            if key not in fields:
                hint = difflib.get_close_matches(key, fields, n=1)
                raise KeyError(
                    f"unknown config key {key!r}"
                    + (f" — did you mean {hint[0]!r}?" if hint else "")
                )
        merged.update(layer)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not key=value")
        key = key.strip()
        if key.startswith("extra."):
            extra[key[len("extra."):]] = value
            continue
        if key not in fields:
            hint = difflib.get_close_matches(key, fields, n=1)
            raise KeyError(
                f"unknown config key {key!r}"
                + (f" — did you mean {hint[0]!r}?" if hint else "")
            )
        default = fields[key].default
        if default is dataclasses.MISSING:
            default = fields[key].default_factory()  # type: ignore[misc]
        merged[key] = _coerce(value, default) if isinstance(value, str) else value
    if extra:
        merged["extra"] = extra
    # json round-trips tuples as lists; restore tuple-typed fields
    for key, val in list(merged.items()):
        if isinstance(val, list) and isinstance(fields[key].default, tuple):
            merged[key] = tuple(val)
    return PipelineConfig(**merged)
