"""ctinexus_ray — a Ray-Data-native CTI knowledge-graph construction engine.

A from-scratch rebuild of the query/data-processing capabilities of
``peng-gao-lab/ctinexus`` (reference at ``/root/reference``) on
``ray.data.Dataset``: every stage is a ``map_batches`` transform over Arrow
batches, the LLM stages (clients, embedding cache, demo prefix) run as task
maps over per-process state, and the cross-document canonicalization is an explicit
``groupby`` shuffle keyed on a normalized-mention hash.

The reference pipeline (one document at a time, sequential) is:
  IE  — few-shot triple extraction        (reference ctinexus/llm_processor.py:1101-1138)
  ET  — entity typing into a taxonomy     (reference ctinexus/llm_processor.py:163-198)
  EA  — mention alignment + IOC unmerge   (reference ctinexus/cti_processor.py,
                                           ctinexus/graph_constructor.py:246-441)
  LP  — link prediction over components   (reference ctinexus/graph_constructor.py:51-209)

This engine runs the same per-document semantics as columnar batch
transforms over a corpus-scale Dataset and adds the corpus-level operators a
web-scale (10^12-doc design point) deployment needs: cross-doc entity
canonicalization, dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard /
embedding), similarity search, text quality analysis, and resumable
partitioned Parquet output with per-shard lineage in versioned manifests.
"""

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.rayutil import apply_data_context_defaults

# Engine-wide Ray Data context defaults (empty-shuffle-partition schema
# unification — see ctinexus_ray/rayutil.py for the full rationale).
apply_data_context_defaults()

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
