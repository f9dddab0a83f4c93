"""Metric definitions and the statistics the benchmark reports.

END_TO_END are the metrics every untraced run prints in its result line.
EXTRA_END_TO_END are printed in the report above it, only where they apply,
so they carry no bound. PER_LAYER are the traced run's metrics, each with the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math
import statistics

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, where it is reported)
EXTRA_END_TO_END = (
    ("failed_frac", "ratio", "every workload; also the result line's failed/attempted"),
    ("item_ms_p90", "ms", "workloads with at least 100 items per run"),
    ("q2_wall_s", "s", "small-corpus and hard-solve"),
    ("q3_wall_s", "s", "small-corpus and hard-solve"),
    ("host_probe_ms", "ms", "every workload; the raw time of the host-speed probe"),
)

HARD, SMALL, STUDIES, COVERS = "hard-solve", "small-corpus", "studies", "covers"

# (name, unit, better, [(end-to-end metric, workload), ...] it should move)
PER_LAYER = (
    ("gf.basis_insert.calls", "count", "lower",
     [("wall_s", HARD), ("q2_wall_s", HARD), ("q3_wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.basis_insert.s", "s", "lower",
     [("wall_s", HARD), ("q2_wall_s", HARD), ("q3_wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.basis_insert.grew_frac", "ratio", "higher", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.in_span.calls", "count", "lower", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.in_span.s", "s", "lower", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.rank.calls", "count", "lower", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.rank.s", "s", "lower", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("gf.FieldOrder.calls", "count", "lower",
     [("wall_s", HARD), ("item_ms_p50", SMALL), ("wall_s", STUDIES)]),
    ("minrank.stage1_nodes", "count", "lower", [("wall_s", HARD)]),
    ("minrank.stage2_nodes", "count", "lower", [("wall_s", HARD)]),
    ("minrank.stage2_pool", "count", "lower", [("wall_s", HARD)]),
    ("minrank.candidates_total", "count", "lower", [("wall_s", HARD), ("item_ms_p50", SMALL)]),
    ("minrank.stage2_improved_frac", "ratio", "higher", [("wall_s", HARD)]),
    ("minrank.build_candidates.s", "s", "lower", [("item_ms_p50", SMALL)]),
    ("minrank.minrank_bnb.s", "s", "lower", [("wall_s", HARD)]),
    ("minrank.minrank_bnb.self_s", "s", "lower", [("wall_s", HARD)]),
    ("minrank.extract_code.s", "s", "lower", [("item_ms_p50", SMALL), ("wall_s", STUDIES)]),
    ("minrank.minrank_oracle.s", "s", "lower", [("item_ms_p50", SMALL), ("wall_s", SMALL)]),
    ("minrank.oracle_subsets", "count", "lower", [("item_ms_p50", SMALL), ("wall_s", SMALL)]),
    ("graphs.canonical_form.calls", "count", "lower", [("wall_s", STUDIES)]),
    ("graphs.canonical_form.s", "s", "lower", [("wall_s", STUDIES)]),
    ("graphs.search_bicliques.s", "s", "lower", [("wall_s", COVERS)]),
    ("graphs.find_covered_pairs.s", "s", "lower", [("wall_s", COVERS)]),
    ("covers.tree_cover.s", "s", "lower", [("wall_s", COVERS)]),
    ("covers.tree_cover_exact.s", "s", "lower", [("wall_s", COVERS)]),
    ("covers.biclique_cover.s", "s", "lower", [("wall_s", COVERS)]),
    ("covers.biclique_cover_exact.s", "s", "lower", [("wall_s", COVERS)]),
    ("codes.verify_code.s", "s", "lower", [("wall_s", COVERS), ("item_ms_p50", SMALL)]),
    ("codes.decodable_from.calls", "count", "lower", [("wall_s", COVERS), ("item_ms_p50", SMALL)]),
    ("codes.decodable_from.s", "s", "lower", [("wall_s", COVERS), ("item_ms_p50", SMALL)]),
    ("codes.decode_coeffs.s", "s", "lower", [("item_ms_p50", SMALL)]),
    ("experiments.experiment_theorem2.s", "s", "lower", [("wall_s", STUDIES)]),
    ("experiments.experiment_lemma_sweep.s", "s", "lower", [("wall_s", STUDIES)]),
    ("experiments.experiment_fig5.s", "s", "lower", [("wall_s", STUDIES)]),
    ("model.gen.s", "s", "lower", [("setup_s", SMALL), ("setup_s", HARD)]),
    ("model.parse_instance.s", "s", "lower",
     [("setup_s", SMALL), ("setup_s", HARD), ("setup_s", STUDIES), ("setup_s", COVERS)]),
    ("trace.overhead_s", "s", "lower", []),
)

# Per-layer metrics that read 0 at this commit whatever the workload, and why.
LAYER_NOTES = {
    "gf.rank.calls": "no caller in eicp at this commit (gf.rank is only exported); 0 until one appears",
    "gf.rank.s": "no caller in eicp at this commit (gf.rank is only exported); 0 until one appears",
    "codes.decode_coeffs.s": "called only after stage two beats the row rank, so 0 on covers",
}

UNITS = {name: unit for name, unit, *_ in END_TO_END + EXTRA_END_TO_END + PER_LAYER}


def tail_percentile(values, p: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank p-quantile, or None unless at least min_beyond values lie above its rank."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(p * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med
