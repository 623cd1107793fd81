"""The benchmark tracer in perfbench/ must find every binding it wraps.

``perfbench/spans.py`` times eigu's layers by replacing module attributes
such as ``eigu.evaluation.build_blocks``.  A refactor that renames one of
them, or calls around it, leaves that layer without spans; this test turns
that into a tier-1 failure instead of a silent gap in the benchmark.
"""

from __future__ import annotations

from pathlib import Path

from eigu.evaluation import run_benchmark

from conftest import TOY_SEGMENT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_records_a_span(bonn_tree, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    manifest = {
        "tasks": ["o_vs_s"],
        "features": ["dwt_db2", "pca"],
        "classifiers": ["gepsvm", "iugepsvm"],
        "grids": {
            "gepsvm": {"delta": [1e-4]},
            "iugepsvm": {"delta": [1e-4], "gamma": [0.1], "psi": [0.01], "sigma": [64.0]},
        },
        "data_root": str(bonn_tree),
        "seed": 1,
        "folds": 2,
        "universum_pool": 6,
        "segment_length": TOY_SEGMENT,
        "n_components": 4,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_benchmark(manifest)
    finally:
        tracer.uninstall()
    assert all(row.error is None for row in result.rows)
    recorded = {span.name for span in tracer.spans}
    missing = sorted(set(spans.LAYERS) - recorded)
    assert not missing, f"layers without spans: {missing}"
