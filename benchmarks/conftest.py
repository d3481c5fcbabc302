"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures and
both *prints* the result (visible with ``pytest -s``) and appends it to
``bench_results/`` next to this directory, so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the paper-shaped
outputs on disk.

Scale: the paper's testbed ran graphs of 2K–32K nodes for selectivity /
engine experiments and up to 100M nodes for generation.  Defaults here
are chosen so the whole suite completes in minutes of pure Python; set
``GMARK_BENCH_FULL=1`` to use the paper's sizes.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

FULL = bool(int(os.environ.get("GMARK_BENCH_FULL", "0")))

#: Instance sizes for selectivity experiments (paper: 2K–32K).
SELECTIVITY_SIZES = [2000, 4000, 8000, 16000, 32000] if FULL else [1000, 2000, 4000, 8000]

#: Instance sizes for engine experiments (paper: 2K–16K).
ENGINE_SIZES = [2000, 4000, 8000, 16000] if FULL else [2000, 4000, 8000]

#: Queries per selectivity class (paper: 10).
QUERIES_PER_CLASS = 10 if FULL else 3

#: Generation sizes for Table 3 (paper: 100K–100M).
GENERATION_SIZES = [100_000, 1_000_000, 10_000_000] if FULL else [10_000, 100_000, 1_000_000]


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under bench_results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    with open(RESULTS_DIR / f"{name}.txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def graph_cache():
    """Session-wide cache of generated instances keyed by (schema, n)."""
    from repro.generation.generator import generate_graph
    from repro.schema.config import GraphConfiguration

    cache: dict = {}

    def get(schema, n: int, seed: int = 7):
        key = (schema.name, n, seed)
        if key not in cache:
            cache[key] = generate_graph(GraphConfiguration(n, schema), seed=seed)
        return cache[key]

    return get
