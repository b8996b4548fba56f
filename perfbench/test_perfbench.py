"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.  It
checks that every metric ``BENCHMARK.json`` names is emitted with its unit
on every workload, that tracing does not change any decision, and that the
oracle catches a wrong answer.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import expected_answer, multiway_count  # noqa: E402
from run import run_benchmark, tail_latency  # noqa: E402
from scenarios import TINY, WORKLOADS  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.workloads.tpch import TPCHGenerator  # noqa: E402
from repro.workloads.tpch_queries import EVALUATED_TEMPLATES, tpch_query  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_names_workloads_the_benchmark_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert list(WORKLOADS) == list(TINY)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(TINY[workload], seed=3, seconds=0, trace=trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])


def test_oracle_fails_a_corrupted_answer(monkeypatch):
    honest_run = Session.run

    def corrupted_run(self, query, adapt=True):
        result = honest_run(self, query, adapt=adapt)
        if query.template == "q14":
            result.output_rows += 1
        return result

    monkeypatch.setattr(Session, "run", corrupted_run)
    result = run_benchmark(TINY["switching"], seed=3, seconds=0, trace=False)["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def _nested_loop_count(query, tables):
    """Brute-force multi-way join cardinality over every row combination."""
    rows = {}
    for name in query.tables:
        table = tables[name]
        indices = range(table.num_rows)
        rows[name] = [
            i for i in indices
            if all(p.mask(table.columns[p.column][i:i + 1])[0] for p in query.predicates_on(name))
        ]
    count = 0
    for combo in itertools.product(*(rows[name] for name in query.tables)):
        picked = dict(zip(query.tables, combo))
        if all(
            tables[j.left_table].columns[j.left_column][picked[j.left_table]]
            == tables[j.right_table].columns[j.right_column][picked[j.right_table]]
            for j in query.joins
        ):
            count += 1
    return count


def test_oracle_counts_match_brute_force_on_tiny_tables():
    tables = TPCHGenerator(scale=0.0015, seed=5).generate()
    rng = np.random.default_rng(5)
    for template in EVALUATED_TEMPLATES:
        query = tpch_query(template, rng)
        for _ in ("with predicates", "without, so that joins match many rows"):
            brute = _nested_loop_count(query, tables)
            assert multiway_count(query, tables) == brute
            if len(query.joins) <= 1:
                assert expected_answer(query, tables) == brute
            query.predicates.clear()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, beyond = tail_latency([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(90.0)
    assert tail_latency([1.0, 2.0]) == (2.0, 100.0, 0)
