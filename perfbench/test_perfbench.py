"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import twistknot as tk  # noqa: E402

import curves  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_clean_and_complete(name):
    result = run.run(name, seed=3, seconds=0.5, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, capsys):
    result = run.run(name, seed=3, seconds=0.5, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # every point of the grid is kept, a point past the limit as "timeout"
    assert set(info["curves"]) == set(curves.NAMES)
    assert all(v == "timeout" or v > 0 for v in info["curves"].values())


def test_curve_point_is_timed_in_a_child():
    value, record, failure = curves.point(ROOT, "words.cyclic_reduce.e1_ms")
    assert failure is None and record == value and 0 < value < curves.TIMEOUT_S * 1000


def _order_of_h1(member, p, q):
    model = tk.closed_form(tk.TwistParams(*member))
    h1 = tk.homology(tk.surgered_presentation(model, tk.Slope(p, q), "corrected"))
    assert h1.free_rank == 0
    return h1.torsion_order_product


@pytest.mark.parametrize("entry", workloads.TORUS_FINITE + workloads.LENS + workloads.SPHERICAL)
def test_catalog_orders_agree_with_homology(entry):
    member, p, q = entry
    order = oracle.filling_order(workloads.TORUS[member], p, q)
    h1 = _order_of_h1(member, p, q)
    assert h1 == abs(p)
    assert order % h1 == 0
    if entry in workloads.LENS:
        assert order == h1


@pytest.mark.parametrize("p", [-7, -1, 1, 2, 13, 40])
def test_unknot_fillings_are_cyclic(p):
    assert oracle.filling_order(None, p, 1) == _order_of_h1((-2, 0), p, 1) == abs(p)


def test_infinite_pool_has_no_finite_entry():
    assert all(oracle.filling_order(workloads.TORUS[m], p, q) is None
               for m, p, q in workloads.INFINITE)


def test_moser_orders_for_the_trefoil():
    orders = [oracle.filling_order((2, 3), p, 1) for p in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)]
    assert orders == [120, 48, 24, 12, 5, 7, 24, 72, 240, 1320]
    assert oracle.filling_order((3, 5), 13, 1) == 1560
    assert oracle.filling_order((2, 5), 7, 1) == 840


def _torus_alexander(r, s):
    """(t^rs - 1)(t - 1) / ((t^r - 1)(t^s - 1)) as a normalized coefficient list."""
    poly = tk.LaurentPolynomial({r * s: 1, 0: -1}) * tk.LaurentPolynomial({1: 1, 0: -1})
    poly = poly.divexact(tk.LaurentPolynomial({r: 1, 0: -1}))
    return poly.divexact(tk.LaurentPolynomial({s: 1, 0: -1})).normalized()


@pytest.mark.parametrize("member", sorted(workloads.TORUS))
def test_catalog_members_are_the_stated_torus_knots(member):
    torus = workloads.TORUS[member]
    expected = _torus_alexander(*torus) if torus else tk.LaurentPolynomial.one()
    assert tk.alexander_polynomial(tk.closed_form(tk.TwistParams(*member)).presentation) == expected


def test_oracle_conjugacy():
    assert oracle.conjugate([["b", 1], ["a", 5], ["b", -1]], [["a", 5]])
    assert oracle.conjugate([["a", 1], ["b", 2]], [["b", 1], ["a", 1], ["b", 1]])
    assert not oracle.conjugate([["a", 1], ["b", 2]], [["a", 2], ["b", 1]])
    assert oracle.conjugate_or_inverse([["a", 1], ["b", 1]], [["b", -1], ["a", -1]])


def test_streams_depend_only_on_the_seed():
    import random

    for cls in workloads.WORKLOADS.values():
        first, again = cls(random.Random(7)), cls(random.Random(7))
        assert first.ops() == again.ops()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_enough_operations_for_the_90th_percentile(name):
    import random

    ops = workloads.WORKLOADS[name](random.Random(7)).ops()
    assert len(ops) == len(set(ops)) >= 100


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
