"""Self-tests of the benchmark: span arithmetic, wrapper installation,
operation timing, deadline accounting and the output gates.

    python3 -m pytest perfbench
"""

import random
import shutil
import subprocess
import sys
from array import array

import pytest

from run import ROOT, SRC, Laps
from spans import Tracer, installed_wrappers, layer_self_times
from workloads import (DeriveSpecs, OracleW24, Outcome, SeriesQ100, VerifyQ40,
                       load_library)


@pytest.fixture(scope="module")
def lib():
    return load_library(SRC)


def test_layer_self_time_is_duration_minus_children():
    names = ["bench.run", "murraymiller.triangularize", "qalgebra.bipoly_gcd",
             "qalgebra.mat_mul"]
    sp = array("d")
    for name, parent, start, end in [
        ("bench.run", -1, 0.0, 10.0),                  # 0
        ("murraymiller.triangularize", 0, 1.0, 6.0),   # 1
        ("qalgebra.bipoly_gcd", 1, 2.0, 3.0),          # 2
        ("qalgebra.mat_mul", 1, 3.0, 5.0),             # 3: unlisted, inherits 1
        ("qalgebra.bipoly_gcd", 3, 4.0, 4.5),          # 4
    ]:
        sp.extend((names.index(name), parent, start, end))
    assert layer_self_times(names, sp) == {
        "bench.self_s": 5.0,
        "murraymiller.triangularize_s": 3.5,
        "qalgebra.gcd_s": 1.5,
    }


def test_fastest_run_sums_each_operations_fastest_repetition():
    laps = Laps()
    laps.times = {"a": [3.0, 1.0, 2.0], "b": [0.5, 0.75]}
    assert laps.fastest_run() == 1.5


def test_verify_times_each_check_of_the_command(lib):
    laps, out = Laps(), Outcome()
    laps.start()
    VerifyQ40(lib).run(out, laps.lap)
    assert (out.attempted, out.failed, out.correct) == (22, 0, True)
    # 19 checks, the command's exit, 3 transfer-matrix checks
    assert len(laps.times) == 23
    assert "class 1: enumeration vs product through q^40" in laps.times
    assert "series-product identity (B) at x=q^2" in laps.times


def test_tracer_wraps_every_import_site_and_restores(lib):
    original = lib.murraymiller.bipoly_gcd
    tracer = Tracer()
    tracer.install(lib)
    try:
        wrapped = installed_wrappers(lib.modules)
        for site in ("reglinked.murraymiller.bipoly_gcd", "reglinked.qalgebra.bipoly_gcd",
                     "reglinked.nandi_product", "reglinked.linked.build_forbidden_dfa",
                     "reglinked.qalgebra.QSeries.invert"):
            assert site in wrapped
        root = tracer.open(tracer.name_id("bench.run"))
        lib.qseries.class_equation(lib.linked.nandi_spec(), 1)
        tracer.close(root)
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert installed_wrappers(lib.modules) == []
    assert lib.murraymiller.bipoly_gcd is original is lib.qalgebra.bipoly_gcd
    # the shipped class-1 goldens: l' = 5, ten-term equation of order 5
    assert (m["murraymiller.l_prime"], m["murraymiller.eq_order"]) == (5, 5)
    assert m["linked.system_dim"] == 7 and m["qalgebra.gcd_calls"] > 0
    assert m["murraymiller.triangularize_s"] > 0 and m["qalgebra.gcd_s"] > 0


def test_missed_deadline_counts_as_failure_not_as_wrong(lib):
    tracer = Tracer()
    wl = DeriveSpecs(lib, random.Random(0), tracer=tracer, deadline_s=1.0, draw_size=0)
    out = Outcome()
    tracer.install(lib)
    try:
        wl.run(out)
    finally:
        tracer.uninstall()
    assert (out.attempted, out.failed, out.correct) == (5, 1, True)
    assert out.problems == ["roadmap 9-state: missed the 1.0 s deadline"]
    runs = {name: info["runs"][0][0] for name, info in wl.draw["specs"].items()}
    assert runs.pop("roadmap 9-state") == "deadline"
    assert set(runs.values()) == {"decided"}
    # the interrupted call left no open span and no counts, only its time
    assert tracer.stack == [-1]
    assert 0.0 not in tracer.spans[3::4]
    table = tracer.function_table()
    assert table["bench.deadline"]["calls"] == 1
    assert table["bench.deadline"]["self_s"] >= 1.0
    assert table["murraymiller.triangularize"]["calls"] == 4
    assert table["murraymiller.normalize_equation"]["calls"] == 4
    m = tracer.layer_metrics()
    # the wait is in no layer, and counts were rolled back with the spans
    assert "bench.deadline_s" not in m and m["bench.self_s"] < 1.0
    assert m["qalgebra.gcd_calls"] == table["qalgebra.bipoly_gcd"]["calls"] > 0
    # a second run counts the miss again without running the spec
    wl.run(out)
    assert (out.attempted, out.failed, out.correct) == (10, 2, True)
    assert len(wl.draw["specs"]["roadmap 9-state"]["runs"]) == 1


def test_wrong_route_is_caught_by_the_gate(lib, monkeypatch):
    order = 20
    wl = SeriesQ100(lib, random.Random(0), order=order, chain_terms=4)
    out = Outcome()
    wl.run(out)
    assert (out.attempted, out.failed, out.correct) == (16, 0, True)

    true_double_sum = lib.qseries.double_sum
    bump = lib.qalgebra.QSeries.monomial(1, 7, order)
    monkeypatch.setattr(lib.qseries, "double_sum",
                        lambda a, o: true_double_sum(a, o) + bump)
    out = Outcome()
    wl.run(out)
    assert not out.correct
    # three route comparisons and the three single-sum checks use it
    assert out.failed == 6
    assert "class 1 product vs double sum: first mismatch at q^7" in out.problems


def test_oracle_counts_every_partition(lib):
    wl = OracleW24(lib, random.Random(0), max_weight=12)
    out = Outcome()
    wl.run(out)
    assert (out.attempted, out.failed, out.correct) == (sum(wl.expected), 0, True)
    assert wl.expected[12] == 77


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
