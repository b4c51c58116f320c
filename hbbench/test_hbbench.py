"""Tests of the benchmark itself: its oracles, its checks, and each workload at a tiny size.

Run from the root of the repository:  python3 -m pytest hbbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hbgraphs import graphs  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_oracles_agree_with_build_graph():
    for n in range(3000):
        g = graphs.build_graph(n)
        b, a = oracles.b_and_a(n)
        assert (b, a, a - b + 1) == graphs.counts(g), n
        assert oracles.b(n) == b and oracles.fusc(n + 1) == b, n
        assert g.vertices[g.source] == oracles.minimal_word(n), n
        assert g.vertices[g.sink] == oracles.binary_word(n), n
        if n < 400:
            assert sorted(oracles.expansions(n)) == sorted(g.vertices), n
            arcs = {(g.vertices[x.tail], g.vertices[x.head], x.label) for x in g.arcs}
            assert oracles.labeled_arcs(n) == arcs, n


def test_fusc_is_sterns_sequence():
    assert [oracles.fusc(n) for n in range(12)] == [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5]
    assert oracles.b_and_a(2708) == (208, 644) == oracles.b_and_a(3434)


def test_checks_reject_wrong_graphs():
    n = 42
    g = graphs.build_graph(n)
    arcs = [(a.tail, a.head, a.label, a.position) for a in g.arcs]
    assert checks.graph(n, g.vertices, arcs, g.source, g.sink) is None
    flipped = {oracles.SINGLE: oracles.DOUBLE, oracles.DOUBLE: oracles.SINGLE}
    t, h, label, pos = arcs[0]
    wrong = [
        (g.vertices, arcs[1:], g.source, g.sink),  # an arc missing
        (g.vertices, [(t, h, flipped[label], pos)] + arcs[1:], g.source, g.sink),
        (g.vertices, [(t, h, label, pos + 1)] + arcs[1:], g.source, g.sink),
        (g.vertices, [arcs[1]] + arcs[1:], g.source, g.sink),  # an arc repeated
        (tuple(reversed(g.vertices)), arcs, g.source, g.sink),  # order broken
        (g.vertices, arcs, g.sink, g.source),
    ]
    for vertices, bad_arcs, source, sink in wrong:
        assert checks.graph(n, vertices, bad_arcs, source, sink) is not None
    blocks = oracles.block_count(oracles.minimal_word(n))
    assert checks.places(n, [1, blocks]) is None
    assert checks.places(n, [0]) is not None and checks.places(n, [blocks + 1]) is not None
    assert checks.dot_export(n, graphs.export_dot(g) + "x\n") is not None
    assert checks.json_export(n + 1, graphs.export_json(g), g.vertices, arcs) is not None


def test_checks_reject_wrong_witnesses():
    m, n = 10, 21
    g1, g2 = graphs.build_graph(m), graphs.build_graph(n)
    arcs1 = [(a.tail, a.head, a.label) for a in g1.arcs]
    arcs2 = [(a.tail, a.head, a.label) for a in g2.arcs]
    identity = list(range(len(g1.vertices)))
    assert checks.witness(identity, len(g2.vertices), arcs1, arcs2) is None  # ids are shortlex
    swapped = identity[::-1]
    assert checks.witness(swapped, len(g2.vertices), arcs1, arcs2) is not None
    words = dict(zip(g1.vertices, g2.vertices))
    assert checks.word_witness(m, n, words) is None
    w1, w2 = g1.vertices[:2]
    words[w1], words[w2] = words[w2], words[w1]
    assert checks.word_witness(m, n, words) is not None


TINY = {  # module constants of ``workloads`` set to tiny sizes
    "counting": {"COUNTING_MIX": {64: dict.fromkeys(workloads.CALL_MS[4096], 2),
                                  256: dict.fromkeys(workloads.CALL_MS[65536], 1)}},
    "graph": {"EMBED_B": (10, 100), "ISO_B": (10, 60), "NEGATIVES_BELOW": 1 << 10},
    "cli": {"VERIFY_MAX": 40, "VERIFY2_MAX": 60, "TABLE_MAX": 200, "CLI_GRAPH_B": 30,
            "CLI_ISO_B": 20},
}


@pytest.fixture
def tiny(monkeypatch):
    def make(name, seed, rounds=1):
        for key, value in TINY[name].items():
            monkeypatch.setattr(workloads, key, value)
        return workloads.WORKLOADS[name](seed, rounds)

    return make


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_clean_at_a_tiny_size(tiny, name, traced):
    workload = tiny(name, 7)
    workload.warm_up()
    tracer = Tracer(traced)
    result = workload.run(tracer, HostSpeed())
    assert (result["failed"], result["wrong"]) == (0, 0)
    assert len(result["latencies"]) == workload.passes * len(workload.ops)
    if traced:
        layer = workload.layer_metrics(tracer)
        assert set(layer) == set(workload.layer_units)
        assert tracer.spans


def test_later_passes_must_repeat_the_checked_output(tiny, monkeypatch):
    workload = tiny("graph", 7)
    execute = workload.execute
    calls = []

    def flaky(i, tracer):  # the second run of operation 1 loses its witness
        calls.append(i)
        g1, g2, found = out = execute(i, tracer)
        return (g1, g2, None) if i == 1 and calls.count(1) == 2 else out

    assert workload.ops[1][0] == "iso"
    monkeypatch.setattr(workload, "execute", flaky)
    result = workload.run(Tracer(False), HostSpeed())
    assert (result["failed"], result["wrong"]) == (1, 1)


def test_times_are_taken_to_the_reference_speed():
    speed = HostSpeed()
    for _ in range(3):
        speed.sample()
    scale = speed.scale()
    assert scale > 0
    assert run.at_reference_speed(2.0, "ms", scale) == 2.0 * scale
    assert run.at_reference_speed(2.0, "1/s", scale) == 2.0 / scale
    assert run.at_reference_speed(2.0, "MB", scale) == 2.0


def test_graph_checker_rejects_wrong_outputs(tiny):
    workload = tiny("graph", 7)
    tracer = Tracer(False)
    embed, positive, negative = (workload.execute(i, tracer) for i in range(3))
    try:
        assert [workload.check(i, out) for i, out in enumerate((embed, positive, negative))] == [
            None, None, None]
        pg, text, dot = embed
        assert workload.check(0, (pg, text.replace("single", "double", 1), dot)) is not None
        assert workload.check(0, (pg, text, dot + "x\n")) is not None
        assert workload.check(1, positive[:2] + (None,)) is not None
        assert workload.check(2, negative[:2] + (positive[2],)) is not None
        assert workload.check(0, embed) is None  # still in step after the wrong ones
    finally:
        workload.close()


def test_schedule_depends_only_on_the_seed(tiny):
    assert tiny("graph", 3, 3).ops == tiny("graph", 3, 3).ops != tiny("graph", 4, 3).ops
    counting = tiny("counting", 3).ops
    assert len({n for _, _, n in counting}) == len(counting)
    other = tiny("counting", 4).ops
    assert [(fn, n.bit_length()) for fn, _, n in counting] == [
        (fn, n.bit_length()) for fn, _, n in other]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
