import io
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hbgraphs

from conftest import cached_graph, oracle_decompose
from hbgraphs import cli, structure
from hbgraphs.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_LIMIT,
    EXIT_OK,
    check_range,
    plan_verify,
    run,
)
from hbgraphs.graphs import build_graph, export_dot, export_json
from hbgraphs.iso import labeled_iso
from hbgraphs.stern import b_and_a, b_matrix
from hbgraphs.structure import DEFAULT_LIMIT, SizeLimitError, walk
from hbgraphs.words import minimal_expansion


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(list(argv), out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def test_eval_b():
    status, out, _ = invoke("eval", "--fn", "b", "--n", "42")
    assert status == EXIT_OK
    assert out == "13\n"


def test_eval_algos_agree():
    rng = random.Random(40)
    expected = {"42": "13\n"}
    for bits in (7, 8, 9, 255, 256, 257, 4097):  # around a byte's edge and a leaf's
        n = rng.getrandbits(bits - 1) | 1 << bits - 1
        expected[bin(n)] = f"{b_matrix(n)}\n"
    for text, b in expected.items():
        for algo in ("rec", "mat", "matblk", "alg1", "blockfold"):
            status, out, _ = invoke("eval", "--fn", "b", "--n", text, "--algo", algo)
            assert status == EXIT_OK and out == b, (text, algo)


def test_eval_binary_input():
    status, out, _ = invoke("eval", "--fn", "b", "--n", "0b101010")
    assert status == EXIT_OK and out == "13\n"


def test_imports_load_only_the_modules_they_need():
    # the package re-exports nothing, and the CLI never loads blocks, which no command runs;
    # nor does it load dataclasses (with inspect) or an executor (verify forks its spans itself)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    heavy = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing")
    loaded = (f"import sys; print(sorted(m for m in sys.modules if m.startswith('hbgraphs')"
              f" or m in {heavy}))")
    for module, expected in (
        ("hbgraphs", ["hbgraphs"]),
        ("hbgraphs.cli", ["hbgraphs", "hbgraphs.cli", "hbgraphs.graphs", "hbgraphs.iso",
                          "hbgraphs.stern", "hbgraphs.structure", "hbgraphs.words"]),
        # the counting layer reads the block transfer, never a graph
        ("hbgraphs.stern", ["hbgraphs", "hbgraphs.stern", "hbgraphs.structure", "hbgraphs.words"]),
    ):
        proc = subprocess.run([sys.executable, "-c", f"import {module}; {loaded}"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), module
        assert proc.stdout == f"{expected}\n", module


def test_eval_answer_over_4300_digits():
    # b(n) of this 40 000-bit n has about 8 400 decimal digits
    n = int("10" * 20000, 2)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hbgraphs.cli", "eval", "--fn", "b",
                           "--n", "0b" + "10" * 20000, "--algo", "mat"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    # Decimal converts exactly and is not held to this process's int-string limit
    assert proc.stdout == f"{Decimal(b_matrix(n))}\n"
    # in-process, run() lifts the limit itself: restore the default an earlier call lifted
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)
    status, out, err = invoke("eval", "--fn", "b", "--n", "0b" + "10" * 20000, "--algo", "mat")
    assert (status, out, err) == (EXIT_OK, proc.stdout, "")


def test_eval_rejects_long_decimal_input(capsys):
    status, out, _ = invoke("eval", "--fn", "b", "--n", "7" * 5000)
    assert (status, out) == (EXIT_DOMAIN, "")
    # usage errors go to the process's stderr
    err = capsys.readouterr().err
    assert "limited to 4300 digits" in err and "0b" in err
    assert invoke("eval", "--fn", "b", "--n", "1" + "0" * 4299)[0] == EXIT_OK


def test_eval_other_fns():
    assert invoke("eval", "--fn", "v", "--n", "10")[1] == "1\n"
    assert invoke("eval", "--fn", "a", "--n", "4")[1] == "2\n"
    assert invoke("eval", "--fn", "c", "--n", "43")[1] == "13\n"


def test_eval_domain_error():
    status, _, err = invoke("eval", "--fn", "c", "--n", "0")
    assert status == EXIT_DOMAIN
    assert "error" in err


def test_decompose():
    status, out, _ = invoke("decompose", "--n", "42")
    assert status == EXIT_OK
    assert out == "T1 t=1\nT1 t=1\nT2 t=1\ntail=1^0\n"
    assert invoke("decompose", "--n", "21")[1] == "T1 t=1\nT2 t=1\ntail=1^1\n"


def test_decompose_matches_scan_oracle():
    parser = cli.build_parser()  # once: building it costs more than a decomposition
    for n in (*range(2**12), int("10" * 3000, 2), int("1" * 5000, 2)):
        blocks, ones = oracle_decompose(minimal_expansion(n))
        expected = "".join(f"T{kind} t={t}\n" for kind, t in blocks) + f"tail=1^{ones}\n"
        out = io.StringIO()
        assert cli._cmd_decompose(parser.parse_args(["decompose", "--n", bin(n)]), out) == EXIT_OK
        assert out.getvalue() == expected, n


def test_iso():
    status, out, _ = invoke("iso", "--m", "10", "--n", "12")
    assert status == EXIT_OK and out == "not isomorphic\n"
    status, out, _ = invoke("iso", "--m", "10", "--n", "21", "--structural")
    assert status == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "isomorphic"
    assert len(lines) == 6
    for line in lines[1:]:  # 21 = 2 * 10 + 1: each word of A(21) is one of A(10) and a 1
        w, image = line.split(" -> ")
        assert image == w + "1", line


def test_iso_structural_deep_search():
    # b = 1597 vertices; the arc columns are equal, so no search node runs here, and
    # test_iso.py searches a copy this deep with two ids swapped
    status, out, _ = invoke("iso", "--m", "43690", "--n", "87381", "--structural")
    assert status == EXIT_OK
    assert out.splitlines()[0] == "isomorphic"


def test_iso_structural_budget_and_limit():
    # A(10) and A(21) have equal arc columns, so the identity needs no search node and
    # budget 0 still answers; the size limit aborts before either graph is compared
    status, out, _ = invoke("iso", "--m", "10", "--n", "21", "--structural", "--budget", "0")
    assert status == EXIT_OK and out.splitlines()[0] == "isomorphic"
    status, out, err = invoke("iso", "--m", "10", "--n", "21", "--structural", "--limit", "3")
    assert status == EXIT_LIMIT
    assert out == "" and err.startswith("aborted:")
    status, out, _ = invoke("iso", "--m", "10", "--n", "21", "--structural",
                            "--limit", "5", "--budget", "5")
    assert status == EXIT_OK and out.splitlines()[0] == "isomorphic"


def structural_iso_by_graphs(m, n, limit):
    """What ``iso --structural`` prints when it builds A(m), then A(n), and searches."""
    try:
        g1, g2 = build_graph(m, limit), build_graph(n, limit)
    except SizeLimitError as exc:
        return EXIT_LIMIT, "", f"aborted: {exc}\n"
    return EXIT_OK, "isomorphic\n" if labeled_iso(g1, g2) else "not isomorphic\n", ""


@given(st.integers(0, 2**16), st.integers(0, 2**16), st.sampled_from([DEFAULT_LIMIT, 100, 400]))
@settings(max_examples=80, deadline=None)
def test_iso_structural_refuses_unequal_b_without_a_graph(m, n, limit):
    # the count pass gives b(m), then b(n), and the limits in build_graph's order: a refusal
    # or unequal b needs no graph, and the answer is the one the graphs give
    expected = structural_iso_by_graphs(m, n, limit)
    assume(expected[0] == EXIT_LIMIT or b_matrix(m) != b_matrix(n))
    with patch.object(cli.graphs, "build_graph", side_effect=AssertionError("a graph was built")):
        got = invoke("iso", "--m", str(m), "--n", str(n), "--structural", "--limit", str(limit))
    assert got == expected, (m, n, limit)


def test_graph_formats():
    status, out, _ = invoke("graph", "--n", "10", "--format", "dot")
    assert status == EXIT_OK
    assert out.count('label="d"') == 1
    status, out, _ = invoke("graph", "--n", "10", "--format", "json")
    assert status == EXIT_OK
    import json

    doc = json.loads(out)
    assert doc["n"] == 10 and len(doc["vertices"]) == 5 and len(doc["arcs"]) == 5


@pytest.mark.parametrize("n", [0, 3, 10, 2708, 2254256, 7378268, 14756537])
def test_graph_writes_the_exports(n):
    # A(2254256) has 40 247 arcs: the text goes out in 51 chunks from 19 prefixes, the arcs of
    # at most 256 tail vertices each;
    # A(7378268), b = 15 368, is streamed from prefixes and templates, and so is A(14756537),
    # whose words each end in a 1
    g = build_graph(n)
    assert invoke("graph", "--n", str(n)) == (EXIT_OK, export_dot(g), "")
    assert invoke("graph", "--n", str(n), "--format", "json") == (EXIT_OK, export_json(g) + "\n", "")


def test_graph_writes_the_exports_below_2_11():
    parser = cli.build_parser()  # once: building it costs more than a small graph
    for n in range(2**11):
        g = cached_graph(n)
        for fmt, whole in (("dot", export_dot(g)), ("json", export_json(g) + "\n")):
            out = io.StringIO()
            args = parser.parse_args(["graph", "--n", str(n), "--format", fmt])
            assert (cli._cmd_graph(args, out), out.getvalue()) == (EXIT_OK, whole), (n, fmt)


def test_streamed_graph_is_refused_before_any_output():
    # A(7378268) has b = 15 368 vertices; each of its templates has fewer than 1 100
    templates = walk(7378268, 10**6).templates
    assert max(len(words) for words, _ in templates.values()) < 1100
    for fmt in ("dot", "json"):
        for limit in ("15367", "1100"):
            assert invoke("graph", "--n", "7378268", "--format", fmt, "--limit", limit) == (
                EXIT_LIMIT, "", f"aborted: |H(n)| exceeds limit {limit} for n of 23 bits\n")
    # b = 9737 words of up to 78 digits: within a limit of b vertices, not of its 64 * b digits
    n = str(int("10" * 6 + "0" * 66, 2))
    assert len(walk(int(n), 10**6).prefixes) > 1  # cut after some block
    for fmt in ("dot", "json"):
        assert invoke("graph", "--n", n, "--format", fmt, "--limit", "9737") == (
            EXIT_LIMIT, "", "aborted: 9737 words of up to 78 digits may exceed"
                            " 64 * limit 9737 digits\n")
    assert invoke("graph", "--n", n, "--limit", "11869")[0] == EXIT_OK  # 64 * 11869 >= 78 * 9737


def test_graph_digit_bound_holds_at_equality():
    # one expansion of 64 digits is within 64 * limit 1 digits; one of 65 is not
    status, out, err = invoke("graph", "--n", "0b" + "1" * 64, "--limit", "1")
    assert (status, err) == (EXIT_OK, "") and out.count("1" * 64) == 1
    assert invoke("graph", "--n", "0b" + "1" * 65, "--limit", "1") == (
        EXIT_LIMIT, "", "aborted: 1 words of up to 65 digits may exceed 64 * limit 1 digits\n")


def test_graph_limit_exit_code():
    for n, limit in (("42", "3"), ("7", "0")):
        status, out, err = invoke("graph", "--n", n, "--limit", limit)
        assert status == EXIT_LIMIT
        assert out == "" and "aborted" in err


def test_huge_graph_is_refused_before_any_vertex_is_built():
    # binary (10)^60: b(n) is about 10^25, so the count alone must refuse it
    n = "0b" + "10" * 60
    message = "aborted: |H(n)| exceeds limit 1000000 for n of 120 bits\n"
    for argv in (("graph", "--n", n), ("iso", "--m", n, "--n", "10", "--structural")):
        start = time.perf_counter()
        status, out, err = invoke(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (status, out, err) == (EXIT_LIMIT, "", message), argv


def test_refusal_of_an_n_too_long_to_print_names_its_bit_length():
    # 16 000 bits: about 4 800 decimal digits, past the int-string limit of this process
    n = "0b" + "10" * 8000
    for argv in (("graph", "--n", n), ("iso", "--m", n, "--n", "10", "--structural")):
        status, out, err = invoke(*argv)
        assert (status, out, err) == (
            EXIT_LIMIT, "", "aborted: |H(n)| exceeds limit 1000000 for n of 16000 bits\n"), argv


def test_long_words_are_refused_before_any_word_is_made():
    # one block 1^99999 2: b(n) = 100001 is under the default limit, but its
    # words would take about 10^10 digits
    n = "0b" + "1" * 100000 + "0"
    for argv in (("graph", "--n", n), ("iso", "--m", n, "--n", "10", "--structural")):
        start = time.perf_counter()
        status, out, err = invoke(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (status, out) == (EXIT_LIMIT, ""), argv
        assert err == ("aborted: 100001 words of up to 100001 digits may exceed"
                       " 64 * limit 1000000 digits\n"), argv


def test_closed_stdout_exits_quietly():
    # the reader stops after one line, like ``hbgraphs table --max 100000 | head -1``
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "hbgraphs.cli", "table", "--max", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,b,a,v\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_streamed_graph_into_a_short_reader_exits_quietly(fmt):
    # like ``hbgraphs graph --n 699050 | head -c 100``: A(699050), b = 10 946, is streamed
    # from its prefixes, and the reader leaves after 100 bytes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "hbgraphs.cli", "graph", "--n", "699050",
                             "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""
    assert head == export_dot(build_graph(699050)).encode()[:100] if fmt == "dot" else (
        head.startswith(b'{"n":699050,"vertices":["'))


def test_closed_stdout_mid_graph_exits_quietly():
    # A(2254256) as DOT is about 640 KB, far more than a pipe holds: the reader leaves
    # while ``graph`` is still writing its chunks
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "hbgraphs.cli", "graph", "--n", "2254256",
                             "--format", "dot"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"digraph A2254256 {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


def test_table():
    status, out, _ = invoke("table", "--max", "4")
    assert status == EXIT_OK
    assert out.splitlines() == ["n,b,a,v", "0,1,0,0", "1,1,0,0", "2,2,1,0", "3,1,0,0", "4,3,2,0"]


@pytest.mark.parametrize("top", [0, 1, 2, 4095, 4096, 4097, 20000])
def test_table_matches_b_and_a_per_n(top):
    status, out, err = invoke("table", "--max", str(top))
    rows = "".join(f"{n},{b},{arcs},{arcs - b + 1}\n"
                   for n in range(top + 1) for b, arcs in [b_and_a(n)])
    assert (status, out, err) == (EXIT_OK, "n,b,a,v\n" + rows, "")


def test_table_of_a_3001_bit_max_starts_at_once():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hbgraphs.cli", "table", "--max", "0b1" + "0" * 3000],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    lines = [proc.stdout.readline() for _ in range(6)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert lines == [b"n,b,a,v\n", b"0,1,0,0\n", b"1,1,0,0\n", b"2,2,1,0\n", b"3,1,0,0\n",
                     b"4,3,2,0\n"]
    assert err == b""


def test_verify_ok():
    status, out, _ = invoke("verify", "--max", "64")
    assert status == EXIT_OK and out == "OK 64\n"


def test_verify_counterexample_detection():
    # a seeded mutation of one algorithm must surface as exit code 3
    import hbgraphs.cli as cli

    original = cli._B_ALGOS["mat"]
    cli._B_ALGOS["mat"] = lambda n: original(n) + (n == 37)
    try:
        status, out, _ = invoke("verify", "--max", "64")
    finally:
        cli._B_ALGOS["mat"] = original
    assert status == EXIT_COUNTEREXAMPLE
    assert "n=37" in out and "mat" in out


def test_a_long_state_admitted_after_any_state_is_a_b_disagreement(monkeypatch):
    # the one admissibility table, made to ignore the state before: the tuple count finds too
    # many tuples, and so does walk, which reads the same table
    flags = structure.block_flags
    monkeypatch.setattr(structure, "block_flags", lambda block, e=1: flags(block))
    assert len(list(structure.column(walk(10, DEFAULT_LIMIT), 0))) == 6
    line = "n=10 b disagreement: rec=5 enumeration=6"
    assert check_range(0, 600) == line
    assert check_range(513, 600) == "n=514 b disagreement: rec=17 enumeration=18"
    assert invoke("verify", "--max", "600") == (EXIT_COUNTEREXAMPLE, line + "\n", "")


def test_plan_verify_bounds_the_pool():
    # the plan alone: no process is forked
    spans = plan_verify(2048, 5000, 2)
    assert len(spans) == 2
    assert spans[0][0] == 0 and spans[-1][1] == 2048
    assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    assert len(plan_verify(2048, 4, 64)) == 4
    assert plan_verify(2, 8, 64) == [(0, 0), (1, 1), (2, 2)]
    assert plan_verify(64, 1, 8) == [(0, 64)]
    assert plan_verify(64, 0, 8) == [(0, 64)]
    assert len(plan_verify(64, 4, 1)) == 1


#: a fresh interpreter that runs the CLI on its arguments after ``setup``, then exits with the
#: command's status, or fails if the command left a child process, running or not, unreaped.
#: Forking runs in a subprocess: from 3.12 Python warns on fork in a threaded process.
_CHECKED_RUN = """import os, sys
from hbgraphs import cli
{setup}
status = cli.run(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(status)
sys.exit("a child process was left unreaped")
"""


def run_checked(*argv, setup=""):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)))
    return subprocess.run([sys.executable, "-c", _CHECKED_RUN.format(setup=setup), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


#: four CPUs to run on, so that --workers 4 forks four children on any host
_FOUR_CPUS = "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}"


def test_forked_verify_prints_what_the_serial_run_prints():
    serial = run_checked("verify", "--max", "300", "--workers", "1")
    assert (serial.returncode, serial.stdout, serial.stderr) == (EXIT_OK, "OK 300\n", "")
    for workers in ("2", "4"):
        proc = run_checked("verify", "--max", "300", "--workers", workers, setup=_FOUR_CPUS)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "OK 300\n", ""), workers


@pytest.mark.parametrize(("cpus", "forks"), [({0}, 0), ({0, 2}, 2)])
def test_forked_verify_forks_no_more_than_the_cpus_it_may_run_on(cpus, forks):
    # four CPUs in the machine, but this process may run on fewer: --workers 4 forks that many
    setup = (f"os.cpu_count = lambda: 4; os.sched_getaffinity = lambda pid: {cpus}\n"
             "import atexit; fork, forked = os.fork, []\n"
             "os.fork = lambda: forked.append(1) or fork()\n"
             "atexit.register(lambda: print(len(forked), file=sys.stderr))")
    proc = run_checked("verify", "--max", "300", "--workers", "4", setup=setup)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "OK 300\n", f"{forks}\n")


@pytest.mark.parametrize("bad", [(250,), (60, 250)])
def test_forked_verify_reports_the_first_counterexample(bad):
    # 250 lies in the upper span of [0, 300] with two or four workers, 60 in the lower
    setup = (f"{_FOUR_CPUS}; mat = cli._B_ALGOS['mat']\n"
             f"cli._B_ALGOS['mat'] = lambda n: mat(n) + (n in {bad})")
    serial = run_checked("verify", "--max", "300", "--workers", "1", setup=setup)
    assert serial.returncode == EXIT_COUNTEREXAMPLE and serial.stderr == ""
    assert serial.stdout.startswith(f"n={bad[0]} b disagreement: ")
    for workers in ("2", "4"):
        proc = run_checked("verify", "--max", "300", "--workers", workers, setup=setup)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_COUNTEREXAMPLE, serial.stdout, ""), workers


def test_forked_verify_reports_a_failed_worker_as_one_internal_error():
    setup = (f"{_FOUR_CPUS}; mat = cli._B_ALGOS['mat']\n"
             "cli._B_ALGOS['mat'] = lambda n: mat(n) // (n != 250)")
    for workers in ("2", "4"):
        proc = run_checked("verify", "--max", "300", "--workers", workers, setup=setup)
        assert (proc.returncode, proc.stdout) == (EXIT_INTERNAL, ""), workers
        assert proc.stderr.startswith("internal error: ") and proc.stderr.count("\n") == 1
        assert "ZeroDivisionError" in proc.stderr


def test_check_range_clean():
    assert check_range(0, 32) is None


def test_usage_error_status():
    assert invoke("nonsense")[0] == EXIT_DOMAIN
    assert invoke("eval", "--fn", "b")[0] == EXIT_DOMAIN
    assert invoke("eval", "--fn", "b", "--n", "-3")[0] == EXIT_DOMAIN
    # removed input: the bench subcommand and table --format
    assert invoke("bench", "--bits", "8")[0] == EXIT_DOMAIN
    assert invoke("table", "--max", "3", "--format", "csv")[0] == EXIT_DOMAIN


def test_deterministic_output():
    # two processes under different hash seeds: set and dict order may differ between them,
    # the bytes may not.  A(699050) is streamed from prefixes and templates.
    library = ("import sys; from hbgraphs.blocks import embed; from hbgraphs.graphs import"
               " export_dot; pg = embed(699050); sys.stdout.write(export_dot(pg.graph, pg.place))")
    runs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hbgraphs.__file__)),
                   PYTHONHASHSEED=seed)
        for argv in (["-m", "hbgraphs.cli", "graph", "--n", "699050", "--format", "dot"],
                     ["-m", "hbgraphs.cli", "graph", "--n", "699050", "--format", "json"],
                     ["-c", library]):
            proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env,
                                  timeout=120)
            assert (proc.returncode, proc.stderr) == (0, b""), (seed, argv)
            runs.setdefault(tuple(argv), []).append(proc.stdout)
    for argv, (first, second) in runs.items():
        assert first == second, argv
    g = build_graph(699050)
    assert [first for first, _ in runs.values()][:2] == [export_dot(g).encode(),
                                                        (export_json(g) + "\n").encode()]


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    def crash(args, out):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "eval", crash)
    status, out, err = invoke("eval", "--fn", "b", "--n", "42")
    assert status == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


_NUMBER = st.integers(0, 300).map(str) | st.integers(0, 2**40).map(bin)
_SMALL = st.integers(0, 200).map(str)
_MALFORMED = st.sampled_from(["-1", "x", "0b2", "0b", "", "1e3", "0x10", "--n"])
#: per subcommand, its required and its optional options, each with a strategy
#: for its value (None: a flag); --limit is required here to keep every graph small
_COMMANDS = {
    "eval": ({"--fn": st.sampled_from("bcvaz"), "--n": _NUMBER},
             {"--algo": st.sampled_from(["rec", "mat", "matblk", "alg1", "blockfold", "x"])}),
    "graph": ({"--n": _NUMBER, "--limit": _SMALL},
              {"--format": st.sampled_from(["dot", "json", "xml"])}),
    "decompose": ({"--n": _NUMBER}, {}),
    "iso": ({"--m": _NUMBER, "--n": _NUMBER, "--limit": _SMALL},
            {"--structural": None, "--budget": _SMALL}),
    # at most one worker: verify runs in this process and forks none
    "verify": ({}, {"--max": st.integers(0, 40).map(str), "--workers": st.sampled_from("01")}),
    "table": ({"--max": st.integers(0, 40).map(str)}, {}),
    "bogus": ({"--n": _NUMBER}, {}),
}


@st.composite
def cli_arguments(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    names = list(required)
    if optional:
        names += draw(st.lists(st.sampled_from(sorted(optional)), max_size=3))
    argv = [command]
    for name in draw(st.permutations(names)):
        strategy = required.get(name, optional.get(name))
        argv.append(name)
        if strategy is not None:
            # one value in sixteen is left out and one is malformed
            kind = draw(st.integers(0, 15))
            if kind:
                argv.append(draw(_MALFORMED if kind == 1 else strategy))
    return argv


@given(cli_arguments())
@settings(max_examples=300, deadline=None)
def test_cli_argument_sweep_sees_only_documented_exit_codes(argv):
    status, _, err = invoke(*argv)
    assert status in (EXIT_OK, EXIT_DOMAIN, EXIT_LIMIT, EXIT_COUNTEREXAMPLE), (argv, err)
    assert "internal error" not in err, argv
