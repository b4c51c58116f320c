import io
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbgraphs

from conftest import oracle_decompose
from hbgraphs import cli
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
from hbgraphs.stern import b_and_a, b_matrix
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
    for algo in ("rec", "mat", "matblk", "alg1", "blockfold"):
        status, out, _ = invoke("eval", "--fn", "b", "--n", "42", "--algo", algo)
        assert status == EXIT_OK and out == "13\n"


def test_eval_binary_input():
    status, out, _ = invoke("eval", "--fn", "b", "--n", "0b101010")
    assert status == EXIT_OK and out == "13\n"


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
    assert len(lines) == 6 and all(" -> " in line for line in lines[1:])


def test_iso_structural_deep_search():
    # b = 1597 vertices: one search level per vertex, deeper than the recursion limit
    status, out, _ = invoke("iso", "--m", "43690", "--n", "87381", "--structural")
    assert status == EXIT_OK
    assert out.splitlines()[0] == "isomorphic"


def test_iso_structural_budget_and_limit():
    for option, amount in (("--budget", "0"), ("--limit", "3")):
        status, out, err = invoke("iso", "--m", "10", "--n", "21", "--structural", option, amount)
        assert status == EXIT_LIMIT
        assert out == "" and err.startswith("aborted:")
    status, out, _ = invoke("iso", "--m", "10", "--n", "21", "--structural",
                            "--limit", "5", "--budget", "5")
    assert status == EXIT_OK and out.splitlines()[0] == "isomorphic"


def test_graph_formats():
    status, out, _ = invoke("graph", "--n", "10", "--format", "dot")
    assert status == EXIT_OK
    assert out.count('label="d"') == 1
    status, out, _ = invoke("graph", "--n", "10", "--format", "json")
    assert status == EXIT_OK
    import json

    doc = json.loads(out)
    assert doc["n"] == 10 and len(doc["vertices"]) == 5 and len(doc["arcs"]) == 5


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


def test_plan_verify_bounds_the_pool():
    # the plan alone: no pool is started
    spans, pool_size = plan_verify(2048, 5000, 2)
    assert pool_size == 2
    assert spans[0][0] == 0 and spans[-1][1] == 2048
    assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    assert plan_verify(2048, 4, 64)[1] == 4
    assert plan_verify(2, 8, 64) == ([(0, 0), (1, 1), (2, 2)], 3)
    assert plan_verify(64, 1, 8) == ([(0, 64)], 1)
    assert plan_verify(64, 0, 8) == ([(0, 64)], 1)
    assert plan_verify(64, 4, 1)[1] == 1


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
    first = invoke("graph", "--n", "20", "--format", "dot")
    second = invoke("graph", "--n", "20", "--format", "dot")
    assert first == second


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
    # at most one worker: no process pool is started
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
