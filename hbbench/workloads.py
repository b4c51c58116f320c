"""The three workloads of the benchmark.

Each workload is a fixed schedule of operations made from the seed and run
in a closed loop by one client: the next operation starts only when the
previous one has returned.  A faster program finishes the same schedule
sooner; it never does more operations.  That matters because the memos in
``hbgraphs.stern`` grow with every large evaluation, so a loop bounded by
time would turn a speed-up into more memory.

Only the call into the program is timed, and the time is taken to the
reference speed of the host (see ``hostspeed``).  Every output is then
checked against ``oracles`` (see ``checks``); a check that fails counts
its operation as failed.  With tracing on, the same schedule runs with a span
around every call into a layer, and ``layer_metrics`` adds probes: calls
made only to measure one layer (see README.md).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import checks
import oracles
from hbgraphs import blocks, graphs, iso, stern, words

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise LookupError(field)


def peak_rss_mb() -> float:
    """Peak RSS of this process since its exec (ru_maxrss would include the parent's)."""
    return _status_mb("VmHWM")


def current_rss_mb() -> float:
    return _status_mb("VmRSS")


class Workload:
    """A schedule ``self.ops``; subclasses define ``execute`` and ``check``."""

    name = ""
    #: how often the schedule runs; ``fingerprint`` must be defined when more than once
    passes = 1
    #: per-layer metric names and units that this workload measures
    layer_units: dict[str, str] = {}

    def warm_up(self) -> None:
        pass

    def execute(self, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        raise NotImplementedError

    def fingerprint(self, i: int, output):
        """A value equal for equal outputs, held to compare a later pass with the checked first."""
        return None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    def run(self, tracer, speed) -> dict:
        """Run the schedule ``passes`` times, sampling the host's ``speed`` between operations."""
        try:
            return self._run(tracer, speed)
        finally:
            self.close()

    def _run(self, tracer, speed) -> dict:
        """Every pass runs the whole schedule in order, so an operation's runs lie a pass apart.

        Each run of an operation is one latency sample, (start, seconds).
        The first pass's outputs are checked; a later pass's output must
        have the fingerprint of the first, which passed its checks.
        """
        self.rss_start_mb = current_rss_mb()
        latencies = []
        failed, wrong, first = set(), set(), {}
        for p in range(self.passes):
            for i in range(len(self.ops)):
                if i in failed:
                    continue
                speed.sample_if_due()
                start = time.perf_counter()
                try:
                    output = self.execute(i, tracer)
                except Exception as exc:  # a fault in the program fails this operation only
                    latencies.append((start, time.perf_counter() - start))
                    failed.add(i)
                    print(f"{self.name} op {i} {self.ops[i]!r:.120}: {exc!r:.300}", file=sys.stderr)
                    continue
                latencies.append((start, time.perf_counter() - start))
                try:
                    if p == 0:
                        problem = self.check(i, output)
                        first[i] = self.fingerprint(i, output)
                    elif self.fingerprint(i, output) != first[i]:
                        problem = f"pass {p + 1} output differs from the checked first pass"
                    else:
                        problem = None
                except (ValueError, LookupError, TypeError) as exc:  # output too malformed to check
                    problem = f"malformed output: {exc!r:.300}"
                del output
                if problem:
                    failed.add(i)
                    wrong.add(i)
                    print(f"{self.name} op {i}: wrong output: {problem}", file=sys.stderr)
        return {"latencies": latencies, "failed": len(failed), "wrong": len(wrong),
                "peak_rss_mb": self.peak_rss_mb()}

    def layer_metrics(self, tracer) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------- counting

#: milliseconds per call on random n, on the reference machine (median of 2 to 4 calls)
CALL_MS = {
    4096: {"b_matrix": 0.53, "b_matrix_blocks": 2.9, "b_algorithm1": 1.05, "b_block_formula": 12.8,
           "c_matrix": 14.2, "b_recursive": 66, "v": 120, "a": 100},
    16384: {"b_matrix": 6.0, "b_matrix_blocks": 18, "b_algorithm1": 9.2, "b_block_formula": 117,
            "c_matrix": 78, "b_recursive": 700, "v": 1360, "a": 1420},
    # b_recursive, v and a take 8 to 20 s here and grow the memos by GBs
    65536: {"b_matrix": 75, "b_matrix_blocks": 120, "b_algorithm1": 81, "b_block_formula": 1720,
            "c_matrix": 1110},
}
CELL_S = 0.5
#: calls per round of each (bits, function) cell: CELL_S seconds of calls, and at least one
COUNTING_MIX = {bits: {fn: max(1, round(1000 * CELL_S / ms)) for fn, ms in fns.items()}
                for bits, fns in CALL_MS.items()}


def counting_layer_units(mix) -> dict[str, str]:
    units = {"stern.rss_growth_mb": "MB"}
    for bits, fns in mix.items():
        units[f"words.minimal_expansion.ms_{bits}"] = "ms"
        units.update({f"stern.{fn}.ms_{bits}": "ms" for fn in fns})
    return units


class Counting(Workload):
    """Library calls into ``stern`` on random n of about 4k, 16k and 64k bits.

    Every (size, function) cell gets the same call time, so a speed-up of
    any one evaluator at any one size moves ``ops_per_s`` alike.  A cell's
    k calls have bit lengths spread evenly in log over one octave centred
    on its size, so its median call has the size itself, and the latencies
    of neighbouring cells overlap instead of forming clusters with gaps
    for a percentile to jump across.  No two operations share an n: a memo
    filled by one call would make a later call on the same n nearly free.
    The bit lengths and the order of the functions are the same for every
    seed; the seed draws the n.
    """

    name = "counting"
    round_seconds = 15.0
    layer_units = counting_layer_units(COUNTING_MIX)

    def __init__(self, seed: int, rounds: int):
        self.mix = mix = COUNTING_MIX
        plan = [(fn, size, round(size * 2 ** ((j + 0.5) / (k * rounds) - 0.5)))
                for size, fns in mix.items() for fn, k in fns.items() for j in range(k * rounds)]
        random.Random(0).shuffle(plan)
        rng, seen, self.ops = random.Random(seed), set(), []
        for fn, size, bits in plan:
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            while n in seen:
                n = rng.getrandbits(bits) | 1 << (bits - 1)
            seen.add(n)
            self.ops.append((fn, size, n))
        self.layer_units = counting_layer_units(mix)

    def warm_up(self) -> None:
        n = random.Random("warm-up").getrandbits(4096) | 1 << 4095
        for fn in dict.fromkeys(fn for fns in self.mix.values() for fn in fns):
            getattr(stern, fn)(n)

    def execute(self, i, tracer):
        fn, _, n = self.ops[i]
        return tracer.call(f"stern.{fn}", i, getattr(stern, fn), n)

    def check(self, i, output):
        fn, _, n = self.ops[i]
        if fn == "b_algorithm1":
            output = output[0]  # (b(n), expensive steps)
        if fn in ("v", "a"):
            b, a = oracles.b_and_a(n)
            expected = a if fn == "a" else a - b + 1
        else:
            expected = oracles.fusc(n) if fn == "c_matrix" else oracles.b(n)
        return None if output == expected else f"{fn}(n) wrong for an n of {n.bit_length()} bits"

    def layer_metrics(self, tracer):
        growth = peak_rss_mb() - self.rss_start_mb
        for i, (fn, _, n) in enumerate(self.ops):
            if fn == "b_block_formula":
                tracer.call("words.minimal_expansion", i, words.minimal_expansion, n)
        out = {"stern.rss_growth_mb": growth}
        for bits, fns in self.mix.items():
            ops = {i for i, op in enumerate(self.ops) if op[1] == bits}
            for name in ["words.minimal_expansion"] + [f"stern.{fn}" for fn in fns]:
                out[f"{name}.ms_{bits}"] = 1000 * statistics.median(tracer.durations(name, ops))
        return out


# ------------------------------------------------------------------- graph


EMBED_B = (100, 10_000)  # embeds: b(n) log-uniform over this range
ISO_B = (100, 800)  # iso pairs and hard negatives: b(n) log-uniform over this range
NEGATIVES_BELOW = 1 << 15  # hard negatives are pairs of even n below this
CANDIDATES = 200  # random n tried for each input, so every seed costs the same to set up
SHORTLIST = 8  # of those, the ones nearest in b whose shape is compared


def geometric(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def even_n_with_b(rng: random.Random, target: float) -> int:
    """Of CANDIDATES random even n of a plausible bit length, the one with b(n) nearest target."""
    lg = math.log2(target)
    candidates = []
    for _ in range(CANDIDATES):
        bits = rng.randint(int(lg) + 2, int(2.2 * lg) + 4)
        candidates.append((rng.getrandbits(bits - 1) | 1 << (bits - 1)) & ~1)
    return min(candidates, key=lambda n: (abs(oracles.b(n) - target), n))


def shape(n: int) -> tuple[int, int, int, int]:
    """What the cost of A(n) depends on: bit length, block count, b(n) and a(n)."""
    return (n.bit_length(), oracles.block_count(oracles.minimal_word(n)), *oracles.b_and_a(n))


def even_n_like(rng: random.Random, ref: int) -> int:
    """Of CANDIDATES random even n with the bit length of ``ref``, the one most like it.

    The SHORTLIST nearest in b are compared by their relative distance in
    b, a and block count.
    """
    bits, blocks_, b, a = shape(ref)
    candidates = [(rng.getrandbits(bits - 1) | 1 << (bits - 1)) & ~1 for _ in range(CANDIDATES)]
    shortlist = sorted(candidates, key=lambda n: (abs(oracles.b(n) - b), n))[:SHORTLIST]

    def distance(n):
        _, k, b_n, a_n = shape(n)
        return abs(k / blocks_ - 1) + abs(b_n / b - 1) + abs(a_n / a - 1), n

    return min(shortlist, key=distance)


class Graph(Workload):
    """Library calls into ``blocks``, ``graphs`` and ``iso`` at mid size.

    One round is one ``embed`` with both exports, one ``labeled_iso`` on an
    isomorphic pair (n, 2^t n + 2^t - 1), and one on a hard negative: two
    distinct even numbers with equal b and equal a, which the paper's
    theorem says are not isomorphic.  Every round has one operation of each
    kind, and round k of R aims at the (k + 1/2)/R quantile of log b over
    EMBED_B (the embed) and ISO_B (the two iso pairs), so the sizes cover
    their ranges evenly.  The iso pairs stay below b = 800 because
    ``labeled_iso`` recurses once per vertex.

    For each round a reference n is fixed for all seeds, and the seed draws
    an n alike in bit length, block count, b and a, so every seed does
    nearly the same work.  The checks run in ``checker.py``, a process of
    their own, so that the peak RSS of this process is the program's.
    """

    name = "graph"
    round_seconds = 0.59
    # the tail holds few embeds, and one call of the same input varies by
    # +-30% on a shared host: two passes give two samples of each
    passes = 2
    search_node_pairs = 6  # isomorphic pairs whose search nodes a traced run counts
    layer_units = {
        "graphs.enumerate_expansions.busy_s": "s",
        "graphs.build_graph.busy_s": "s",
        "graphs.build_graph.self_s": "s",
        "graphs.vertices_per_s": "1/s",
        "graphs.alloc_peak_mb": "MB",
        "graphs.vertices": "count",
        "graphs.arcs": "count",
        "graphs.export_json.busy_s": "s",
        "graphs.export_dot.busy_s": "s",
        "graphs.export_bytes": "bytes",
        "blocks.embed.self_s": "s",
        "blocks.embed_over_build": "ratio",
        "iso.labeled_iso.busy_s": "s",
        "iso.search_nodes": "count",
    }

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(seed)
        groups = defaultdict(list)
        for n in range(2, NEGATIVES_BELOW, 2):
            b, a = oracles.b_and_a(n)
            if ISO_B[0] <= b <= ISO_B[1]:
                groups[(b, a)].append(n)
        keys = [k for k, ns in groups.items() if len(ns) > 1]
        strata = list(range(rounds))
        random.Random(0).shuffle(strata)
        self.ops = []
        for k in strata:
            u = (k + 0.5) / rounds
            ref = even_n_with_b(random.Random(f"embed {k} {rounds}"), geometric(*EMBED_B, u))
            self.ops.append(("embed", even_n_like(rng, ref)))
            ref = even_n_with_b(random.Random(f"iso {k} {rounds}"), geometric(*ISO_B, u))
            n, t = even_n_like(rng, ref), 1 + k % 3
            self.ops.append(("iso", n, (n << t) + (1 << t) - 1, True))
            _, _, b, a = shape(ref)
            pool = [key for key in keys if abs(key[0] - b) <= 0.1 * b]
            near = sorted(pool if len(pool) >= 6 else keys,
                          key=lambda key: (abs(key[0] / b - 1) + abs(key[1] / a - 1), key))
            self.ops.append(("iso", *rng.sample(groups[rng.choice(near[:6])], 2), False))
        self.export_bytes: dict[int, int] = {}
        self.checker = None

    def warm_up(self) -> None:
        pg = blocks.embed(2708)
        graphs.export_json(pg.graph)
        graphs.export_dot(pg.graph, pg.place)
        g = graphs.build_graph(2708)
        iso.labeled_iso(g, graphs.build_graph(5417))
        iso.labeled_iso(g, graphs.build_graph(3434))

    def execute(self, i, tracer):
        if self.ops[i][0] == "embed":
            pg = tracer.call("blocks.embed", i, blocks.embed, self.ops[i][1])
            return (pg,
                    tracer.call("graphs.export_json", i, graphs.export_json, pg.graph),
                    tracer.call("graphs.export_dot", i, graphs.export_dot, pg.graph, pg.place))
        _, n1, n2, _ = self.ops[i]
        g1 = tracer.call("graphs.build_graph", i, graphs.build_graph, n1)
        g2 = tracer.call("graphs.build_graph", i, graphs.build_graph, n2)
        return g1, g2, tracer.call("iso.labeled_iso", i, iso.labeled_iso, g1, g2)

    def check(self, i, output):
        """Send the output to ``checker.py`` and return its answer."""
        if self.checker is None:
            self.checker = subprocess.Popen(
                [sys.executable, str(HERE / "checker.py")], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, encoding="utf-8")
        try:
            self.send(i, output)
        except Exception:
            self.close()  # the request was cut short; a new checker takes the next one
            raise
        answer = self.checker.stdout.readline().rstrip("\n")
        if not answer:
            raise RuntimeError(f"checker.py ended with exit code {self.checker.wait()}")
        return None if answer == "ok" else answer

    def fingerprint(self, i, output):
        if self.ops[i][0] == "embed":
            pg, text, dot = output
            g = pg.graph
            return hash((g.source, g.sink, g.vertices, text, dot,
                         tuple((x.tail, x.head, x.label, x.position, pg.place[x]) for x in g.arcs)))
        g1, g2, found = output
        return hash((*((g.vertices, tuple((x.tail, x.head, x.label) for x in g.arcs)) for g in (g1, g2)),
                     None if found is None else tuple(found.mapping)))

    def send(self, i, output) -> None:
        out = self.checker.stdin
        if self.ops[i][0] == "embed":
            pg, text, dot = output
            g = pg.graph
            self.export_bytes[i] = utf8_len(text) + utf8_len(dot)
            out.write(f"embed {self.ops[i][1]} {g.source} {g.sink} {len(g.vertices)} "
                      f"{len(g.arcs)} {len(text)} {len(dot)}\n")
            for w in g.vertices:
                out.write(w + "\n")
            for x in g.arcs:
                out.write(f"{x.tail} {x.head} {x.label} {x.position} {pg.place[x]}\n")
            for export in (text, dot):  # in slices: encoding the whole would copy it
                for k in range(0, len(export), 1 << 16):
                    out.write(export[k : k + (1 << 16)])
        else:
            _, n1, n2, isomorphic = self.ops[i]
            g1, g2, found = output
            out.write(f"iso {n1} {n2} {int(isomorphic)} {len(g1.vertices)} {len(g2.vertices)} "
                      f"{len(g1.arcs)} {len(g2.arcs)} {int(found is not None)}\n")
            for g in (g1, g2):
                for x in g.arcs:
                    out.write(f"{x.tail} {x.head} {x.label}\n")
            if found is not None:
                out.write(" ".join(map(str, found.mapping)) + "\n")
        out.flush()

    def close(self) -> None:
        if self.checker is not None:
            checker, self.checker = self.checker, None
            with contextlib.suppress(BrokenPipeError):  # it has ended already
                checker.stdin.close()
            checker.stdout.close()
            checker.wait()

    def layer_metrics(self, tracer):
        embeds = [(i, op[1]) for i, op in enumerate(self.ops) if op[0] == "embed"]
        vertices = arcs = 0
        for i, n in embeds:
            tracer.call("graphs.enumerate_expansions", f"probe{i}", graphs.enumerate_expansions, n)
            g = tracer.call("graphs.build_graph", f"probe{i}", graphs.build_graph, n)
            vertices, arcs = vertices + len(g.vertices), arcs + len(g.arcs)
        tracemalloc.start()
        graphs.build_graph(max(embeds, key=lambda e: oracles.b(e[1]))[1])
        alloc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        pairs = [op for op in self.ops if op[0] == "iso"]
        counted = [op for op in pairs if op[3]][: self.search_node_pairs]
        counted += [op for op in pairs if not op[3]]
        search_nodes = sum(least_budget(graphs.build_graph(n1), graphs.build_graph(n2))
                           for _, n1, n2, _ in counted)

        enum = sum(tracer.durations("graphs.enumerate_expansions"))
        build = sum(tracer.durations("graphs.build_graph", {f"probe{i}" for i, _ in embeds}))
        embed = sum(tracer.durations("blocks.embed"))
        return {
            "graphs.enumerate_expansions.busy_s": enum,
            "graphs.build_graph.busy_s": build,
            "graphs.build_graph.self_s": build - enum,
            "graphs.vertices_per_s": vertices / build,
            "graphs.alloc_peak_mb": alloc_peak / 2**20,
            "graphs.vertices": vertices,
            "graphs.arcs": arcs,
            "graphs.export_json.busy_s": sum(tracer.durations("graphs.export_json")),
            "graphs.export_dot.busy_s": sum(tracer.durations("graphs.export_dot")),
            "graphs.export_bytes": sum(self.export_bytes.values()),
            "blocks.embed.self_s": embed - build,
            "blocks.embed_over_build": embed / build,
            "iso.labeled_iso.busy_s": sum(tracer.durations("iso.labeled_iso")),
            "iso.search_nodes": search_nodes,
        }


def utf8_len(text: str) -> int:
    """Bytes of ``text`` in UTF-8, without a copy when it is ASCII."""
    return len(text) if text.isascii() else len(text.encode())


def least_budget(g1, g2) -> int:
    """The least ``budget`` for which ``labeled_iso`` does not raise BudgetExceeded."""

    def enough(budget: int) -> bool:
        try:
            iso.labeled_iso(g1, g2, budget=budget)
        except iso.BudgetExceeded:
            return False
        return True

    if enough(0):
        return 0
    lo, hi = 0, 1
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


# --------------------------------------------------------------------- cli


# the sizes of the cli commands: each takes several times the interpreter's start-up
VERIFY_MAX, VERIFY2_MAX, TABLE_MAX = 1800, 2400, 70_000
CLI_GRAPH_B, CLI_ISO_B = 15_000, 700


class Cli(Workload):
    """``python -m hbgraphs.cli`` as a subprocess, one command at a time.

    One round is one each of ``verify`` serial and with ``--workers 2``,
    ``table``, ``graph --format json`` and ``iso --structural``.  Every
    process starts with cold memos.
    """

    name = "cli"
    round_seconds = 2.4
    layer_units = {"cli.start_ms": "ms", "cli.verify.n_per_s": "1/s",
                   "cli.verify_workers2.n_per_s": "1/s"}

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(seed)

        def near(x):
            return round(x * rng.uniform(0.97, 1.03))

        self.ops = []
        for k in range(rounds):
            n, t = even_n_with_b(rng, CLI_ISO_B), 1 + k % 2
            self.ops += [
                ("verify", "verify", "--max", str(near(VERIFY_MAX))),
                ("verify_workers2", "verify", "--max", str(near(VERIFY2_MAX)), "--workers", "2"),
                ("table", "table", "--max", str(near(TABLE_MAX))),
                ("graph", "graph", "--n", str(even_n_with_b(rng, CLI_GRAPH_B)), "--format", "json"),
                ("iso", "iso", "--m", str(n), "--n", str((n << t) + (1 << t) - 1), "--structural"),
            ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.table_rows: list[str] = []
        self.child_peak_kb = 0

    def spawn(self, argv) -> tuple[int, str]:
        """Run one command; return its exit code and stdout, and note its peak RSS.

        The command starts through ``launch.py`` (about 15 ms, inside the
        timed call), which reports the command's own peak RSS.
        """
        OUT.mkdir(exist_ok=True)
        read, write = os.pipe()
        with open(OUT / "cli-stderr.txt", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(write), *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT, pass_fds=(write,))
        os.close(write)
        with proc.stdout:
            out = proc.stdout.read()
        with os.fdopen(read) as report:
            fields = report.read().split()
        if proc.wait() != 0 or len(fields) != 2:
            raise RuntimeError(f"launch.py failed with exit code {proc.returncode}")
        code, peak_kb = map(int, fields)
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        return code, out.decode()

    def warm_up(self) -> None:
        self.spawn(["eval", "--fn", "b", "--n", "0"])

    def execute(self, i, tracer):
        kind, *argv = self.ops[i]
        return tracer.call(f"cli.{kind}", i, self.spawn, argv)

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024

    def check(self, i, output):
        kind, *argv = self.ops[i]
        code, out = output
        if code != 0:
            return f"{' '.join(argv)} exited with {code}"
        if kind.startswith("verify"):
            return None if out == f"OK {argv[2]}\n" else f"verify printed {out[:80]!r}"
        if kind == "table":
            top = int(argv[2])
            while len(self.table_rows) <= top:
                n = len(self.table_rows)
                b, a = oracles.b_and_a(n)
                self.table_rows.append(f"{n},{b},{a},{a - b + 1}")
            rows = out.splitlines()
            ok = rows[0] == "n,b,a,v" and rows[1:] == self.table_rows[: top + 1]
            return None if ok else f"table --max {top} differs from the oracle"
        if kind == "graph":
            n = int(argv[2])
            doc = json.loads(out)
            arcs = [(x["tail"], x["head"], x["label"], x["position"]) for x in doc["arcs"]]
            if doc["n"] != n:
                return f"graph --n {n} printed the graph of {doc['n']}"
            return checks.graph(n, doc["vertices"], arcs)
        lines = out.splitlines()
        if lines[0] != "isomorphic":
            return f"iso printed {lines[0]!r}"
        return checks.word_witness(int(argv[2]), int(argv[4]),
                                   dict(line.split(" -> ") for line in lines[1:]))

    def layer_metrics(self, tracer):
        starts = [tracer.call("cli.eval", f"probe{j}", self.spawn, ["eval", "--fn", "b", "--n", "0"])
                  for j in range(5)]
        if any(s != (0, "1\n") for s in starts):
            raise RuntimeError(f"eval --fn b --n 0 gave {starts}")
        out = {"cli.start_ms": 1000 * statistics.median(tracer.durations("cli.eval"))}
        for kind in ("verify", "verify_workers2"):
            ops = {i for i, op in enumerate(self.ops) if op[0] == kind}
            checked = sum(int(self.ops[i][3]) + 1 for i in ops)
            out[f"cli.{kind}.n_per_s"] = checked / sum(tracer.durations(f"cli.{kind}", ops))
        return out


WORKLOADS = {w.name: w for w in (Counting, Graph, Cli)}
#: every per-layer metric at the default sizes, with its unit
LAYER_UNITS = {k: v for w in WORKLOADS.values() for k, v in w.layer_units.items()}


def make(name: str, seed: int, seconds: int) -> Workload:
    """The workload with as many whole rounds as fit ``seconds`` on a 2-CPU reference machine."""
    cls = WORKLOADS[name]
    return cls(seed, max(1, round(seconds / cls.round_seconds)))
