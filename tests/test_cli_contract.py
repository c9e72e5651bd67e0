"""Property test of the CLI error contract.

Every command, fed any file (well formed, slightly malformed, garbage or
with extreme numbers), ends with an exit code in {0, 1, 2, 3, 4} and lets
no exception escape `cli.main`. Most generated files are well formed, so
that the library code behind the parsers runs too. Files stay small: at
most three rows and columns, three schedule segments, five graph vertices
with edges (a plain-text graph may declare 10^8 or 10^15 vertices, which
drives the reduction into its cell cap).
"""

import json
import math
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from strategizer import DirectedGraph, fileio, reduce_hamiltonian
from strategizer.cli import main

EXTREMES = [0.0, 1e-300, 1e5, 1e16, 1e300, -1e300, math.inf, -math.inf, math.nan]
PLAIN = st.one_of(st.integers(-3, 3), st.floats(-2, 2))
NUMBER = st.one_of(PLAIN, st.sampled_from(EXTREMES))
JUNK_TOKEN = st.sampled_from(["x", "nan", "inf", "1e16", "1e300", "#", "[]"])
KEYS = st.sampled_from([
    "rows", "cols", "data", "a", "b", "mode", "segments", "count", "duration", "strategy",
    "cycle", "sequence", "k", "T", "labels", "normalized", "edges", "n_graph_vertices",
])
SCALAR = st.one_of(st.none(), st.booleans(), NUMBER, st.text("ab1-. ", max_size=3))
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)
GOOD_ARG = st.sampled_from(["1", "0.5", "2", "3"])
BAD_ARG = st.sampled_from(["0", "-1", "2.5", "nan", "inf", "1e308"])
FLAWS = st.sampled_from(["garbage", "number", "token", "short row", "field"])


def dump(obj):
    return json.dumps(obj)  # NaN and Infinity are written as bare tokens


def rarely(draw):
    """True for about one draw in four: the cue to break a well-formed file."""
    return draw(st.integers(0, 3)) == 3


def maybe(draw, good, bad=JSON):
    """Usually the well-formed value, sometimes an arbitrary JSON value."""
    return draw(bad) if rarely(draw) else good


def arg(draw):
    """A numeric flag value: usually valid, sometimes zero, negative,
    fractional, not finite or near the float limit."""
    return draw(BAD_ARG if rarely(draw) else GOOD_ARG)


@st.composite
def game_text(draw, n, m, general=True):
    """An n x m zero-sum matrix as text or JSON, or (if general) a
    general-sum JSON game; about one in four is broken in one place."""
    a, b = (draw(st.lists(st.lists(PLAIN, min_size=m, max_size=m), min_size=n, max_size=n))
            for _ in range(2))
    flaw = draw(FLAWS) if rarely(draw) else None
    if flaw == "garbage":
        return dump(draw(JSON))
    if flaw == "number":
        a[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(NUMBER)
    form = draw(st.sampled_from(["text", "json", "general"] if general else ["text", "json"]))
    if form == "text":
        rows = [[repr(float(v)) for v in row] for row in a]
        if flaw == "token":
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(JUNK_TOKEN)
        if flaw == "short row":
            rows[draw(st.integers(0, n - 1))].pop()
        return "\n".join(" ".join(row) for row in rows)
    obj = {"rows": n, "cols": m, "data": a}
    if flaw in ("token", "short row", "field"):
        obj[draw(st.sampled_from(["rows", "cols", "data"]))] = draw(JSON)
    if form == "general":
        obj = {"a": obj, "b": {"rows": n, "cols": m, "data": b}}
    return dump(obj)


@st.composite
def schedule_text(draw, n):
    """A discrete or continuous schedule of up to three segments over n
    actions; about one in four is broken in one place."""
    mode = draw(st.sampled_from(["discrete", "continuous"]))
    key = "count" if mode == "discrete" else "duration"
    lengths = st.integers(1, 3) if mode == "discrete" else st.floats(0.1, 3)
    segments = [
        {key: draw(lengths), "strategy": draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    obj = {"mode": mode, "segments": segments}
    if rarely(draw):
        target = draw(st.sampled_from([obj] + segments))
        target[draw(st.sampled_from(sorted(target) + ["strategy"]))] = draw(JSON)
    return dump(obj)


@st.composite
def graph_text(draw):
    """A plain-text or DOT graph with edges among up to five vertices,
    sometimes broken; a plain-text header sometimes declares a vertex count
    of 10^8 or 10^15 instead."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7, unique=True))
    if rarely(draw):  # a self-loop, a repeat, or a vertex out of range or not a number
        edges.append(draw(st.sampled_from([(1, 1), pairs[0], (0, 1), (1, n + 1), ("x", 1)])))
    if draw(st.booleans()):
        head = maybe(draw, str(n), st.sampled_from(["0", "-1", "x", "2.5"]))
        if rarely(draw):
            head = draw(st.sampled_from(["100000000", "1000000000000000"]))
        return "\n".join([head] + [f"{u} {v}" for u, v in edges])
    return "digraph {\n" + "\n".join(f"{u} -> {v};" for u, v in edges) + "\n}"


@st.composite
def witness_text(draw):
    """A cycle (a vertex order) or an edge sequence, sometimes broken."""
    key = draw(st.sampled_from(["cycle", "sequence"]))
    ids = draw(st.one_of(st.permutations(range(1, 6)), st.lists(st.integers(1, 7), max_size=7)))
    return dump({key: maybe(draw, ids)})


@st.composite
def instance_text(draw):
    """The reduction of a small graph, with one field sometimes replaced."""
    n = draw(st.integers(2, 4))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    obj = fileio.instance_to_json(reduce_hamiltonian(DirectedGraph(n, tuple(edges))))
    if rarely(draw):
        key = draw(st.sampled_from(sorted(obj) + sorted(obj["labels"])))
        (obj if key in obj else obj["labels"])[key] = draw(JSON)
    return dump(obj)


@st.composite
def invocation(draw):
    """(argv with {name} placeholders for files, {name: file text})."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    command = draw(st.sampled_from(["value", "plan", "simulate", "reduce", "verify", "brute"]))
    if command == "value":
        return ["value", "{game}"], {"game": draw(game_text(n, m, general=False))}
    if command == "plan":
        argv = ["plan", "{game}", "--eta", arg(draw), "--T", arg(draw)]
        return argv, {"game": draw(game_text(n, m))}
    if command == "simulate":
        files = {"game": draw(game_text(n, m))}
        schedule = draw(st.sampled_from(
            ["{schedule}", "{schedule}", "uniform", "pure:1", "pure:0", "constant-xstar",
             "alternating"]))
        if schedule == "{schedule}":
            files["schedule"] = draw(schedule_text(n))
        argv = ["simulate", "{game}", "--schedule", schedule,
                "--learner", draw(st.sampled_from(["mwu", "br", "replicator"])),
                "--eta", arg(draw), "--T", arg(draw), "--out", "{dir}/out"]
        if draw(st.booleans()):
            argv += ["--h0", "{h0}"]
            files["h0"] = draw(game_text(1, m, general=False))
        return argv, files
    if command == "reduce":
        argv = ["reduce", "{graph}", "--out", "{dir}/inst"]
        if draw(st.booleans()):
            argv.append("--normalize")
        return argv, {"graph": draw(graph_text())}
    if command == "verify":
        argv = ["verify", "{graph}", "{witness}", "--out", "{dir}/w.json"]
        return argv, {"graph": draw(graph_text()), "witness": draw(witness_text())}
    text = draw(st.one_of(graph_text(), instance_text()))
    return ["brute", "{input}", "--cap", "2000", "--out", "{dir}/w.json"], {"input": text}


def run_cli(argv, files):
    """Write the files to a fresh directory and run cli.main on them."""
    with tempfile.TemporaryDirectory() as tmp:
        names = {"dir": tmp}
        for name, text in files.items():
            names[name] = os.path.join(tmp, name)
            with open(names[name], "w") as fh:
                fh.write(text)
        return main([word.format(**names) for word in argv])


def null_row_label_instance():
    """The reduction of the 1-edge graph 1 -> 2 (k = T = 3) with labels.rows [null]."""
    obj = fileio.instance_to_json(reduce_hamiltonian(DirectedGraph(2, ((1, 2),))))
    obj["labels"]["rows"] = [None]
    return dump(obj)


@settings(max_examples=300, deadline=None)
@given(case=invocation())
@example(case=(["brute", "{input}", "--cap", "2000", "--out", "{dir}/w.json"],
               {"input": null_row_label_instance()}))
def test_exit_code_contract(case):
    code = run_cli(*case)
    event(f"{case[0][0]} exit {code}")
    assert code in {0, 1, 2, 3, 4}
