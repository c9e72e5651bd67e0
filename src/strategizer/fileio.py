"""File formats shared repo-wide, plus a deterministic JSON emitter.

Matrix files: JSON {"rows": n, "cols": m, "data": [[...], ...]} row-major,
or plain text with one row of space-separated decimals per line. Zero-sum
games may supply only A; B is materialized as -A. A two-matrix file whose B
is exactly -A is zero-sum too. Graphs: plain text
("n_vertices" then one "from to" pair per line, 1-indexed) or a DOT subset
(digraph with bare integer node ids). Floats serialize with 17 significant
digits and fixed field order so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from itertools import chain

import numpy as np

from .errors import InputError
from .games import BimatrixGame, _floats, as_matrix
from .learners import Schedule, Trajectory
from .ocdp import DirectedGraph, OcdpInstance, normalize_payoffs, reduce_hamiltonian


def format_float(x, template: str = "%.17g") -> str:
    """x by a template of "%.17g" fields (x a tuple if several); non-finite x is refused."""
    text = template % x
    if "n" in text:  # "%.17g" spells only inf and nan with an n
        raise InputError("cannot serialize non-finite float")
    return text


def canonical_json(obj) -> str:
    """Serialize with 17-significant-digit floats and insertion-ordered keys."""
    out = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _float_row(width: int) -> str:
    return "[" + ", ".join(["%.17g"] * width) + "]"


def _float_array(obj) -> str | None:
    """The JSON text of a list of floats, or of equally long lists of floats,
    formatted by one "%.17g" template in one call (the bytes format_float
    gives each value); None for any other list."""
    kinds = set(map(type, obj))
    if kinds == {float}:
        template, values = _float_row(len(obj)), obj
    elif kinds == {list} and len(set(map(len, obj))) == 1:
        values = list(chain.from_iterable(obj))
        if not values or set(map(type, values)) != {float}:
            return None
        template = "[" + ", ".join([_float_row(len(obj[0]))] * len(obj)) + "]"
    else:
        return None
    return format_float(tuple(values), template)


def _emit(obj, out):
    if type(obj) in (list, tuple) and (text := _float_array(obj)) is not None:
        out.append(text)
    elif obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def atomic_write(*files):
    """Write each (path, text) pair to a temp file beside it, then rename all
    into place, so files never appear half-written. A path that cannot be
    written (a missing directory, a directory) raises InputError and leaves
    no temp file and no file of this call behind. Files get the mode that
    `open(path, "w")` gives: 0o666 less the umask."""
    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    temps, renamed = [], []
    try:
        for path, text in files:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", text=True)
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException as exc:
        for p in temps + renamed:
            if os.path.lexists(p):
                os.unlink(p)
        if isinstance(exc, OSError):
            # strerror leaves out the temp file's name, which the user never chose
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# --- matrices ---------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"matrix JSON needs rows/cols/data: {exc}") from exc
    field = "matrix JSON field {!r} must be a whole number".format
    m = as_matrix(data)
    if m.shape != (_whole_number(rows, field("rows")), _whole_number(cols, field("cols"))):
        raise InputError(
            f"matrix JSON declares {rows}x{cols} but data is {m.shape[0]}x{m.shape[1]}"
        )
    return m


def _parse_matrix_text(text: str, path: str) -> np.ndarray:
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values = []
        for col, token in enumerate(stripped.split(), start=1):
            try:
                values.append(float(token))
            except ValueError:
                raise InputError(
                    f"{path}: line {ln}, column {col}: not a number: {token!r}"
                ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InputError(
                f"{path}: line {ln}: expected {width} values, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no matrix rows found")
    return as_matrix(rows)


def read_matrix(path: str) -> np.ndarray:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return matrix_from_json(_read_json(path, text))
    return _parse_matrix_text(text, path)


def read_game(path: str) -> BimatrixGame:
    """A matrix file yields the zero-sum game B = -A; an {"a":..., "b":...}
    JSON object yields the game (A, B), zero-sum when B = -A exactly."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        obj = _read_json(path, text)
        if "a" in obj and "b" in obj:
            return BimatrixGame(matrix_from_json(obj["a"]), matrix_from_json(obj["b"]))
        return BimatrixGame.from_zero_sum(matrix_from_json(obj))
    return BimatrixGame.from_zero_sum(_parse_matrix_text(text, path))


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one not UTF-8 text
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, text: str | None = None):
    """Parse the JSON file at path (or its text, if already read)."""
    try:
        return json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # json's int() refuses an integer of over 4,300 digits
        raise InputError(f"{path}: {exc}") from exc


# --- schedules ---------------------------------------------------------------

def read_schedule(path: str) -> Schedule:
    obj = _read_json(path)
    try:
        mode = obj["mode"]
        segments = obj["segments"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"schedule JSON needs mode and segments: {exc}") from exc
    key = {"discrete": "count", "continuous": "duration"}.get(mode) if type(mode) is str else None
    if key is None:  # Schedule refuses the mode before any segment is read
        return Schedule(mode, [], [])
    if not isinstance(segments, list):
        raise InputError("schedule segments must be a list")
    lengths, strategies = [], []
    for i, seg in enumerate(segments):
        try:
            lengths.append(seg[key])
            strategies.append(seg["strategy"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"schedule segment {i} needs {key} and strategy: {exc}") from exc
    return Schedule(mode, lengths, strategies)


# --- graphs -------------------------------------------------------------------

def _parse_graph_text(text: str, path: str) -> DirectedGraph:
    lines = [
        (ln, line.strip())
        for ln, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise InputError(f"{path}: empty graph file")
    ln0, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise InputError(f"{path}: line {ln0}: expected vertex count, got {first!r}") from None
    edges = []
    for ln, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}: line {ln}: expected 'from to', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(f"{path}: line {ln}: vertex ids must be integers") from None
    return DirectedGraph(n_vertices=n, edges=tuple(edges))


def _parse_graph_dot(text: str, path: str) -> DirectedGraph:
    start, end = text.find("{"), text.rfind("}")
    if not 0 <= start < end:
        raise InputError(f"{path}: DOT graph needs its statements between {{ and }}")
    edges = []
    max_vertex = 0
    first_line = text.count("\n", 0, start) + 1  # the file line that holds the {
    for ln, raw in enumerate(text[start + 1:end].splitlines(), start=first_line):
        for stmt in raw.split(";"):
            stripped = stmt.strip()
            if stripped.startswith("//"):  # a comment runs to the end of the line
                break
            if not stripped:
                continue
            if "->" in stripped:
                chain = [tok.strip() for tok in stripped.split("->")]
                try:
                    ids = [int(tok) for tok in chain]
                except ValueError:
                    raise InputError(
                        f"{path}: DOT line {ln}: only bare integer node ids are supported"
                    ) from None
                edges += zip(ids, ids[1:])
                max_vertex = max(max_vertex, *ids)
            else:
                try:
                    max_vertex = max(max_vertex, int(stripped))
                except ValueError:
                    raise InputError(
                        f"{path}: DOT line {ln}: unsupported statement {stripped!r}"
                    ) from None
    if max_vertex == 0:
        raise InputError(f"{path}: DOT graph declares no vertices")
    return DirectedGraph(n_vertices=max_vertex, edges=tuple(edges))


def read_graph(path: str) -> DirectedGraph:
    text = _read_text(path)
    if text.lstrip().startswith("digraph"):
        return _parse_graph_dot(text, path)
    return _parse_graph_text(text, path)


# --- instances and witnesses ---------------------------------------------------

def instance_to_json(inst: OcdpInstance) -> dict:
    return {
        "a": matrix_to_json(inst.a),
        "b": matrix_to_json(inst.b),
        "k": inst.k,
        "T": inst.T,
        "normalized": inst.normalized,
        "labels": {
            "rows": list(inst.row_labels),
            "cols": list(inst.col_labels),
            "edges": [list(e) for e in inst.graph.edges],
            "n_graph_vertices": inst.graph.n_vertices,
        },
    }


def _whole_number(value, what: str) -> int:
    """value, a number by games' rule with no fractional part, as an int; errors start with what."""
    x = _floats(value, InputError, what)
    if not (x.ndim == 0 and float(x).is_integer()):  # inf, from a huge int, is not
        raise InputError(f"{what}, got {value!r}")
    return int(value)


def instance_from_json(obj) -> OcdpInstance:
    """Read an instance as the reduction (normalized when flagged) of the
    graph its labels name, with the file's k and T. Its A, B, row labels and
    column labels must be that reduction's exactly."""
    try:
        labels = obj["labels"]
        a, b = matrix_from_json(obj["a"]), matrix_from_json(obj["b"])
        field = "instance field {!r} must be a whole number".format
        k, T = _whole_number(obj["k"], field("k")), _whole_number(obj["T"], field("T"))
        names = list(labels["rows"]), list(labels["cols"])
        normalized = obj["normalized"]
        graph = DirectedGraph(
            _whole_number(labels["n_graph_vertices"], field("n_graph_vertices")),
            tuple(tuple(_whole_number(v, field("labels.edges")) for v in e)
                  for e in labels["edges"]),
        )
    except KeyError as exc:
        raise InputError(f"instance JSON needs field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from exc
    if type(normalized) is not bool:
        raise InputError(f"instance field 'normalized' must be true or false, got {normalized!r}")
    shape = (graph.n_edges, 2 * graph.n_vertices)  # checked before the reduction is built
    if not a.shape == b.shape == shape:
        raise InputError(
            f"labels.edges name {graph.n_edges} edges on {graph.n_vertices} vertices, "
            f"which reduce to a {shape} instance, but A has shape {a.shape} and B {b.shape}"
        )
    reduced = reduce_hamiltonian(graph)
    if normalized:
        reduced = normalize_payoffs(reduced)
    wrong = (a != reduced.a).any(axis=1) | (b != reduced.b).any(axis=1)
    if wrong.any():
        row = int(np.argmax(wrong))
        raise InputError(
            f"labels.edges do not match the payoffs: row {row + 1} of A and B does not "
            f"encode edge {graph.edges[row]}"
        )
    if names != (list(reduced.row_labels), list(reduced.col_labels)):
        raise InputError("labels.rows and labels.cols are not the reduction's e_i, v_j and v_in_j")
    return dataclasses.replace(reduced, k=k, T=T)


def read_instance_or_graph(path: str) -> OcdpInstance:
    """A JSON object is read as an instance; anything else is a graph,
    returned as its reduced instance."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return instance_from_json(_read_json(path, text))
    return reduce_hamiltonian(read_graph(path))


def read_witness(path: str) -> dict:
    """A witness file holds {"cycle": [vertices]} and/or {"sequence": [edge ids]}
    with 1-based whole-number ids, read as ints; a null field counts as absent."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or (obj.get("cycle") is None and obj.get("sequence") is None):
        raise InputError(f"{path}: witness JSON needs a 'cycle' or 'sequence' field")
    for key in ("cycle", "sequence"):
        ids, what = obj.get(key), f"{path}: witness '{key}' must be a list of integers"
        if isinstance(ids, list):
            obj[key] = [_whole_number(v, what) for v in ids]
        elif ids is not None:
            raise InputError(f"{what}, got {ids!r}")
    return obj


# --- trajectories ---------------------------------------------------------------

_CSV_CHUNK_ROWS = 4096


def trajectory_csv(traj: Trajectory) -> str:
    """One row per round: t, both rewards, the optimizer's running total, y."""
    m = traj.learner_strategy.shape[1] if traj.rounds else 0
    header = "t,opt_reward,learner_reward,opt_total," + ",".join(
        f"y_{j + 1}" for j in range(m)
    )
    lines = [header.rstrip(",")]
    if traj.rounds:
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            # accumulated in round order; + 0.0 prints a leading -0.0 total as 0
            running = np.cumsum(traj.optimizer_reward, dtype=float) + 0.0
        table = np.column_stack([
            traj.t, traj.optimizer_reward, traj.learner_reward, running, traj.learner_strategy,
        ])
        row = ",".join(["%.17g"] * table.shape[1])
        for start in range(0, traj.rounds, _CSV_CHUNK_ROWS):
            chunk = table[start:start + _CSV_CHUNK_ROWS]
            lines.append(format_float(tuple(chunk.ravel().tolist()), "\n".join([row] * len(chunk))))
    return "\n".join(lines) + "\n"


def trajectory_json(traj: Trajectory) -> dict:
    return {
        "mode": traj.mode,
        "totals": {"optimizer": traj.totals[0], "learner": traj.totals[1]},
        "t": traj.t.tolist(),
        "optimizer_strategy": traj.optimizer_strategy.tolist(),
        "learner_strategy": traj.learner_strategy.tolist(),
        "optimizer_reward": traj.optimizer_reward.tolist(),
        "learner_reward": traj.learner_reward.tolist(),
        "h_after": traj.h_after.tolist(),
    }
