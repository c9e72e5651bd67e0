"""File formats shared repo-wide, plus a deterministic JSON emitter.

Matrix files: JSON {"rows": n, "cols": m, "data": [[...], ...]} row-major,
or plain text with one row of space-separated decimals per line. Zero-sum
games may supply only A; B is materialized as -A. Graphs: plain text
("n_vertices" then one "from to" pair per line, 1-indexed) or a DOT subset
(digraph with bare integer node ids). Floats serialize with 17 significant
digits and fixed field order so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import InputError
from .games import BimatrixGame, as_matrix
from .learners import Schedule, Trajectory
from .ocdp import DirectedGraph, OcdpInstance, normalize_payoffs, reduce_hamiltonian


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Serialize with 17-significant-digit floats and insertion-ordered keys."""
    out = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _emit(obj, out):
    if obj is None or obj is True or obj is False:
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


def atomic_write(path: str, text: str):
    """Write-temp-then-rename so files never appear half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    m = as_matrix(data)
    if m.shape != (rows, cols):
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
    JSON object yields a general-sum game."""
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
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, text: str | None = None):
    """Parse the JSON file at path (or its text, if already read)."""
    try:
        return json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# --- schedules ---------------------------------------------------------------

def schedule_from_json(obj) -> Schedule:
    try:
        mode = obj["mode"]
        segments = obj["segments"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"schedule JSON needs mode and segments: {exc}") from exc
    if not isinstance(segments, list):
        raise InputError("schedule segments must be a list")
    key = "count" if mode == "discrete" else "duration"
    lengths, strategies = [], []
    for i, seg in enumerate(segments):
        try:
            lengths.append(seg[key])
            strategies.append(seg["strategy"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"schedule segment {i} needs {key} and strategy: {exc}") from exc
    return Schedule(mode, lengths, strategies)


def schedule_to_json(schedule: Schedule) -> dict:
    key = "count" if schedule.mode == "discrete" else "duration"
    return {
        "mode": schedule.mode,
        "segments": [
            {key: length, "strategy": x}
            for length, x in zip(schedule.lengths.tolist(), schedule.strategies.tolist())
        ],
    }


def read_schedule(path: str) -> Schedule:
    return schedule_from_json(_read_json(path))


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
    body = text[text.index("{") + 1: text.rindex("}")] if "{" in text else text
    edges = []
    max_vertex = 0
    for ln, raw in enumerate(body.splitlines(), start=1):
        stripped = raw.strip().rstrip(";").strip()
        if not stripped or stripped.startswith("//"):
            continue
        if "->" in stripped:
            chain = [tok.strip() for tok in stripped.split("->")]
            try:
                ids = [int(tok) for tok in chain]
            except ValueError:
                raise InputError(
                    f"{path}: DOT line {ln}: only bare integer node ids are supported"
                ) from None
            for u, v in zip(ids, ids[1:]):
                edges.append((u, v))
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
            "edges": [list(e) for e in inst.edges],
            "n_graph_vertices": inst.n_graph_vertices,
        },
    }


def _whole_number(value, name: str) -> int:
    """A JSON integer, or a float without a fractional part, as an int."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise InputError(f"instance field {name!r} must be a whole number, got {value!r}")
    return int(value)


def instance_from_json(obj) -> OcdpInstance:
    """Read an instance; its payoffs must be the reduction of the graph its
    labels name (normalized when flagged), row for row."""
    try:
        labels = obj["labels"]
        inst = OcdpInstance(
            a=matrix_from_json(obj["a"]),
            b=matrix_from_json(obj["b"]),
            k=_whole_number(obj["k"], "k"),
            T=_whole_number(obj["T"], "T"),
            row_labels=tuple(labels["rows"]),
            col_labels=tuple(labels["cols"]),
            edges=tuple(
                tuple(_whole_number(v, "labels.edges") for v in e) for e in labels["edges"]
            ),
            n_graph_vertices=_whole_number(labels["n_graph_vertices"], "n_graph_vertices"),
            normalized=bool(obj["normalized"]),
        )
        reduced = reduce_hamiltonian(DirectedGraph(inst.n_graph_vertices, inst.edges))
    except KeyError as exc:
        raise InputError(f"instance JSON needs field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from exc
    if inst.normalized:
        reduced = normalize_payoffs(reduced)
    if inst.a.shape != reduced.a.shape:
        raise InputError(
            f"labels.edges name {len(inst.edges)} edges on {inst.n_graph_vertices} vertices, "
            f"which reduce to a {reduced.a.shape} instance, but A is {inst.a.shape}"
        )
    wrong = (inst.a_int != reduced.a_int).any(axis=1) | (inst.b_int != reduced.b_int).any(axis=1)
    if wrong.any():
        row = int(np.argmax(wrong))
        raise InputError(
            f"labels.edges do not match the payoffs: row {row + 1} of A and B does not "
            f"encode edge {inst.edges[row]}"
        )
    return inst


def read_instance(path: str) -> OcdpInstance:
    return instance_from_json(_read_json(path))


def read_instance_or_graph(path: str) -> OcdpInstance:
    """A JSON object is read as an instance; anything else is a graph,
    returned as its reduced instance."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return instance_from_json(_read_json(path, text))
    return reduce_hamiltonian(read_graph(path))


def read_witness(path: str) -> dict:
    """A witness file holds {"cycle": [vertices]} and/or {"sequence": [edge ids]}
    with 1-based integer ids; a null field counts as absent."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or (obj.get("cycle") is None and obj.get("sequence") is None):
        raise InputError(f"{path}: witness JSON needs a 'cycle' or 'sequence' field")
    for key in ("cycle", "sequence"):
        ids = obj.get(key)
        if not (ids is None or isinstance(ids, list) and all(type(v) is int for v in ids)):
            raise InputError(f"{path}: witness '{key}' must be a list of integers")
    return obj


# --- trajectories ---------------------------------------------------------------

def trajectory_csv(traj: Trajectory) -> str:
    m = traj.learner_strategy.shape[1] if traj.rounds else 0
    header = "t,opt_reward,learner_reward,opt_total," + ",".join(
        f"y_{j + 1}" for j in range(m)
    )
    lines = [header.rstrip(",")]
    running = 0.0
    for i in range(traj.rounds):
        running += float(traj.optimizer_reward[i])
        cells = [
            format_float(float(traj.t[i])),
            format_float(float(traj.optimizer_reward[i])),
            format_float(float(traj.learner_reward[i])),
            format_float(running),
        ]
        cells.extend(format_float(float(v)) for v in traj.learner_strategy[i])
        lines.append(",".join(cells))
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
