"""Hamiltonian-cycle hardness machinery for controlling a best-response learner.

A directed graph G(V, E) becomes a pure-action control instance: the
optimizer's actions are the edges, the learner's actions are the 2n columns
v_1..v_n, v_in_1..v_in_n, and the payoffs are chosen so that reaching total
reward k = T = n+1 against the lexicographic best-response learner is
possible exactly when G has a Hamiltonian cycle. Edge e = (v_j, u) pays the
learner -0.1 at v_1 (for j = 1) or -4 at v_j, +1 at u, and 0.85 at v_in_j.

All learner payoffs are integer multiples of 1/160 in both the raw and the
[0, 1]-normalized scale, so play-outs accumulate history in exact integer
arithmetic: tie-breaking is bit-reproducible by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import add, index

import numpy as np

from .errors import CapExceededError, InputError, PreconditionError

PAYOFF_DENOMINATOR = 160

# Most payoff cells (|E| rows times 2n columns) a reduction may build. An
# instance holds four such matrices (A, B and their integer forms) of 8 bytes
# a cell, 320 MB at this cap.
MAX_REDUCTION_CELLS = 10_000_000


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph with 1-based vertices and significant edge order.

    Edge j (0-based position in `edges`) becomes optimizer action j.
    """

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        try:
            n_vertices = index(self.n_vertices)
            pairs = [(index(u), index(v)) for u, v in self.edges]
        except (TypeError, ValueError) as exc:  # floats, strings, edges that are not pairs
            raise InputError(f"a graph needs an integer vertex count and (from, to) pairs of "
                             f"integer ids: {exc}") from None
        if n_vertices < 1:
            raise InputError("graph needs at least one vertex")
        seen = set()
        for u, v in pairs:
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise InputError(f"edge ({u},{v}) outside vertex range 1..{n_vertices}")
            if u == v:
                raise InputError(f"self-loop ({u},{v}) not allowed")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(pairs))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class OcdpInstance:
    """A (A, B, n, m, k, T) control instance plus the graph it reduces (None
    for an instance built directly from payoffs).

    Columns 0..n-1 are v_1..v_n and columns n..2n-1 are v_in_1..v_in_n; this
    ordering is what the learner's lexicographic tie-breaking acts on.
    Construction validates the instance and derives the exact integer forms
    play-outs use: a_int holds the 0/1 matrix A, b_int holds B scaled by 160.
    """

    a: np.ndarray
    b: np.ndarray
    k: int
    T: int
    row_labels: tuple
    col_labels: tuple
    graph: DirectedGraph | None
    normalized: bool
    a_int: np.ndarray = field(init=False, repr=False)
    b_int: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = (len(self.row_labels), len(self.col_labels))
        if not self.a.shape == self.b.shape == labels:
            raise InputError(
                f"shapes disagree: A {self.a.shape}, B {self.b.shape}, labels {labels}"
            )
        if not np.all((self.a == 0.0) | (self.a == 1.0)):
            raise InputError("optimizer payoffs A must all be 0 or 1")
        if not (self.k >= 1 and self.T >= 1):
            raise InputError(f"k and T must be positive, got k = {self.k}, T = {self.T}")
        scaled = self.b * PAYOFF_DENOMINATOR
        b_int = np.rint(scaled).astype(np.int64)
        if np.max(np.abs(scaled - b_int)) > 1e-9:
            raise InputError(
                f"learner payoffs are not multiples of 1/{PAYOFF_DENOMINATOR}; "
                "exact play-out unavailable"
            )
        object.__setattr__(self, "a_int", self.a.astype(np.int64))
        object.__setattr__(self, "b_int", b_int)

    @property
    def n_actions_opt(self) -> int:
        return self.a.shape[0]

    @property
    def n_actions_learner(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class OcdpPlayout:
    """Deterministic play-out of a pure action sequence.

    history_trace row t is h after round t (row 0 is the all-zero start).
    """

    sequence: tuple
    learner_actions: tuple
    history_trace: np.ndarray
    total_reward: int


def reduce_hamiltonian(g: DirectedGraph) -> OcdpInstance:
    """Build the control instance whose optimal reward is n+1 iff G has a
    Hamiltonian cycle.

    A[e, v_j] = 1 iff e leaves v_j (0 against every v_in). B pays the source
    vertex -0.1 (v_1) or -4, the target vertex +1, and the source's v_in
    column 0.85. k = T = n+1. Runs in O(|E| * n); raises CapExceededError
    before allocating when |E| * 2n exceeds MAX_REDUCTION_CELLS.
    """
    if g.n_edges == 0:
        raise InputError("empty graph: the reduction needs at least one edge")
    n = g.n_vertices
    m = g.n_edges
    if m * 2 * n > MAX_REDUCTION_CELLS:
        raise CapExceededError(
            f"reducing {n} vertices / {m} edges needs {m * 2 * n} payoff cells, "
            f"more than the {MAX_REDUCTION_CELLS} a reduction builds"
        )
    a = np.zeros((m, 2 * n))
    b = np.zeros((m, 2 * n))
    for i, (u, v) in enumerate(g.edges):
        a[i, u - 1] = 1.0
        b[i, u - 1] = -0.1 if u == 1 else -4.0
        b[i, v - 1] = 1.0
        b[i, n + u - 1] = 0.85
    a.flags.writeable = False
    b.flags.writeable = False
    row_labels = tuple(f"e_{i + 1}" for i in range(m))
    col_labels = tuple(f"v_{j + 1}" for j in range(n)) + tuple(
        f"v_in_{j + 1}" for j in range(n)
    )
    return OcdpInstance(
        a=a,
        b=b,
        k=n + 1,
        T=n + 1,
        row_labels=row_labels,
        col_labels=col_labels,
        graph=g,
        normalized=False,
    )


def normalize_payoffs(inst: OcdpInstance) -> OcdpInstance:
    """Map B into [0, 1] via b -> (b + 4)/8; A is untouched.

    The map is the same positive affine transformation for every entry, so
    the learner's argmax (including exact ties) is unchanged and play-outs
    produce identical action sequences.
    """
    if inst.normalized:
        raise PreconditionError("instance payoffs are already normalized")
    b = (inst.b + 4.0) / 8.0
    b.flags.writeable = False
    return dataclasses.replace(inst, b=b, normalized=True)


def play_ocdp(inst: OcdpInstance, sequence) -> OcdpPlayout:
    """Play a pure action sequence against the best-response learner.

    The learner starts from zero history and plays the lexicographically
    first argmax of the history before each round, the rule `respond` uses
    for best response; history arithmetic is exact (integers scaled by 160),
    so ties behave identically on raw and normalized instances. Every action
    index must be an integer (Python or numpy).
    """
    try:
        seq = tuple(map(index, sequence))
    except TypeError as exc:
        raise InputError(f"action indices must be integers: {exc}") from None
    if len(seq) != inst.T:
        raise InputError(f"sequence has {len(seq)} actions, horizon T is {inst.T}")
    for r in seq:
        if not 0 <= r < inst.n_actions_opt:
            raise InputError(f"action index {r} outside 0..{inst.n_actions_opt - 1}")
    rows = np.array(seq, dtype=np.intp)
    trace = np.zeros((inst.T + 1, inst.n_actions_learner), dtype=np.int64)
    np.cumsum(inst.b_int[rows], axis=0, out=trace[1:])
    actions = np.argmax(trace[:-1], axis=1)
    return OcdpPlayout(
        sequence=seq,
        learner_actions=tuple(actions.tolist()),
        history_trace=trace / PAYOFF_DENOMINATOR,
        total_reward=int(inst.a_int[rows, actions].sum()),
    )


def playout_labels(inst: OcdpInstance, playout: OcdpPlayout) -> list:
    """Learner action labels (v_j / v_in_j) for a play-out, in order."""
    return [inst.col_labels[j] for j in playout.learner_actions]


@dataclass(frozen=True)
class CycleCheck:
    ok: bool
    reason: str
    sequence: tuple | None = None
    playout: OcdpPlayout | None = None


def verify_cycle(inst: OcdpInstance, cycle_vertices) -> CycleCheck:
    """Check a vertex list is a Hamiltonian cycle of the graph `inst` reduces
    and play its edge sequence.

    The list is rotated to start at vertex 1, validated (spanning, distinct,
    consecutive edges exist, closes), and converted into the n+1 optimizer
    actions (cycle edges then the first edge again). Vertex ids must be
    integers (Python or numpy). The play-out is asserted to earn exactly n+1.
    """
    try:
        cycle = list(map(index, cycle_vertices))
    except TypeError as exc:
        raise InputError(f"cycle vertex ids must be integers: {exc}") from None
    g = inst.graph
    n = g.n_vertices
    if len(cycle) != n or len(set(cycle)) != n or any(
        not 1 <= v <= n for v in cycle
    ):
        return CycleCheck(ok=False, reason="not spanning")
    start = cycle.index(1)
    cycle = cycle[start:] + cycle[:start]
    rows = {e: i for i, e in enumerate(g.edges)}
    seq = []
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        if (u, v) not in rows:
            return CycleCheck(ok=False, reason=f"missing edge ({u},{v})")
        seq.append(rows[(u, v)])
    seq.append(seq[0])
    playout = play_ocdp(inst, seq)
    if playout.total_reward != n + 1:
        raise RuntimeError(
            "reduction invariant violated: a Hamiltonian cycle play-out must "
            f"earn n+1, got {playout.total_reward}"
        )
    return CycleCheck(ok=True, reason="ok", sequence=tuple(seq), playout=playout)


def extract_cycle(inst: OcdpInstance, playout: OcdpPlayout, g: DirectedGraph) -> list | None:
    """Recover the Hamiltonian cycle a witness play-out traces, or None.

    A play-out is a witness when it earns at least k and earns every one of
    the reduction's T = n+1 rounds; its first n actions then trace the edges
    of a Hamiltonian cycle starting at vertex 1.
    """
    reward = playout.total_reward
    n = g.n_vertices
    if not (reward >= inst.k and reward == inst.T == n + 1):
        return None
    cycle = [1]
    for r in playout.sequence[:n]:
        u, v = g.edges[r]
        if u != cycle[-1]:
            raise RuntimeError(
                "reduction invariant violated: witness actions do not trace a path"
            )
        cycle.append(v)
    if cycle[-1] != 1 or len(set(cycle[:-1])) != n:
        raise RuntimeError(
            "reduction invariant violated: witness path is not a Hamiltonian cycle"
        )
    return cycle[:-1]


def brute_force_ocdp(inst: OcdpInstance, cap: int = 10_000_000):
    """Exhaustive maximum reward over all pure action sequences.

    Depth-first search over an explicit stack, in lexicographic order, with
    the admissible cut "each remaining round adds at most 1". A node that
    cannot beat the incumbent with a round to spare pushes only the children
    that pay against its learner column j, the first argmax of its history.
    A pending child holds its parent's history (a tuple of exact integers),
    prefix, action and reward; it is cut again when popped and builds its
    own history only if it survives. Leaves are not pushed: the last round
    is scored at its parent, by the first row paying at j, else action 0.

    The search runs in passes under a galloping floor f = T-1, T-2, T-4,
    ..., then -1; doubling the drop keeps a long horizon at O(T)
    histories, where stepping down by one would cost about T^2/2. A pass
    seeds the incumbent at f with no sequence, so its cuts prune every
    subtree that cannot beat f from the first node on, and it stops once
    the incumbent reaches the floor of the pass before (T for the first),
    which that pass proved the maximum cannot exceed. A pass that finds
    nothing proves max <= f. A pass with f below the maximum returns it
    with its first maximizing sequence in lexicographic order: nothing
    earlier reaches the maximum, so no cut removes one of its prefixes.

    A finished subtree leaves a bound: the reward still to come depends only
    on the history and the depth, and reordered prefixes reach the same
    history. A marker beneath a node's children pops once they are done; if
    best - reward is below the T - depth rounds left, it is recorded in a
    per-depth table keyed on the history. No completion of that subtree
    beat best, whatever floor seeded it, so an entry is a true bound in
    every later pass too, and one recorded again is never looser. A popped
    child that survives the cut is cut again when its reward plus its bound
    cannot beat the incumbent. The tables keep at most one entry per
    history built (and the root's), 300-500 bytes each for n = 6-10: up to
    3-5 GB at the default cap.

    `cap` bounds the histories built over all passes (one per surviving
    node at depths 1..T-1), and CapExceededError is raised once the count
    passes it. Returns (max_reward, first maximizing sequence in
    lexicographic order).
    """
    if not cap >= 1:
        raise InputError(f"the brute-force cap must be at least 1, got {cap}")
    big_t = inst.T
    b_rows = [tuple(row) for row in inst.b_int.tolist()]
    a_cols = inst.a_int.T.tolist()
    # children are pushed in reverse so that they pop in lexicographic order
    actions = range(inst.n_actions_opt - 1, -1, -1)
    pays = [[s for s in actions if col[s]] for col in a_cols]
    built, bounds, ceiling, drop = 0, {}, big_t, 1
    while True:
        floor = max(big_t - drop, -1)
        best, best_seq, stack = floor, None, []
        # the root: the learner opens with column 0, the first argmax of the zero history
        h, prefix, reward = (0,) * inst.n_actions_learner, (), 0
        while True:
            depth = len(prefix)
            j = h.index(max(h))
            if depth == big_t - 1:
                last = pays[j][-1] if pays[j] else 0
                if reward + a_cols[j][last] > best:
                    best, best_seq = reward + a_cols[j][last], prefix + (last,)
                    if best == ceiling:
                        break
            else:
                # the marker pops once every child below it is finished; children
                # go in from lists, which extend takes faster than generators
                stack.append((h, prefix, None, reward))
                if reward + (big_t - depth - 1) <= best:
                    stack.extend([(h, prefix, s, reward + 1) for s in pays[j]])
                else:
                    col = a_cols[j]
                    stack.extend([(h, prefix, s, reward + col[s]) for s in actions])
            while stack:
                h, prefix, r, reward = stack.pop()
                depth = len(prefix)
                if r is None:
                    # no completion of this subtree beats best - reward
                    if best - reward < big_t - depth:
                        bounds.setdefault(depth, {})[h] = best - reward
                elif reward + (big_t - depth - 1) > best:
                    built += 1
                    if built > cap:
                        raise CapExceededError(f"brute force built more than the cap of {cap} histories")
                    h = tuple(map(add, h, b_rows[r]))
                    prefix += (r,)
                    table = bounds.get(depth + 1)
                    if not table or reward + table.get(h, big_t) > best:
                        break
            else:
                break
        if best_seq is not None:
            return best, best_seq
        ceiling, drop = floor, 2 * drop
