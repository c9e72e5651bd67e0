import dataclasses
import itertools
import operator

import numpy as np
import pytest

from strategizer import (
    BEST_RESPONSE,
    BimatrixGame,
    CapExceededError,
    DirectedGraph,
    InputError,
    PreconditionError,
    Schedule,
    brute_force_ocdp,
    extract_cycle,
    normalize_payoffs,
    play_ocdp,
    playout_labels,
    reduce_hamiltonian,
    simulate,
    verify_cycle,
)
from strategizer import ocdp
from strategizer.acceptance import (
    EXAMPLE_A,
    EXAMPLE_B,
    EXAMPLE_HISTORY,
    EXAMPLE_LEARNER_LABELS,
    EXAMPLE_SEQUENCE,
    find_hamiltonian_cycle,
)

CYCLE = [1, 5, 2, 4, 3]


def random_graph(rng, n, n_edges):
    """n_edges distinct non-loop edges on n vertices, in random order."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    take = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return DirectedGraph(n, tuple(pairs[i] for i in take))


def loop_playout(inst, seq):
    """Round-by-round reference play-out: (learner actions, history trace,
    total reward)."""
    h = np.zeros(inst.n_actions_learner, dtype=np.int64)
    trace = np.zeros((inst.T + 1, inst.n_actions_learner), dtype=np.int64)
    actions = []
    total = 0
    for t, r in enumerate(seq, start=1):
        j = int(np.argmax(h))
        actions.append(j)
        total += int(inst.a_int[r, j])
        h = h + inst.b_int[r]
        trace[t] = h
    return tuple(actions), trace.astype(float) / ocdp.PAYOFF_DENOMINATOR, total


def exhaustive_best(inst):
    """Score every sequence with a pure-integer play-out and keep the
    lexicographically first maximum: (max reward, sequence)."""
    b_rows, a01 = inst.b_int.tolist(), inst.a_int.tolist()
    best, best_seq = -1, None
    for seq in itertools.product(range(inst.n_actions_opt), repeat=inst.T):
        h = [0] * inst.n_actions_learner
        reward = 0
        for r in seq:
            reward += a01[r][h.index(max(h))]
            h = [x + y for x, y in zip(h, b_rows[r])]
        if reward > best:
            best, best_seq = reward, seq
    return best, best_seq


def unmemoised_search(inst):
    """The brute-force search as it was before finished subtrees recorded
    bounds: the same DFS, cuts and last-round scoring, no table. Returns
    (max reward, first maximizing sequence, number of histories built)."""
    big_t = inst.T
    b_rows = [tuple(row) for row in inst.b_int.tolist()]
    a_cols = inst.a_int.T.tolist()
    actions = range(inst.n_actions_opt - 1, -1, -1)
    pays = [[s for s in actions if col[s]] for col in a_cols]
    best, best_seq, built, stack = -1, (), 0, []
    h, prefix, reward = (0,) * inst.n_actions_learner, (), 0
    while True:
        depth = len(prefix)
        j = h.index(max(h))
        if depth == big_t - 1:
            last = pays[j][-1] if pays[j] else 0
            if reward + a_cols[j][last] > best:
                best, best_seq = reward + a_cols[j][last], prefix + (last,)
                if best == big_t:
                    break
        elif reward + (big_t - depth - 1) <= best:
            stack.extend((h, prefix, s, reward + 1) for s in pays[j])
        else:
            col = a_cols[j]
            stack.extend((h, prefix, s, reward + col[s]) for s in actions)
        while stack:
            h, prefix, r, reward = stack.pop()
            if reward + (big_t - len(prefix) - 1) > best:
                break
        else:
            break
        built += 1
        h = tuple(map(operator.add, h, b_rows[r]))
        prefix += (r,)
    return best, best_seq, built


def histories_built(inst, most):
    """The smallest cap brute_force_ocdp answers `inst` under, found by
    bisection over 1..most; `most` must be a cap it answers under."""
    low = 1
    while low < most:
        mid = (low + most) // 2
        try:
            brute_force_ocdp(inst, cap=mid)
            most = mid
        except CapExceededError:
            low = mid + 1
    return most


def every_small_graph():
    """Every labelled digraph with 2, 3 and 4 vertices (3 + 63 + 4,095)."""
    for n in (2, 3, 4):
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            yield DirectedGraph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def pop_cut_search(inst):
    """The brute-force search with its cut checked only as an entry is popped
    and every child pushed: (max reward, first maximizing sequence, number
    of histories built)."""
    big_t, b_rows, a01 = inst.T, inst.b_int.tolist(), inst.a_int.tolist()
    actions = range(inst.n_actions_opt - 1, -1, -1)
    best, best_seq, built = -1, (), 0
    stack = [((0,) * inst.n_actions_learner, (), r, a01[r][0]) for r in actions]
    while stack:
        h, prefix, r, reward = stack.pop()
        depth = len(prefix) + 1
        if reward + (big_t - depth) <= best:
            continue
        prefix += (r,)
        if depth == big_t:
            best, best_seq = reward, prefix
            if best == big_t:
                break
            continue
        built += 1
        h = tuple(x + y for x, y in zip(h, b_rows[r]))
        j = h.index(max(h))
        stack.extend((h, prefix, s, reward + a01[s][j]) for s in actions)
    return best, best_seq, built


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError, match="self-loop"):
            DirectedGraph(2, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(InputError, match="duplicate"):
            DirectedGraph(2, ((1, 2), (1, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match="outside"):
            DirectedGraph(2, ((1, 3),))

    @pytest.mark.parametrize("n, edges", [
        (3, ((1.7, 2), (2, 3.2), (3, 1))),
        (2.5, ((1, 2),)),
        ("3", ((1, 2),)),
        (3, ((1, "2"),)),
        (3, ((1, 2, 3),)),
    ], ids=["float-ids", "float-count", "string-count", "string-id", "triple"])
    def test_non_integer_input_rejected(self, n, edges):
        with pytest.raises(InputError, match="integer vertex count and .from, to. pairs"):
            DirectedGraph(n, edges)

    def test_numpy_integers_accepted(self):
        g = DirectedGraph(np.int64(3), np.array([[1, 2], [2, 3], [3, 1]], dtype=np.int32))
        assert g.n_vertices == 3 and type(g.n_vertices) is int
        assert g.edges == ((1, 2), (2, 3), (3, 1))
        assert all(type(v) is int for e in g.edges for v in e)
        assert reduce_hamiltonian(g).k == 4


class TestReduceHamiltonian:
    def test_golden_matrices(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        assert np.array_equal(inst.a, EXAMPLE_A)
        assert np.array_equal(inst.b, EXAMPLE_B)
        assert inst.k == 6 and inst.T == 6
        assert inst.col_labels[:5] == ("v_1", "v_2", "v_3", "v_4", "v_5")
        assert inst.col_labels[5:] == ("v_in_1", "v_in_2", "v_in_3", "v_in_4", "v_in_5")

    def test_two_cycle(self):
        inst = reduce_hamiltonian(DirectedGraph(2, ((1, 2), (2, 1))))
        assert np.array_equal(inst.a, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert inst.k == 3 and inst.T == 3
        # hand-applied payoff rules for the learner matrix
        assert np.array_equal(inst.b, [[-0.1, 1, 0.85, 0], [1, -4, 0, 0.85]])

    def test_isolated_vertex_still_well_formed(self):
        g = DirectedGraph(3, ((1, 2), (2, 1)))  # vertex 3 isolated
        inst = reduce_hamiltonian(g)
        assert inst.T == 4
        best, _ = brute_force_ocdp(inst)
        assert best < inst.k

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError, match="empty"):
            reduce_hamiltonian(DirectedGraph(3, ()))

    def test_cell_cap(self, example_graph_5, monkeypatch):
        # 7 edges on 5 vertices make a 7 x 10 instance
        monkeypatch.setattr(ocdp, "MAX_REDUCTION_CELLS", 70)
        assert reduce_hamiltonian(example_graph_5).a.shape == (7, 10)
        monkeypatch.setattr(ocdp, "MAX_REDUCTION_CELLS", 69)
        with pytest.raises(CapExceededError, match="70 payoff cells"):
            reduce_hamiltonian(example_graph_5)

    def test_runtime_order(self):
        # O(|E| n): a 30-vertex path graph reduces instantly
        edges = tuple((i, i + 1) for i in range(1, 30))
        inst = reduce_hamiltonian(DirectedGraph(30, edges))
        assert inst.a.shape == (29, 60)


class TestOcdpInstance:
    def test_exact_integer_forms(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        assert np.array_equal(inst.a_int, EXAMPLE_A) and inst.a_int.dtype == np.int64
        assert np.array_equal(inst.b_int, np.rint(EXAMPLE_B * 160))
        norm = normalize_payoffs(inst)
        assert np.array_equal(norm.b_int, inst.b_int // 8 + 80)  # 160*(b + 4)/8

    @pytest.mark.parametrize("change, message", [
        (lambda i: {"a": np.where(i.a == 1.0, 0.7, 0.5)}, "0 or 1"),
        (lambda i: {"T": -2}, "positive"),
        (lambda i: {"k": 0}, "positive"),
        (lambda i: {"b": i.b[:, :-1]}, "shape"),
        (lambda i: {"row_labels": i.row_labels[:-1]}, "shape"),
    ], ids=["fractional-a", "negative-T", "zero-k", "b-shape", "row-labels"])
    def test_rejects_malformed(self, example_graph_5, change, message):
        inst = reduce_hamiltonian(example_graph_5)
        with pytest.raises(InputError, match=message):
            dataclasses.replace(inst, **change(inst))


class TestNormalizePayoffs:
    def test_fixed_map(self, example_graph_5):
        inst = normalize_payoffs(reduce_hamiltonian(example_graph_5))
        assert inst.normalized
        assert inst.b.min() >= 0.0 and inst.b.max() <= 1.0
        assert inst.b[1, 4] == 0.0       # -4 -> 0
        assert inst.b[0, 4] == 0.625     # 1 -> 5/8
        assert inst.b[0, 5] == 0.60625   # 0.85
        assert inst.b[0, 0] == 0.4875    # -0.1
        assert np.array_equal(inst.a, EXAMPLE_A)  # A untouched

    def test_double_normalization_rejected(self, example_graph_5):
        inst = normalize_payoffs(reduce_hamiltonian(example_graph_5))
        with pytest.raises(PreconditionError):
            normalize_payoffs(inst)

    def test_neutrality_on_example(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        norm = normalize_payoffs(inst)
        before = play_ocdp(inst, EXAMPLE_SEQUENCE)
        after = play_ocdp(norm, EXAMPLE_SEQUENCE)
        assert before.learner_actions == after.learner_actions
        assert before.total_reward == after.total_reward

    def test_neutrality_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            take = rng.choice(len(pairs), size=min(5, len(pairs)), replace=False)
            g = DirectedGraph(n, tuple(pairs[i] for i in take))
            inst = reduce_hamiltonian(g)
            norm = normalize_payoffs(inst)
            for _ in range(10):
                seq = rng.integers(0, inst.n_actions_opt, size=inst.T)
                assert play_ocdp(inst, seq).learner_actions == play_ocdp(norm, seq).learner_actions


class TestPlayOcdp:
    def test_golden_playout(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, EXAMPLE_SEQUENCE)
        assert playout.total_reward == 6
        assert playout_labels(inst, playout) == EXAMPLE_LEARNER_LABELS
        assert np.array_equal(playout.history_trace, EXAMPLE_HISTORY)

    def test_zero_first_round_reward(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, [1] * 6)  # e_2 leaves vertex 5, learner opens v_1
        assert playout.learner_actions[0] == 0
        assert inst.a[1, playout.learner_actions[0]] == 0.0

    def test_edge_one_two_first(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, [2, 3, 0, 0, 0, 0])  # e_3 = (1,2) first
        assert inst.a[2, playout.learner_actions[0]] == 1.0
        assert playout.learner_actions[1] == 1  # v_2 next

    def test_bit_identical_reruns(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        a = play_ocdp(inst, EXAMPLE_SEQUENCE)
        b = play_ocdp(inst, EXAMPLE_SEQUENCE)
        assert a.history_trace.tobytes() == b.history_trace.tobytes()

    def test_length_validated(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        with pytest.raises(InputError, match="horizon"):
            play_ocdp(inst, [0, 1])

    def test_index_validated(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        with pytest.raises(InputError, match="outside"):
            play_ocdp(inst, [0, 1, 2, 3, 4, 9])

    @pytest.mark.parametrize("sequence", [
        [0.9, 1.2, 3.99, 5.5, 6.1, 0.3],
        ["1", "0", "2", "3", "4", "5"],
    ], ids=["floats", "strings"])
    def test_non_integer_indices_rejected(self, example_graph_5, sequence):
        inst = reduce_hamiltonian(example_graph_5)
        with pytest.raises(InputError, match="integers"):
            play_ocdp(inst, sequence)

    def test_numpy_integer_indices_accepted(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, np.array(EXAMPLE_SEQUENCE, dtype=np.int32))
        assert playout.sequence == EXAMPLE_SEQUENCE
        assert all(type(r) is int for r in playout.sequence)
        assert playout.total_reward == 6

    def test_matches_loop_and_simulator(self, rng):
        # the loop-free play-out against the round-by-round reference and the
        # simulator's best-response learner on the one-hot schedule
        for _ in range(40):
            n = int(rng.integers(2, 7))
            inst = reduce_hamiltonian(random_graph(rng, n, int(rng.integers(1, 11))))
            for case in (inst, normalize_payoffs(inst)):
                game = BimatrixGame(case.a_int, case.b_int)
                for _ in range(5):
                    seq = rng.integers(0, case.n_actions_opt, size=case.T)
                    playout = play_ocdp(case, seq)
                    actions, trace, total = loop_playout(case, seq)
                    assert playout.learner_actions == actions
                    assert playout.history_trace.tobytes() == trace.tobytes()
                    assert playout.total_reward == total
                    one_hot = np.eye(case.n_actions_opt)[seq]
                    traj = simulate(game, Schedule.from_rounds(one_hot), BEST_RESPONSE)
                    assert tuple(traj.learner_strategy.argmax(axis=1)) == actions
                    assert np.array_equal(traj.h_after, trace[1:] * ocdp.PAYOFF_DENOMINATOR)
                    assert traj.totals[0] == total

    def test_results_compare_by_identity(self, example_graph_5):
        # results with array fields compare by identity instead of raising
        # numpy's ambiguous-truth error
        def results():
            inst = reduce_hamiltonian(example_graph_5)
            return [inst, play_ocdp(inst, EXAMPLE_SEQUENCE)]

        for result, twin in zip(results(), results()):
            assert result == result and not result != result
            assert result != twin


class TestVerifyCycle:
    def test_example_cycle(self, example_graph_5):
        res = verify_cycle(example_graph_5, CYCLE)
        assert res.ok and res.reward == 6
        assert res.sequence == EXAMPLE_SEQUENCE

    def test_rotated_cycle(self, example_graph_5):
        res = verify_cycle(example_graph_5, [4, 3, 1, 5, 2])
        assert res.ok and res.sequence == EXAMPLE_SEQUENCE

    def test_missing_vertex(self, example_graph_5):
        res = verify_cycle(example_graph_5, [1, 5, 2, 4])
        assert not res.ok and res.reason == "not spanning"

    def test_missing_edge(self, example_graph_5):
        res = verify_cycle(example_graph_5, [1, 2, 4, 3, 5])
        assert not res.ok and "missing edge" in res.reason


class TestExtractCycle:
    def test_example(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, EXAMPLE_SEQUENCE)
        assert extract_cycle(inst, playout, example_graph_5) == CYCLE

    def test_two_cycle(self):
        g = DirectedGraph(2, ((1, 2), (2, 1)))
        inst = reduce_hamiltonian(g)
        playout = play_ocdp(inst, [0, 1, 0])
        assert playout.total_reward == 3
        assert extract_cycle(inst, playout, g) == [1, 2]

    def test_low_reward_rejected(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        playout = play_ocdp(inst, [0, 1, 3, 5, 6, 1])  # last move wastes a round
        assert playout.total_reward < 6
        with pytest.raises(PreconditionError, match="witness"):
            extract_cycle(inst, playout, example_graph_5)


class TestBruteForce:
    def test_example_max_six(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        best, seq = brute_force_ocdp(inst)
        assert best == 6
        assert play_ocdp(inst, seq).total_reward == 6

    def test_deleting_e2_kills_the_cycle(self, example_graph_5):
        edges = tuple(e for e in example_graph_5.edges if e != (5, 2))
        inst = reduce_hamiltonian(DirectedGraph(5, edges))
        best, _ = brute_force_ocdp(inst)
        assert best <= 5

    def test_single_round(self, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        short = dataclasses.replace(inst, T=1, k=1)
        best, seq = brute_force_ocdp(short)
        assert best == 1  # the learner opens with v_1 and edge e_1 leaves it

    def test_cap(self, example_graph_5):
        # the NO graph builds 211 histories (257 without the bound table): a
        # cap counts them, not |E|^T
        edges = tuple(e for e in example_graph_5.edges if e != (5, 2))
        inst = reduce_hamiltonian(DirectedGraph(5, edges))
        assert brute_force_ocdp(inst, cap=211)[0] == 5
        with pytest.raises(CapExceededError, match="more than the cap of 210 histories"):
            brute_force_ocdp(inst, cap=210)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap, example_graph_5):
        with pytest.raises(InputError, match=f"cap must be at least 1, got {cap}"):
            brute_force_ocdp(reduce_hamiltonian(example_graph_5), cap=cap)

    def test_long_horizon(self):
        # one edge: the search runs T rounds deep without recursing
        inst = reduce_hamiltonian(DirectedGraph(2, ((1, 2),)))
        for big_t in (200, 5000):
            assert brute_force_ocdp(dataclasses.replace(inst, T=big_t)) == (1, (0,) * big_t)

    def test_huge_horizon_meets_the_cap_first(self):
        # the bound tables are made per depth as the search reaches it, so a
        # horizon of 10^9 costs nothing before the cap stops the descent
        inst = reduce_hamiltonian(DirectedGraph(2, ((1, 2),)))
        with pytest.raises(CapExceededError, match="cap of 1000 histories"):
            brute_force_ocdp(dataclasses.replace(inst, T=10**9), cap=1000)

    @pytest.mark.parametrize("n", [5, 6])
    def test_complete_digraph(self, n):
        # 20^6 and 30^7 sequences; the search stops at T after 679 and 2,284
        # histories (899 and 2,894 without the bound table)
        built = {5: 679, 6: 2284}[n]
        g = DirectedGraph(n, tuple(itertools.permutations(range(1, n + 1), 2)))
        inst = reduce_hamiltonian(g)
        best, seq = brute_force_ocdp(inst, cap=built)
        assert best == n + 1
        assert extract_cycle(inst, play_ocdp(inst, seq), g) == list(range(1, n + 1))
        with pytest.raises(CapExceededError, match=f"cap of {built - 1} histories"):
            brute_force_ocdp(inst, cap=built - 1)

    def test_matches_exhaustive_oracle(self, rng):
        # maximum and lexicographically first maximizer, with T and k redrawn
        # so that every instance has at most 50,000 sequences
        cases = [dataclasses.replace(reduce_hamiltonian(DirectedGraph(2, ((1, 2),))), T=3, k=3)]
        for _ in range(20):
            n = int(rng.integers(2, 6))
            big_t = int(rng.integers(1, n + 2))
            most_edges = min(n * (n - 1), int(50_000 ** (1 / big_t) + 1e-9))
            n_edges = int(rng.integers((most_edges + 1) // 2, most_edges + 1))
            inst = reduce_hamiltonian(random_graph(rng, n, n_edges))
            if rng.integers(2):
                inst = normalize_payoffs(inst)
            cases.append(dataclasses.replace(inst, T=big_t, k=int(rng.integers(1, n + 2))))
        for inst in cases:
            assert inst.n_actions_opt**inst.T <= 50_000
            assert brute_force_ocdp(inst) == exhaustive_best(inst)

    def test_matches_pop_cut_search(self, rng):
        # the push-time cut and last-round scoring change neither the answer
        # nor the histories built, and the bound table changes only the count,
        # never upwards, on reductions (T and k redrawn, raw and normalized)
        # and on random 0/1 A with B in multiples of 1/160
        cases = []
        for _ in range(120):
            n = int(rng.integers(2, 7))
            inst = reduce_hamiltonian(random_graph(rng, n, int(rng.integers(1, n * (n - 1) + 1))))
            if rng.integers(2):
                inst = normalize_payoffs(inst)
            cases.append(dataclasses.replace(
                inst, T=int(rng.integers(1, n + 3)), k=int(rng.integers(1, n + 3))))
        for _ in range(300):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            spread = int(rng.choice([2, 160]))  # few distinct payoffs make ties common
            cases.append(ocdp.OcdpInstance(
                a=rng.integers(0, 2, (rows, cols)).astype(float),
                b=rng.integers(-spread, spread + 1, (rows, cols)) / 160,
                k=1, T=int(rng.integers(1, 7)),
                row_labels=tuple(f"r{i}" for i in range(rows)),
                col_labels=tuple(f"c{j}" for j in range(cols)),
                edges=(), n_graph_vertices=0, normalized=False))
        for inst in cases:
            best, seq, built = pop_cut_search(inst)
            assert unmemoised_search(inst) == (best, seq, built)
            assert brute_force_ocdp(inst, cap=max(built, 1)) == (best, seq)
            fewer = histories_built(inst, max(built, 1))
            assert brute_force_ocdp(inst, cap=fewer) == (best, seq)
            if fewer >= 2:
                with pytest.raises(CapExceededError):
                    brute_force_ocdp(inst, cap=fewer - 1)

    def test_matches_unmemoised_search(self, rng):
        # the bound table keeps the answer and never builds more histories,
        # on every small digraph (raw and normalized) and on 6-vertex
        # reductions two rounds past the cycle
        cases = []
        for g in every_small_graph():
            inst = reduce_hamiltonian(g)
            cases += [inst, normalize_payoffs(inst)]
        for _ in range(8):
            inst = reduce_hamiltonian(random_graph(rng, 6, int(rng.integers(6, 13))))
            cases.append(dataclasses.replace(inst, T=8))
        for inst in cases:
            best, seq, built = unmemoised_search(inst)
            assert brute_force_ocdp(inst, cap=max(built, 1)) == (best, seq)

    def test_agreement_with_hamiltonian_oracle_six_to_eight_vertices(self, rng):
        # 8 graphs per size, every other one with a planted cycle, at T = n+1
        for n in (6, 7, 8):
            pairs = list(itertools.permutations(range(1, n + 1), 2))
            for k in range(8):
                order = [int(v) + 1 for v in rng.permutation(n)]
                edges = set(zip(order, order[1:] + order[:1])) if k % 2 else set()
                extra = rng.permutation(len(pairs))[:int(rng.integers(n, 2 * n + 1))]
                edges.update(pairs[i] for i in extra)
                g = DirectedGraph(n, tuple(sorted(edges)))
                inst = reduce_hamiltonian(g)
                best, seq = brute_force_ocdp(inst)
                cycle = find_hamiltonian_cycle(g)
                assert (best == n + 1) == (cycle is not None)
                if cycle is not None:
                    assert verify_cycle(g, extract_cycle(inst, play_ocdp(inst, seq), g)).ok

    def test_agreement_with_hamiltonian_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            take = rng.choice(len(pairs), size=int(rng.integers(1, min(7, len(pairs)) + 1)), replace=False)
            g = DirectedGraph(n, tuple(pairs[i] for i in take))
            best, _ = brute_force_ocdp(reduce_hamiltonian(g))
            cycle = find_hamiltonian_cycle(g)
            assert (best == n + 1) == (cycle is not None)
            if cycle is not None:
                assert verify_cycle(g, cycle).ok

    def test_every_small_graph(self):
        # the reduction theorem on every labelled digraph with 2, 3 and 4
        # vertices, raw and normalized
        for g in every_small_graph():
            inst = reduce_hamiltonian(g)
            result = brute_force_ocdp(inst)
            assert (result[0] == inst.k) == (find_hamiltonian_cycle(g) is not None)
            assert brute_force_ocdp(normalize_payoffs(inst)) == result
