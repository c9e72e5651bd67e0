"""Why planning against a best-response learner is hard: graphs as games.

A directed graph becomes a control instance where the optimizer picks
edges, the learner tracks vertices, and collecting reward n+1 over n+1
rounds forces the edge choices to trace a Hamiltonian cycle. This script
builds the instance for a 5-vertex graph, replays the optimal control
sequence round by round, and cross-checks brute force against an
independent cycle search.
"""

from strategizer import (
    DirectedGraph,
    brute_force_ocdp,
    extract_cycle,
    normalize_payoffs,
    play_ocdp,
    playout_labels,
    reduce_hamiltonian,
    verify_cycle,
)
from strategizer.acceptance import find_hamiltonian_cycle

graph = DirectedGraph(
    n_vertices=5,
    edges=((1, 5), (5, 2), (1, 2), (2, 4), (4, 1), (4, 3), (3, 1)),
)

print("== The reduction ===============================================")
inst = reduce_hamiltonian(graph)
print(f"{graph.n_vertices} vertices, {graph.n_edges} edges  ->  "
      f"{inst.n_actions_opt} optimizer actions x {inst.n_actions_learner} learner actions, "
      f"k = T = {inst.k}")
print("learner payoffs B (rows = edges, cols = v_1..v_5, v_in_1..v_in_5):")
print(inst.b)

print()
print("== Playing the Hamiltonian cycle ===============================")
cycle = find_hamiltonian_cycle(graph)
print(f"independent backtracker finds: {' -> '.join(map(str, cycle + [1]))}")
playout = verify_cycle(inst, cycle).playout
labels = playout_labels(inst, playout)
for t, (row, lab) in enumerate(zip(playout.sequence, labels), start=1):
    u, v = graph.edges[row]
    hit = inst.a[row, playout.learner_actions[t - 1]]
    print(f"round {t}: optimizer plays {inst.row_labels[row]} = ({u},{v}), "
          f"learner sits on {lab}, reward {int(hit)}")
print(f"total reward {playout.total_reward} = k; "
      f"recovered cycle {extract_cycle(inst, playout, graph)}")

print()
print("== Exhaustive search agrees ====================================")
best, seq = brute_force_ocdp(inst)
print(f"brute force over {inst.n_actions_opt}^{inst.T} sequences: max reward {best}")

pruned = DirectedGraph(5, tuple(e for e in graph.edges if e != (5, 2)))
best2, _ = brute_force_ocdp(reduce_hamiltonian(pruned))
print(f"after deleting edge (5,2): max reward {best2} "
      f"(cycle search: {find_hamiltonian_cycle(pruned)})")

print()
print("== Payoff normalization changes nothing ========================")
norm = normalize_payoffs(inst)
replay = play_ocdp(norm, playout.sequence)
print(f"B now lies in [{norm.b.min():.2f}, {norm.b.max():.2f}]; "
      f"identical learner actions: {replay.learner_actions == playout.learner_actions}")
