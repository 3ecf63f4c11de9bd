#!/usr/bin/env python
"""Pareto route alternatives: the full front, kept fresh incrementally.

Navigation products offer *alternative* routes ("fastest", "shortest",
"eco") — exactly a Pareto front over route objectives.  This example
goes beyond the paper's single-MOSP heuristic and maintains the
**complete** Pareto front of a road network under growth, using the
extensions in this repository:

- ``DynamicParetoFront`` keeps every vertex's front current across
  insertion batches (incremental label-setting), so any destination's
  alternatives are a read, not a new search;
- the paper's ``mosp_update`` heuristic is shown alongside, landing on
  (or near) that front at a fraction of the cost.

Run:  python examples/pareto_alternatives.py
"""

import numpy as np

from repro.core import SOSPTree, mosp_update
from repro.dynamic import local_insert_batch
from repro.graph import attach_random_weights, grid_road
from repro.mosp import DynamicParetoFront, nondominated_against

rng = np.random.default_rng(11)
g = grid_road(12, 12, k=2, seed=11)
g = attach_random_weights(g, k=2, rng=rng, distribution="anticorrelated")
SOURCE, DEST = 0, g.num_vertices - 1

print(f"road grid: {g.num_vertices} junctions, {g.num_edges} segments, "
      f"objectives (time, fuel)\n")

front_state = DynamicParetoFront(g, SOURCE)


def show_alternatives(label):
    labs = front_state.labels(DEST)
    print(f"{label}: {len(labs)} Pareto-optimal alternatives "
          f"{SOURCE} -> {DEST}")
    by_time = sorted(labs, key=lambda l: l.dist)
    for name, lab in [("fastest", by_time[0]),
                      ("most fuel-efficient", by_time[-1])]:
        t, f = lab.dist
        print(f"  {name:<20} time={t:7.2f} fuel={f:7.2f} "
              f"hops={len(lab.path()) - 1}")
    # the single balanced route the paper's heuristic would return
    trees = [SOSPTree.build(g, SOURCE, objective=i) for i in range(2)]
    r = mosp_update(g, trees)
    cost = r.cost_to(DEST)
    on = nondominated_against(cost, front_state.front(DEST))
    print(f"  {'paper heuristic':<20} time={cost[0]:7.2f} "
          f"fuel={cost[1]:7.2f} "
          f"({'on the front' if on else 'near the front'})\n")


show_alternatives("initially")

for step in range(1, 4):
    batch = local_insert_batch(g, 10, hops=3, seed=100 + step)
    batch.apply_to(g)
    stats = front_state.update(batch)
    print(f"step {step}: +{batch.num_insertions} road segments, "
          f"{stats.accepted} front labels changed "
          f"({stats.candidates} candidates examined)")

print()
show_alternatives("after growth")

# every other destination reads off the same maintained fronts
other = g.num_vertices // 2
alternatives = front_state.front(other)
print(f"front read for another destination {SOURCE} -> {other}: "
      f"{len(alternatives)} Pareto alternatives (no new search)")
