#!/usr/bin/env python
"""Road traffic: maintaining a balanced route as the road network grows.

The paper's first motivating scenario (§1): a navigation service wants
a single route that balances travel time against fuel consumption in a
network that keeps changing.  This example plays a multi-timestep
change stream over a ~2,500-vertex road network, keeps both SOSP trees
updated incrementally (Algorithm 1), and re-derives the balanced MOSP
route (Algorithm 2) after every timestep.  During the simulated rush
hour it switches to priority weighting — preferring fuel over time —
without recomputing anything from scratch.

Run:  python examples/road_traffic.py
"""

import numpy as np

from repro.core import SOSPTree, mosp_update
from repro.dynamic.workloads import road_traffic_scenario
from repro.parallel import resolve_engine

scenario = road_traffic_scenario(n=2500, steps=6, batch_size=40, seed=7)
g = scenario.graph
source = scenario.source
# the destination: the far corner of the map
destination = g.num_vertices - 1

engine = resolve_engine("serial")
trees = [SOSPTree.build(g, source, objective=i) for i in range(2)]

print(f"network: {g.num_vertices} junctions, {g.num_edges} road segments")
print(f"route {source} -> {destination}, objectives: "
      f"{' vs '.join(scenario.objective_names)}\n")

header = (f"{'step':>4}  {'mode':<10} {'time':>6} {'fuel':>6} "
          f"{'hops':>4}  {'affected':>8} {'route (first hops)'}")
print(header)
print("-" * len(header))


def report(step, mode, result, affected):
    if not np.isfinite(result.dist_vectors[destination]).all():
        print(f"{step:>4}  {mode:<10} {'unreachable':>13}")
        return
    path = result.path_to(destination)
    t, f = result.cost_to(destination)
    head = "->".join(map(str, path[:6])) + ("..." if len(path) > 6 else "")
    print(f"{step:>4}  {mode:<10} {t:>6.1f} {f:>6.1f} "
          f"{len(path) - 1:>4}  {affected:>8}  {head}")


# timestep 0: the initial balanced route (no batch yet)
result = mosp_update(g, trees, engine=engine)
report(0, "balanced", result, affected="-")

RUSH_HOUR = {3, 4}  # timesteps where fuel economy takes priority

for t, batch in enumerate(scenario.stream.batches(), start=1):
    batch.apply_to(g)
    if t in RUSH_HOUR:
        # prioritise fuel (objective 1) three-to-one over time
        result = mosp_update(
            g, trees, batch, engine=engine,
            weighting="priority", priorities=(1.0, 3.0),
        )
        mode = "eco-prio"
    else:
        result = mosp_update(g, trees, batch, engine=engine)
        mode = "balanced"
    affected = sum(s.affected_total for s in result.update_stats)
    report(t, mode, result, affected)

print("\nper-objective optima for comparison:")
print(f"  fastest: time={trees[0].dist[destination]:.1f} "
      f"(route {'->'.join(map(str, trees[0].path_to(destination)[:6]))}...)")
print(f"  leanest: fuel={trees[1].dist[destination]:.1f} "
      f"(route {'->'.join(map(str, trees[1].path_to(destination)[:6]))}...)")
