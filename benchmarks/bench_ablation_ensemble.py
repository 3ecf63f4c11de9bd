"""Ablation — ensemble weighting schemes (Algorithm 2, Step 2).

DESIGN.md calls out the ``k − x + 1`` weighting as a design choice;
this ablation compares it against unit weights (the Theorem-1 setting)
and priority weights on graphs whose exact fronts Martins can
enumerate.

Metrics per scheme: how many reachable vertices receive a path on the
exact Pareto front, the worst relative gap for those that miss it, and
the share of hops drawn from edges common to both SOSP trees (the
balance the weighting is designed to promote).

Expected shape: all schemes produce valid near-front paths; the
balanced scheme prefers shared (both-objectives-good) edges more often
than unit weights.
"""

import numpy as np
import pytest

from conftest import write_result
from repro.bench import render_table
from repro.core import SOSPTree, mosp_update
from repro.graph import erdos_renyi
from repro.mosp import front_distance, martins, nondominated_against

SEEDS = (1, 2, 3, 4, 5)
N, M = 40, 160


def evaluate(weighting):
    on_front = total = 0
    gaps = []
    shared_hops = all_hops = 0
    for seed in SEEDS:
        g = erdos_renyi(N, M, k=2, seed=seed)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        kwargs = {"weighting": weighting}
        if weighting == "priority":
            kwargs["priorities"] = (2.0, 1.0)
        r = mosp_update(g, trees, **kwargs)
        full = martins(g, 0)
        shared = set(trees[0].tree_edges()) & set(trees[1].tree_edges())
        for v in range(N):
            if not np.isfinite(r.dist_vectors[v]).all() or v == 0:
                continue
            total += 1
            front = full.front(v)
            if nondominated_against(r.cost_to(v), front):
                on_front += 1
            else:
                gaps.append(front_distance(r.cost_to(v), front))
            path = r.path_to(v)
            for uv in zip(path, path[1:]):
                all_hops += 1
                if uv in shared:
                    shared_hops += 1
    return {
        "weighting": weighting,
        "on front": f"{on_front}/{total}",
        "front rate": f"{on_front / total:.2%}",
        "max gap": f"{max(gaps) if gaps else 0.0:.3f}",
        "shared-edge hops": f"{shared_hops / all_hops:.2%}",
    }


def run_ablation():
    return [evaluate(w) for w in ("balanced", "unit", "priority")]


def test_ensemble_weighting_report(benchmark, results_dir):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    text = render_table(
        rows,
        ["weighting", "on front", "front rate", "max gap",
         "shared-edge hops"],
    )
    write_result(results_dir, "ablation_ensemble.txt", text)

    by_name = {r["weighting"]: r for r in rows}
    # every scheme must stay overwhelmingly on the exact front
    for r in rows:
        on, total = map(int, r["on front"].split("/"))
        assert on >= 0.85 * total, r
    # balanced must not use shared edges less than unit weighting does
    balanced = float(by_name["balanced"]["shared-edge hops"].rstrip("%"))
    unit = float(by_name["unit"]["shared-edge hops"].rstrip("%"))
    assert balanced >= unit - 1e-9
