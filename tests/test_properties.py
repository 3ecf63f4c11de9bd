"""Property-based tests (hypothesis) for the core invariants.

The master invariant of the whole reproduction: **after any sequence of
changes, the incrementally updated tree equals a from-scratch
recomputation** — over random graphs, random batches, every engine.
Plus dominance-order laws and Pareto-front closure properties.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SOSPTree, apply_mixed_batch, mosp_update, sosp_update
from repro.dynamic import ChangeBatch
from repro.graph import DiGraph
from repro.mosp import dominates, martins, nondominated_against, pareto_filter
from repro.mosp.dominance import is_dominated_by_any
from repro.parallel import CheckedEngine, SerialEngine, SimulatedEngine
from repro.sssp import dijkstra
from tests._sosp_reference import sosp_update_reference

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_batches(draw, k=1, max_n=14, max_batches=3):
    """A random digraph plus a sequence of random insertion batches."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    weight = st.integers(min_value=0, max_value=9).map(float)
    edge = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.tuples(*([weight] * k)),
    )
    edges = draw(st.lists(edge, min_size=0, max_size=m))
    g = DiGraph(n, k=k)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    n_batches = draw(st.integers(1, max_batches))
    batches = []
    for _ in range(n_batches):
        ins = draw(st.lists(edge, min_size=1, max_size=8))
        batches.append(ChangeBatch.insertions(ins))
    return g, batches


@st.composite
def mixed_change_sequence(draw, max_n=12):
    """A digraph plus batches mixing insertions and deletions."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    weight = st.integers(min_value=0, max_value=9).map(float)
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges = draw(st.lists(edge, min_size=1, max_size=3 * n))
    g = DiGraph(n, k=1)
    for u, v, w in edges:
        g.add_edge(u, v, (w,))
    ops = draw(
        st.lists(
            st.one_of(
                edge.map(lambda e: ("ins", e)),
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda p: ("del", p)
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return g, ops


# ----------------------------------------------------------------------
# master invariant: update == recompute
# ----------------------------------------------------------------------


class TestUpdateEqualsRecompute:
    @SETTINGS
    @given(graph_and_batches())
    def test_incremental_updates(self, gb):
        g, batches = gb
        tree = SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            sosp_update(g, tree, batch, engine=CheckedEngine(SerialEngine()))
            ref, _ = dijkstra(g, 0)
            np.testing.assert_allclose(tree.dist, ref, rtol=1e-12)
            tree.certify(g)

    @SETTINGS
    @given(graph_and_batches(), st.integers(2, 8))
    def test_incremental_updates_simulated_engine(self, gb, threads):
        g, batches = gb
        tree = SOSPTree.build(g, 0)
        eng = SimulatedEngine(threads=threads)
        for batch in batches:
            batch.apply_to(g)
            sosp_update(g, tree, batch, engine=eng)
            ref, _ = dijkstra(g, 0)
            np.testing.assert_allclose(tree.dist, ref, rtol=1e-12)

    @SETTINGS
    @given(graph_and_batches())
    def test_ungrouped_ablation_same_results(self, gb):
        g, batches = gb
        tree = SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            sosp_update_reference(g, tree, batch, use_grouping=False)
            ref, _ = dijkstra(g, 0)
            np.testing.assert_allclose(tree.dist, ref, rtol=1e-12)

    @SETTINGS
    @given(mixed_change_sequence())
    def test_fully_dynamic_sequence(self, gops):
        g, ops = gops
        tree = SOSPTree.build(g, 0)
        for kind, payload in ops:
            if kind == "ins":
                u, v, w = payload
                batch = ChangeBatch.insertions([(u, v, (w,))])
            else:
                u, v = payload
                if not g.has_edge(u, v):
                    continue
                batch = ChangeBatch.deletions([(u, v)])
            batch.apply_to(g)
            apply_mixed_batch(g, tree, batch)
            ref, _ = dijkstra(g, 0)
            np.testing.assert_allclose(tree.dist, ref, rtol=1e-12)
            tree.certify(g)


# ----------------------------------------------------------------------
# MOSP pipeline invariants
# ----------------------------------------------------------------------


class TestMOSPInvariants:
    @SETTINGS
    @given(graph_and_batches(k=2, max_n=9, max_batches=2))
    def test_mosp_paths_valid_and_bounded(self, gb):
        g, batches = gb
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        for batch in batches:
            batch.apply_to(g)
            r = mosp_update(g, trees, batch)
            for i in range(2):
                ref, _ = dijkstra(g, 0, i)
                np.testing.assert_allclose(trees[i].dist, ref, rtol=1e-12)
            # every returned cost is a real path cost and respects the
            # per-objective lower bound
            for v in range(g.num_vertices):
                if not np.isfinite(r.dist_vectors[v]).all():
                    continue
                path = r.path_to(v)
                assert path[0] == 0 and path[-1] == v
                for i in range(2):
                    ref, _ = dijkstra(g, 0, i)
                    assert r.dist_vectors[v, i] >= ref[v] - 1e-9

    @SETTINGS
    @given(graph_and_batches(k=2, max_n=8, max_batches=1))
    def test_mosp_not_dominated_when_fronts_small(self, gb):
        """On integer-weight graphs ties are common, so unique-tree
        preconditions fail; the heuristic still must not be *strictly*
        dominated in well-posed cases where the tree is unique.

        Well-posed additionally requires a *simple* graph: among
        parallel edges, different trees can certify different parallel
        edges for the same ensemble hop, and no single representative
        weight vector (``_certified_weight``) makes every pricing
        nondominated — e.g. parallel ``u→v`` weights ``(a, B)`` and
        ``(b, A)`` with ``a < b``, ``A < B``: whichever is chosen, the
        other may complete the front row that dominates the result.
        """
        g, batches = gb
        batches[0].apply_to(g)
        # perturb weights to break ties (unique SOSP trees w.h.p.) and
        # drop parallel edges (keep the first per (u, v) pair) so the
        # representative-weight pricing of each hop is unambiguous
        rng = np.random.default_rng(0)
        h = DiGraph(g.num_vertices, 2)
        seen = set()
        for u, v, eid in g.edges():
            w = np.asarray(g.weight(eid)) + rng.uniform(0, 1e-3, 2)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            h.add_edge(u, v, w)
        trees = [SOSPTree.build(h, 0, objective=i) for i in range(2)]
        r = mosp_update(h, trees)
        full = martins(h, 0)
        for v in range(h.num_vertices):
            if np.isfinite(r.dist_vectors[v]).all():
                assert nondominated_against(r.cost_to(v), full.front(v))


# ----------------------------------------------------------------------
# dominance laws
# ----------------------------------------------------------------------

vectors = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2,
    max_size=2,
).map(tuple)


class TestDominanceLaws:
    @SETTINGS
    @given(vectors)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @SETTINGS
    @given(vectors, vectors)
    def test_asymmetric(self, a, b):
        if dominates(a, b):
            assert not dominates(b, a)

    @SETTINGS
    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @SETTINGS
    @given(st.lists(vectors, min_size=1, max_size=25))
    def test_pareto_filter_is_antichain(self, pts):
        front = pareto_filter(np.asarray(pts))
        rows = [tuple(r) for r in front.tolist()]
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                if i != j:
                    assert not dominates(a, b)

    @SETTINGS
    @given(st.lists(vectors, min_size=1, max_size=25))
    def test_pareto_filter_covers_input(self, pts):
        arr = np.asarray(pts)
        front = pareto_filter(arr)
        for p in arr:
            # every input point is dominated-or-equalled by the front
            assert any(
                tuple(f) == tuple(p) for f in front
            ) or is_dominated_by_any(p, front)

    @SETTINGS
    @given(st.lists(vectors, min_size=1, max_size=20))
    def test_pareto_filter_idempotent(self, pts):
        once = pareto_filter(np.asarray(pts))
        twice = pareto_filter(once)
        assert sorted(map(tuple, once.tolist())) == sorted(
            map(tuple, twice.tolist())
        )
