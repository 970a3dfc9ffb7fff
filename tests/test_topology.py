"""Topology generators vs a brute-force oracle; flow assignment exactness."""
import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dented_square import dented_square
from forest_oracle import (all_forests, flowed_forests, forest_key,
                           forest_shapes, full_shapes, full_splits,
                           set_partitions, shrank)
from gsteiner.currents import boundary, make_boundary
from gsteiner.placement import Placement, realize_chain
from gsteiner.solver import SolverConfig, solve
from gsteiner.topology import (FlowedTopology, InfeasibleTopologyError,
                               _forests, _full_splits, _splits, assign_flows,
                               contract, enumerate_topologies, forest_rows)


def line_boundary(n):
    masses = [F(-(n - 1))] + [F(1)] * (n - 1)
    return make_boundary([((float(i), 0.0), m) for i, m in enumerate(masses)])


def degree(edges, v):
    return sum(1 for u, w in edges if u == v or w == v)


def _canonical(edges, n, m):
    """Smallest sorted edge list over all relabelings of the m branch vertices."""
    return min(
        tuple(sorted(
            tuple(sorted((u if u < n else n + perm[u - n],
                          v if v < n else n + perm[v - n])))
            for u, v in edges))
        for perm in itertools.permutations(range(m)))


def brute_force_count(n, full=False):
    """Independent enumerator: all forests on n terminals + m branch vertices
    (m <= n - 2) with branch degree >= 3 and terminal degree >= 1, up to
    branch relabeling.  ``full`` keeps only the full trees: connected, with
    n - 2 branch vertices of degree 3 and terminals as leaves."""
    total = 0
    for m in range(n - 2 if full else 0, max(0, n - 2) + 1):
        nv = n + m
        all_edges = list(itertools.combinations(range(nv), 2))
        if full:
            # a full tree has nv - 1 edges and joins no two terminals (n > 2)
            subsets = itertools.combinations(
                [e for e in all_edges if n == 2 or e[1] >= n], nv - 1)
        else:
            subsets = ([e for i, e in enumerate(all_edges) if bits >> i & 1]
                       for bits in range(2 ** len(all_edges)))
        shapes = set()
        for edges in subsets:
            deg = [0] * nv
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if not acyclic:
                continue
            if any(deg[v] < 1 for v in range(n)):
                continue
            if any(deg[v] < 3 for v in range(n, nv)):
                continue
            if full and (any(deg[v] != 1 for v in range(n))
                         or any(deg[v] != 3 for v in range(n, nv))):
                continue
            shapes.add(_canonical(edges, n, m))
        total += len(shapes)
    return total


# ---------------------------------------------------------------------------
# exhaustive forests (forest_oracle.all_forests)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(2, 1), (3, 4)])
def test_small_counts(n, expected):
    assert len(list(all_forests(line_boundary(n)))) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counts_match_brute_force(n):
    got = len(list(all_forests(line_boundary(n))))
    assert got == brute_force_count(n)


def test_three_atom_structure():
    tops = list(all_forests(line_boundary(3)))
    stars = [edges for m, edges in tops if m == 1]
    paths = [edges for m, edges in tops if m == 0]
    assert len(stars) == 1 and len(paths) == 3
    assert degree(stars[0], 3) == 3


def test_four_atom_double_y_present():
    tops = list(all_forests(line_boundary(4)))
    assert max(m for m, _ in tops) == 2  # n - 2
    double_y = [edges for m, edges in tops if m == 2]
    assert len(double_y) == 3  # the three terminal pairings
    for edges in double_y:
        assert degree(edges, 4) == 3 and degree(edges, 5) == 3
    matchings = [edges for m, edges in tops if m == 0 and len(edges) == 2]
    assert len(matchings) == 3


def test_stream_deterministic():
    a = list(all_forests(line_boundary(4)))
    b = list(all_forests(line_boundary(4)))
    assert a == b


@pytest.mark.parametrize("s,expected", [(2, 1), (3, 4), (4, 32), (5, 396)])
def test_forest_shape_counts(s, expected):
    assert len(forest_shapes(s)) == expected


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_forest_shapes_are_distinct_trees(s):
    shapes = forest_shapes(s)
    canonical, keys = set(), set()
    for shape in shapes:
        m = len(shape) + 1 - s  # a tree on s + m vertices
        deg = _tree_degrees(shape, s + m)
        assert deg is not None and all(d >= 3 for d in deg[s:])
        canonical.add(_canonical(shape, s, m))
        keys.add(tuple(sorted(_splits(s, shape)[1])))
    assert len(canonical) == len(keys) == len(shapes)


# ---------------------------------------------------------------------------
# full topologies (enumerate_topologies)
# ---------------------------------------------------------------------------

def _tree_degrees(shape, nv):
    """Vertex degrees when ``shape`` is a tree on vertices 0..nv-1, else None."""
    deg = [0] * nv
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in shape:
        deg[u] += 1
        deg[v] += 1
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    return deg if len(shape) == nv - 1 else None


def _is_full_tree(shape, s):
    deg = _tree_degrees(shape, 2 * s - 2)
    return (deg is not None and all(d == 1 for d in deg[:s])
            and all(d == 3 for d in deg[s:]))


@pytest.mark.parametrize("s,expected",
                         [(2, 1), (3, 1), (4, 3), (5, 15), (6, 105), (7, 945)])
def test_full_shape_counts(s, expected):
    assert len(full_shapes(s)) == expected


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
def test_full_shapes_are_full_trees(s):
    assert all(_is_full_tree(shape, s) for shape in full_shapes(s))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_full_shapes_distinct_up_to_branch_relabeling(s):
    keys = {_canonical(shape, s, s - 2) for shape in full_shapes(s)}
    assert len(keys) == len(full_shapes(s))


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_full_shapes_match_brute_force(s):
    assert len(full_shapes(s)) == brute_force_count(s, full=True)


def test_full_topologies_cover_balanced_partitions(square_boundary):
    # (0,0):-1, (0,1):+1, (1,0):+1, (1,1):-1 -- of the 3 full trees on the
    # whole set only the one pairing the sources and pairing the sinks
    # carries flow on its middle edge, the two balanced pairings give one
    # matching each, and {0,3}{1,2} is unbalanced and never built
    fts = list(enumerate_topologies(square_boundary))
    assert fts == list(enumerate_topologies(square_boundary))
    assert len(fts) == 3
    assert sorted(ft.edges for ft in fts if ft.n_branch == 0) == [
        ((0, 1), (2, 3)), ((0, 2), (1, 3))]
    (tree,) = [ft for ft in fts if ft.n_branch == 2]
    assert {(0, 3), (1, 2)} == {
        tuple(u for u, v in tree.edges if v == b and u < 4) for b in (4, 5)}
    for ft in fts:
        # feasible
        assert assign_flows(ft.n_branch, ft.edges, square_boundary) == ft


def _zero_flow_instances():
    rng = random.Random(5)
    yield line_boundary(6)
    yield make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1)),
                         ((2.0, 0.0), F(-1)), ((0.0, 1.0), F(1)),
                         ((1.0, 1.0), F(-1)), ((2.0, 1.0), F(1))])
    for n in (4, 5, 6, 6):
        # masses in {-1, 1, -2, 2} make many balanced sub-blocks
        while True:
            masses = [F(rng.choice((-2, -1, 1, 2))) for _ in range(n - 1)]
            last = -sum(masses)
            if last != 0:
                break
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
        yield make_boundary(zip(pts, masses + [last]))


def test_no_topology_with_a_zero_flow_edge():
    for b in _zero_flow_instances():
        for ft in enumerate_topologies(b):
            assert assign_flows(ft.n_branch, ft.edges, b) == ft
            assert all(f != 0 for f in ft.edge_flows)


def _unskipped_full_topologies(b):
    """Every full tree over every balanced partition, zero-flow ones too, as
    ``(n_branch, edges)``."""
    masses = tuple(m for _, m in b.atoms)
    n = len(masses)
    for partition in set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 or sum(masses[i] for i in blk) != 0
               for blk in blocks):
            continue
        for combo in itertools.product(*(full_shapes(len(blk))
                                         for blk in blocks)):
            edges, nxt = [], n
            for blk, shape in zip(blocks, combo):
                slot = list(blk) + list(range(nxt, nxt + len(blk) - 2))
                nxt += len(blk) - 2
                edges += [tuple(sorted((slot[u], slot[v]))) for u, v in shape]
            yield n - 2 * len(blocks), tuple(sorted(edges))


def test_zero_flow_skip_loses_no_flowed_topology():
    for b in _zero_flow_instances():
        kept = [ft.signature() for ft in enumerate_topologies(b)]
        every = {assign_flows(*t, b).signature()
                 for t in _unskipped_full_topologies(b)}
        assert len(kept) == len(set(kept)) == len(every)
        assert set(kept) == every


@st.composite
def balanced_masses(draw, max_n=5):
    """2 to ``max_n`` nonzero masses summing to zero: random fractions, or
    repeated +-1 that make balanced sub-blocks and so zero-flow edges."""
    n = draw(st.integers(2, max_n))
    unit = st.sampled_from((F(-1), F(1)))
    fraction = st.fractions(-3, 3, max_denominator=4).filter(bool)
    head = draw(st.lists(draw(st.sampled_from((unit, fraction))),
                         min_size=n - 1, max_size=n - 1))
    assume(sum(head) != 0)
    return tuple(head) + (-sum(head),)


def _by_repr(fts):
    """Flowed forests as a list sorted by ``repr`` (edges and flows), for
    streams that hold the same forests in another order."""
    return sorted(map(repr, fts))


def _assigned_unshrunk(b, topologies):
    """The flowed forests of ``topologies`` that ``assign_flows`` keeps
    whole: each one a current on its own support."""
    out = []
    for t in topologies:
        try:
            ft = assign_flows(*t, b)
        except InfeasibleTopologyError:
            continue
        if not shrank(t, ft):
            out.append(ft)
    return out


@settings(max_examples=50, deadline=None)
@given(balanced_masses())
def test_flowed_forests_match_assigned_unflowed_stream(masses):
    # atoms at 0, 1, 2, ... keep the masses in atom order
    b = make_boundary(((float(i),), m) for i, m in enumerate(masses))
    rows = forest_rows(masses)
    fts = list(map(rows.topology, range(len(rows))))
    assert fts == list(enumerate_topologies(b))
    assert _by_repr(fts) == \
        _by_repr(_assigned_unshrunk(b, _unskipped_full_topologies(b)))


# the lab's forests are the contractions of the full topologies
@settings(max_examples=50, deadline=None)
@given(balanced_masses(5))
@example((F(1), F(1), F(1), F(-1), F(-2)))
@example((F(1, 2), F(1, 3), F(-1), F(1, 4), F(-1, 12)))
def test_forests_match_assigned_unflowed_stream(masses):
    b = make_boundary(((float(i),), m) for i, m in enumerate(masses))
    fts = _forests(masses)
    assert len({ft.edges for ft in fts}) == len(fts)
    assert _by_repr(fts) == _by_repr(_assigned_unshrunk(b, all_forests(b)))


# the placement memos key a topology of one boundary by its edges alone
@settings(max_examples=10, deadline=None)
@given(balanced_masses())
@example((F(1), F(1), F(1), F(-1), F(-2)))
@example((F(1, 2), F(1, 3), F(-1), F(1, 4), F(-1, 12)))
def test_edges_fix_flows(masses):
    flows = {}
    for ft in _forests(masses):
        size = ft.n_terminals + ft.n_branch
        for g in [ft] + [contract(ft, [pair])[0]
                         for pair in itertools.combinations(range(size), 2)]:
            assert flows.setdefault(g.edges, g.edge_flows) == \
                g.edge_flows


# the mask tables against the paths they replaced

def _higher_sides(s, far, signs):
    """Per edge, the slot mask of its higher endpoint's side, from its far
    mask and its sign (``_splits``)."""
    return [f if g > 0 else (1 << s) - 1 ^ f for f, g in zip(far, signs)]


@pytest.mark.parametrize("s", range(2, 9))
def test_insertion_splits_match_dfs(s):
    for shape, sides in zip(*(a.tolist() for a in _full_splits(s))):
        _, far, signs = _splits(s, tuple(map(tuple, shape)))
        assert sides == _higher_sides(s, far, signs)


@pytest.mark.parametrize("s", range(2, 9))
def test_vectorized_insertion_matches_tuple_construction(s):
    # the same trees in the same order, edges and sides alike
    ends, sides = (a.tolist() for a in _full_splits(s))
    assert [(tuple(map(tuple, e)), tuple(g)) for e, g in zip(ends, sides)] \
        == [(shape, tuple(_higher_sides(s, far, signs)))
            for shape, far, signs in full_splits(s)]


@settings(max_examples=25, deadline=None)
@given(balanced_masses(7))
def test_flowed_forests_match_per_block_generator(masses):
    # the rows come in the order of the full trees on all atoms, and a
    # forest of several blocks gets its branch labels from the contraction
    # of its row's tree: forests are compared by signature and flows
    rows = forest_rows(masses)
    fts = list(map(rows.topology, range(len(rows))))
    assert sorted(map(forest_key, fts)) == \
        sorted(map(forest_key, flowed_forests(masses)))


def test_unbalanced_boundary_is_refused():
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(2))])
    with pytest.raises(ValueError, match="nonzero total mass"):
        list(enumerate_topologies(b))


# ---------------------------------------------------------------------------
# the split key (FlowedTopology.signature)
# ---------------------------------------------------------------------------

def relabeling_signature(ft):
    """The key the split key replaced, kept as its reference: the smallest
    sorted (u, v, flow) edge list over all relabelings of the branch
    vertices."""
    n, m = ft.n_terminals, ft.n_branch
    best = None
    for perm in itertools.permutations(range(m)):
        rows = []
        for (u, v), f in zip(ft.edges, ft.edge_flows):
            a, c = (x if x < n else n + perm[x - n] for x in (u, v))
            rows.append((a, c, f) if a < c else (c, a, -f))
        key = tuple(sorted(rows))
        if best is None or key < best:
            best = key
    return (n, m, best)


# repeated and distinct masses for 2 to 5 atoms
KEY_MASSES = [
    (F(-1), F(1)),
    (F(-2), F(1), F(1)), (F(-3), F(1), F(2)),
    (F(-1), F(-1), F(1), F(1)), (F(-3), F(-1, 2), F(2), F(3, 2)),
    (F(-2), F(1), F(1), F(-1), F(1)), (F(-3), F(-1, 2), F(2), F(1), F(1, 2)),
]


def _key_boundaries():
    """Three seeded point sets per mass vector: the atom order, and so the
    order of the masses, differs between them."""
    rng = random.Random(20261018)
    return [make_boundary(((rng.uniform(0, 2), rng.uniform(0, 2)), m)
                          for m in masses)
            for masses in KEY_MASSES for _ in range(3)]


KEY_BOUNDARIES = _key_boundaries()


def _flowed(b, topologies):
    out = []
    for t in topologies:
        try:
            out.append(assign_flows(*t, b))
        except InfeasibleTopologyError:
            pass
    return out


@lru_cache(maxsize=None)
def _assigned_forests(b):
    return _flowed(b, all_forests(b))


def _assert_same_classes(fts):
    pairs = {(ft.signature(), relabeling_signature(ft)) for ft in fts}
    assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
    return len(pairs)


def test_split_key_classes_match_relabeling_key():
    flowed = distinct = 0
    for b in KEY_BOUNDARIES:
        fts = _assigned_forests(b)
        flowed += len(fts)
        distinct += _assert_same_classes(fts)
    assert distinct < flowed  # forests with a zero-flow edge repeat smaller ones


@pytest.mark.parametrize("masses", [
    (-1, -1, -1, 1, 1, 1), (F(-3), F(-1, 2), F(2), F(1), F(3, 2), F(-1))])
def test_split_key_classes_match_relabeling_key_full(masses):
    rng = random.Random(7)
    b = make_boundary(((rng.uniform(0, 2), rng.uniform(0, 2)), F(m))
                      for m in masses)
    fts = _flowed(b, _unskipped_full_topologies(b))
    assert _assert_same_classes(fts) < len(fts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_key_ignores_branch_labels_and_edge_order(data):
    b = data.draw(st.sampled_from(KEY_BOUNDARIES))
    ft = data.draw(st.sampled_from(_assigned_forests(b)))
    n, m = ft.n_terminals, ft.n_branch
    label = list(range(n)) + [n + p for p in
                              data.draw(st.permutations(range(m)))]
    edges, flows = [], []
    for i in data.draw(st.permutations(range(len(ft.edges)))):
        (u, v), f = ft.edges[i], ft.edge_flows[i]
        a, c = label[u], label[v]
        edges.append((min(a, c), max(a, c)))
        flows.append(f if a < c else -f)
    moved = FlowedTopology(n, m, tuple(edges), tuple(flows))
    assert moved.signature() == ft.signature()


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52),
                                    (6, 203), (7, 877)])
def test_set_partitions_each_once(n, bell):
    parts = [frozenset(frozenset(blk) for blk in p)
             for p in set_partitions(tuple(range(n)))]
    assert len(parts) == bell == len(set(parts))
    assert all(set().union(*p) == set(range(n)) for p in parts)


def test_no_infeasible_topologies_with_unbalanced_blocks():
    b = line_boundary(5)  # the lone source balances no proper block
    fts = list(enumerate_topologies(b))
    assert len(fts) == 15 and all(ft.n_branch == 3 for ft in fts)
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.2), F(1)),
                       ((2.0, -0.1), F(-2)), ((0.5, 1.0), F(2)),
                       ((1.5, 1.3), F(1)), ((0.3, 2.0), F(-1))])
    report = solve(b, SolverConfig(alpha=0.7))
    assert report.stats["infeasible"] == 0
    assert report.stats["enumerated"] == len(list(enumerate_topologies(b)))


# ---------------------------------------------------------------------------
# flow assignment
# ---------------------------------------------------------------------------

def test_star_flows():
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.0), F(1)),
                       ((1.0, -1.0), F(1))])
    ft = assign_flows(1, ((0, 3), (1, 3), (2, 3)), b)
    flows = dict(zip(ft.edges, ft.edge_flows))
    # atoms sort as (0,0):-2, (1,-1):+1, (1,1):+1; positive flow runs from
    # the lower-indexed vertex to the higher one
    assert flows[(0, 3)] == F(2)       # source feeds the branch vertex
    assert flows[(1, 3)] == F(-1) and flows[(2, 3)] == F(-1)  # branch feeds sinks


def test_two_terminal_flow():
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1))])
    ft = assign_flows(0, ((0, 1),), b)
    assert ft.edge_flows == (F(1),)


def test_matching_forest_flows(square_boundary):
    # atoms sort: (0,0):-1, (0,1):+1, (1,0):+1, (1,1):-1
    ft = assign_flows(0, ((0, 1), (2, 3)), square_boundary)
    assert ft.edge_flows == (F(1), F(-1))


def test_unbalanced_component_infeasible(square_boundary):
    with pytest.raises(InfeasibleTopologyError):
        assign_flows(0, ((0, 3), (1, 2)), square_boundary)


def test_realized_boundary_exact():
    rng = random.Random(4)
    for _ in range(10):
        b = _random_balanced_boundary(rng, 4)
        terminals = tuple(p for p, _ in b.atoms)
        for t in all_forests(b):
            try:
                ft = assign_flows(*t, b)
            except InfeasibleTopologyError:
                continue
            branch = tuple(
                (rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(ft.n_branch))
            chain = realize_chain(ft, Placement(terminals, branch))
            assert boundary(chain).as_dict() == b.as_dict()


def test_zero_flow_edge_degenerates():
    # path t0 - t1 - t2 where t1's mass forces zero flow beyond it
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1)),
                       ((2.0, 0.0), F(-1)), ((3.0, 0.0), F(1))])
    t = (0, ((0, 1), (1, 2), (2, 3)))
    ft = assign_flows(*t, b)
    assert shrank(t, ft)
    assert len(ft.edges) == 2  # middle edge carried zero


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def _on_four(n_branch, edges, flows):
    return FlowedTopology(4, n_branch, edges, tuple(F(f) for f in flows))


def test_contract_splices_a_chain_of_degree_2_branch_vertices():
    # the path t0 - b4 - b5 - t1 becomes one edge t0-t1, whose flow is the
    # mass on its higher end's side, -1; b4 and b5 lift onto the terminal
    # next to each
    ft = _on_four(2, ((0, 4), (1, 5), (2, 3), (4, 5)), (-1, 1, -1, -1))
    assert contract(ft) == (_on_four(0, ((0, 1), (2, 3)), (-1, -1)),
                            (0, 1, 2, 3, 0, 1))


def test_contract_splices_a_branch_vertex_below_both_neighbors():
    # b6 carries 2 from b8's side to b7's: the edge b7-b8 that replaces it
    # has flow -2 from b7 to b8, and then the labels 6, 7
    ft = FlowedTopology(
        6, 3, ((0, 7), (1, 7), (2, 8), (3, 8), (4, 5), (6, 7), (6, 8)),
        (F(-1), F(-1), F(1), F(1), F(-1), F(2), F(-2)))
    contracted, cluster = contract(ft)
    assert contracted == FlowedTopology(
        6, 2, ((0, 6), (1, 6), (2, 7), (3, 7), (4, 5), (6, 7)),
        (F(-1), F(-1), F(1), F(1), F(-1), F(-2)))
    assert cluster[6] in (6, 7) and cluster[7:] == (6, 7)


def test_contract_drops_a_zero_flow_edge():
    # b4-b5 splits the masses into balanced halves; b4 and b5 are left
    # with two neighbors each and lift onto one of them
    ft = _on_four(2, ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),
                 (-1, 1, -1, 1, 0))
    contracted, cluster = contract(ft)
    assert contracted == _on_four(0, ((0, 1), (2, 3)), (-1, -1))
    assert cluster[:4] == (0, 1, 2, 3)
    assert cluster[4] in (0, 1) and cluster[5] in (2, 3)


def test_contract_refuses_a_degree_1_branch_vertex():
    ft = _on_four(2, ((0, 4), (1, 4), (2, 4), (3, 5)), (1, 1, 1, 1))
    with pytest.raises(AssertionError, match="degree-1"):
        contract(ft)


def test_assign_flows_drops_a_component_without_terminals(square_boundary):
    # atoms sort: (0,0):-1, (0,1):+1, (1,0):+1, (1,1):-1; the edge 4-5
    # carries no flow, and its branch vertices lift onto terminal 0
    edges = ((0, 2), (1, 3), (4, 5))
    want = FlowedTopology(4, 0, ((0, 2), (1, 3)), (F(1), F(-1)))
    assert assign_flows(2, edges, square_boundary) == want
    assert contract(FlowedTopology(4, 2, edges, (F(1), F(-1), F(0)))) == (
        want, (0, 1, 2, 3, 0, 0))


def _random_balanced_boundary(rng, n, dim=2):
    atoms = []
    total = F(0)
    for i in range(n - 1):
        m = F(rng.randint(-4, 4), rng.randint(1, 3))
        if m == 0:
            m = F(1)
        total += m
        atoms.append((tuple(rng.uniform(-2, 2) for _ in range(dim)), m))
    atoms.append((tuple(rng.uniform(-2, 2) for _ in range(dim)), -total))
    if any(m == 0 for _, m in atoms):
        return _random_balanced_boundary(rng, n, dim)
    return make_boundary(atoms)


# ---------------------------------------------------------------------------
# flows by leaf stripping, the reference of the split sums
# ---------------------------------------------------------------------------

def leaf_stripping_flows(n_branch, edges, b):
    """The flow rule the split sums replaced, kept as their reference: each
    leaf passes its demand to its neighbour across its edge and is removed,
    then the flows are normalized like :func:`assign_flows` does."""
    masses = tuple(m for _, m in b.atoms)
    n = len(masses)
    nv = n + n_branch
    adj = {v: set() for v in range(nv)}
    edge_index = {}
    for i, (u, v) in enumerate(edges):
        adj[u].add(v)
        adj[v].add(u)
        edge_index[(u, v)] = i

    # required net inflow at each vertex
    demand = [masses[v] if v < n else F(0) for v in range(nv)]
    flows = [None] * len(edges)
    for v in range(n):
        if not adj[v]:
            raise InfeasibleTopologyError(f"terminal {v} is isolated")

    stack = [v for v in range(nv) if len(adj[v]) == 1]
    processed = [False] * nv
    while stack:
        v = stack.pop(0)
        if processed[v] or len(adj[v]) != 1:
            continue
        processed[v] = True
        u = next(iter(adj[v]))
        e = (min(u, v), max(u, v))
        i = edge_index[e]
        # flow oriented low -> high endpoint; inflow at v must equal demand[v]
        flows[i] = demand[v] if e[1] == v else -demand[v]
        demand[u] += demand[v]
        demand[v] = F(0)
        adj[u].discard(v)
        adj[v].clear()
        if len(adj[u]) == 1:
            stack.append(u)
        elif len(adj[u]) == 0 and demand[u] != 0:
            raise InfeasibleTopologyError("component masses do not balance")
    for v in range(nv):
        if adj[v]:
            raise AssertionError("leaf stripping left a cycle (not a forest)")
        if demand[v] != 0:
            raise InfeasibleTopologyError("component masses do not balance")

    assert all(f is not None for f in flows)
    return contract(FlowedTopology(n, n_branch, edges, tuple(flows)))[0]


def _flow_instances():
    """The zero-flow instances, both 6-atom mass vectors of the benchmark,
    random 3-D instances and the dented square's 1/k masses."""
    yield from _zero_flow_instances()
    rng = random.Random(11)
    for masses in ((-1, -1, -1, 1, 1, 1),
                   (F(-3), F(-1, 2), F(2), F(1), F(3, 2), F(-1))):
        yield make_boundary(((rng.uniform(0, 2), rng.uniform(0, 2)), F(m))
                            for m in masses)
    for n in (3, 4, 5, 6):
        yield _random_balanced_boundary(rng, n, dim=3)
    yield dented_square(0.05)


def test_enumerated_flows_match_leaf_stripping():
    for b in _flow_instances():
        fts = list(enumerate_topologies(b))
        assert fts
        for ft in fts:
            assert leaf_stripping_flows(ft.n_branch, ft.edges, b) == ft


def test_assign_flows_matches_leaf_stripping():
    flowed = infeasible = 0
    for b in KEY_BOUNDARIES:
        for t in all_forests(b):
            try:
                want = leaf_stripping_flows(*t, b)
            except InfeasibleTopologyError:
                with pytest.raises(InfeasibleTopologyError):
                    assign_flows(*t, b)
                infeasible += 1
                continue
            assert assign_flows(*t, b) == want
            flowed += 1
    assert flowed and infeasible


@pytest.mark.parametrize("masses,m,edges", [
    ((-2, 1, 1), 0, ((0, 1), (0, 2), (1, 2))),          # terminal triangle
    ((-1, 1, -2, 1, 1), 3,                               # a triangle of branch
     ((0, 1), (2, 3), (2, 4), (5, 6), (5, 7), (6, 7))),  # vertices on its own
])
def test_cycles_are_rejected(masses, m, edges):
    b = make_boundary(((float(i), 0.0), F(x)) for i, x in enumerate(masses))
    with pytest.raises(AssertionError, match="cycle"):
        FlowedTopology(len(masses), m, edges, (F(1),) * len(edges)).signature()
    for flows in (assign_flows, leaf_stripping_flows):
        with pytest.raises(AssertionError, match="cycle"):
            flows(m, edges, b)


TRIANGLE = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)),
                          ((1.0, -0.3), F(1))])


@pytest.mark.parametrize("build,message", [
    (lambda: FlowedTopology(3, 2, ((0, 3), (1, 3), (2, 4), (3, 4)),
                            (F(-2), F(1), F(1), F(0))),
     r"too many branch vertices \(bound is n - 2\)"),
    (lambda: FlowedTopology(3, 1, ((3, 0), (1, 3), (2, 3)),
                            (F(-2), F(-1), F(-1))),
     "edge endpoints out of range or unordered"),
    (lambda: list(enumerate_topologies(make_boundary([((0.0, 0.0), F(1))]))),
     "at least 2 atoms"),
    # a malformed forest is refused before any flow is computed: each of
    # these leaves a terminal alone, an unbalanced component
    (lambda: assign_flows(2, ((0, 3), (1, 4)), TRIANGLE),
     r"too many branch vertices \(bound is n - 2\)"),
    (lambda: assign_flows(1, ((3, 0), (1, 3)), TRIANGLE),
     "edge endpoints out of range or unordered"),
    (lambda: assign_flows(1, ((0, 3), (1, 3), (2, 5)), TRIANGLE),
     "edge endpoints out of range or unordered"),
], ids=["branch-count", "unordered-edge", "one-atom", "assign-branch-count",
        "assign-unordered-edge", "assign-out-of-range"])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
