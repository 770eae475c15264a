"""Action-family construction, enumeration, membership, and the
layered-path/multitask correspondence.

Expected values come from brute-force oracles defined here: hypercube
filtering by the raw membership constraints, DFS path enumeration on the
constructed graph, a per-tuple ``itertools`` construction of the canonical
action list, and a layer-by-layer walk for path membership.
"""

import itertools
import pickle

import numpy as np
import pytest

from combandit import (
    DEFAULT_ENUMERATION_CAP,
    ActionSetError,
    EnumerationCapExceeded,
    LayeredPathSet,
    MatchingSet,
    MultitaskSet,
    action_to_string,
    build_action_set,
    build_layered_path_graph,
    build_matching,
    build_multitask,
)


def brute_force(d, predicate):
    """All of {0,1}^d passing ``predicate``, as a set of bit strings."""
    out = set()
    for bits in itertools.product((0, 1), repeat=d):
        if predicate(np.array(bits, dtype=np.uint8)):
            out.add("".join(map(str, bits)))
    return out


def multitask_predicate(k, n):
    def pred(bits):
        return all(bits[j * n:(j + 1) * n].sum() == 1 for j in range(k))
    return pred


def matching_predicate(k, n):
    def pred(bits):
        grid = bits.reshape(k, n)
        return (grid.sum(axis=1) == 1).all() and (grid.sum(axis=0) <= 1).all()
    return pred


def dfs_paths(edge_list, source, target):
    """All s-t paths as frozensets of edge indices, by depth-first search."""
    out_edges = {}
    for idx, (u, v) in enumerate(edge_list):
        out_edges.setdefault(u, []).append((idx, v))
    paths = []

    def walk(vertex, used):
        if vertex == target:
            paths.append(frozenset(used))
            return
        for idx, nxt in out_edges.get(vertex, ()):
            walk(nxt, used + [idx])

    walk(source, [])
    return paths


def choice_tuples(s):
    """Every action's choice tuple, in canonical order."""
    if isinstance(s, LayeredPathSet):
        return itertools.product(range(s.fan), repeat=s.layers)
    if isinstance(s, MatchingSet):
        return itertools.permutations(range(s.dims.n), s.dims.k)
    return itertools.product(range(s.dims.n), repeat=s.dims.k)


def oracle_enumeration(s):
    """Canonical action matrix and active coordinates built one action at a
    time: one choice tuple per row, its coordinates set one by one (block j
    of multitask/matching activates ``j*n + c``; layer j of a path activates
    its fan-out edge ``j*2f + v`` and fan-in edge ``j*2f + f + v``)."""
    k, n, d = s.dims.k, s.dims.n, s.dims.d
    rows = []
    for choices in choice_tuples(s):
        bits = np.zeros(d, dtype=np.uint8)
        for j, c in enumerate(choices):
            if isinstance(s, LayeredPathSet):
                bits[j * 2 * s.fan + c] = 1
                bits[j * 2 * s.fan + s.fan + c] = 1
            else:
                bits[j * n + c] = 1
        rows.append(bits)
    matrix = np.asarray(rows, dtype=np.uint8)
    active = np.nonzero(matrix)[1].reshape(matrix.shape[0], k).astype(np.int64)
    return matrix, active


def walk_contains(g, bits):
    """Path membership by walking the graph from s, layer by layer."""
    if int(bits.sum()) != g.dims.k:
        return False
    for j in range(g.layers):
        out_active = [v for v in range(g.fan) if bits[g.fan_out_edge(j, v)]]
        if len(out_active) != 1:
            return False
        in_active = [w for w in range(g.fan) if bits[g.fan_in_edge(j, w)]]
        if in_active != out_active:
            return False
    return True


def hypercube(d):
    """All 2^d 0/1 vectors of length d, (2^d, d) uint8."""
    return ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(np.uint8)


ENUMERATION_GRID = [
    *[(build_multitask, kn) for kn in [(1, 2), (2, 4), (3, 8), (2, 12), (5, 3), (4, 5)]],
    *[(build_matching, kn) for kn in [(1, 1), (1, 5), (3, 5), (4, 4), (5, 9), (6, 8),
                                      (7, 7), (2, 10)]],
    *[(build_layered_path_graph, kd) for kd in [(2, 4), (4, 8), (4, 12), (6, 18),
                                                (8, 32), (10, 30)]],
]


class TestMultitask:
    def test_k2_n2_matches_brute_force(self):
        s = build_multitask(2, 2)
        got = {action_to_string(b) for b in s.enumerate_actions()}
        assert got == brute_force(4, multitask_predicate(2, 2))
        assert got == {"1010", "1001", "0110", "0101"}

    def test_k2_n2_canonical_order(self):
        s = build_multitask(2, 2)
        listed = [action_to_string(b) for b in s.enumerate_actions()]
        assert listed == ["1010", "1001", "0110", "0101"]

    def test_k1_n2(self):
        s = build_multitask(1, 2)
        assert s.cardinality == 2
        assert [action_to_string(b) for b in s.enumerate_actions()] == ["10", "01"]

    def test_k3_n4_matches_brute_force(self):
        s = build_multitask(3, 4)
        assert s.cardinality == 64
        got = {action_to_string(b) for b in s.enumerate_actions()}
        assert got == brute_force(12, multitask_predicate(3, 4))

    def test_rejects_n1_and_k0(self):
        with pytest.raises(ActionSetError, match="n >= 2"):
            build_multitask(2, 1)
        with pytest.raises(ActionSetError, match="k must be"):
            build_multitask(0, 3)

    def test_contains(self):
        s = build_multitask(2, 2)
        assert s.contains(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert not s.contains(np.array([1, 1, 0, 0], dtype=np.uint8))
        with pytest.raises(ActionSetError, match="length"):
            s.contains(np.array([1, 0, 1], dtype=np.uint8))


class TestMatching:
    def test_k2_n3_matches_brute_force(self):
        s = build_matching(2, 3)
        assert s.cardinality == 6
        got = {action_to_string(b) for b in s.enumerate_actions()}
        assert got == brute_force(6, matching_predicate(2, 3))

    def test_k1_n3_one_hots(self):
        s = build_matching(1, 3)
        assert [action_to_string(b) for b in s.enumerate_actions()] == [
            "100", "010", "001"]

    def test_k2_n4_cardinality(self):
        s = build_matching(2, 4)
        assert s.cardinality == 12
        assert s.enumerate_actions().shape == (12, 8)
        got = {action_to_string(b) for b in s.enumerate_actions()}
        assert got == brute_force(8, matching_predicate(2, 4))

    def test_rejects_k_above_n(self):
        with pytest.raises(ActionSetError, match="k <= n"):
            build_matching(3, 2)

    def test_full_permutations_allowed(self):
        # k = n is admissible for construction even though the randomized
        # environment experiments assume k <= n/2
        s = build_matching(3, 3)
        assert s.cardinality == 6
        got = {action_to_string(b) for b in s.enumerate_actions()}
        assert got == brute_force(9, matching_predicate(3, 3))

    def test_contains_rejects_column_collision(self):
        s = build_matching(2, 3)
        assert not s.contains(np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8))
        assert s.contains(np.array([1, 0, 0, 0, 1, 0], dtype=np.uint8))


class TestLayeredPath:
    def test_k4_d8_layout(self):
        g = build_layered_path_graph(4, 8)
        assert g.num_vertices == 7
        assert g.num_edges == 8
        assert g.layers == 2
        assert g.cardinality == 4
        assert all(int(b.sum()) == 4 for b in g.enumerate_actions())

    def test_k2_d4_smallest_instance(self):
        g = build_layered_path_graph(2, 4)
        assert g.layers == 1
        assert g.fan == 2
        assert g.cardinality == 2
        assert all(int(b.sum()) == 2 for b in g.enumerate_actions())

    def test_k4_d16_path_count_matches_dfs(self):
        g = build_layered_path_graph(4, 16)
        assert g.cardinality == 16
        oracle = dfs_paths(g.edge_list(), 0, g.num_vertices - 1)
        assert len(oracle) == 16
        enumerated = {frozenset(np.flatnonzero(b)) for b in g.enumerate_actions()}
        assert enumerated == set(oracle)

    def test_k4_d8_paths_match_dfs(self):
        g = build_layered_path_graph(4, 8)
        oracle = dfs_paths(g.edge_list(), 0, g.num_vertices - 1)
        enumerated = {frozenset(np.flatnonzero(b)) for b in g.enumerate_actions()}
        assert enumerated == set(oracle)

    @pytest.mark.parametrize("k,d,rule", [
        (3, 12, "even k"),
        (4, 10, "divisible"),
        (4, 4, "k <= d/2"),
    ])
    def test_divisibility_diagnostics(self, k, d, rule):
        with pytest.raises(ActionSetError, match=rule):
            build_layered_path_graph(k, d)

    def test_odd_d_rejected(self):
        with pytest.raises(ActionSetError):
            build_layered_path_graph(2, 9)

    @pytest.mark.parametrize("k,d", [(4, 8), (4, 12)])
    def test_contains_matches_the_walk_on_every_vector(self, k, d):
        g = build_layered_path_graph(k, d)
        verdicts = [g.contains(bits) for bits in hypercube(d)]
        assert verdicts == [walk_contains(g, bits) for bits in hypercube(d)]
        assert sum(verdicts) == g.cardinality

    def test_contains_walks_the_graph(self):
        g = build_layered_path_graph(4, 8)
        for bits in g.enumerate_actions():
            assert g.contains(bits)
        # right count of ones but mismatched fan-in edge: not a path
        broken = np.zeros(8, dtype=np.uint8)
        broken[[0, 3, 4, 6]] = 1
        assert not g.contains(broken)
        assert not g.contains(np.ones(8, dtype=np.uint8) * 0)


@pytest.mark.parametrize("build,args", [
    (build_multitask, (2, 3)), (build_multitask, (3, 2)),
    (build_layered_path_graph, (2, 6)), (build_layered_path_graph, (4, 8)),
    (build_matching, (2, 3)), (build_matching, (3, 3)), (build_matching, (2, 4))])
def test_contains_exactly_the_enumerated_actions(build, args):
    s = build(*args)
    actions = s.enumerate_actions()
    listed = {a.tobytes() for a in actions}
    cube = hypercube(s.dims.d)
    assert [s.contains(v) for v in cube] == [v.tobytes() in listed for v in cube]
    if isinstance(s, LayeredPathSet):
        for path in actions:
            back = s.multitask_to_path(s.path_to_multitask(path))
            assert (back.dtype, back.tobytes()) == (np.uint8, path.tobytes())


@pytest.mark.parametrize("build,args,field", [
    (build_layered_path_graph, (0, 8), "k"),
    (build_layered_path_graph, (2, 0), "d"),
    (build_multitask, (2, 0), "n"),
    (build_matching, (-1, 3), "k"),
    (build_matching, (2, 0), "n"),
])
def test_positivity_check_names_the_field(build, args, field):
    with pytest.raises(ActionSetError, match=f"^{field} must be >= 1"):
        build(*args)


@pytest.mark.parametrize("build,args", [
    (build_multitask, (2, 2)), (build_matching, (2, 2)),
    (build_layered_path_graph, (2, 4))])
@pytest.mark.parametrize("entry", [2, -1, 0.5, np.nan])
def test_contains_rejects_non_binary_entries(build, args, entry):
    s = build(*args)
    bits = s.enumerate_actions()[0].astype(np.float64)
    bits[0] = entry
    with pytest.raises(ActionSetError, match="0 or 1"):
        s.contains(bits)


class TestEnumeration:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (2, 5), (3, 3), (4, 2)])
    def test_multitask_cardinality_identity(self, k, n):
        s = build_multitask(k, n)
        matrix = s.enumerate_actions()
        assert matrix.shape[0] == n**k == s.cardinality
        assert len({action_to_string(b) for b in matrix}) == n**k
        assert all(s.contains(b) for b in matrix)
        assert (matrix.sum(axis=1) == k).all()

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (2, 4), (3, 4), (4, 4)])
    def test_matching_cardinality_identity(self, k, n):
        s = build_matching(k, n)
        matrix = s.enumerate_actions()
        expect = int(np.prod([n - i for i in range(k)]))
        assert matrix.shape[0] == expect == s.cardinality
        assert all(s.contains(b) for b in matrix)
        assert (matrix.sum(axis=1) == k).all()

    @pytest.mark.parametrize("k,d", [(2, 4), (2, 8), (4, 8), (4, 16), (6, 18)])
    def test_path_cardinality_identity(self, k, d):
        g = build_layered_path_graph(k, d)
        matrix = g.enumerate_actions()
        assert matrix.shape[0] == (d // k) ** (k // 2) == g.cardinality
        assert all(g.contains(b) for b in matrix)
        assert (matrix.sum(axis=1) == k).all()

    def test_cap_refusal_names_cardinality(self):
        s = build_multitask(10, 4)
        assert s.cardinality == 4**10 == 1_048_576
        with pytest.raises(EnumerationCapExceeded, match="1048576"):
            s.enumerate_actions()  # default cap 10^6
        with pytest.raises(EnumerationCapExceeded):
            MultitaskSet(10, 4, cap=10**5).enumerate_actions()

    def test_configurable_cap_allows_more(self):
        s = MultitaskSet(6, 3, cap=1000)
        assert s.enumerate_actions().shape[0] == 729

    @pytest.mark.parametrize("build,args", ENUMERATION_GRID)
    @pytest.mark.parametrize("first", ["enumerate_actions", "active_coords"])
    def test_matches_the_per_tuple_oracle(self, build, args, first):
        s = build(*args)
        getattr(s, first)()
        matrix, active = s.enumerate_actions(), s.active_coords()
        want_matrix, want_active = oracle_enumeration(s)
        assert (matrix.shape, matrix.dtype) == (want_matrix.shape, want_matrix.dtype)
        assert matrix.tobytes() == want_matrix.tobytes()
        assert (active.shape, active.dtype) == (want_active.shape, want_active.dtype)
        assert active.tobytes() == want_active.tobytes()

    @pytest.mark.parametrize("build,args", [
        (build_multitask, (3, 4)), (build_matching, (3, 5)),
        (build_layered_path_graph, (6, 18))])
    def test_choices_to_bits_gives_the_matrix_row(self, build, args):
        s = build(*args)
        matrix = s.enumerate_actions()
        for row, choices in zip(matrix, choice_tuples(s), strict=True):
            assert s._choices_to_bits(choices).tobytes() == row.tobytes()

    @pytest.mark.parametrize("build,args", ENUMERATION_GRID)
    def test_first_action_is_the_first_enumerated_row(self, build, args):
        s = build(*args)
        first = s.first_action()
        assert s._matrix is None  # built from choice tuple 0, not enumerated
        assert first.dtype == np.uint8
        assert first.tobytes() == s.enumerate_actions()[0].tobytes()

    @pytest.mark.parametrize("build,args", [
        (build_multitask, (32, 2)), (build_layered_path_graph, (64, 128)),
        (build_matching, (20, 40))])
    def test_first_action_needs_no_cap(self, build, args):
        s = build(*args)
        assert s.cardinality > 10**9
        assert s.contains(s.first_action())

    @pytest.mark.parametrize("build,args", ENUMERATION_GRID)
    def test_block_table_lists_each_choice_coordinates_in_order(self, build, args):
        s = build(*args)
        table = s._block_coords
        blocks, arms, width = table.shape
        assert blocks * width == s.dims.k and blocks * arms * width == s.dims.d
        flat = table.reshape(blocks, -1)
        assert (np.diff(table, axis=2) > 0).all()
        assert (flat[1:].min(axis=1) > flat[:-1].max(axis=1)).all()
        assert sorted(table.ravel().tolist()) == list(range(s.dims.d))

    @pytest.mark.parametrize("method", ["enumerate_actions", "active_coords"])
    def test_cap_refusal_allocates_nothing(self, method):
        import tracemalloc

        s = build_matching(10, 20)
        assert s.cardinality == 670_442_572_800

        def refuse():
            raise AssertionError("choices built before the cap check")

        s._choices = refuse
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded, match="670442572800"):
                getattr(s, method)()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert s._matrix is None and s._active is None

    @pytest.mark.parametrize("family,k,n,d", [
        ("multitask", 4, 3, None), ("matching", 3, 4, None), ("path", 4, None, 16)])
    def test_cap_is_given_where_the_set_is_built(self, family, k, n, d):
        s = build_action_set(family, k, n, d, cap=10)
        assert s.cap == 10 and s.cardinality > 10
        with pytest.raises(EnumerationCapExceeded, match="enumeration cap 10"):
            s.enumerate_actions()
        assert build_action_set(family, k, n, d).cap == DEFAULT_ENUMERATION_CAP

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(ActionSetError, match=f"cap must be >= 1, got {cap}"):
            MultitaskSet(2, 2, cap=cap)

    def test_multitask_image_keeps_the_graphs_cap(self):
        g = LayeredPathSet(4, 16, cap=10)
        assert g.multitask_image().cap == 10

    def test_pickled_set_keeps_its_cap_and_leaves_its_caches(self):
        s = MatchingSet(3, 6, cap=500)
        matrix, layout = s.enumerate_actions(), s.oracle_layout()
        copy = pickle.loads(pickle.dumps(s))
        assert copy.cap == 500
        assert copy._matrix is None and copy._active is None
        assert copy.enumerate_actions().tobytes() == matrix.tobytes()
        assert s._matrix is matrix
        # the oracle's transitions are the process's, one per shape
        assert copy.oracle_layout() is layout and s.oracle_layout() is layout

    def test_cached_active_coords_still_check_the_cap(self):
        s = build_multitask(2, 2)
        assert s.active_coords().tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
        s.cap = 1
        with pytest.raises(EnumerationCapExceeded):
            s.active_coords()
        with pytest.raises(EnumerationCapExceeded):
            s.enumerate_actions()


class TestBijection:
    def test_single_layer_direct_index(self):
        g = build_layered_path_graph(2, 4)
        first_path = g.enumerate_actions()[0]
        assert action_to_string(g.path_to_multitask(first_path)) == "10"

    def test_two_layer_example(self):
        g = build_layered_path_graph(4, 8)
        # layer 1 through intermediate 2, layer 2 through intermediate 1
        bits = g._choices_to_bits((1, 0))
        assert action_to_string(g.path_to_multitask(bits)) == "0110"

    def test_round_trip_all_paths_k4_d16(self):
        g = build_layered_path_graph(4, 16)
        for bits in g.enumerate_actions():
            mapped = g.path_to_multitask(bits)
            assert np.array_equal(g.multitask_to_path(mapped), bits)

    def test_bijection_respects_enumeration_order(self):
        g = build_layered_path_graph(4, 8)
        image = g.multitask_image()
        mapped = [action_to_string(g.path_to_multitask(b))
                  for b in g.enumerate_actions()]
        assert mapped == [action_to_string(b) for b in image.enumerate_actions()]

    def test_is_a_bijection(self):
        g = build_layered_path_graph(6, 18)
        mapped = {action_to_string(g.path_to_multitask(b))
                  for b in g.enumerate_actions()}
        assert len(mapped) == g.cardinality == g.multitask_image().cardinality

    def test_maps_every_path_to_its_fan_out_rows(self):
        g = build_layered_path_graph(6, 18)
        for bits, arms in zip(g.enumerate_actions(),
                              g.multitask_image().enumerate_actions(), strict=True):
            mapped = g.path_to_multitask(bits)
            assert (mapped.dtype, mapped.tobytes()) == (np.uint8, arms.tobytes())
            back = g.multitask_to_path(arms)
            assert (back.dtype, back.tobytes()) == (np.uint8, bits.tobytes())

    def test_rejects_non_path(self):
        g = build_layered_path_graph(4, 8)
        broken = np.zeros(8, dtype=np.uint8)
        broken[[0, 1, 2, 3]] = 1
        with pytest.raises(ActionSetError, match="path"):
            g.path_to_multitask(broken)


class TestSerialization:
    def test_round_trip(self):
        # coordinate 1 leftmost, in permutation order of (row 0, row 1) columns
        strings = [action_to_string(b) for b in build_matching(2, 3).enumerate_actions()]
        assert strings == ["100010", "100001", "010100", "010001", "001100", "001010"]

    def test_describe(self):
        assert build_multitask(2, 3).describe() == (
            "family=multitask d=6 k=2 n=3 cardinality=9")
