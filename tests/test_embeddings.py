import hashlib
from itertools import permutations

import pytest

from decomplab.errors import DegreeError, InputError
from decomplab.embeddings import (Packing, _orbit_bounds, _plan, _search,
                                   enumerate_embeddings, find_embedding,
                                   orbit_representatives, rank_masks)
from decomplab.graphs import (EmbeddedCopy, Graph, GraphMap, complete_graph,
                              complete_bipartite, cycle_graph, norm_edge,
                              path_graph)
from decomplab.hamilton import hamilton_cycle, edge_disjoint_hamilton_cycles


def brute_force_embeddings(pattern, host):
    """Independent oracle: scan all injections."""
    out = []
    for img in permutations(range(host.n), pattern.n):
        if all(host.has_edge(img[u], img[v]) for u, v in pattern.edges):
            out.append(img)
    return out


def edge_set(pattern, img):
    """The host edges of the copy of `pattern` with image `img`."""
    return frozenset(norm_edge(img[u], img[v]) for u, v in pattern.edges)


def test_k3_in_k4_labelled_count():
    k3, k4 = complete_graph(3), complete_graph(4)
    oracle = brute_force_embeddings(k3, k4)
    assert len(oracle) == 24
    found = enumerate_embeddings(k3, k4)
    assert len(found) == 24
    assert set(found) == set(oracle)
    # 4 copies up to vertex set
    assert len({frozenset(img) for img in found}) == 4
    assert len(enumerate_embeddings(k3, k4, dedup_by_edges=True)) == 4


def test_single_edge_two_embeddings():
    k2 = Graph(2, [(0, 1)])
    host = Graph(2, [(0, 1)])
    found = enumerate_embeddings(k2, host)
    assert sorted(found) == [(0, 1), (1, 0)]


def test_no_room_is_empty():
    assert enumerate_embeddings(cycle_graph(4), complete_graph(3)) == []


def test_pins_respected_and_identity_found():
    c6 = cycle_graph(6)
    found = enumerate_embeddings(c6, c6, pins={0: 0, 1: 1})
    assert any(img == tuple(range(6)) for img in found)
    for img in found:
        assert img[0] == 0 and img[1] == 1
        assert EmbeddedCopy(c6, img).is_valid(c6)


def test_pins_must_be_injective():
    k3 = complete_graph(3)
    with pytest.raises(InputError):
        enumerate_embeddings(k3, complete_graph(4), pins={0: 1, 1: 1})


def test_limit_truncates_deterministically():
    k3, k6 = complete_graph(3), complete_graph(6)
    full = enumerate_embeddings(k3, k6)
    head = enumerate_embeddings(k3, k6, limit=7)
    assert head == full[:7]


def test_matches_brute_force_on_random_patterns():
    import random
    rng = random.Random(7)
    for _ in range(25):
        pn = rng.randint(2, 4)
        hn = rng.randint(pn, 6)
        pat = Graph(pn, [(i, j) for i in range(pn) for j in range(i + 1, pn)
                         if rng.random() < .6])
        host = Graph(hn, [(i, j) for i in range(hn) for j in range(i + 1, hn)
                          if rng.random() < .6])
        got = set(enumerate_embeddings(pat, host))
        assert got == set(brute_force_embeddings(pat, host))


ORBIT_PATTERNS = {
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "K33": complete_bipartite(3, 3),
    "P3": path_graph(2),
    "P4": path_graph(3),
    "paw": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "K13": complete_bipartite(1, 3),
    "P3+2K1": Graph(5, [(1, 2), (2, 4)]),
}


@pytest.mark.parametrize("name", list(ORBIT_PATTERNS))
def test_orbit_representatives_match_brute_force_automorphisms(name):
    pattern = ORBIT_PATTERNS[name]
    auts = [s for s in permutations(range(pattern.n))
            if all(pattern.has_edge(s[u], s[v]) for u, v in pattern.edges)]
    vertices = tuple((p,) for p in range(pattern.n))
    arcs = tuple(a for p, q in sorted(pattern.edges) for a in ((p, q), (q, p)))
    for items in (vertices, arcs):
        expect = []
        for b in items:
            if not any(tuple(s[x] for x in a) == b
                       for a in expect for s in auts):
                expect.append(b)
        assert orbit_representatives(pattern, items) == tuple(expect)


# the patterns of the symmetry-breaking checks: the orbit patterns plus K4
# and a triangle with an isolated vertex placed first or last
SYMMETRY_PATTERNS = {
    **{k: v for k, v in ORBIT_PATTERNS.items() if k != "P3+2K1"},
    "K4": complete_graph(4),
    "K1+K3": Graph(4, [(1, 2), (2, 3), (1, 3)]),
    "K3+K1": Graph(4, [(0, 1), (1, 2), (0, 2)]),
}


def automorphisms(pattern, fixed=()):
    return [s for s in permutations(range(pattern.n))
            if all(s[x] == x for x in fixed)
            and all(pattern.has_edge(s[u], s[v]) for u, v in pattern.edges)]


def first_per_edge_set(pattern, images):
    """Reference dedup: the first labelled embedding of each edge set."""
    seen, out = set(), []
    for img in images:
        if edge_set(pattern, img) not in seen:
            seen.add(edge_set(pattern, img))
            out.append(img)
    return out


@pytest.mark.parametrize("pins, host_order", [
    ({}, [0, 0, 1, 2]),      # once listed each embedding through 0 twice
    ({}, [0, 1, 2, 7]),      # once ended in a bare IndexError
    ({0: 2}, [0, 1]),        # once restricted the candidates, not the pins
], ids=["repeated", "out-of-range", "partial"])
def test_host_order_must_be_a_permutation(pins, host_order):
    with pytest.raises(InputError):
        enumerate_embeddings(Graph(2, [(0, 1)]), complete_graph(3), pins=pins,
                             host_order=host_order)


def test_dedup_enumeration_is_first_labelled_embedding_per_edge_set():
    import random
    rng = random.Random(11)
    for k in range(100):
        n = rng.randint(4, 7)
        density = rng.uniform(0.3, 0.95)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < density])
        order = list(range(n))
        rng.shuffle(order)
        host_order = order if k % 2 else None
        for pattern in SYMMETRY_PATTERNS.values():
            if pattern.n > n:
                continue
            u, v = min(pattern.edges)
            for pins in ({}, {0: order[0]}, {u: order[1], v: order[2]}):
                labelled = enumerate_embeddings(pattern, host, pins=pins,
                                                host_order=host_order)
                got = enumerate_embeddings(pattern, host, pins=pins,
                                           host_order=host_order,
                                           dedup_by_edges=True)
                assert got == first_per_edge_set(pattern, labelled)
                if 0 not in pattern.degrees():
                    # equal edge sets differ by an automorphism, so the
                    # kernel itself emits no embedding the dedup drops
                    ranks = host_order or range(n)
                    rank = {h: r for r, h in enumerate(ranks)}
                    raw = [tuple(ranks[r] for r in img) for img in _search(
                        pattern, rank_masks(host.adj, ranks),
                        {p: rank[h] for p, h in pins.items()},
                        least_per_orbit=True)]
                    assert raw == got


def test_dedup_enumeration_visits_one_embedding_per_copy(monkeypatch):
    import decomplab.embeddings as emb
    k33, host = complete_bipartite(3, 3), complete_bipartite(4, 4)
    assert len(enumerate_embeddings(k33, host)) == 16 * 72
    enumerate_embeddings(k33, host, dedup_by_edges=True)   # fills the memo
    search, visited = emb._search, []

    def counted(*args, **kwargs):
        images = search(*args, **kwargs)
        visited.extend(images)
        return images

    monkeypatch.setattr(emb, "_search", counted)
    copies = enumerate_embeddings(k33, host, dedup_by_edges=True)
    assert len(copies) == len(visited) == 16


@pytest.mark.parametrize("name", list(SYMMETRY_PATTERNS))
def test_orbit_chain_sizes_multiply_to_the_automorphism_count(name):
    pattern = SYMMETRY_PATTERNS[name]
    for fixed in ((), (0,)):
        seq = _plan(pattern, frozenset(fixed)).seq
        bounds = _orbit_bounds(pattern, frozenset(fixed))
        product = 1
        for p in seq:
            # |O_i| = p_i plus every later vertex bounded by it
            product *= 1 + sum(p in b for b in bounds)
        assert product == len(automorphisms(pattern, fixed))


def test_copies_times_automorphisms_count_networkx_monomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    import random
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(5, 7)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.7])
        nx_host = nx.Graph(list(host.edges))
        nx_host.add_nodes_from(range(n))
        for pattern in SYMMETRY_PATTERNS.values():
            if pattern.n > n or 0 in pattern.degrees():
                continue
            nx_pattern = nx.Graph(list(pattern.edges))
            monos = sum(1 for _ in GraphMatcher(
                nx_host, nx_pattern).subgraph_monomorphisms_iter())
            copies = enumerate_embeddings(pattern, host, dedup_by_edges=True)
            assert monos == len(automorphisms(pattern)) * len(copies)


def test_graph_map_properties():
    c6 = cycle_graph(6)
    k2 = Graph(2, [(0, 1)])
    fold = GraphMap(c6, k2, (0, 1, 0, 1, 0, 1))
    assert fold.is_homomorphism()
    assert not fold.is_edge_bijective()
    assert GraphMap(c6, c6, tuple(range(6))).is_edge_bijective()
    with pytest.raises(InputError):
        GraphMap(c6, k2, (0, 1, 0, 1, 0, 5))


# -- hamilton ---------------------------------------------------------------


def cycle_ok(host, cyc):
    n = host.n
    assert sorted(cyc) == list(range(n))
    return all(host.has_edge(cyc[i], cyc[(i + 1) % n]) for i in range(n))


def test_hamilton_k5():
    assert cycle_ok(complete_graph(5), hamilton_cycle(complete_graph(5)))


def test_hamilton_c4_itself():
    c4 = cycle_graph(4)
    assert cycle_ok(c4, hamilton_cycle(c4))


def test_hamilton_k33_alternates():
    g = complete_bipartite(3, 3)
    # brute-force oracle: some hamilton cycle exists
    from itertools import permutations
    assert any(all(g.has_edge(p[i], p[(i + 1) % 6]) for i in range(6))
               for p in permutations(range(6)))
    cyc = hamilton_cycle(g, seed=3)
    assert cycle_ok(g, cyc)
    sides = [0 if v < 3 else 1 for v in cyc]
    assert all(sides[i] != sides[(i + 1) % 6] for i in range(6))


def test_hamilton_degree_error():
    with pytest.raises(DegreeError):
        hamilton_cycle(Graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_hamilton_removal_drops_degrees_by_two():
    g = complete_graph(8)
    cyc = hamilton_cycle(g, seed=1)
    g2 = g.without_edges([(cyc[i], cyc[(i + 1) % 8]) for i in range(8)])
    assert g2.degrees() == [5] * 8


def test_edge_disjoint_hamilton_cycles():
    # K_11 on host vertices 2..12 keeps the Dirac margin through all three
    # removals; the cycles come back as host edges, 11 per cycle in order
    g = complete_graph(13)
    vs = range(2, 13)
    edges = edge_disjoint_hamilton_cycles(g, vs, 3, seed=2)
    assert len(edges) == len({tuple(sorted(e)) for e in edges}) == 33
    for i in range(3):
        cyc = Graph(13, edges[11 * i:11 * (i + 1)])
        assert cyc.induced(vs).is_connected()
        assert [cyc.degree(v) for v in vs] == [2] * 11
    assert g.without_edges(edges).induced(vs).degrees() == [4] * 11
    assert edge_disjoint_hamilton_cycles(g, vs, 0) == []


# -- the kernel's last placement step, drawn in one loop ---------------------


def ranked_brute_force(pattern, masks, pins, least_per_orbit):
    """Independent oracle for `_search`: every injection into the ranks that
    extends the pins and keeps the pattern edges, in rank order along the
    placement order; with `least_per_orbit`, only the first of each orbit
    under the automorphisms fixing the pins."""
    seq = _plan(pattern, frozenset(pins)).seq
    free = [p for p in range(pattern.n) if p not in pins]
    rest = [r for r in range(len(masks)) if r not in pins.values()]
    imgs = []
    for pick in permutations(rest, len(free)):
        img = [0] * pattern.n
        for p, r in (*pins.items(), *zip(free, pick)):
            img[p] = r
        if all(masks[img[u]] >> img[v] & 1 for u, v in pattern.edges):
            imgs.append(tuple(img))
    imgs.sort(key=lambda img: [img[p] for p in seq])
    if not least_per_orbit:
        return imgs
    auts = automorphisms(pattern, fixed=tuple(pins))
    seen, out = set(), []
    for img in imgs:
        if img not in seen:
            out.append(img)
            seen.update(tuple(img[s[x]] for x in range(pattern.n))
                        for s in auts)
    return out


KERNEL_PATTERNS = [complete_graph(3), cycle_graph(4), path_graph(2),
                   complete_graph(4), ORBIT_PATTERNS["paw"],
                   SYMMETRY_PATTERNS["K1+K3"]]


@pytest.mark.parametrize("least_per_orbit", [False, True])
@pytest.mark.parametrize("unpinned", ["none", "one", "several"])
def test_kernel_matches_brute_force_in_rank_order(unpinned, least_per_orbit):
    import random
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(4, 7)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.7])
        order = list(range(n))
        rng.shuffle(order)
        masks = rank_masks(host.adj, order)
        for pattern in KERNEL_PATTERNS:
            if pattern.n > n:
                continue
            ranks = rng.sample(range(n), pattern.n)
            free = {"none": 0, "one": 1,
                    "several": rng.randint(2, pattern.n)}[unpinned]
            pins = dict(list(enumerate(ranks))[free:])
            got = list(_search(pattern, masks, pins, least_per_orbit))
            assert got == ranked_brute_force(pattern, masks, pins,
                                             least_per_orbit)


def test_first_hit_stops_mid_batch_with_the_same_image():
    import random
    rng = random.Random(19)
    mid_batch = 0
    for _ in range(15):
        n = rng.randint(5, 8)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.8])
        order = list(range(n))
        rng.shuffle(order)
        packing = Packing(host.adj, order)
        masks, rank = packing.masks, packing.rank
        for pattern in KERNEL_PATTERNS[:5]:
            if pattern.n > n:
                continue
            for u, v in sorted(host.edges):
                ru, rv = rank[u], rank[v]
                # every arc in turn, as first_through promises
                per_arc = [ranked_brute_force(pattern, masks,
                                              {p: ru, q: rv}, False)
                           for a, b in sorted(pattern.edges)
                           for p, q in ((a, b), (b, a))]
                first = next((hits for hits in per_arc if hits), [None])
                assert packing.first_through(pattern, u, v) == (
                    None if first[0] is None
                    else tuple(order[r] for r in first[0]))
                # one step left: the hit is the first bit of a longer batch
                mid_batch += pattern.n == 3 and len(first) > 1
            whole = ranked_brute_force(pattern, masks, {}, False)
            assert find_embedding(pattern, masks, {}) == (
                whole[0] if whole else None)
    assert mid_batch


# -- golden enumeration panel --------------------------------------------------

GOLDEN_PATTERNS = [complete_graph(3), cycle_graph(4), complete_bipartite(3, 3),
                   ORBIT_PATTERNS["paw"], SYMMETRY_PATTERNS["K3+K1"]]


def golden_panel():
    """(pattern, host, keyword arguments) of `enumerate_embeddings` calls on
    seeded hosts: with and without pins, `host_order` and `dedup_by_edges`."""
    import random
    rng = random.Random(1603)
    for _ in range(8):
        n = rng.randint(6, 8)
        density = rng.uniform(0.5, 0.9)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < density])
        order = list(range(n))
        rng.shuffle(order)
        for pattern in GOLDEN_PATTERNS:
            u, v = min(pattern.edges)
            for pins in (None, {0: order[0]}, {u: order[1], v: order[2]}):
                for host_order in (None, order):
                    for dedup in (False, True):
                        yield pattern, host, dict(pins=pins,
                                                  host_order=host_order,
                                                  dedup_by_edges=dedup)


def test_enumeration_is_golden():
    # digest of the image lists as the enumeration gave them when it still
    # built one EmbeddedCopy per embedding: same images, order and dedup
    runs = [enumerate_embeddings(pattern, host, **kw)
            for pattern, host, kw in golden_panel()]
    assert len(runs) == 480 and sum(map(len, runs)) == 83214
    assert all(type(img) is tuple for run in runs for img in run)
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()[:16]
    assert digest == "5f8b2bd07b53b108"


def test_limit_zero_gives_no_embedding():
    k3, k5 = complete_graph(3), complete_graph(5)
    assert enumerate_embeddings(k3, k5, limit=0) == []
    assert enumerate_embeddings(k3, k5, limit=1) == [(0, 1, 2)]


@pytest.mark.parametrize("limit", [-1, -2])
def test_negative_limit_is_rejected(limit):
    with pytest.raises(InputError):
        enumerate_embeddings(complete_graph(3), complete_graph(5), limit=limit)


# -- the list-returning kernel and its first hit -------------------------------


def test_first_hit_is_the_first_image_of_the_full_pinned_search():
    import random
    rng = random.Random(23)
    violated = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < rng.choice((0.5, 0.8))])
        order = list(range(n))
        rng.shuffle(order)
        masks = rank_masks(host.adj, order)
        for pattern in KERNEL_PATTERNS:
            if pattern.n > n:
                continue
            ranks = rng.sample(range(n), pattern.n)
            pins = dict(rng.sample(list(enumerate(ranks)),
                                   rng.randint(0, pattern.n)))
            whole = _search(pattern, masks, pins)
            assert whole == ranked_brute_force(pattern, masks, pins, False)
            got = find_embedding(pattern, masks, pins)
            assert got == (whole[0] if whole else None)
            # the same first image through the public enumeration
            ids = {p: order[r] for p, r in pins.items()}
            first = enumerate_embeddings(pattern, host, pins=ids, limit=1,
                                         host_order=order)
            assert first == ([tuple(order[r] for r in got)] if got else [])
            if any(u in pins and v in pins
                   and not masks[pins[u]] >> pins[v] & 1
                   for u, v in pattern.edges):
                assert got is None
                violated += 1
    assert violated


@pytest.mark.parametrize("pins", [{3: 0}, {-1: 0}, {0: 7}, {0: -1},
                                  {0: 2, 1: 2}])
def test_a_bad_pin_still_raises(pins):
    masks = rank_masks(complete_graph(7).adj, range(7))
    with pytest.raises(InputError):
        find_embedding(complete_graph(3), masks, pins)
    with pytest.raises(InputError):
        _search(complete_graph(3), masks, pins, limit=0)


def test_a_pin_through_a_non_edge_gives_no_image():
    host = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    masks = rank_masks(host.adj, range(5))
    assert find_embedding(complete_graph(3), masks, {0: 0, 1: 3}) is None
    packing = Packing(host.adj, range(5))
    assert packing.first_through(complete_graph(3), 0, 3) is None
    assert packing.first_through(complete_graph(3), 0, 1) == (0, 1, 2)


def test_the_kernel_neither_hashes_nor_compares_the_pattern(monkeypatch):
    # plans and orbit representatives live in a memo on the pattern itself
    def refuse(*args):
        raise AssertionError("pattern hashed or compared by value")

    host = complete_graph(9)
    packing = Packing(host.adj, range(9))
    for pattern in KERNEL_PATTERNS:
        fresh = Graph(pattern.n, pattern.edges)
        expect = enumerate_embeddings(pattern, host, dedup_by_edges=True)
        hit = packing.first_through(pattern, 2, 5)
        with monkeypatch.context() as m:
            m.setattr(Graph, "__hash__", refuse)
            m.setattr(Graph, "__eq__", refuse)
            assert enumerate_embeddings(fresh, host,
                                        dedup_by_edges=True) == expect
            assert packing.first_through(fresh, 2, 5) == hit
            assert packing.first_through(fresh, 2, 5) == hit


# -- packing ------------------------------------------------------------------


def test_packing_agrees_with_an_edge_set_model_under_random_flips():
    """Random flips against a set of live edges: `live`, `neighbours` and
    `edges` read the model, a double flip restores the masks, and
    `first_through` is the first hit of the pinned search over every arc in
    turn on the same masks, in ids."""
    import random
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 11)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < rng.choice((0.3, 0.7, 1.0))])
        order = list(range(n))
        rng.shuffle(order)
        packing = Packing(host.adj, order)
        model = set(host.edges)
        for _ in range(12):
            # flip host edges in either orientation: live ones go out,
            # taken ones come back
            es = [e if rng.random() < 0.5 else e[::-1]
                  for e in rng.sample(sorted(host.edges),
                                      min(host.e, rng.randint(0, 4)))]
            before = list(packing.masks)
            packing.flip(es)
            packing.flip(es)
            assert packing.masks == before
            packing.flip(es)
            model ^= {norm_edge(u, v) for u, v in es}

            for u in range(n):
                assert packing.neighbours(u) == [
                    y for y in order if norm_edge(u, y) in model]
                for v in range(n):
                    assert packing.live(u, v) is (norm_edge(u, v) in model)
            got = packing.edges()
            assert all(u < v for u, v in got)
            assert sorted(got) == sorted(model)
            for u, v in host.edges:
                ru, rv = packing.rank[u], packing.rank[v]
                for pattern in KERNEL_PATTERNS[:5]:
                    img = next(filter(None, (
                        find_embedding(pattern, packing.masks, {p: ru, q: rv})
                        for a, b in sorted(pattern.edges)
                        for p, q in ((a, b), (b, a)))), None)
                    assert packing.first_through(pattern, u, v) == (
                        None if img is None else tuple(order[r] for r in img))
