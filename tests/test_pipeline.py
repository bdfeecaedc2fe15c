import hashlib
from fractions import Fraction

import pytest

from decomplab.errors import InputError
from decomplab.graphs import complete_graph
from decomplab.pipeline import Vortex, cover_down, find_vortex, verify_vortex

K3 = complete_graph(3)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
def test_find_vortex_levels_nest_and_shrink_by_mu(mu):
    g = complete_graph(61)
    v = find_vortex(g, Fraction(3, 4), mu, 8, seed=1)
    assert v.sets[0] == list(range(61)) and v.depth >= 2
    for prev, cur in zip(v.sets, v.sets[1:]):
        assert len(cur) == len(prev) * mu.numerator // mu.denominator
        assert set(cur) <= set(prev)
    assert len(v.sets[-1]) == v.m <= 8
    assert verify_vortex(g, v) == (True, None)


def test_verify_vortex_rejects_a_tampered_level():
    g = complete_graph(40)
    v = find_vortex(g, Fraction(3, 4), Fraction(1, 2), 5, seed=2)
    outsider = next(x for x in v.sets[0] if x not in v.sets[1])
    moved = sorted(v.sets[2][1:] + [outsider])
    bad = Vortex(v.sets[:2] + [moved] + v.sets[3:], v.delta, v.mu, v.m)
    assert verify_vortex(g, bad) == (False, "nesting violated at level 2")
    short = Vortex([v.sets[0], v.sets[1][1:]] + v.sets[2:], v.delta, v.mu, v.m)
    assert verify_vortex(g, short) == (False, "(V2) violated at level 1")


@pytest.mark.parametrize("mu", [0, 1, Fraction(3, 2), Fraction(-1, 2)])
def test_shrinkage_outside_the_open_unit_interval_is_rejected(mu):
    with pytest.raises(InputError):
        find_vortex(complete_graph(20), Fraction(1, 2), mu, 4)


def check_cover_down(g, v, res):
    """Valid, pairwise edge-disjoint copies; leftover = host - covered;
    success exactly when no level leaves residue and the leftover is
    confined to the final level."""
    covered = set()
    for c in res.copies:
        assert c.pattern == K3 and c.is_valid(g)
        es = c.edge_image()
        assert not es & covered
        covered |= es
    assert res.leftover.edges == g.edges - covered
    inner = set(v.sets[-1])
    confined = all(a in inner and b in inner for a, b in res.leftover.edges)
    residues = [level["outside_residue"] for level in res.stats]
    assert len(residues) == v.depth
    assert res.success == (confined and not any(residues))


@pytest.mark.parametrize("n", [31, 43])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cover_down_copies_partition_the_covered_edges(n, seed):
    g = complete_graph(n)
    v = find_vortex(g, Fraction(3, 4), Fraction(1, 2), 8, seed=seed)
    check_cover_down(g, v, cover_down(K3, g, v, seed=seed))


def test_cover_down_confines_k15_to_the_final_level():
    g = complete_graph(15)
    v = find_vortex(g, Fraction(1, 2), Fraction(1, 2), 3, seed=1)
    res = cover_down(K3, g, v, seed=1)
    check_cover_down(g, v, res)
    assert v.depth == 2 and res.success


@pytest.mark.parametrize("seed, copies, residues, digest", [
    (1, 570, (101, 241, 120), "7aa93655e19fc895"),
    (2, 572, (77, 205, 114), "56ed04d846b3d092"),
    (3, 573, (86, 223, 111), "8d11c9760f7a218e"),
])
def test_cover_down_k61_keeps_its_copies(seed, copies, residues, digest):
    # the copies and per-level residue of the set-based kernel before rank
    # masks: the sweep's two host orders pick the same first hits
    g = complete_graph(61)
    v = find_vortex(g, Fraction(3, 4), Fraction(1, 2), 8, seed=seed)
    res = cover_down(K3, g, v, seed=seed)
    images = [c.image for c in res.copies]
    assert len(images) == copies
    assert tuple(level["outside_residue"] for level in res.stats) == residues
    assert hashlib.sha256(repr(images).encode()).hexdigest()[:16] == digest
