"""Output checks written without decomplab.

Every check here works on plain data (tuples, sets, Fractions and floats)
pulled out of the program's results, so a defect in a decomplab verifier
cannot make the benchmark accept a wrong answer.  Each check returns None
when the output is acceptable and a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

ANSWERED = "answered"
UNANSWERED = "unanswered"
FAILED = "failed"


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_set(pairs: Iterable) -> set:
    return {norm(int(u), int(v)) for u, v in pairs}


def copy_edges(pattern_edges, image) -> Optional[set]:
    """Edge image of one pattern copy, or None if the image is not
    injective."""
    if len(set(image)) != len(image):
        return None
    return {norm(image[a], image[b]) for a, b in pattern_edges}


def check_copies(pattern_n: int, pattern_edges, images, host_edges: set
                 ) -> tuple[Optional[str], set]:
    """Copies are injective images of the pattern, inside the host and
    pairwise edge-disjoint.  Returns (reason or None, covered edges)."""
    covered: set = set()
    for k, img in enumerate(images):
        if len(img) != pattern_n:
            return f"copy {k} has {len(img)} image vertices, want {pattern_n}", covered
        es = copy_edges(pattern_edges, img)
        if es is None or len(es) != len(pattern_edges):
            return f"copy {k} is not injective", covered
        if not es <= host_edges:
            return f"copy {k} uses a non-edge {min(es - host_edges)}", covered
        if es & covered:
            return f"copy {k} reuses edge {min(es & covered)}", covered
        covered |= es
    return None, covered


def check_partition(pattern_n: int, pattern_edges, images,
                    target: set) -> Optional[str]:
    """The copies partition exactly the target edge set."""
    why, covered = check_copies(pattern_n, pattern_edges, images, target)
    if why:
        return why
    if covered != target:
        return f"edge {min(target - covered)} is not covered"
    return None


def _copy_columns(pattern_n, pattern_edges, images, host_edges):
    cols = []
    for k, img in enumerate(images):
        es = copy_edges(pattern_edges, img) if len(img) == pattern_n else None
        if es is None or len(es) != len(pattern_edges) or not es <= host_edges:
            return f"copy {k} is not a copy of the pattern in the host", None
        cols.append(es)
    return None, cols


def check_rational_weights(pattern_n: int, pattern_edges, images, weights,
                           host_edges: set) -> Optional[str]:
    """A x = 1 exactly over Fraction, with x >= 0."""
    if len(weights) != len(images):
        return "one weight per copy expected"
    why, cols = _copy_columns(pattern_n, pattern_edges, images, host_edges)
    if why:
        return why
    load = {e: Fraction(0) for e in host_edges}
    for k, (es, w) in enumerate(zip(cols, weights)):
        if not isinstance(w, (int, Fraction)) or isinstance(w, bool):
            return f"weight {k} is not exact ({type(w).__name__})"
        if w < 0:
            return f"weight {k} is negative"
        for e in es:
            load[e] += w
    bad = [e for e, s in load.items() if s != 1]
    if bad:
        e = min(bad)
        return f"edge {e} carries weight {load[e]}, not 1"
    return None


def check_float_weights(pattern_n: int, pattern_edges, images, weights,
                        host_edges: set, tolerance: float) -> Optional[str]:
    """Weights in [0, 1] and every edge load within `tolerance` of 1."""
    if len(weights) != len(images):
        return "one weight per copy expected"
    why, cols = _copy_columns(pattern_n, pattern_edges, images, host_edges)
    if why:
        return why
    load = {e: 0.0 for e in host_edges}
    for k, (es, w) in enumerate(zip(cols, weights)):
        if not (0.0 <= w <= 1.0):
            return f"weight {k} = {w!r} lies outside [0, 1]"
        for e in es:
            load[e] += w
    worst = max(load, key=lambda e: abs(load[e] - 1.0), default=None)
    if worst is not None and abs(load[worst] - 1.0) > tolerance:
        return f"edge {worst} carries weight {load[worst]!r}"
    return None


def check_nested_levels(n: int, levels, mu: Fraction) -> Optional[str]:
    """Vortex shape: all vertices first, then nested levels of size
    floor(mu * previous)."""
    if not levels or sorted(levels[0]) != list(range(n)):
        return "first vortex level is not the whole vertex set"
    for i in range(1, len(levels)):
        prev, cur = set(levels[i - 1]), set(levels[i])
        if len(cur) != len(levels[i]) or not cur <= prev:
            return f"vortex level {i} is not a subset of level {i - 1}"
        if len(cur) != int(len(prev) * mu):
            return f"vortex level {i} has size {len(cur)}"
    return None


def classify_cover_down(host_edges: set, pattern_n: int, pattern_edges,
                        images, leftover_edges: set, final_level,
                        claimed_success: bool) -> tuple[str, str, int]:
    """Valid, edge-disjoint copies; leftover = host - covered; confinement
    recomputed.  Returns (status, detail, leftover edges outside the final
    level)."""
    why, covered = check_copies(pattern_n, pattern_edges, images, host_edges)
    if why:
        return FAILED, why, -1
    if leftover_edges != host_edges - covered:
        return FAILED, "leftover is not the host minus the covered edges", -1
    inner = set(final_level)
    outside = sum(1 for u, v in leftover_edges
                  if u not in inner or v not in inner)
    if outside == 0:
        return ANSWERED, "leftover confined to the final level", 0
    if claimed_success:
        return FAILED, f"claimed success with {outside} edges outside", outside
    return UNANSWERED, f"unconfined: {outside} leftover edges outside", outside


def check_region_count(host_edges: set, region, modulus: int,
                       residue: int) -> Optional[str]:
    """Recount of a modular edge-count obstruction: the region's induced
    edge count has the stated nonzero residue."""
    if modulus <= 1 or residue % modulus == 0:
        return "obstruction residue is zero"
    region = set(region)
    inside = sum(1 for u, v in host_edges if u in region and v in region)
    if inside % modulus != residue % modulus:
        return f"region holds {inside} edges, residue {inside % modulus}"
    return None
