"""Named graphs and hand-built face configurations.

The dodecahedron rotation was derived from icosahedral coordinates by
sorting each vertex's neighbors around its outward normal; the Petersen
embedding is the antipodal quotient of the dodecahedron (six pentagonal
faces in the projective plane, Euler genus 1).  Both are frozen literals
re-verified by the test suite.

The face fixtures realize one instance of each classified 5-face kind
(Special, X1, X2, Y1, Y2, Terrible).  Each builder takes degree knobs so
tests can perturb a single vertex degree and check the class changes, and
returns a FaceFixture whose ``names`` maps the configuration's labels to
vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .builder import PlanarBuilder
from .discharging import HIGH_DEGREE
from .embedding import EmbeddedGraph

DODECAHEDRON_ROTATION = [
    [10, 9, 8],
    [16, 11, 9],
    [10, 14, 12],
    [16, 12, 17],
    [8, 15, 13],
    [15, 11, 19],
    [18, 14, 13],
    [17, 18, 19],
    [0, 4, 14],
    [0, 1, 15],
    [0, 2, 16],
    [1, 17, 5],
    [3, 2, 18],
    [4, 19, 6],
    [2, 8, 6],
    [9, 5, 4],
    [1, 10, 3],
    [3, 7, 11],
    [12, 6, 7],
    [5, 7, 13],
]

PETERSEN_ROTATION = [
    [6, 5, 4],
    [9, 7, 5],
    [6, 7, 8],
    [9, 8, 4],
    [0, 3, 7],
    [0, 1, 8],
    [0, 2, 9],
    [1, 4, 2],
    [3, 2, 5],
    [3, 6, 1],
]

PETERSEN_TWISTS = [(1, 9), (2, 7), (3, 4), (3, 9), (4, 7), (5, 8), (6, 9)]


def c5() -> EmbeddedGraph:
    """The 5-cycle with its planar embedding (two pentagonal faces)."""
    return EmbeddedGraph([[(i - 1) % 5, (i + 1) % 5] for i in range(5)])


def path_graph(n: int) -> EmbeddedGraph:
    """Path on n >= 1 vertices (a tree; single face)."""
    if n < 1:
        raise ValueError(f"a path needs at least one vertex, got {n}")
    return EmbeddedGraph([[u for u in (i - 1, i + 1) if 0 <= u < n]
                          for i in range(n)])


def star(k: int) -> EmbeddedGraph:
    """Star with k leaves; center is vertex 0."""
    rot = [list(range(1, k + 1))] + [[0] for _ in range(k)]
    return EmbeddedGraph(rot)


def dodecahedron() -> EmbeddedGraph:
    """Planar dodecahedron: 3-regular, twelve 5-faces, genus 0."""
    return EmbeddedGraph(DODECAHEDRON_ROTATION)


def petersen_projective() -> EmbeddedGraph:
    """Petersen graph embedded in the projective plane (genus 1, 6 faces)."""
    return EmbeddedGraph(PETERSEN_ROTATION, PETERSEN_TWISTS)


# ---------------------------------------------------------------------------
# Face-class fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceFixture:
    """A graph, the vertices of its classified face, and named vertices."""

    graph: EmbeddedGraph
    face_verts: tuple[int, ...]
    names: Mapping[str, int] = field(default_factory=dict)

    @cached_property
    def face_index(self) -> int:
        return find_face(self.graph, self.face_verts)


def find_face(graph: EmbeddedGraph, verts) -> int:
    """The index of the unique face whose boundary visits exactly these
    vertices."""
    want = sorted(verts)
    hits = [fi for fi, face in enumerate(graph.faces) if sorted(face) == want]
    if len(hits) != 1:
        raise ValueError(f"face {verts} matched {len(hits)} faces")
    return hits[0]


def _pump(b: PlanarBuilder, v: int, target: int) -> None:
    while b.degree(v) < target:
        b.attach_leaf_at(v)


def _flanked_pentagon() -> tuple[PlanarBuilder, list[int], list[int]]:
    """Reserved pentagon (0, 1, 2, 3, 4) with a reserved 5-face across each
    of the 2-vertices 0 and 2: (1, 0, 4, p[0], p[1]) and (3, 2, 1, q[1], q[0]).

    Returns the builder and the path interiors p and q; the rest of the
    outer region stays open for growth.
    """
    b = PlanarBuilder.cycle(5)
    b.reserve(0)
    g_hex, g0, p = b.insert_path(1, 1, 4, 3)
    b.reserve(g0)
    g2, _, q = b.insert_path(g_hex, 1, 3, 3)
    b.reserve(g2)
    return b, p, q


def special_face(hub: int = HIGH_DEGREE, p_deg: int = 5, q_deg: int = 3) -> FaceFixture:
    """5-face with degrees (2, hub, 2, p, q) around vertices (0, 1, 2, 3, 4)."""
    b = PlanarBuilder.cycle(5)
    b.reserve(0)
    _pump(b, 1, hub)
    _pump(b, 3, p_deg)
    _pump(b, 4, q_deg)
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4))


def x1_face(h1: int = HIGH_DEGREE, h2: int = HIGH_DEGREE, s_deg: int = 3,
            external_high: bool = False) -> FaceFixture:
    """Pentagon (2, h1, 2, h2, s); the 3-vertex's outside neighbor is low
    unless external_high pumps it to 12."""
    b = PlanarBuilder.cycle(5)
    b.reserve(0)
    x = b.attach_leaf_at(4)
    _pump(b, 4, s_deg)
    _pump(b, 1, h1)
    _pump(b, 3, h2)
    if external_high:
        _pump(b, x, HIGH_DEGREE)
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4))


def x2_face(h1: int = HIGH_DEGREE, h2: int = HIGH_DEGREE, u_deg: int = 4,
            y_deg: int = 2) -> FaceFixture:
    """Pentagon (2, h1, 2, h2, 4); the 4-vertex's rotation reads
    (h2, a, x, y) so its neighbor degrees match (11-, 2, 12+, 2+).
    names holds x and y."""
    b = PlanarBuilder.cycle(5)
    b.reserve(0)
    x = b.attach_leaf_at(4)
    y = b.attach_leaf_at(4)
    _pump(b, 4, u_deg)
    _pump(b, y, y_deg)
    _pump(b, 1, h1)
    _pump(b, 3, h2)
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4), {"x": x, "y": y})


def y1_face(h_deg: int = HIGH_DEGREE, w_extra: int = 0, u_extra: int = 0,
            p_deg: int = 2) -> FaceFixture:
    """Pentagon f = (a, h, b, u, w) with degrees (2, 12+, 2, 4, 3), the
    4-vertex pattern (2, 3, 11-, 12+), and cross-faces X1 and X2."""
    # f = [a=0, h=1, b=2, u=3, w=4]; X1 face [h, a, w, h', b'] across a
    # and X2 face [u, b, h, c, z] across b
    b, (hp, _), (z, _) = _flanked_pentagon()
    p = b.attach_leaf_at(3)  # lands between w and z in u's rotation
    _pump(b, p, p_deg)
    _pump(b, 1, h_deg)
    _pump(b, hp, HIGH_DEGREE)
    _pump(b, z, HIGH_DEGREE)
    if w_extra:
        _pump(b, 4, 3 + w_extra)
    if u_extra:
        _pump(b, 3, 4 + u_extra)
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4))


def y2_face(h_deg: int = HIGH_DEGREE, s_extra: int = 0, r_extra: int = 0) -> FaceFixture:
    """Pentagon f = (a, h, b, s, r) with degrees (2, 12+, 2, 3, 3) and both
    cross-faces X1."""
    # f = [a=0, h=1, b=2, s=3, r=4]; cross-faces [h, a, r, h', b'] and
    # [s, b, h, c, h'']
    b, (hp, _), (hpp, _) = _flanked_pentagon()
    _pump(b, 1, h_deg)
    _pump(b, hp, HIGH_DEGREE)
    _pump(b, hpp, HIGH_DEGREE)
    if s_extra:
        _pump(b, 3, 3 + s_extra)
    if r_extra:
        _pump(b, 4, 3 + r_extra)
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4))


def terrible_face(v_deg: int = HIGH_DEGREE, u4_extra: int = 0,
                  w4_children: int = 1) -> FaceFixture:
    """Pentagon f = (v4, v, v5, u5, u4) with degrees (2, 12+, 2, 4, 4),
    both 4-vertex patterns (2, 4, 11-, 12+), and both cross-faces X2.

    names maps the configuration labels v, v4, v5, u4, u5, w4, w5, h4,
    h5, c4 and c5 to vertex ids.
    """
    # f = [v4=0, v=1, v5=2, u5=3, u4=4]; cross-faces [v, v4, u4, h4, c4]
    # and [u5, v5, v, c5, h5]
    b, (h4, c4), (h5, c5) = _flanked_pentagon()
    w4 = b.attach_leaf_at(4)  # between h4 and u5 in u4's rotation
    w5 = b.attach_leaf_at(3)  # between u4 and h5 in u5's rotation
    for _ in range(w4_children):
        b.attach_leaf_at(w4)
    b.attach_leaf_at(w5)
    _pump(b, 1, v_deg)
    _pump(b, h4, HIGH_DEGREE)
    _pump(b, h5, HIGH_DEGREE)
    if u4_extra:
        _pump(b, 4, 4 + u4_extra)
    names = {"v": 1, "v4": 0, "v5": 2, "u4": 4, "u5": 3,
             "w4": w4, "w5": w5, "h4": h4, "h5": h5, "c4": c4, "c5": c5}
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4), names)


def genus2_bad_face_gadget() -> FaceFixture:
    """Y1 configuration with a degree-13 hub on an Euler-genus-2 embedding.

    The hub's final charge is 0, below the general-surface floor
    2*genus - 3.5 = 0.5 at t = 11, so the audit must flag it.  Girth
    stays 5; the extra handle lives far from the classified faces.

    names holds the hub.
    """
    b, (hp, _), (z, _) = _flanked_pentagon()
    p = b.attach_leaf_at(3)
    b.attach_leaf_at(p)
    _pump(b, hp, HIGH_DEGREE)
    _pump(b, z, HIGH_DEGREE)
    # hub to degree 13: two chains of length 3 plus plain leaves
    a1 = b.attach_leaf_at(1)
    a2 = b.attach_leaf_at(a1)
    a3 = b.attach_leaf_at(a2)
    b1 = b.attach_leaf_at(1)
    b2 = b.attach_leaf_at(b1)
    b3 = b.attach_leaf_at(b2)
    _pump(b, 1, 13)
    # split the outer region between the chain tips, then join the two
    # sides by an extra edge: the merge raises the Euler genus to 2
    big = next(fid for fid in b.open_faces if a3 in b.face_verts(fid))
    i = b.occurrences(big, a3)[0]
    j = b.occurrences(big, b3)[0]
    # both chains cross the cut, so a2 and b2 occur once on each side
    s1, s2, _ = b.insert_path(big, i, j, 4)
    b.add_handle_edge(s1, b.occurrences(s1, a2)[0],
                      s2, b.occurrences(s2, b2)[0])
    return FaceFixture(b.graph(), (0, 1, 2, 3, 4), {"hub": 1})
