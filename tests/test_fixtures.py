"""Classification of the hand-built face configurations and their
single-degree perturbations, and the small named graphs at their edges."""

import pytest

from defcolor import fixtures as fx
from defcolor.discharging import FaceClass, classify_faces
from defcolor.embedding import girth


def classify(fixture):
    return classify_faces(fixture.graph)[fixture.face_index]


def test_face_index_is_found_once(monkeypatch):
    calls = []
    find = fx.find_face

    def counted(graph, verts):
        calls.append(verts)
        return find(graph, verts)

    monkeypatch.setattr(fx, "find_face", counted)
    fixture = fx.terrible_face()
    assert fixture.face_index == fixture.face_index
    assert len(calls) == 1


def test_all_fixture_graphs_have_girth_five():
    graphs = [fx.special_face().graph, fx.x1_face().graph,
              fx.x2_face().graph, fx.y1_face().graph,
              fx.y2_face().graph, fx.terrible_face().graph]
    for g in graphs:
        assert girth(g) == 5
        assert g.genus == 0


def test_special_and_perturbations():
    assert classify(fx.special_face()) is FaceClass.SPECIAL
    assert classify(fx.special_face(hub=11)) is not FaceClass.SPECIAL
    assert classify(fx.special_face(p_deg=6)) is not FaceClass.SPECIAL
    assert classify(fx.special_face(q_deg=4)) is not FaceClass.SPECIAL


def test_x1_and_perturbations():
    assert classify(fx.x1_face()) is FaceClass.X1
    assert classify(fx.x1_face(h1=11)) is not FaceClass.X1
    assert classify(fx.x1_face(s_deg=4)) is not FaceClass.X1
    # same degrees but the outside neighbor of the 3-vertex turns high
    assert classify(fx.x1_face(external_high=True)) is not FaceClass.X1


def test_x2_and_perturbations():
    fix = fx.x2_face()
    assert classify(fix) is FaceClass.X2
    assert classify(fx.x2_face(h2=11)) is not FaceClass.X2
    assert classify(fx.x2_face(u_deg=5)) is not FaceClass.X2
    # the 4-vertex neighbor pattern needs its fourth neighbor at 2+
    assert classify(fx.x2_face(y_deg=1)) is not FaceClass.X2


def test_y1_and_perturbations():
    fix = fx.y1_face()
    assert classify(fix) is FaceClass.Y1
    assert classify(fx.y1_face(h_deg=11)) is not FaceClass.Y1
    assert classify(fx.y1_face(w_extra=1)) is not FaceClass.Y1
    # bumping the 4-vertex to 5 lands on the Special degree pattern
    bumped = fx.y1_face(u_extra=1)
    assert classify(bumped) is not FaceClass.Y1
    assert classify(bumped) is FaceClass.SPECIAL


def test_y2_and_perturbations():
    assert classify(fx.y2_face()) is FaceClass.Y2
    assert classify(fx.y2_face(h_deg=11)) is not FaceClass.Y2
    assert classify(fx.y2_face(s_extra=1)) is not FaceClass.Y2
    assert classify(fx.y2_face(r_extra=1)) is not FaceClass.Y2


def test_terrible_and_perturbations():
    fix = fx.terrible_face()
    assert classify(fix) is FaceClass.TERRIBLE
    assert classify(fx.terrible_face(v_deg=11)) is not FaceClass.TERRIBLE
    assert classify(fx.terrible_face(u4_extra=1)) is not FaceClass.TERRIBLE
    # starving w4 breaks the cross X2-face's neighbor pattern
    assert classify(fx.terrible_face(w4_children=0)) is not FaceClass.TERRIBLE


def test_classification_mirror_invariant():
    # reversing every rotation flips the traversal direction of every
    # boundary walk; classes must not move
    from defcolor.embedding import EmbeddedGraph
    from defcolor.fixtures import find_face

    fixtures = [(fx.special_face(), FaceClass.SPECIAL),
                (fx.x1_face(), FaceClass.X1),
                (fx.x2_face(), FaceClass.X2),
                (fx.y1_face(), FaceClass.Y1),
                (fx.y2_face(), FaceClass.Y2),
                (fx.terrible_face(), FaceClass.TERRIBLE)]
    for fix, want in fixtures:
        g = fix.graph
        mirror = EmbeddedGraph([tuple(reversed(r)) for r in g.rotation],
                               g.twists)
        face = find_face(mirror, fix.face_verts)
        assert classify_faces(mirror)[face] is want


def test_cross_faces_of_composite_fixtures():
    fix = fx.y1_face()
    g = fix.graph
    classes = {c for f, c in zip(g.faces, classify_faces(g)) if len(f) == 5}
    assert {FaceClass.Y1, FaceClass.X1, FaceClass.X2} <= classes
    g2 = fx.y2_face().graph
    classes2 = {c for f, c in zip(g2.faces, classify_faces(g2))
                if len(f) == 5}
    assert {FaceClass.Y2, FaceClass.X1} <= classes2


def test_path_graph_small_sizes():
    rotations = {1: ((),), 2: ((1,), (0,)), 3: ((1,), (0, 2), (1,))}
    for n, rotation in rotations.items():
        g = fx.path_graph(n)
        assert g.rotation == rotation
        assert (g.genus, len(g.faces)) == (0, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one vertex"):
            fx.path_graph(n)
