import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from defcolor import cli, fixtures as fx
from defcolor.colorer import (C_BIG, C_SMALL, ColoringTrace,
                              ExtensionFailedError, ReductionKind,
                              ReductionStep, capacity, color, replay_trace,
                              _apply_extension, _find_terrible_reduction,
                              _same_counts)
from defcolor.coloring import (Coloring, ColoringError, SolveStatus, is_valid,
                               solve_exact)
from defcolor.discharging import RowLog, audit
from defcolor.embedding import (EmbeddedGraph, GirthTooSmallError,
                                induced_embedding)
from defcolor.generate import gen_planar_girth5
from defcolor.graphio import serialize_graph

from gadget_builders import (all_low_gadget, chorded_cycle, gen_girth5_small,
                             long_cycle, projective_plane_incidence,
                             random_tree, tripod_lattice)
from oracles import (_reference_apply_extension, enumerate_two_class,
                     reference_color, reference_trace_json)
from test_golden import FIXTURE_CASES, _fixture_graph


def test_capacity_values():
    assert [capacity(g) for g in (0, 1, 2, 3, 5)] == [10, 10, 11, 15, 23]
    values = [capacity(g) for g in range(12)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        capacity(-1)


def test_find_reduction_order():
    # the first step of a trace is the first configuration found
    single = EmbeddedGraph([[]])
    step = color(single, 10).trace.steps[0]
    assert step.kind is ReductionKind.DEGREE_AT_MOST_ONE

    # adjacent 2-vertices win over the all-low rule
    step = color(fx.c5(), 10).trace.steps[0]
    assert step.kind is ReductionKind.ADJACENT_TWO_VERTICES
    assert step.deleted == (0, 1)

    # no 2-2 pair in the dodecahedron, so the all-low rule fires
    step = color(fx.dodecahedron(), 10).trace.steps[0]
    assert step.kind is ReductionKind.ALL_LOW_DEGREE_NEIGHBORS
    assert step.deleted == (0,)


def test_adjacent_two_before_all_low_in_larger_graph():
    # dodecahedron with one edge subdivided twice: vertex 0 qualifies for
    # the all-low rule, but the adjacent 2-vertex pair must win
    from defcolor.builder import PlanarBuilder
    b = PlanarBuilder.from_graph(fx.dodecahedron())
    m1 = b.subdivide(0, b.rotations[0][0])
    m2 = b.subdivide(0, m1)
    g = b.graph()
    assert all(g.degree(v) == 3 for v in range(20))
    step = color(g, 10).trace.steps[0]
    assert step.kind is ReductionKind.ADJACENT_TWO_VERTICES
    assert set(step.deleted) == {m1, m2}


def _class_list(graph, phi):
    """phi as _apply_extension takes it: a class per vertex, -1 for none."""
    classes = [-1] * graph.n
    for v, c in phi.items():
        classes[v] = c
    return classes


def _counted(graph, classes, row, t):
    """_apply_extension on a bare class list, with its same-class counts
    seeded by _same_counts; whether it extends or raises, the kept counts
    equal a recount after it."""
    same = _same_counts(graph.rotation, classes)
    try:
        return _apply_extension(graph, classes, same, row, t)
    finally:
        assert same == _same_counts(graph.rotation, classes)


def _extend(graph, phi, row, t):
    """Extend phi, a class per surviving vertex, over the deleted vertices
    of a step row (kind, deleted, witness); the result must be a valid
    coloring."""
    classes = _class_list(graph, phi)
    _counted(graph, classes, row, t)
    full = Coloring(tuple(classes), (1, t))
    assert is_valid(graph, full)
    return full


def test_extend_degree_at_most_one():
    g = fx.star(5)
    row = (ReductionKind.DEGREE_AT_MOST_ONE, (5,), None)
    phi = {v: C_SMALL for v in range(5)}
    phi[0] = C_BIG
    full = _extend(g, phi, row, 10)
    assert full.assignment[5] == C_SMALL  # opposite of the big-class center


def test_extend_star_center_all_low():
    # deleting the center of K_{1,5} with every leaf in the defect-1
    # class forces the center into the big class
    g = fx.star(5)
    row = (ReductionKind.ALL_LOW_DEGREE_NEIGHBORS, (0,), None)
    phi = {v: C_SMALL for v in range(1, 6)}
    full = _extend(g, phi, row, 10)
    assert full.assignment[0] == C_BIG


def test_extend_adjacent_two_same_colored_ends():
    g = fx.path_graph(4)  # u' - u - v - v'
    row = (ReductionKind.ADJACENT_TWO_VERTICES, (1, 2), None)
    phi = {0: C_SMALL, 3: C_SMALL}
    full = _extend(g, phi, row, 10)
    assert full.assignment[1] == full.assignment[2] == C_BIG


def test_extend_all_low_recolors_saturated_neighbor():
    # v(center) - u of degree 11 with ten big-class neighbors, plus a
    # small-class neighbor z: u must flip to the small class
    rot = [[1, 12]]          # v: neighbors u, z
    rot.append([0] + list(range(2, 12)))  # u: v + ten leaves
    rot += [[1] for _ in range(2, 12)]    # leaves of u
    rot.append([0])          # z
    g = EmbeddedGraph(rot)
    phi = {1: C_BIG, 12: C_SMALL}
    phi.update({w: C_BIG for w in range(2, 12)})
    row = (ReductionKind.ALL_LOW_DEGREE_NEIGHBORS, (0,), None)
    full = _extend(g, phi, row, 10)
    assert full.assignment[1] == C_SMALL
    assert full.assignment[0] == C_BIG


def _terrible_row(graph, t):
    """The kind-4 scan of the whole graph as the residual."""
    return _find_terrible_reduction(graph, [len(r) for r in graph.rotation], t)


def test_terrible_reduction_detected_and_extended():
    for v_deg, t in ((12, 10), (17, 15)):
        fix = fx.terrible_face(v_deg=v_deg)
        names = fix.names
        g = fix.graph
        row = _terrible_row(g, t)
        assert row is not None
        kind, deleted, witness = row
        assert kind is ReductionKind.TERRIBLE_RICH_HIGH_VERTEX
        assert deleted == (names["v4"],)
        assert witness["hub"] == names["v"]
        assert witness["u4"] == names["u4"]
        # the pattern's L-neighbor of u4, not h4 (degree 12 <= low at t = 15)
        assert witness["w4"] == names["w4"]

        keep = [v for v in range(g.n) if v != names["v4"]]
        sub, remap = induced_embedding(g, keep)
        res = solve_exact(sub, (1, t))
        assert res.found
        phi_sub = {old: res.coloring.assignment[new]
                   for old, new in remap.items()}
        _extend(g, phi_sub, row, t)


def test_terrible_branches_tried_in_proof_order():
    # Valid colorings of the fixture minus v4, sampled by flips that keep
    # validity, must take the first branch of the proof order that keeps
    # the whole graph valid.
    fix = fx.terrible_face()
    g, v4, u4 = fix.graph, fix.names["v4"], fix.names["u4"]
    row = _terrible_row(g, 10)
    step = ReductionStep(*row)
    sub, remap = induced_embedding(g, [v for v in range(g.n) if v != v4])
    colors = list(solve_exact(sub, (1, 10)).coloring.assignment)

    def valid(graph, classes):
        return is_valid(graph, Coloring(tuple(classes[v] for v in range(graph.n)),
                                        (1, 10)))

    # {u4: small, v4: big} is not a branch (see colorer._moves); it stays
    # in this list because it never fits where the branches before it fail
    proof_order = [{v4: C_SMALL}, {v4: C_BIG},
                   {u4: C_SMALL, v4: C_BIG}, {u4: C_BIG, v4: C_SMALL}]
    rng = random.Random(1)
    reached = set()
    for _ in range(2000):
        x = rng.randrange(sub.n)
        colors[x] ^= 1
        if not valid(sub, colors):
            colors[x] ^= 1
            continue
        phi = {old: colors[new] for old, new in remap.items()}
        fits = (tuple(b.items()) for b in proof_order if valid(g, {**phi, **b}))
        actions = _counted(g, _class_list(g, phi), row, 10)
        assert actions == next(fits, None)
        reached.add(actions)
    assert reached == {((v4, C_SMALL),), ((v4, C_BIG),),
                       ((u4, C_BIG), (v4, C_SMALL))}

    # every vertex in the defect-1 class overloads the hub, whatever v4 gets
    hopeless = {v: C_SMALL for v in remap}
    with pytest.raises(ExtensionFailedError) as err:
        _counted(g, _class_list(g, hopeless), row, 10)
    assert err.value.step == step
    assert err.value.phi == hopeless


@pytest.mark.parametrize("graph, row, phi", [
    # the small center already has two small leaves: the new leaf takes
    # the big class, and the center is still overloaded
    (fx.star(5), (ReductionKind.DEGREE_AT_MOST_ONE, (5,), None),
     {0: C_SMALL, 1: C_SMALL, 2: C_SMALL, 3: C_BIG, 4: C_BIG}),
    # a - u - v - b with two small leaves on a: a overloads whatever u takes
    (EmbeddedGraph([[1, 4, 5], [0, 2], [1, 3], [2], [0], [0]]),
     (ReductionKind.ADJACENT_TWO_VERTICES, (1, 2), None),
     {0: C_SMALL, 3: C_SMALL, 4: C_SMALL, 5: C_SMALL}),
], ids=["kind-1", "kind-2"])
def test_single_branch_failure_carries_step_and_classes(graph, row, phi):
    with pytest.raises(ExtensionFailedError) as err:
        _counted(graph, _class_list(graph, phi), row, 10)
    step = err.value.step
    assert type(step) is ReductionStep
    assert step == ReductionStep(row[0], row[1], None)
    # the failed branch is undone: the deleted vertices stay uncolored
    assert err.value.phi == phi


def _outcome(extend, *args):
    """(actions, None) when extend(*args) extends its class list, else
    (None, the classes ExtensionFailedError carries)."""
    try:
        return extend(*args), None
    except ExtensionFailedError as err:
        return None, err.phi


def _extension_cases(graphs, t):
    """(graph, final classes, step row, colored flags, states to draw) for
    every step row color takes on graphs, with the vertices colored
    before the row is extended, then for the kind-4 scan rows of the
    terrible_face fixtures and the kind-3 row of all_low_gadget(t),
    with every vertex but the deleted one colored: kind 4 never fires
    inside color on the fixtures, and kind 3 rarely."""
    for graph in graphs:
        res = color(graph, t)
        colored = [True] * graph.n
        for step in res.trace.steps:
            for v in step.deleted:
                colored[v] = False
            kind3 = step.kind is ReductionKind.ALL_LOW_DEGREE_NEIGHBORS
            yield (graph, res.coloring.assignment,
                   (step.kind, step.deleted, step.witness), colored,
                   20 if kind3 else 2)
    rows = []
    for knobs in ({}, {"w4_children": 10}, {"v_deg": 17}):
        graph = fx.terrible_face(**knobs).graph
        rows.append((graph, _terrible_row(graph, t)))
    graph, v = all_low_gadget(t)
    rows.append((graph, (ReductionKind.ALL_LOW_DEGREE_NEIGHBORS, (v,), None)))
    for graph, row in rows:
        if row is not None:
            colored = [v != row[1][0] for v in range(graph.n)]
            yield graph, color(graph, t).coloring.assignment, row, colored, 400


@pytest.mark.parametrize("t", [10, 15])
def test_counted_extension_matches_reference_on_random_states(corpus, t):
    # every step row of the corpus slice and the fixtures, each extended
    # from random class states of the vertices colored before it: half
    # the real final classes with a few flipped, half uniform, so many
    # overload some vertex
    graphs = corpus[::10] + [_fixture_graph(name, kw)
                             for name, kw in FIXTURE_CASES]
    rng = random.Random(t)
    outcomes = Counter()  # (kind, extended)
    for graph, final, row, colored, draws in _extension_cases(graphs, t):
        for _ in range(draws):
            if rng.random() < 0.5:
                start = [c ^ (rng.random() < 0.1) for c in final]
            else:
                start = [rng.randrange(2) for _ in final]
            start = [c if here else -1 for c, here in zip(start, colored)]
            phi, ref = start[:], start[:]
            same = _same_counts(graph.rotation, phi)
            got = _outcome(_apply_extension, graph, phi, same, row, t)
            want = _outcome(_reference_apply_extension, graph, ref,
                            ReductionStep(*row), t)
            assert got == want and phi == ref
            assert same == _same_counts(graph.rotation, phi)
            if got[0] is None:  # the failed branches are undone
                assert phi == start
            outcomes[row[0], got[0] is not None] += 1
            if row[0] is ReductionKind.TERRIBLE_RICH_HIGH_VERTEX and got[0]:
                # a later branch extends only after earlier ones are undone
                outcomes["later"] += got[0] != ((row[1][0], C_SMALL),)
    assert len(outcomes) == 9 and min(outcomes.values()) >= 50


def test_color_theorem_instances():
    for g in (fx.c5(), fx.dodecahedron(), fx.petersen_projective()):
        res = color(g, 10)
        assert res.coloring is not None
        assert is_valid(g, res.coloring)
        assert not res.trace.fallback and not res.trace.anomaly


def test_c5_trace_replay_and_progress():
    g = fx.c5()
    res = color(g, 10)
    deleted = [v for e in res.trace.steps for v in e.deleted]
    assert sorted(deleted) == list(range(5))
    assert len(res.trace.steps) == 4  # the 2-2 pair goes first, then singles
    assert replay_trace(g, res.trace).assignment == res.coloring.assignment


def test_replay_applies_the_last_deletion_first():
    # vertex 1, deleted second, is colored first; the kind-3 step that
    # deleted vertex 0 then moves it to the small class, as a saturated
    # big-class neighbor
    rows = [(ReductionKind.ALL_LOW_DEGREE_NEIGHBORS, (0,), None,
             ((1, C_SMALL), (0, C_BIG))),
            (ReductionKind.DEGREE_AT_MOST_ONE, (1,), None, ((1, C_BIG),))]
    trace = ColoringTrace(RowLog(rows, ReductionStep), {}, False, False, 10)
    edge = EmbeddedGraph([[1], [0]])
    assert replay_trace(edge, trace).assignment == (C_BIG, C_SMALL)


def test_color_rejects_small_girth():
    g = EmbeddedGraph([[1, 3], [0, 2], [1, 3], [2, 0]])
    with pytest.raises(GirthTooSmallError):
        color(g, 10)
    with pytest.raises(ValueError):
        color(fx.c5(), 9)
    # refused before any reduction, not at the final Coloring's defects
    with pytest.raises(ValueError, match="threshold t must be an integer"):
        color(gen_planar_girth5(1, 200), 10.5)


def test_color_uses_capacity_by_default():
    g = fx.petersen_projective()
    res = color(g)
    assert res.trace.t == 10
    assert is_valid(g, res.coloring)


def test_audit_and_find_reduction_default_to_capacity():
    # at genus 2 the capacity is 11, so the default audit checks the
    # lemmas at the threshold the colorer uses
    g = fx.genus2_bad_face_gadget().graph
    assert g.genus == 2
    assert audit(g).t == color(g).trace.t == capacity(2) == 11
    assert color(g).trace.steps == color(g, 11).trace.steps


def test_color_handles_disconnection_during_reduction():
    # two pentagons joined by a path: deleting the path splits the graph
    from defcolor.builder import PlanarBuilder
    b = PlanarBuilder.cycle(5)
    f1, f2, _ = b.insert_path(1, 0, 2, 4)
    big = f1 if len(b.faces[f1]) >= len(b.faces[f2]) else f2
    verts = b.face_verts(big)
    b.insert_path(big, 0, len(verts) // 2, 5)
    g = b.graph()
    res = color(g, 10)
    assert is_valid(g, res.coloring)
    assert not res.trace.fallback


def test_color_agrees_with_exact_solver_on_small_graphs():
    for seed in range(60):
        g = gen_girth5_small(seed, 5 + seed % 8)
        res = color(g, 10)
        exact = solve_exact(g, (1, 10))
        assert exact.status is not SolveStatus.UNKNOWN
        got = res.coloring is not None and is_valid(g, res.coloring)
        assert got == exact.found == enumerate_two_class(g, (1, 10))


def test_no_fallback_on_planar_corpus_sample():
    for seed in range(15):
        g = gen_planar_girth5(500 + seed, 10 + 12 * seed)
        res = color(g, 10)
        assert is_valid(g, res.coloring)
        assert not res.trace.fallback
        assert replay_trace(g, res.trace).assignment == res.coloring.assignment


# -- the row log against the object-per-step colorer ---------------------------


def _check_color(graph, t, kinds=None, budget=10 ** 7):
    """color at t gives reference_color's coloring, base, flags, steps
    (read as ReductionStep objects) and trace document."""
    res, want = color(graph, t, budget), reference_color(graph, t, budget)
    assert res.coloring == want.coloring
    assert res.solve_status is want.solve_status
    got, ref = res.trace, want.trace
    assert (got.base, got.fallback, got.anomaly, got.t) == (
        ref.base, ref.fallback, ref.anomaly, ref.t)
    assert got.steps == ref.steps
    assert all(type(e) is ReductionStep for e in got.steps)
    assert cli._trace_json(got) == reference_trace_json(ref)
    if kinds is not None:
        kinds.update(row[0] for row in got.steps.rows)


@pytest.mark.parametrize("name, kwargs", FIXTURE_CASES)
def test_color_matches_reference_on_fixtures(name, kwargs):
    for t in (10, 15):
        _check_color(_fixture_graph(name, kwargs), t)


def test_color_matches_reference_on_corpus_slice(corpus):
    kinds = Counter()
    for graph in corpus[::10]:
        for t in (10, 15):
            _check_color(graph, t, kinds)
    assert kinds[ReductionKind.ADJACENT_TWO_VERTICES] > 0


def test_color_matches_reference_on_small_random_graphs():
    # arbitrary rotations: the all-low rule fires here far more often
    # than on the planar corpus
    kinds = Counter()
    for seed in range(40):
        for n in (20, 40, 80):
            graph = gen_girth5_small(seed, n)
            for t in (10, 15):
                _check_color(graph, t, kinds)
    assert kinds[ReductionKind.ALL_LOW_DEGREE_NEIGHBORS] > 1000


@pytest.mark.parametrize("graph, t", [
    (long_cycle(217), 10), (fx.path_graph(245), 10), (random_tree(1, 270), 10),
    (chorded_cycle(1, 310, 2), 11),
    (chorded_cycle(1, 440, 3, twisted=True), 15),
], ids=["cycle", "path", "tree", "chords-genus2", "twisted-genus3"])
def test_color_matches_reference_on_gate_shapes(graph, t):
    _check_color(graph, t)


@pytest.mark.parametrize("t", [11, 12])
def test_color_matches_reference_on_tripod_lattice(t):
    # kind-3 steps run between hundreds of kind-1 and kind-2 steps next
    # to the lattice's 12-hubs
    kinds = Counter()
    _check_color(tripod_lattice(6, 6), t, kinds)
    assert kinds[ReductionKind.ALL_LOW_DEGREE_NEIGHBORS] > 0


def test_color_matches_reference_through_the_fallback():
    # PG(2, 11)'s incidence graph is 12-regular with girth 6: at t = 10 no
    # vertex is low and no face is a 5-face, so once the pendant paths
    # are gone the exact solver colors the rest, and the extension
    # starts from its base coloring
    g = projective_plane_incidence(11, pendants=(1, 2, 3, 1))
    kinds = Counter()
    _check_color(g, 10, kinds)
    trace = color(g, 10).trace
    assert trace.fallback and not trace.anomaly and len(trace.base) == 266
    assert kinds == {ReductionKind.DEGREE_AT_MOST_ONE: 7}
    # a budget too small for the solve leaves no coloring and no steps
    res = color(g, 10, budget=1)
    assert res.coloring is None and res.solve_status is SolveStatus.UNKNOWN
    assert res.trace.steps == [] and res.trace.steps.rows == []
    _check_color(g, 10, budget=1)
    # a non-integer budget is refused, not left unreachable by the node count
    with pytest.raises(ColoringError, match="budget must be an integer"):
        color(g, 10, budget=2.5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(5, 300))
def test_color_matches_reference_on_random_planar(seed, size):
    _check_color(gen_planar_girth5(seed, size), 10)


def test_cli_color_trace_builds_no_step_object(tmp_path, monkeypatch):
    # the trace JSON is written from the step rows
    built = []
    init = ReductionStep.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ReductionStep, "__init__", counted)
    g = gen_girth5_small(3, 80)
    gpath, out, trace = (tmp_path / name for name in ("g.txt", "c.txt", "t.json"))
    gpath.write_text(serialize_graph(g))
    assert cli.main(["color", "--input", str(gpath), "--output", str(out),
                     "--trace", str(trace)]) == 0
    assert built == [] and '"kind": "all-low-degree-neighbors"' in trace.read_text()
    res = color(g)
    assert {row[0] for row in res.trace.steps.rows} == {
        ReductionKind.DEGREE_AT_MOST_ONE, ReductionKind.ADJACENT_TWO_VERTICES,
        ReductionKind.ALL_LOW_DEGREE_NEIGHBORS}
    assert replay_trace(g, res.trace) == res.coloring and built == []
    # a read builds one, and the count sees it
    res.trace.steps[0]
    assert [type(x) for x in built] == [ReductionStep]
