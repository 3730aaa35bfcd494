"""Ordered diagram model: translation, spans, paths, and the successor map."""
from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
    Edge,
    FinitePath,
    LevelMap,
    NotRank2Proximal,
    OrderedBratteliDiagram,
    ProxRank2Error,
    TruncatedMaximal,
    UsageError,
    circuit_length,
    covering_to_diagram,
    diagram_from_json,
    diagram_to_covering,
    diagram_to_dot,
    diagram_to_json,
    gen_substitution_family,
    maximal_path,
    minimal_path,
    path_from_position,
    path_to_seed,
    position_of_path,
    position_of_seed,
    resolve_path,
    validate_diagram,
    vershik_successor,
)

from _corpus import random_plain_spec, random_restricted_spec, reduced_specs

BASE = gen_substitution_family(depth=6)
DIAG = covering_to_diagram(BASE, rows=4)


def test_edge_counts_match_level_words():
    # row 1: l_1 edges into the circuit vertex, one into the loop vertex
    assert len(DIAG.incoming(1, "c")) == 2
    assert len(DIAG.incoming(1, "e")) == 1
    # deeper rows: one edge per symbol of the level word
    assert len(DIAG.incoming(2, "c")) == 5  # ECECE
    assert len(DIAG.incoming(3, "c")) == 7  # ECCECCE
    assert len(DIAG.incoming(2, "e")) == 1


def test_spans_equal_circuit_lengths():
    for row in range(1, 5):
        assert DIAG.span(row, "c") == circuit_length(BASE, row)
        assert DIAG.span(row, "e") == 1


@settings(max_examples=80, deadline=None)
@given(reduced_specs, st.data())
def test_span_table_matches_lengths_and_inverts_positions(spec, data):
    diagram = covering_to_diagram(spec)
    for row in range(1, diagram.rows + 1):
        assert diagram.span(row, "c") == circuit_length(spec, row)
        assert diagram.span(row, "e") == 1
        assert diagram.span_table(row) == {"c": circuit_length(spec, row), "e": 1}
    row = data.draw(st.integers(1, diagram.rows))
    pos = data.draw(st.integers(0, circuit_length(spec, row) - 1))
    path = path_from_position(diagram, row, "c", pos)
    assert position_of_path(diagram, path) == pos


def test_validate_diagram_passes_translated_specs():
    report = validate_diagram(DIAG)
    assert report.ok
    assert report.problems == ()


def test_validate_diagram_flags_bad_ordinals():
    rows = list(DIAG.edge_rows)
    row2 = dict(rows[1])
    row2["c"] = tuple(Edge(source=e.source, ordinal=1) for e in row2["c"])
    rows[1] = tuple(row2.items())
    bad = OrderedBratteliDiagram(vertex_rows=DIAG.vertex_rows, edge_rows=tuple(rows))
    report = validate_diagram(bad)
    assert not report.ok


def test_round_trip_base_family():
    spec = diagram_to_covering(DIAG)
    assert [lm.a for lm in spec.levels] == [lm.a for lm in BASE.levels[:3]]
    assert spec.l1 == BASE.l1


def test_round_trip_random_corpus():
    rng = random.Random(0xB9A77)
    for i in range(10):
        spec = random_plain_spec(rng, depth=5, max_length=3000)
        diag = covering_to_diagram(spec)
        report = validate_diagram(diag)
        assert report.ok, report.problems
        back = diagram_to_covering(diag)
        assert back.l1 == spec.l1
        assert [lm.a for lm in back.levels] == [lm.a for lm in spec.levels]
        assert [lm.b for lm in back.levels] == [lm.b for lm in spec.levels]


def test_json_round_trip_is_byte_identical():
    text = diagram_to_json(DIAG)
    again = diagram_to_json(diagram_from_json(text))
    assert text == again


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(edge_rows=[1, 2, 3]),
        lambda d: d["edge_rows"].__setitem__(1, [["e", 1]]),
        lambda d: d["vertex_rows"].__setitem__(2, [["c"], ["e"]]),
        lambda d: d["edge_rows"][1]["c"].__setitem__(0, ["e", "1"]),
        lambda d: d["edge_rows"][1]["c"].__setitem__(0, ["x", 1]),
        lambda d: d["edge_rows"][1]["c"].__setitem__(0, ["e", True]),
        lambda d: d["edge_rows"].pop(),
        lambda d: d.pop("vertex_rows"),
    ],
    ids=[
        "edge-rows-ints", "edge-row-list", "list-names", "string-ordinal", "unknown-source",
        "bool-ordinal", "too-few-edge-rows", "no-vertex-rows",
    ],
)
def test_malformed_diagram_json_raises_usage_error(edit):
    d = json.loads(diagram_to_json(DIAG))
    edit(d)
    with pytest.raises(UsageError):
        diagram_from_json(json.dumps(d))


def _cecec_doc(certified):
    """The exported 3-row diagram with row 2's circuit word edited to CECEC."""
    d = json.loads(diagram_to_json(covering_to_diagram(BASE, rows=3)))
    d["edge_rows"][1]["c"] = [[src, i] for i, src in enumerate("cecec", start=1)]
    d["certified_max_min"] = certified
    return json.dumps(d)


@pytest.mark.parametrize(
    "certified, problem",
    [
        ("no", "certified_max_min must be a bool, got 'no'"),
        (1, "certified_max_min must be a bool, got 1"),
        (True, "row 2: certified_max_min needs the first and last edges into 'c' "
               "from the loop vertex 'e'"),
    ],
    ids=["string", "int", "unbacked-true"],
)
def test_certified_max_min_must_be_a_backed_bool(certified, problem):
    # "no" once loaded as certified, and the all-loop maximal path into e
    # then came back as its own Vershik successor.
    with pytest.raises(UsageError) as info:
        diagram_from_json(_cecec_doc(certified))
    assert str(info.value) == f"invalid diagram: {problem}"
    diagram = diagram_from_json(_cecec_doc(False))
    assert not diagram.certified_max_min
    assert any("reverse translation fails" in w for w in validate_diagram(diagram).warnings)
    with pytest.raises(TruncatedMaximal):
        vershik_successor(diagram, maximal_path(diagram, 3, "e"))


def test_certified_max_min_needs_a_loop_vertex_on_every_row():
    d = json.loads(diagram_to_json(DIAG))
    d["edge_rows"][2]["e"] = [["c", 1]]  # the loop vertex of row 3 fed by the circuit
    with pytest.raises(UsageError, match="row 3: certified_max_min needs two vertices"):
        diagram_from_json(json.dumps(d))
    d["certified_max_min"] = False
    assert not diagram_from_json(json.dumps(d)).certified_max_min


def test_exported_diagrams_are_certified_exactly_when_backed():
    rng = random.Random(0xCE27)
    for spec in [BASE] + [random_plain_spec(rng, depth=4, max_length=3000) for _ in range(5)]:
        text = diagram_to_json(covering_to_diagram(spec))
        assert json.loads(text)["certified_max_min"] is True
        assert diagram_to_json(diagram_from_json(text)) == text
    # Zero margins (not reduced form): the first edge into c comes from c.
    spec = CoveringSpec(l1=3, levels=(LevelMap(a=(0, 1, 1), b=2),))
    diagram = covering_to_diagram(spec)
    assert not diagram.certified_max_min
    assert validate_diagram(diagram).ok
    text = diagram_to_json(diagram)
    assert diagram_to_json(diagram_from_json(text)) == text


_DIAGRAM_DOC = json.loads(diagram_to_json(covering_to_diagram(BASE, rows=3)))
_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.sampled_from(["v0", "e", "c", "x", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["v0", "e", "c", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _json_slots(node, out):
    """Every (container, key) inside a JSON value, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return out
    for key in keys:
        out.append((node, key))
        _json_slots(node[key], out)
    return out


@st.composite
def _mutated_diagram(draw):
    """An exported diagram's JSON with one to three entries retyped, dropped or copied."""
    d = copy.deepcopy(_DIAGRAM_DOC)
    for _ in range(draw(st.integers(1, 3))):
        slots = _json_slots(d, [])
        if not slots:
            break
        where, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["retype", "drop", "sibling", "int"]))
        if action == "drop":
            del where[key]
        elif action == "retype":
            where[key] = draw(_JSON_JUNK)
        elif action == "sibling":
            siblings = list(where) if isinstance(where, dict) else range(len(where))
            where[key] = copy.deepcopy(where[draw(st.sampled_from(siblings))])
        else:
            where[key] = draw(st.integers(-2, 12))
    return d


def _calls(diagram):
    """Every library call on a loaded diagram, as thunks."""
    yield lambda: diagram_to_covering(diagram)
    yield lambda: diagram_to_dot(diagram)
    for row in range(1, diagram.rows + 1):
        for vertex in diagram.vertices(row):
            yield lambda: minimal_path(diagram, row, vertex)
            yield lambda: maximal_path(diagram, row, vertex)
            for position in (0, diagram.span(row, vertex) - 1):
                path = path_from_position(diagram, row, vertex, position)
                assert position_of_path(diagram, path) == position
                yield lambda: vershik_successor(diagram, path)
                yield lambda: path_to_seed(diagram, path)


@settings(max_examples=300, deadline=None)
@given(d=_mutated_diagram())
def test_hostile_diagram_json_never_crashes(d):
    # A mutated document either loads as a valid diagram or raises
    # UsageError; every call on a loaded diagram returns or raises a
    # package error.
    try:
        diagram = diagram_from_json(json.dumps(d))
    except UsageError:
        return
    assert validate_diagram(diagram).ok
    assert diagram_to_json(diagram_from_json(diagram_to_json(diagram))) == diagram_to_json(diagram)
    for call in _calls(diagram):
        try:
            call()
        except ProxRank2Error:
            pass


def test_dot_export_is_deterministic():
    a = diagram_to_dot(DIAG)
    b = diagram_to_dot(covering_to_diagram(BASE, rows=4))
    assert a == b
    assert a.startswith("digraph")
    assert "rankdir=BT" in a


def test_paths_enumerate_positions_lexicographically():
    # ordinals run bottom-up, so time order is lexicographic with the top
    # edge most significant
    l3 = circuit_length(BASE, 3)
    seen = []
    for pos in range(l3):
        path = path_from_position(DIAG, 3, "c", pos)
        assert position_of_path(DIAG, path) == pos
        seen.append(tuple(reversed(path.ordinals)))
    assert seen == sorted(seen)
    assert len(set(seen)) == l3


def test_vershik_successor_is_addition_by_one():
    l4 = circuit_length(BASE, 4)
    path = minimal_path(DIAG, 4, "c")
    assert position_of_path(DIAG, path) == 0
    for expected in range(1, l4):
        path = vershik_successor(DIAG, path)
        assert position_of_path(DIAG, path) == expected


def test_vershik_truncates_at_maximal_circuit_path():
    path = maximal_path(DIAG, 4, "c")
    assert position_of_path(DIAG, path) == circuit_length(BASE, 4) - 1
    with pytest.raises(TruncatedMaximal):
        vershik_successor(DIAG, path)


def test_vershik_loop_fixed_point_when_certified():
    certified = covering_to_diagram(BASE, rows=4)
    loop = maximal_path(certified, 4, "e")
    assert vershik_successor(certified, loop) == loop
    uncertified = OrderedBratteliDiagram(
        vertex_rows=certified.vertex_rows,
        edge_rows=certified.edge_rows,
        certified_max_min=False,
    )
    with pytest.raises(TruncatedMaximal):
        vershik_successor(uncertified, maximal_path(uncertified, 4, "e"))


def test_path_to_seed_preserves_position():
    for pos in (0, 1, 50, 126):
        path = path_from_position(DIAG, 4, "c", pos)
        seed = path_to_seed(DIAG, path)
        assert position_of_seed(BASE, seed) == pos


def test_path_to_seed_rejects_loop_paths():
    loop = minimal_path(DIAG, 3, "e")
    with pytest.raises(UsageError):
        path_to_seed(DIAG, loop)


def test_resolve_path_returns_edges():
    path = path_from_position(DIAG, 3, "c", 8)
    edges = resolve_path(DIAG, path)
    assert len(edges) == 3
    assert all(isinstance(e, Edge) for e in edges)


def test_diagram_rejects_non_two_vertex_rows():
    rows = list(DIAG.vertex_rows)
    rows[2] = ("c", "e", "x")
    bad = OrderedBratteliDiagram(vertex_rows=tuple(rows), edge_rows=DIAG.edge_rows)
    with pytest.raises(NotRank2Proximal):
        diagram_to_covering(bad)
