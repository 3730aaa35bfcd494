"""Ordered Bratteli diagrams for two-vertex coverings, and the Vershik map.

The translation sends each graph level to a diagram row with two vertices —
the loop vertex (written ``e``) and the circuit vertex (``c``) — under a
single root.  Edges into the circuit vertex of row ``n+1`` are the symbols
of the level-``n`` expansion word in order; the loop vertex receives exactly
one edge, from the loop vertex below.  Finite paths into a row-``N`` circuit
vertex then correspond to the ``l_N`` time positions of that circuit block,
ordered lexicographically with the top edge most significant, and the
Vershik successor is exactly ``position + 1``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .covering import (
    CoveringSpec,
    LevelMap,
    _is_int,
    circuit_length,
    expansion_cap,
    validate,
)
from .errors import (
    ExpansionTooLarge,
    NotRank2Proximal,
    NotReducedForm,
    TruncatedMaximal,
    UsageError,
)
from .report import Report

ROOT = "v0"
LOOP = "e"
CIRCUIT = "c"


@dataclass(frozen=True)
class Edge:
    source: str
    ordinal: int


@dataclass(frozen=True)
class OrderedBratteliDiagram:
    """Vertex rows plus ordered incoming-edge lists, bottom row first.

    ``vertex_rows[0]`` is the root row; ``edge_rows[i]`` holds, for each
    vertex of row ``i + 1``, its incoming edges from row ``i`` sorted by
    ordinal.  ``certified_max_min`` asserts that the all-loop path is the
    unique maximal and unique minimal infinite path, which makes the Vershik
    map fix it.

    The diagram is immutable, so its path counts are tabulated once:
    :attr:`span_rows` holds one dict per vertex row (two ints per row of a
    two-vertex diagram), built on first use.
    """

    vertex_rows: tuple[tuple[str, ...], ...]
    edge_rows: tuple[tuple[tuple[str, tuple[Edge, ...]], ...], ...]
    certified_max_min: bool = False

    @property
    def rows(self) -> int:
        """Number of vertex rows beyond the root."""
        return len(self.vertex_rows) - 1

    def vertices(self, row: int) -> tuple[str, ...]:
        if not 0 <= row <= self.rows:
            raise UsageError(f"row {row} outside 0..{self.rows}")
        return self.vertex_rows[row]

    def incoming(self, row: int, vertex: str) -> tuple[Edge, ...]:
        """Incoming edges of a vertex at row >= 1, ordered by ordinal."""
        if not 1 <= row <= self.rows:
            raise UsageError(f"row {row} outside 1..{self.rows}")
        for name, edges in self.edge_rows[row - 1]:
            if name == vertex:
                return edges
        raise UsageError(f"no vertex {vertex!r} at row {row}")

    def span(self, row: int, vertex: str) -> int:
        """Number of finite paths from the root into the vertex."""
        if not 0 <= row <= self.rows:
            raise UsageError(f"row {row} outside 0..{self.rows}")
        table = self.span_rows[row]
        if vertex not in table:
            raise UsageError(f"no vertex {vertex!r} at row {row}")
        return table[vertex]

    def span_table(self, row: int) -> dict[str, int]:
        """Path counts of every vertex of a row.

        A copy of the row's entry in the diagram's span table
        (:attr:`span_rows`: two ints per row of a two-vertex diagram, built
        once per diagram).
        """
        if not 0 <= row <= self.rows:
            raise UsageError(f"row {row} outside 0..{self.rows}")
        return dict(self.span_rows[row])

    @cached_property
    def span_rows(self) -> tuple[dict[str, int], ...]:
        """Path counts of every vertex, one dict per row, computed bottom-up once."""
        spans = {v: 1 for v in self.vertex_rows[0]}
        out = [spans]
        for edges_row in self.edge_rows:
            spans = {name: sum(spans[e.source] for e in edges) for name, edges in edges_row}
            out.append(spans)
        return tuple(out)


@dataclass(frozen=True)
class FinitePath(Report):
    """Edge ordinals from the root (index 0) up to the target vertex."""

    target_row: int
    target: str
    ordinals: tuple[int, ...]


# --------------------------------------------------------------------------
# Construction from a covering
# --------------------------------------------------------------------------

def covering_to_diagram(spec: CoveringSpec, rows: int | None = None) -> OrderedBratteliDiagram:
    """Ordered diagram of the covering with ``rows`` vertex rows (default: all).

    Builds one edge per letter of each level word plus ``l1`` root edges;
    raises :class:`ExpansionTooLarge` when that count exceeds the expansion cap.
    ``certified_max_min`` is set when the diagram backs it (see
    :func:`validate_diagram`): ``l1 >= 2``, and every map starts and ends
    with a loop run (as in reduced form), so the least and the greatest
    edge into each circuit vertex come from the loop vertex.
    """
    max_rows = spec.depth + 1
    if rows is None:
        rows = max_rows
    if not 1 <= rows <= max_rows:
        raise UsageError(f"rows must be in 1..{max_rows}, got {rows}")
    l1 = circuit_length(spec, 1)  # checks the shape of every map first
    maps = spec.levels[: rows - 1]
    need = l1 + sum(lm.b + lm.a_total for lm in maps)
    limit = expansion_cap()
    if need > limit:
        raise ExpansionTooLarge(need, limit, what=f"ordered diagram with {rows} rows")
    vertex_rows: list[tuple[str, ...]] = [(ROOT,)]
    edge_rows = []
    vertex_rows.append((CIRCUIT, LOOP))
    edge_rows.append(
        (
            (CIRCUIT, tuple(Edge(ROOT, i) for i in range(1, l1 + 1))),
            (LOOP, (Edge(ROOT, 1),)),
        )
    )
    for lm in maps:
        word = lm.word()
        vertex_rows.append((CIRCUIT, LOOP))
        edge_rows.append(
            (
                (
                    CIRCUIT,
                    tuple(
                        Edge(LOOP if ch == "E" else CIRCUIT, i + 1)
                        for i, ch in enumerate(word)
                    ),
                ),
                (LOOP, (Edge(LOOP, 1),)),
            )
        )
    return OrderedBratteliDiagram(
        vertex_rows=tuple(vertex_rows),
        edge_rows=tuple(edge_rows),
        certified_max_min=l1 >= 2 and all(lm.a[0] and lm.a[-1] for lm in maps),
    )


# --------------------------------------------------------------------------
# Validation and the reverse translation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramReport(Report):
    ok: bool
    problems: tuple[str, ...]
    warnings: tuple[str, ...]


def _max_min_problem(diagram: OrderedBratteliDiagram) -> str | None:
    """Why the diagram does not back ``certified_max_min``, or None when it does.

    Each row must have two vertices, one of them the *loop vertex*: its one
    incoming edge comes from the loop vertex below (from the root on row 1).
    The first and the last edge into the other, the circuit vertex, come
    from the loop vertex below as well (on row 1 every edge comes from the
    root).  Then the all-loop path is the only infinite path whose edges
    are all maximal, and the only one whose edges are all minimal.
    """
    loop = diagram.vertex_rows[0][0]
    for row in range(1, diagram.rows + 1):
        incoming = dict(diagram.edge_rows[row - 1])
        loops = [name for name, edges in incoming.items() if [e.source for e in edges] == [loop]]
        if len(incoming) != 2 or len(loops) != 1:
            return (
                f"row {row}: certified_max_min needs two vertices, exactly one with a "
                f"single edge from the loop vertex {loop!r}"
            )
        (circuit,) = set(incoming) - {loops[0]}
        edges = incoming[circuit]
        if edges[0].source != loop or edges[-1].source != loop:
            return (
                f"row {row}: certified_max_min needs the first and last edges into "
                f"{circuit!r} from the loop vertex {loop!r}"
            )
        loop = loops[0]
    return None


def validate_diagram(diagram: OrderedBratteliDiagram) -> DiagramReport:
    """Well-formedness plus the ordering laws the reverse translation needs.

    A ``certified_max_min`` that is not a bool, or that is true on a
    diagram that does not back it (:func:`_max_min_problem`), is a problem.
    """
    problems: list[str] = []
    warnings: list[str] = []
    if len(diagram.vertex_rows) < 2:
        problems.append("diagram needs a root row and at least one vertex row")
    if not all(isinstance(v, str) for names in diagram.vertex_rows for v in names) or not all(
        isinstance(e.source, str) and _is_int(e.ordinal)
        for row in diagram.edge_rows for _, edges in row for e in edges
    ):
        problems.append("vertex names and edge sources must be strings, ordinals ints")
    if not isinstance(diagram.certified_max_min, bool):
        problems.append(f"certified_max_min must be a bool, got {diagram.certified_max_min!r}")
    if problems:
        return DiagramReport(False, tuple(problems), tuple(warnings))
    if len(diagram.vertex_rows[0]) != 1:
        problems.append(f"root row must have one vertex, has {len(diagram.vertex_rows[0])}")
    if len(diagram.edge_rows) != diagram.rows:
        problems.append(
            f"{len(diagram.edge_rows)} edge rows for {diagram.rows} vertex rows"
        )
        return DiagramReport(False, tuple(problems), tuple(warnings))
    for row in range(1, diagram.rows + 1):
        names = diagram.vertex_rows[row]
        if len(set(names)) != len(names):
            problems.append(f"row {row}: duplicate vertex names")
        edge_names = tuple(name for name, _ in diagram.edge_rows[row - 1])
        if sorted(edge_names) != sorted(names):
            problems.append(
                f"row {row}: edge lists cover {sorted(edge_names)}, vertices are {sorted(names)}"
            )
            continue
        below = set(diagram.vertex_rows[row - 1])
        for name, edges in diagram.edge_rows[row - 1]:
            if not edges:
                problems.append(f"row {row}: vertex {name!r} has no incoming edge")
                continue
            ordinals = [e.ordinal for e in edges]
            if ordinals != list(range(1, len(edges) + 1)):
                problems.append(
                    f"row {row}: vertex {name!r} ordinals {ordinals} are not 1..{len(edges)}"
                )
            for e in edges:
                if e.source not in below:
                    problems.append(
                        f"row {row}: vertex {name!r} edge from unknown source {e.source!r}"
                    )
    if not problems and diagram.certified_max_min:
        problem = _max_min_problem(diagram)
        if problem:
            problems.append(problem)
    if not problems:
        # Two-vertex shape checks are advisory here; the reverse translation
        # turns them into hard errors.
        for row in range(1, diagram.rows + 1):
            if len(diagram.vertex_rows[row]) != 2:
                warnings.append(
                    f"row {row}: {len(diagram.vertex_rows[row])} vertices (reverse "
                    "translation needs exactly 2)"
                )
        if not any(w.startswith("row") for w in warnings):
            try:
                spec = diagram_to_covering(diagram)
            except (NotRank2Proximal, NotReducedForm) as exc:
                warnings.append(f"reverse translation fails: {exc}")
            else:
                if any(m.b == 1 for m in spec.levels):
                    warnings.append(
                        "some row has a single circuit edge into the next circuit "
                        "(degenerate, eventually rank 1)"
                    )
    return DiagramReport(not problems, tuple(problems), tuple(warnings))


def diagram_to_covering(diagram: OrderedBratteliDiagram) -> CoveringSpec:
    """Rebuild the covering; raises if the diagram is not a reduced two-vertex one."""
    if len(diagram.vertex_rows) < 2 or len(diagram.edge_rows) != diagram.rows:
        raise NotRank2Proximal("malformed diagram (row bookkeeping is inconsistent)")
    loop_below = diagram.vertex_rows[0][0]
    loop_name: str | None = None
    circuit_name: str | None = None
    l1: int | None = None
    maps: list[LevelMap] = []
    for row in range(1, diagram.rows + 1):
        names = diagram.vertices(row)
        if len(names) != 2:
            raise NotRank2Proximal(f"row {row} has {len(names)} vertices, need 2")
        incoming = {name: diagram.incoming(row, name) for name in names}
        if row == 1:
            singles = [name for name in names if len(incoming[name]) == 1]
            if len(singles) != 1:
                raise NotRank2Proximal(
                    "row 1 must have exactly one vertex with a single incoming edge"
                )
            loop_name = singles[0]
            circuit_name = next(n for n in names if n != loop_name)
            l1 = len(incoming[circuit_name])
            if l1 < 2:
                raise NotReducedForm(f"first circuit length {l1} < 2")
            continue
        assert loop_name is not None and circuit_name is not None
        candidates = [
            name
            for name in names
            if len(incoming[name]) == 1 and incoming[name][0].source == loop_name
        ]
        if len(candidates) != 1:
            raise NotRank2Proximal(
                f"row {row}: cannot identify the loop vertex "
                f"({len(candidates)} candidates with a single loop-sourced edge)"
            )
        new_loop = candidates[0]
        new_circuit = next(n for n in names if n != new_loop)
        word = "".join(
            "E" if e.source == loop_name else "C"
            for e in incoming[new_circuit]
        )
        if set(word) - {"E", "C"}:
            raise NotRank2Proximal(f"row {row}: circuit edges from unknown sources")
        if "C" not in word:
            raise NotRank2Proximal(f"row {row}: circuit word {word!r} uses no circuit edge")
        if not (word.startswith("E") and word.endswith("E")):
            raise NotReducedForm(
                f"row {row}: circuit word {word!r} is not loop-bordered on both sides"
            )
        maps.append(LevelMap.from_word(word))
        loop_name, circuit_name = new_loop, new_circuit
    assert l1 is not None
    spec = CoveringSpec(l1=l1, levels=tuple(maps), family=None)
    report = validate(spec)
    if not report.ok:
        raise NotReducedForm("; ".join(report.problems))
    return spec


# --------------------------------------------------------------------------
# Paths, positions, Vershik successor
# --------------------------------------------------------------------------

def resolve_path(diagram: OrderedBratteliDiagram, path: FinitePath) -> tuple[Edge, ...]:
    """Edges of the path from bottom to top, validating each ordinal."""
    if not 1 <= path.target_row <= diagram.rows:
        raise UsageError(f"target row {path.target_row} outside 1..{diagram.rows}")
    if len(path.ordinals) != path.target_row:
        raise UsageError(
            f"path has {len(path.ordinals)} ordinals for target row {path.target_row}"
        )
    edges: list[Edge] = []
    vertex = path.target
    for row in range(path.target_row, 0, -1):
        incoming = diagram.incoming(row, vertex)
        o = path.ordinals[row - 1]
        if not 1 <= o <= len(incoming):
            raise UsageError(
                f"row {row}: ordinal {o} outside 1..{len(incoming)} into {vertex!r}"
            )
        edge = incoming[o - 1]
        edges.append(edge)
        vertex = edge.source
    edges.reverse()
    return tuple(edges)


def minimal_path(
    diagram: OrderedBratteliDiagram, target_row: int, target: str
) -> FinitePath:
    ordinals = []
    vertex = target
    for row in range(target_row, 0, -1):
        ordinals.append(1)
        vertex = diagram.incoming(row, vertex)[0].source
    ordinals.reverse()
    return FinitePath(target_row=target_row, target=target, ordinals=tuple(ordinals))


def maximal_path(
    diagram: OrderedBratteliDiagram, target_row: int, target: str
) -> FinitePath:
    ordinals = []
    vertex = target
    for row in range(target_row, 0, -1):
        incoming = diagram.incoming(row, vertex)
        ordinals.append(len(incoming))
        vertex = incoming[-1].source
    ordinals.reverse()
    return FinitePath(target_row=target_row, target=target, ordinals=tuple(ordinals))


def position_of_path(diagram: OrderedBratteliDiagram, path: FinitePath) -> int:
    """Time offset of the path among all paths into its target (top edge heaviest)."""
    edges = resolve_path(diagram, path)
    tables = diagram.span_rows
    pos = 0
    vertex = path.target
    for row in range(path.target_row, 0, -1):
        incoming = diagram.incoming(row, vertex)
        chosen = edges[row - 1]
        pos += sum(tables[row - 1][e.source] for e in incoming[: chosen.ordinal - 1])
        vertex = chosen.source
    return pos


def path_from_position(
    diagram: OrderedBratteliDiagram, target_row: int, target: str, position: int
) -> FinitePath:
    """Inverse of :func:`position_of_path`."""
    total = diagram.span(target_row, target)
    if not 0 <= position < total:
        raise UsageError(f"position {position} outside 0..{total - 1}")
    tables = diagram.span_rows
    ordinals: list[int] = []
    vertex = target
    rem = position
    for row in range(target_row, 0, -1):
        for e in diagram.incoming(row, vertex):
            span = tables[row - 1][e.source]
            if rem < span:
                ordinals.append(e.ordinal)
                vertex = e.source
                break
            rem -= span
    ordinals.reverse()
    return FinitePath(target_row=target_row, target=target, ordinals=tuple(ordinals))


def vershik_successor(
    diagram: OrderedBratteliDiagram, path: FinitePath
) -> FinitePath:
    """Bump the lowest non-maximal edge; refill below with the minimal path.

    An all-maximal path into the loop vertex is the unique maximal path; when
    the diagram is certified it is also the unique minimal one and the
    successor fixes it.  Any other all-maximal path is truncated: its
    successor depends on rows the finite diagram does not hold.
    """
    edges = resolve_path(diagram, path)
    vertex_at = [path.target]
    for edge in reversed(edges):
        vertex_at.append(edge.source)
    vertex_at.reverse()  # vertex_at[row] = vertex of the path at that row
    for row in range(1, path.target_row + 1):
        incoming = diagram.incoming(row, vertex_at[row])
        chosen = edges[row - 1]
        if chosen.ordinal < len(incoming):
            bumped = incoming[chosen.ordinal]  # next ordinal, same target
            prefix = minimal_path(diagram, row - 1, bumped.source) if row > 1 else None
            ordinals = list(path.ordinals)
            ordinals[row - 1] = bumped.ordinal
            if prefix is not None:
                ordinals[: row - 1] = list(prefix.ordinals)
            return FinitePath(
                target_row=path.target_row, target=path.target, ordinals=tuple(ordinals)
            )
    if path.target == _loop_vertex(diagram, path.target_row) and diagram.certified_max_min:
        return path
    raise TruncatedMaximal(
        f"all edges maximal into {path.target!r} at row {path.target_row}"
    )


def _loop_vertex(diagram: OrderedBratteliDiagram, row: int) -> str | None:
    """The vertex of a row whose path count is 1, if unique."""
    singles = [v for v in diagram.vertices(row) if diagram.span(row, v) == 1]
    return singles[0] if len(singles) == 1 else None


def path_to_seed(diagram: OrderedBratteliDiagram, path: FinitePath):
    """Seed of the time position the path encodes (paths into a circuit vertex)."""
    from .dynamics import PointSeed

    edges = resolve_path(diagram, path)
    # Keep only paths into circuit vertices: a loop target spans one path and
    # pins no circuit block.
    if diagram.span(path.target_row, path.target) == 1:
        raise UsageError("paths into the loop vertex do not pin a circuit block")
    return PointSeed(
        top_level=path.target_row,
        slot_path=tuple(e.ordinal - 1 for e in edges[1:]),
        offset=edges[0].ordinal - 1,
        base_level=1,
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def diagram_to_json(diagram: OrderedBratteliDiagram) -> str:
    obj = {
        "vertex_rows": [list(row) for row in diagram.vertex_rows],
        "edge_rows": [
            {
                name: [[e.source, e.ordinal] for e in edges]
                for name, edges in row
            }
            for row in diagram.edge_rows
        ],
        "certified_max_min": diagram.certified_max_min,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def diagram_from_json(text: str) -> OrderedBratteliDiagram:
    """Load a diagram written by :func:`diagram_to_json`.

    A document of another shape, or one whose diagram fails
    :func:`validate_diagram`, raises :class:`UsageError`, so the path
    functions never meet an unknown source, a missing row or an ordinal
    that is not an int, and ``certified_max_min`` is a JSON bool that the
    diagram backs.
    """
    try:
        obj = json.loads(text)
        diagram = OrderedBratteliDiagram(
            vertex_rows=tuple(tuple(row) for row in obj["vertex_rows"]),
            edge_rows=tuple(
                tuple(sorted(
                    (name, tuple(Edge(s, o) for s, o in edges)) for name, edges in row.items()
                ))
                for row in obj["edge_rows"]
            ),
            certified_max_min=obj.get("certified_max_min", False),
        )
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"not a diagram JSON document: {exc}") from exc
    report = validate_diagram(diagram)
    if not report.ok:
        raise UsageError("invalid diagram: " + "; ".join(report.problems))
    return diagram


def diagram_to_dot(diagram: OrderedBratteliDiagram) -> str:
    """Deterministic DOT rendering (rows as ranks, ordinals as edge labels)."""
    lines = ["digraph bratteli {", "  rankdir=BT;"]
    for row, names in enumerate(diagram.vertex_rows):
        rank = " ".join(f'"r{row}_{name}"' for name in names)
        lines.append(f"  {{ rank=same; {rank} }}")
        for name in names:
            lines.append(f'  "r{row}_{name}" [label="{name}"];')
    for row in range(1, diagram.rows + 1):
        for name, edges in diagram.edge_rows[row - 1]:
            for e in edges:
                lines.append(
                    f'  "r{row - 1}_{e.source}" -> "r{row}_{name}" '
                    f'[label="{e.ordinal}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
