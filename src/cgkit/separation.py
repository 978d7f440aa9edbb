"""Separation engines and their independent oracles.

Two semantics are implemented over chain graphs with deterministic nodes.
Writing dz for determined_set(table, z):

AMP: a route is open when every triplex visit (patterns ->b<-, ->b-, -b<-)
is at a node in dz and no non-triplex visit is.  The engine runs
reachability over (node, entry mark) states.  The oracle enumerates simple
paths and applies the path criterion, where a triplex node may also sit in
strict_ascendants(dz) and a determined -b- node stays passable while some
parent of b is outside dz.

LWF: a route is open when every collider section (maximal undirected
stretch entered by arrowheads at both ends) meets dz and no other section
does.  The engine uses the classical equivalent: restrict to the anterior
set of x∪y∪dz, moralize, and test undirected separation by dz.  The oracle
expands routes level by level under the section criterion.

Both semantics treat a query node inside dz like any other determined
node: conditioning effectively swallows it, so no open route starts or
ends there.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations
from typing import Iterable, Optional

from .determinism import DeterminationTable, determined_set
from .errors import GuardError, QueryError
from .graph import ChainGraph, components, strict_ascendants

AMP = "amp"
LWF = "lwf"
SEMANTICS = (AMP, LWF)

AMP_ORACLE_MAX_NODES = 12
LWF_ORACLE_MAX_NODES = 8

# entry marks for route states
_START, _HEAD, _TAIL, _LINE = range(4)


class SeparationQuery:
    """A separation question: are x and y separated given z?"""

    __slots__ = ("x", "y", "z", "semantics", "table")

    def __init__(self, x, y, z=(), semantics: str = AMP,
                 table: Optional[DeterminationTable] = None):
        if semantics not in SEMANTICS:
            raise QueryError(f"unknown semantics: {semantics!r}")
        self.x = frozenset(x)
        self.y = frozenset(y)
        self.z = frozenset(z)
        self.semantics = semantics
        self.table = table if table is not None else DeterminationTable()

    def __repr__(self):
        def s(xs):
            return "{" + ",".join(sorted(xs)) + "}"
        return f"SeparationQuery({s(self.x)}, {s(self.y)}, {s(self.z)}, {self.semantics})"


def _check_query(g: ChainGraph, q: SeparationQuery) -> None:
    if not q.x or not q.y:
        raise QueryError("x and y must be nonempty")
    if q.x & q.y or q.x & q.z or q.y & q.z:
        raise QueryError("x, y, z must be pairwise disjoint")
    unknown = (q.x | q.y | q.z) - g.nodes.keys()
    if unknown:
        raise QueryError(f"unknown nodes: {', '.join(sorted(unknown))}")


def effective_conditioning(q: SeparationQuery) -> frozenset:
    """The set that conditioning on q.z effectively conditions on."""
    return determined_set(q.table, q.z)


def determined_query_nodes(q: SeparationQuery) -> frozenset:
    """Query nodes swallowed by determinism; worth flagging in reports."""
    return (q.x | q.y) & effective_conditioning(q)


def _per_graph(build):
    """Cache build(g) in the graph's slot of the same name, so it dies with g."""
    slot = build.__name__

    @wraps(build)
    def get(g: ChainGraph):
        table = getattr(g, slot)
        if table is None:
            table = build(g)
            setattr(g, slot, table)
        return table

    return get


# ---------------------------------------------------------------------------
# AMP engine: reachability over (node, entry mark) states


@_per_graph
def _amp_moves(g: ChainGraph):
    """Route transitions split by whether the visited node must be determined.

    A step through node v entered with mark m and leaving along an edge is a
    triplex visit exactly when the two edge ends at v are (head, head) or
    (head, line) or (line, head).  Triplex visits require v in dz, all other
    visits require v outside dz, and the start mark is unconstrained.
    """
    free: dict = {}
    det: dict = {}
    for v in g.nodes:
        steps = []
        for w in g.dir_children[v]:
            steps.append((False, w, _HEAD))           # leave via tail: never triplex
        for u in g.dir_parents[v]:
            steps.append((True, u, _TAIL))            # leave against the arrow
        for w in g.und_neighbors[v]:
            steps.append((None, w, _LINE))
        for m in (_START, _HEAD, _TAIL, _LINE):
            f = []
            d = []
            for head_at_v, w, nm in steps:
                if head_at_v is False:
                    triplex = False
                elif head_at_v is True:
                    triplex = m in (_HEAD, _LINE)
                else:
                    triplex = m == _HEAD
                if m == _START:
                    f.append((w, nm))
                    d.append((w, nm))
                elif triplex:
                    d.append((w, nm))
                else:
                    f.append((w, nm))
            free[(v, m)] = tuple(f)
            det[(v, m)] = tuple(d)
    return free, det


def _amp_reach(g: ChainGraph, dz: frozenset, sources: Iterable[str]) -> set:
    """Nodes reachable from the sources along dz-open routes."""
    free, det = _amp_moves(g)
    seen = {(s, _START) for s in sources}
    stack = list(seen)
    reached = set()
    while stack:
        v, m = stack.pop()
        moves = det[(v, m)] if v in dz else free[(v, m)]
        for state in moves:
            if state not in seen:
                seen.add(state)
                reached.add(state[0])
                stack.append(state)
    return reached


def amp_separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """AMP separation with determinism, decided by route-state reachability."""
    _check_query(g, q)
    dz = determined_set(q.table, q.z)
    sources = q.x - dz
    targets = q.y - dz
    if not sources or not targets:
        return True
    return not (targets & _amp_reach(g, dz, sources))


def amp_witness(g: ChainGraph, q: SeparationQuery):
    """An open route from x to y as [(node, link), ...], or None if separated.

    link is the edge drawn between a node and its successor: "->", "<-" or "--".
    """
    _check_query(g, q)
    dz = determined_set(q.table, q.z)
    sources = q.x - dz
    targets = q.y - dz
    if not sources or not targets:
        return None
    free, det = _amp_moves(g)
    came: dict = {(s, _START): None for s in sources}
    queue = list(came)
    links = {_HEAD: "->", _TAIL: "<-", _LINE: "--"}
    for v, m in queue:
        moves = det[(v, m)] if v in dz else free[(v, m)]
        for w, nm in moves:
            if (w, nm) in came:
                continue
            came[(w, nm)] = (v, m)
            if w in targets:
                route = [(w, None)]
                state = (v, m)
                link = links[nm]
                while state is not None:
                    route.append((state[0], link))
                    prev = came[state]
                    if prev is not None:
                        link = links[state[1]]
                    state = prev
                return list(reversed(route))
            queue.append((w, nm))
    return None


# ---------------------------------------------------------------------------
# AMP oracle: literal path criterion over enumerated simple paths


@_per_graph
def _all_neighbors(g: ChainGraph):
    out = {}
    for v in g.nodes:
        out[v] = tuple(sorted(g.dir_children[v] | g.dir_parents[v] | g.und_neighbors[v]))
    return out


def _amp_path_open(g: ChainGraph, path, dz: frozenset, triplex_ok: frozenset) -> bool:
    if path[0] in dz or path[-1] in dz:
        return False
    for i in range(1, len(path) - 1):
        a, b, c = path[i - 1], path[i], path[i + 1]
        left_head = (a, b) in g.directed
        left_line = tuple(sorted((a, b))) in g.undirected
        right_head = (c, b) in g.directed
        right_line = tuple(sorted((b, c))) in g.undirected
        triplex = (left_head and (right_head or right_line)) or (left_line and right_head)
        if triplex:
            if b not in triplex_ok:
                return False
        elif b in dz:
            if not (left_line and right_line and (g.dir_parents[b] - dz)):
                return False
    return True


def amp_separated_oracle(g: ChainGraph, q: SeparationQuery) -> bool:
    """Brute-force AMP separation: every simple path is tested literally."""
    _check_query(g, q)
    if len(g.nodes) > AMP_ORACLE_MAX_NODES:
        raise GuardError(
            f"path oracle handles at most {AMP_ORACLE_MAX_NODES} nodes, got {len(g.nodes)}"
        )
    dz = determined_set(q.table, q.z)
    triplex_ok = dz | strict_ascendants(g, dz)
    targets = q.y - dz
    nbrs = _all_neighbors(g)

    def search(path, on_path) -> bool:
        v = path[-1]
        if v in targets and len(path) > 1:
            if _amp_path_open(g, path, dz, triplex_ok):
                return True
        for w in nbrs[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                if search(path, on_path):
                    return True
                on_path.discard(w)
                path.pop()
        return False

    for x in sorted(q.x - dz):
        if search([x], {x}):
            return False
    return True


# ---------------------------------------------------------------------------
# LWF engine: anterior restriction + moralization + undirected separation


@_per_graph
def _lwf_static(g: ChainGraph):
    """Per-graph bitmask tables for the moralization engine."""
    order = tuple(sorted(g.nodes))
    pos = {v: i for i, v in enumerate(order)}
    skeleton = [0] * len(order)
    for v in order:
        m = 0
        for w in g.dir_children[v] | g.dir_parents[v] | g.und_neighbors[v]:
            m |= 1 << pos[w]
        skeleton[pos[v]] = m

    ant = [0] * len(order)
    for v in order:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.dir_parents[u] | g.und_neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        m = 0
        for w in seen:
            m |= 1 << pos[w]
        ant[pos[v]] = m

    comps = []
    for part in components(g):
        members = 0
        for v in part:
            members |= 1 << pos[v]
        pa = 0
        for v in part:
            for p in g.dir_parents[v]:
                if p not in part:
                    pa |= 1 << pos[p]
        comps.append((members, pa))
    return order, pos, tuple(skeleton), tuple(ant), tuple(comps)


def _mask(pos, xs) -> int:
    m = 0
    for v in xs:
        m |= 1 << pos[v]
    return m


def _moral_reach(static, area: int, blocked: int, sources: int) -> int:
    """Reachable set in the moral graph of the area, walking around blocked nodes."""
    order, _, skeleton, _, comps = static
    marry = {}
    for members, pa in comps:
        if members & area == members and pa:
            rest = pa
            while rest:
                bit = rest & -rest
                rest ^= bit
                marry[bit] = marry.get(bit, 0) | (pa ^ bit)
    allowed = area & ~blocked
    frontier = sources & allowed
    reach = frontier
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        v = bit.bit_length() - 1
        nbrs = (skeleton[v] | marry.get(bit, 0)) & allowed & ~reach
        reach |= nbrs
        frontier |= nbrs
    return reach


def lwf_separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """LWF separation with determinism via anterior restriction and moralization."""
    _check_query(g, q)
    dz = determined_set(q.table, q.z)
    static = _lwf_static(g)
    _, pos, _, ant, _ = static
    sources = _mask(pos, q.x - dz)
    targets = _mask(pos, q.y - dz)
    if not sources or not targets:
        return True
    area = 0
    for v in q.x | q.y | dz:
        area |= ant[pos[v]]
    blocked = _mask(pos, dz)
    return not (_moral_reach(static, area, blocked, sources) & targets)


def lwf_witness(g: ChainGraph, q: SeparationQuery):
    """A connecting path in the restricted moral graph, or None if separated."""
    _check_query(g, q)
    dz = determined_set(q.table, q.z)
    static = _lwf_static(g)
    order, pos, skeleton, ant, comps = static
    srcs = sorted(q.x - dz)
    targets = q.y - dz
    if not srcs or not targets:
        return None
    area = 0
    for v in q.x | q.y | dz:
        area |= ant[pos[v]]
    marry = {}
    for members, pa in comps:
        if members & area == members and pa:
            rest = pa
            while rest:
                bit = rest & -rest
                rest ^= bit
                marry[bit] = marry.get(bit, 0) | (pa ^ bit)
    allowed = area & ~_mask(pos, dz)
    came = {v: None for v in srcs if allowed >> pos[v] & 1}
    queue = list(came)
    for v in queue:
        bit = 1 << pos[v]
        nbrs = (skeleton[pos[v]] | marry.get(bit, 0)) & allowed
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            w = order[b.bit_length() - 1]
            if w in came:
                continue
            came[w] = v
            if w in targets:
                path = [w]
                while came[path[-1]] is not None:
                    path.append(came[path[-1]])
                return list(reversed(path))
            queue.append(w)
    return None


# ---------------------------------------------------------------------------
# LWF oracle: bounded route expansion under the section criterion


def lwf_route_oracle(g: ChainGraph, q: SeparationQuery) -> bool:
    """Route-by-route LWF separation on tiny graphs.

    Routes are grown one edge at a time up to 2*n*n edges.  Prefixes that
    end at the same node with the same pending-section state (entered by an
    arrowhead or not, met a determined node or not) extend identically, so
    each distinct ending is expanded once per first reaching length.
    """
    _check_query(g, q)
    n = len(g.nodes)
    if n > LWF_ORACLE_MAX_NODES:
        raise GuardError(
            f"route oracle handles at most {LWF_ORACLE_MAX_NODES} nodes, got {n}"
        )
    dz = determined_set(q.table, q.z)
    bound = 2 * n * n

    def accepts(state) -> bool:
        v, _, has_d = state
        return v in q.y and not has_d

    frontier = {(x, False, x in dz) for x in q.x}
    if any(accepts(s) for s in frontier):
        return False
    seen = set(frontier)
    for _ in range(bound):
        nxt = set()
        for v, entered_by_head, has_d in frontier:
            for w in g.und_neighbors[v]:
                nxt.add((w, entered_by_head, has_d or w in dz))
            if not has_d:
                # leaving via a tail closes the section as a non-collider
                for w in g.dir_children[v]:
                    nxt.add((w, True, w in dz))
            if has_d == entered_by_head:
                # leaving against an arrow closes it as a collider iff entered by one
                for u in g.dir_parents[v]:
                    nxt.add((u, False, u in dz))
        nxt -= seen
        if not nxt:
            return True
        if any(accepts(s) for s in nxt):
            return False
        seen |= nxt
        frontier = nxt
    return True


# ---------------------------------------------------------------------------


def separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """Dispatch on q.semantics."""
    if q.semantics == AMP:
        return amp_separated(g, q)
    return lwf_separated(g, q)


# Bulk helpers used by model enumeration.  They answer every singleton pair
# through the same cores as the public engines.

def amp_connectivity(g: ChainGraph, dz: frozenset, order) -> list:
    """For each node in order, the bitmask of order members it stays connected to."""
    bit = {v: i for i, v in enumerate(order)}
    rows = []
    for x in order:
        if x in dz:
            rows.append(0)
            continue
        m = 0
        for w in _amp_reach(g, dz, (x,)):
            i = bit.get(w)
            if i is not None and w not in dz:
                m |= 1 << i
        rows.append(m & ~(1 << bit[x]))
    return rows


def lwf_connectivity(g: ChainGraph, dz: frozenset, order) -> list:
    """Pairwise LWF connectivity via per-pair anterior moralization."""
    static = _lwf_static(g)
    _, pos, _, ant, _ = static
    ant_dz = 0
    for v in dz:
        ant_dz |= ant[pos[v]]
    blocked = _mask(pos, dz)
    rows = [0] * len(order)
    for i, j in combinations(range(len(order)), 2):
        x, y = order[i], order[j]
        if x in dz or y in dz:
            continue
        area = ant[pos[x]] | ant[pos[y]] | ant_dz
        if _moral_reach(static, area, blocked, 1 << pos[x]) >> pos[y] & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows
