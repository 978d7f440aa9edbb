"""Separation engines and their independent oracles.

Two semantics are implemented over chain graphs with deterministic nodes.
Writing dz for determined_set(table, z):

AMP: a route is open when every triplex visit (patterns ->b<-, ->b-, -b<-)
is at a node in dz and no non-triplex visit is.  Whether a visit is
triplex depends only on the mark the route entered the node by and the edge
it leaves along, so the engine is one level-synchronous search over three
frontier bitmasks, one per entry mark (head, line, tail): each level ORs
the child, neighbour or parent masks of the frontier nodes the marks and dz
let through.  The bulk connectivity rows run it once per source, stopping
once it has reached every member not yet searched from.  A query
runs it once, keeping every level's frontiers to rebuild a shortest route
backwards, its witness; no route is its verdict.  The oracle enumerates
simple paths and applies the path criterion, where a triplex node may also
sit in strict_ascendants(dz) and a determined -b- node stays passable while
some parent of b is outside dz.

LWF: a route is open when every collider section (maximal undirected
stretch entered by arrowheads at both ends) meets dz and no other section
does.  The engine uses the classical equivalent: restrict to the anterior
set of x∪y∪dz, moralize, and test undirected separation by dz.  Each node
lists the marriages of the chain components it is a parent of, and a search
ORs in those inside its area only when it expands the node.  A query's
breadth-first search stops at the first y node: its path is the witness.
The bulk rows label each moral component of an anterior area with one
reach.  The oracle expands routes level by level under the section criterion.

Both semantics treat a query node inside dz like any other determined
node: conditioning effectively swallows it, so no open route starts or
ends there.  A query keeps its one search, so its verdict and witness
come from the same run.  A table that determines a node outside the graph
is refused with QueryError.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .determinism import DeterminationTable, determined_set
from .errors import GuardError, QueryError
from .graph import AMP, LWF, SEMANTICS, ChainGraph, components, strict_ascendants

AMP_ORACLE_MAX_NODES = 12
LWF_ORACLE_MAX_NODES = 8

# entry marks of AMP route states, and the edge drawn into a node entered by each
_HEAD, _LINE, _TAIL = range(3)
_LINKS = ("->", "--", "<-")


class SeparationQuery:
    """A separation question: are x and y separated given z?"""

    # memos: _dz of effective_conditioning, _route of _searched
    __slots__ = ("x", "y", "z", "semantics", "table", "_dz", "_route")

    def __init__(self, x, y, z=(), semantics: str = AMP,
                 table: Optional[DeterminationTable] = None):
        if semantics not in SEMANTICS:
            raise QueryError(f"unknown semantics: {semantics!r}")
        self.x = frozenset(x)
        self.y = frozenset(y)
        self.z = frozenset(z)
        self.semantics = semantics
        self.table = table if table is not None else DeterminationTable()
        self._dz = self._route = None

    def __repr__(self):
        def s(xs):
            return "{" + ",".join(sorted(xs)) + "}"
        return f"SeparationQuery({s(self.x)}, {s(self.y)}, {s(self.z)}, {self.semantics})"


def _check_query(g: ChainGraph, q: SeparationQuery) -> None:
    if not q.x or not q.y:
        raise QueryError("x and y must be nonempty")
    if q.x & q.y or q.x & q.z or q.y & q.z:
        raise QueryError("x, y, z must be pairwise disjoint")
    names = q.x | q.y | q.z
    if not names <= g.nodes.keys():
        raise QueryError(f"unknown nodes: {', '.join(sorted(names - g.nodes.keys()))}")


def _check_determined(g: ChainGraph, dz: frozenset) -> None:
    if not dz <= g.nodes.keys():
        stray = ", ".join(sorted(dz - g.nodes.keys()))
        raise QueryError(f"determination table reaches nodes outside the graph: {stray}")


def effective_conditioning(q: SeparationQuery) -> frozenset:
    """The set that conditioning on q.z effectively conditions on.

    Computed once per query; a reassigned q.z or q.table is computed afresh.
    """
    memo = q._dz
    if memo is None or memo[0] is not q.z or memo[1] is not q.table:
        memo = q._dz = (q.z, q.table, determined_set(q.table, q.z))
    return memo[2]


def determined_query_nodes(q: SeparationQuery) -> frozenset:
    """Query nodes swallowed by determinism; worth flagging in reports."""
    return (q.x | q.y) & effective_conditioning(q)


# ---------------------------------------------------------------------------
# Per-graph bitmask tables shared by both engines


class _Masks:
    """Bitmasks over a graph's sorted node order.

    ch, pa and ne hold each node's children, parents and undirected
    neighbours, adj their union, and ant its anterior set: the node plus
    every node with a route into it that never leaves against an arrow.
    wed lists, per node, the chain components with at least two outside
    parents that it is a parent of, as (members, the other parents).
    """

    __slots__ = ("order", "pos", "ch", "pa", "ne", "adj", "ant", "wed")


def _mask(pos, xs) -> int:
    m = 0
    for v in xs:
        m |= 1 << pos[v]
    return m


def _union(masks, bits: int) -> int:
    """OR of masks[k] over the set bit positions k of bits."""
    out = 0
    while bits:
        bit = bits & -bits
        bits ^= bit
        out |= masks[bit.bit_length() - 1]
    return out


def _masks(g: ChainGraph) -> _Masks:
    """The graph's tables, kept in its slot of the same name so they die with it."""
    if g._masks is not None:
        return g._masks
    t = _Masks()
    t.order = order = tuple(sorted(g.nodes))
    t.pos = pos = {v: i for i, v in enumerate(order)}
    t.ch = tuple(_mask(pos, g.dir_children[v]) for v in order)
    t.pa = pa = tuple(_mask(pos, g.dir_parents[v]) for v in order)
    t.ne = ne = tuple(_mask(pos, g.und_neighbors[v]) for v in order)
    t.adj = tuple(c | p | n for c, p, n in zip(t.ch, pa, ne))
    up = tuple(p | n for p, n in zip(pa, ne))
    ant = []
    for i in range(len(order)):
        reach = frontier = 1 << i
        while frontier:
            frontier = _union(up, frontier) & ~reach
            reach |= frontier
        ant.append(reach)
    t.ant = tuple(ant)
    wed = [()] * len(order)
    for part in components(g):
        members = _mask(pos, part)
        outside = _union(pa, members) & ~members
        if outside & (outside - 1):
            for k in range(len(order)):
                if outside >> k & 1:
                    wed[k] += ((members, outside & ~(1 << k)),)
    t.wed = tuple(wed)
    g._masks = t
    return t


# ---------------------------------------------------------------------------
# AMP engine: one search over entry-mark frontiers


def _amp_search(t: _Masks, dm: int, sources: int, targets: int = 0, levels=None,
                wanted: int = -1) -> int:
    """Nodes reached from the sources along routes open given dm, D(Z) as a mask.

    A node outside dm passes a route on only by a non-triplex visit:
    entered by a head it leaves by ch, by a line by ch or ne, by a tail by
    any edge.  A node in dm passes it on only by a triplex visit: entered by
    a head it leaves by pa or ne, by a line by pa, by a tail not at all.
    Sources count as entered by a tail.  Each (node, mark) state is reached
    once.  The search stops after the first level that meets targets or has
    reached all of wanted; if levels is a list, it receives every level's
    (head, line, tail) frontiers.
    """
    ch, pa, ne = t.ch, t.pa, t.ne
    head = line = seen_h = seen_l = reach = 0
    tail = seen_t = sources
    while True:
        if levels is not None:
            levels.append((head, line, tail))
        if reach & targets or not wanted & ~reach or not head | line | tail:
            return reach
        to_h = to_l = to_t = 0
        frontier = head | line | tail
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            k = bit.bit_length() - 1
            if bit & dm:
                if bit & head:
                    to_l |= ne[k]
                    to_t |= pa[k]
                elif bit & line:
                    to_t |= pa[k]
            else:
                to_h |= ch[k]
                if bit & tail:
                    to_l |= ne[k]
                    to_t |= pa[k]
                elif bit & line:
                    to_l |= ne[k]
        head = to_h & ~seen_h
        line = to_l & ~seen_l
        tail = to_t & ~seen_t
        seen_h |= head
        seen_l |= line
        seen_t |= tail
        reach |= head | line | tail


def _query_masks(g: ChainGraph, q: SeparationQuery):
    """The graph's tables, D(Z) as a mask, and the x and y nodes outside it."""
    _check_query(g, q)
    t = _masks(g)
    dz = effective_conditioning(q)
    try:
        dm = _mask(t.pos, dz)
    except KeyError:
        _check_determined(g, dz)
        raise
    return t, dm, _mask(t.pos, q.x) & ~dm, _mask(t.pos, q.y) & ~dm


def _searched(g: ChainGraph, q: SeparationQuery, search):
    """The route search(t, dm, sources, targets) finds for q, or None, kept on q
    while its x, y, z and table, g's tables and the search stay the same
    objects.  The memo holds the tables, never g, so g can still be freed."""
    t = _masks(g)
    memo = q._route
    if (memo is None or memo[0] is not search or memo[1] is not t or memo[2] is not q.x
            or memo[3] is not q.y or memo[4] is not q.z or memo[5] is not q.table):
        t, dm, sources, targets = _query_masks(g, q)
        route = search(t, dm, sources, targets) if sources and targets else None
        memo = q._route = (search, t, q.x, q.y, q.z, q.table, route)
    return memo[6]


def amp_separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """AMP separation with determinism: no open route from the entry-mark search."""
    return _searched(g, q, _amp_route) is None


def amp_witness(g: ChainGraph, q: SeparationQuery):
    """A shortest open route from x to y as [(node, link), ...], or None if separated.

    link is the edge drawn between a node and its successor: "->", "<-" or
    "--".  Among shortest routes, the one ending at the lowest node of y is
    rebuilt backwards, at each step taking the lowest predecessor.
    """
    route = _searched(g, q, _amp_route)
    return None if route is None else list(route)


def _amp_route(t: _Masks, dm: int, sources: int, targets: int):
    levels: list = []
    if not _amp_search(t, dm, sources, targets, levels) & targets:
        return None
    head, line, tail = levels.pop()
    bit = (head | line | tail) & targets
    bit &= -bit
    mark = _HEAD if head & bit else _LINE if line & bit else _TAIL
    route = [(t.order[bit.bit_length() - 1], None)]
    for head, line, tail in reversed(levels):
        # the states of this level whose visit lets the route step onto (bit, mark)
        from_h = head & (~dm if mark == _HEAD else dm)
        from_l = line & (dm if mark == _TAIL else ~dm)
        from_t = tail & ~dm
        step = (from_h | from_l | from_t) & (t.pa, t.ne, t.ch)[mark][bit.bit_length() - 1]
        link = _LINKS[mark]
        bit = step & -step
        mark = _HEAD if from_h & bit else _LINE if from_l & bit else _TAIL
        route.append((t.order[bit.bit_length() - 1], link))
    route.reverse()
    return route


# ---------------------------------------------------------------------------
# AMP oracle: literal path criterion over enumerated simple paths


def _all_neighbors(g: ChainGraph):
    if g._all_neighbors is None:
        g._all_neighbors = {
            v: tuple(sorted(g.dir_children[v] | g.dir_parents[v] | g.und_neighbors[v]))
            for v in g.nodes}
    return g._all_neighbors


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
    _check_determined(g, dz)
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


def _moral_nbrs(t: _Masks, k: int, area: int) -> int:
    """Node k's neighbours in the moral graph of an anterior area: its
    skeleton plus its marriages into the components inside the area."""
    nbrs = t.adj[k]
    for members, others in t.wed[k]:
        if members & area == members:
            nbrs |= others
    return nbrs


def _moral_reach(t: _Masks, area: int, dm: int, sources: int) -> int:
    """Reachable set from the sources in the area's moral graph, avoiding dm."""
    adj, wed = t.adj, t.wed
    allowed = area & ~dm
    frontier = reach = sources & allowed
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        k = bit.bit_length() - 1
        nbrs = adj[k]  # the rule of _moral_nbrs, inlined on this hot path
        for members, others in wed[k]:
            if members & area == members:
                nbrs |= others
        nbrs &= allowed & ~reach
        reach |= nbrs
        frontier |= nbrs
    return reach


def lwf_separated(g: ChainGraph, q: SeparationQuery) -> bool:
    """LWF separation with determinism via anterior restriction and moralization."""
    return _searched(g, q, _lwf_path) is None


def lwf_witness(g: ChainGraph, q: SeparationQuery):
    """A connecting path in the restricted moral graph, or None if separated.

    Breadth-first from the x nodes in name order, each node taking its
    neighbours in name order; the path to the first y node reached.
    """
    path = _searched(g, q, _lwf_path)
    return None if path is None else list(path)


def _lwf_path(t: _Masks, dm: int, sources: int, targets: int):
    area = _union(t.ant, sources | targets | dm)
    allowed = area & ~dm
    queue, rest = [], sources
    while rest:
        queue.append((rest & -rest).bit_length() - 1)
        rest &= rest - 1
    came = dict.fromkeys(queue)
    seen = sources
    for k in queue:
        nbrs = _moral_nbrs(t, k, area) & allowed & ~seen
        seen |= nbrs
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            w = bit.bit_length() - 1
            came[w] = k
            if bit & targets:
                path = [w]
                while came[path[-1]] is not None:
                    path.append(came[path[-1]])
                return [t.order[p] for p in reversed(path)]
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
    _check_determined(g, dz)
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


# Bulk rows used by model enumeration.  They answer every singleton pair
# through the same cores as the public engines.

def _row_core(t: _Masks, semantics: str, order):
    """rows(dm): the connectivity rows of the order members given D(Z) as a
    mask, with the set-up that depends only on the members done once."""
    bits = [1 << t.pos[v] for v in order]
    if semantics == AMP:
        return partial(_amp_rows, t, dict(zip(bits, range(len(bits)))))
    return partial(_lwf_rows, t, bits, [t.ant[b.bit_length() - 1] for b in bits])


def amp_connectivity(g: ChainGraph, dz: frozenset, order) -> list:
    """For each node in order, the bitmask of order members it stays connected to."""
    t = _masks(g)
    return _row_core(t, AMP, order)(_mask(t.pos, dz))


def lwf_connectivity(g: ChainGraph, dz: frozenset, order) -> list:
    """Pairwise LWF connectivity, one set of moral components per anterior area."""
    t = _masks(g)
    return _row_core(t, LWF, order)(_mask(t.pos, dz))


def _amp_rows(t: _Masks, index: dict, dm: int) -> list:
    """Rows of the members, index mapping each one's graph bit to its row.

    Connectivity is symmetric, so each search looks only for the members not
    searched from yet, stops once it has reached them all, and fills both
    rows of each pair it finds; the last member needs no search.
    """
    rest = sum(index) & ~dm  # distinct bits, so their sum is their union
    rows = [0] * len(index)
    for gbit, i in index.items():
        if not gbit & rest:
            continue
        rest ^= gbit
        if not rest:
            break
        reach = _amp_search(t, dm, gbit, wanted=rest) & rest
        while reach:
            bit = reach & -reach
            reach ^= bit
            j = index[bit]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _lwf_rows(t: _Masks, bits: list, ants: list, dm: int) -> list:
    """Rows of the members with these graph bits and anterior masks."""
    ant_dz = _union(t.ant, dm)
    by_area: dict = {}  # area -> its moral components labelled so far
    rows = [0] * len(bits)
    free = [k for k, x in enumerate(bits) if not x & dm]
    for a, i in enumerate(free):
        x, ant_x = bits[i], ants[i] | ant_dz
        for j in free[a + 1:]:
            area = ant_x | ants[j]
            labelled = by_area.setdefault(area, [])
            for comp in labelled:
                if comp & x:
                    break
            else:
                comp = _moral_reach(t, area, dm, x)
                labelled.append(comp)
            if comp & bits[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows
