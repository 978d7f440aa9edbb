"""Full independence models over small universes.

A model is the set of all separations (x, y, z) a graph encodes, with x, y,
z disjoint subsets of a universe and x, y nonempty.  Separation of node sets
decomposes into pairs: x and y are separated given z exactly when no node of
x is connected to a node of y given z.  So a model is stored as its
elementary triples (a, b | z): for every conditioning set z, one row table
holding each node's connectivity bitmask over sorted universe positions.
The rows are symmetric and empty on z and on the diagonal; a node that z
determines has an empty row.  The row tables determine the model, so they
are its only state, and equality, hashing, membership, counting and
projection all work on them.

Full triples are expanded only where output needs them (``triples``,
``dumps``, ``model_diff``), in ascending order of z, then y, then x as
bitmasks, each unordered pair once with the x side holding the
lexicographically least node.

Enumeration runs on graph-position bitmasks from start to finish: the
determination rules become (determinant mask, target bit) pairs, D(z) is
the closure of D(z minus its top node) plus that node, and the rows are
computed once per distinct D(Z) mask by cores whose per-universe set-up is
done once per model.  The row check packs every distinct table into one int
and tests range, diagonal and symmetry with word operations.
"""

from __future__ import annotations

import struct
from itertools import count, starmap
from operator import and_, itemgetter
from typing import Iterable

from .determinism import DeterminationTable, mask_closure, rule_masks
from .errors import GuardError
from .graph import AMP, LWF, VARIABLE, ChainGraph, _split_names
from .pcg64 import PCG64
from .separation import _mask, _masks, _row_core

# full enumeration is exponential; refuse universes past this size
MAX_MODEL_NODES = 12
# random_cg is quadratic in the node count and names nodes N000..N999
MAX_GEN_NODES = 1000


def triple_count(n: int) -> int:
    """Number of canonical disjoint triples over an n-node universe."""
    return (4**n - 2 * 3**n + 2**n) // 2


def _positions(mask: int):
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks(mask: int):
    """Nonempty submasks of mask, ascending."""
    sub = (-mask) & mask
    while sub:
        yield sub
        sub = (sub - mask) & mask


def _unions(row, mask: int):
    """Lists sets and reach over the subsets of mask, ascending from the empty
    set, where reach[k] is the union of the rows of the members of sets[k]."""
    sets, reach = [0], [0]
    # doubling on each position in turn keeps the subsets ascending
    for p in _positions(mask):
        bit, r = 1 << p, row[p]
        sets += [s | bit for s in sets]
        reach += [c | r for c in reach]
    return sets, reach


def _core_labellings(row) -> int:
    """Ways to label the nodes with nonempty rows x, y or neither so that no
    x node is connected to a y node."""
    core = 0
    for i, r in enumerate(row):
        if r:
            core |= 1 << i
    # closed[k]: the k-th subset x of the core with every node connected to it;
    # the core nodes outside it are free to be y or neither
    closed = [0]
    for p in _positions(core):
        r = (row[p] | 1 << p) & core
        closed += [c | r for c in closed]
    free = core.bit_count()
    return sum(1 << free - c.bit_count() for c in closed)


def _positions_of(universe):
    """The sorted universe and each node's position in it."""
    order = tuple(sorted(universe))
    if len(order) > 16:
        raise GuardError("models support at most 16 universe nodes")
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(order):
        raise ValueError("model universe repeats a node")
    return order, pos


def _mask_of(pos, names) -> int:
    m = 0
    for v in names:
        if v not in pos:
            raise ValueError(f"node {v} not in model universe")
        m |= 1 << pos[v]
    return m


def _triple_masks(pos, x, y, z):
    """Bitmasks of a triple, x holding the least node."""
    xm, ym, zm = _mask_of(pos, x), _mask_of(pos, y), _mask_of(pos, z)
    if xm == 0 or ym == 0 or (xm & ym) or (zm & (xm | ym)):
        raise ValueError("triple parts must be disjoint with nonempty x and y")
    if (xm & -xm) > (ym & -ym):
        xm, ym = ym, xm
    return xm, ym, zm


# (shift, mask) of the four masked swaps that transpose a 16x16 bit matrix
# packed with row i in bits 16i..16i+15: the swap of step k exchanges bit j
# of row i with bit j-k of row i+k wherever bit k is clear in i and set in j;
# the masks are bytes, so they can be repeated for many matrices side by side
_SWAPS = tuple(
    (15 * k, (sum(1 << j for j in range(16) if j & k)
              * sum(1 << 16 * i for i in range(16) if not i & k)).to_bytes(32, "little"))
    for k in (8, 4, 2, 1)
)
_DIAGONAL = sum(1 << 17 * i for i in range(16)).to_bytes(32, "little")


def _first_row_problem(rows, n: int) -> None:
    """Raise for the first problem a literal pass over the rows finds."""
    for zm, row in enumerate(rows):
        acc = 0
        for i, r in enumerate(row):
            if r < 0 or r >> n or r >> i & 1:
                raise ValueError(f"model row {i} at conditioning set {zm} is not a mask of other nodes")
            for j in _positions(r):
                if not row[j] >> i & 1:
                    raise ValueError(f"model rows at conditioning set {zm} are not symmetric")
            acc |= r
        if acc & zm:
            raise ValueError(f"model rows at conditioning set {zm} are not empty on it")


def _check_rows(rows, n: int) -> None:
    """Refuse rows that are not symmetric, or not empty on z and the diagonal.

    The distinct table objects of rows, tuples, are packed side by side into
    one int, a 256-bit block each with a 16-bit lane per row and zero lanes
    past n.  Word operations then test every block at once against a
    diagonal mask, and the int against its transpose (Warren, Hacker's
    Delight, 7-3); a bit past n would need a partner in a zero lane, so
    symmetry covers the range.  OR-folding a block's lanes gives, by
    symmetry, the nodes with nonempty rows, which each conditioning set of
    the table must miss.
    """
    ids = list(map(id, rows))
    tables = dict(zip(ids, rows))
    block = struct.Struct(f"<{n}H{32 - 2 * n}x")
    try:
        packed = int.from_bytes(b"".join(starmap(block.pack, tables.values())), "little")
    except struct.error:
        return _first_row_problem(rows, n)
    flip = packed
    for shift, mask in _SWAPS:
        d = (flip ^ flip >> shift) & int.from_bytes(mask * len(tables), "little")
        flip ^= d ^ d << shift
    if packed & int.from_bytes(_DIAGONAL * len(tables), "little") or flip != packed:
        return _first_row_problem(rows, n)
    # lane 0 of each block ends up holding the OR of the block's lanes
    for shift in (128, 64, 32, 16):
        packed |= packed >> shift
    lane0 = map(itemgetter(0), struct.iter_unpack("<H30x", packed.to_bytes(32 * len(tables), "little")))
    nonempty = dict(zip(tables, lane0))
    if any(map(and_, map(nonempty.__getitem__, ids), count())):
        _first_row_problem(rows, n)


class IndependenceModel:
    """An immutable independence model: one pairwise row table per conditioning set.

    rows[z][i] is the bitmask of universe positions that node i stays
    connected to given the conditioning set with bitmask z; positions index
    the sorted universe.  The rows must be symmetric and empty on z and on
    the diagonal; ValueError refuses rows that are not.
    """

    __slots__ = ("universe", "rows", "_pos")

    def __init__(self, universe: Iterable[str], rows):
        self.universe, self._pos = _positions_of(universe)
        n = len(self.universe)
        self.rows = tuple(map(tuple, rows))
        if len(self.rows) != 1 << n or set(map(len, self.rows)) != {n}:
            raise ValueError(f"a model over {n} nodes needs {1 << n} rows of {n} masks")
        _check_rows(self.rows, n)

    def _name_table(self) -> list:
        """Sorted name tuple of every universe bitmask, indexed by the mask."""
        out = [()]
        for k in range(1, len(self.rows)):
            low = k & -k
            out.append((self.universe[low.bit_length() - 1],) + out[k ^ low])
        return out

    def _expand(self, zm: int):
        """(x, y) bitmasks of the triples at conditioning set zm, in dump order.

        Nodes outside z and y and not connected to y can join x; lo holds
        those below y's least node, hi the rest.  The canonical x are then a
        nonempty part of lo together with any part of hi.
        """
        row = self.rows[zm]
        free = (len(self.rows) - 1) & ~zm
        sets, reach = _unions(row, free)
        for y, r in zip(sets[1:], reach[1:]):
            a = free & ~(y | r)
            below = (y & -y) - 1
            # hi bits outrank lo bits, so this nesting ascends in x
            for h in (0, *_submasks(a & ~below)):
                for lo in _submasks(a & below):
                    yield h | lo, y

    def has(self, x, y, z=()) -> bool:
        xm, ym, zm = _triple_masks(self._pos, x, y, z)
        row = self.rows[zm]
        acc = 0
        for i in _positions(xm):
            acc |= row[i]
        return not acc & ym

    def triples(self):
        names = self._name_table()
        for zm in range(len(self.rows)):
            for x, y in self._expand(zm):
                yield names[x], names[y], names[zm]

    def __len__(self):
        # Counted from the rows without expanding.  Labelling the free nodes
        # x, y or neither with no x-y connection gives core * 3^k labellings,
        # k being the free nodes with empty rows; dropping those with x or y
        # empty and halving leaves the canonical triples.
        n = len(self.universe)
        cores: dict = {}
        total = 0
        for zm, row in enumerate(self.rows):
            if row not in cores:
                cores[row] = _core_labellings(row)
            f = n - zm.bit_count()
            k = f - sum(1 for r in row if r)
            total += cores[row] * 3**k - 2 ** (f + 1) + 1
        return total // 2

    def __eq__(self, other):
        return (
            isinstance(other, IndependenceModel)
            and self.universe == other.universe
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.universe, self.rows))

    def __repr__(self):
        return f"IndependenceModel(universe={self.universe!r}, triples={len(self)})"

    def dumps(self) -> str:
        head = ",".join(self.universe) if self.universe else "-"
        lines = [f"# universe {head}"]
        labels = [",".join(t) for t in self._name_table()]
        for zm in range(len(self.rows)):
            zl = labels[zm] if zm else "-"
            for x, y in self._expand(zm):
                lines.append(f"{labels[x]} | {labels[y]} | {zl}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "IndependenceModel":
        """Parse a dump; refuse one that no row table reproduces exactly.

        The rows come from the singleton lines.  Re-expanding them must give
        back the lines read, which holds exactly when the dump is closed
        under composition and decomposition.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# universe"):
            raise ValueError("model dump must start with a '# universe' line")
        universe, pos = _positions_of(_split_names(lines[0][len("# universe"):].strip()))
        n = len(universe)
        full = (1 << n) - 1
        read: dict = {}
        for ln in lines[1:]:
            if ln.startswith("#"):
                continue
            fields = [f.strip() for f in ln.split("|")]
            if len(fields) != 3:
                raise ValueError(f"malformed model line: {ln!r}")
            xm, ym, zm = _triple_masks(pos, *(_split_names(f, pos) for f in fields))
            read.setdefault(zm, set()).add((xm, ym))
        rows = []
        for zm in range(1 << n):
            free = full & ~zm
            row = [free & ~(1 << i) if free >> i & 1 else 0 for i in range(n)]
            for xm, ym in read.get(zm, ()):
                if not (xm & (xm - 1) or ym & (ym - 1)):
                    row[xm.bit_length() - 1] &= ~ym
                    row[ym.bit_length() - 1] &= ~xm
            rows.append(tuple(row))
        m = cls(universe, rows)
        # a conditioning set without lines keeps complete rows and expands to nothing
        names = m._name_table()
        for zm in sorted(read):
            got = set(m._expand(zm))
            if got != read[zm]:
                x, y = min(got ^ read[zm])
                z = ",".join(names[zm]) or "-"
                what = "lacks one of its pairwise triples" if (x, y) in read[zm] else (
                    "is implied by the pairwise triples but missing")
                raise ValueError(
                    "model dump is not closed under composition and decomposition: "
                    f"{','.join(names[x])} | {','.join(names[y])} | {z} {what}"
                )
        return m


def enumerate_model(
    g: ChainGraph,
    table: DeterminationTable | None,
    semantics: str,
    universe: Iterable[str] | None = None,
    *,
    condition_on: Iterable[str] = (),
) -> IndependenceModel:
    """The model of g over the universe: the connectivity rows of every
    conditioning set, computed once per distinct D(Z).

    condition_on names graph nodes outside the universe that join every
    conditioning set; the result is then directly the model projected by
    conditioning on them.
    """
    order = sorted(set(universe)) if universe is not None else sorted(g.nodes)
    unknown = [v for v in order if v not in g.nodes]
    if unknown:
        raise ValueError(f"universe nodes not in graph: {', '.join(unknown)}")
    n = len(order)
    if n > MAX_MODEL_NODES:
        raise GuardError(
            f"universe of {n} nodes means {triple_count(n)} triples; "
            f"guard allows {MAX_MODEL_NODES} nodes"
        )
    cond = frozenset(condition_on)
    if cond & set(order):
        raise ValueError("condition_on must be disjoint from the universe")
    if cond - set(g.nodes):
        raise ValueError("condition_on nodes must be in the graph")
    if semantics not in (AMP, LWF):
        raise ValueError(f"unknown semantics {semantics!r}")
    t = _masks(g)
    rows_at = _row_core(t, semantics, order)
    rules, outside = rule_masks(table or DeterminationTable(), t.pos)

    # D is a closure operator, so D(z) is the closure of D(z minus its top
    # node) plus that node, and needs no work when the node is already in it;
    # each universe node doubles the list, which stays in ascending order of z
    dzs = [mask_closure(rules, _mask(t.pos, cond))]
    for bit in (1 << t.pos[v] for v in order):
        dzs += [dz if dz & bit else mask_closure(rules, dz | bit) for dz in dzs]
    by_dz = dict.fromkeys(dzs)
    for dm in by_dz:
        if dm >> len(t.order):
            stray = sorted(v for v, p in outside.items() if dm >> p & 1)
            raise ValueError(f"determination table reaches nodes outside the graph: {', '.join(stray)}")
        by_dz[dm] = tuple(rows_at(dm))
    return IndependenceModel(order, map(by_dz.__getitem__, dzs))


def project_model(m: IndependenceModel, l=(), s=()) -> IndependenceModel:
    """Marginalize l out and condition on s.

    Keeps (x, y, z) over the shrunken universe iff (x, y, z∪s) was present:
    each new row is the old row at z∪s with the l∪s bits dropped.
    """
    l, s = frozenset(l), frozenset(s)
    if l & s:
        raise ValueError("marginal and conditioning sets overlap")
    stray = (l | s) - set(m.universe)
    if stray:
        raise ValueError(f"not in model universe: {', '.join(sorted(stray))}")
    gone = _mask_of(m._pos, l | s)
    keep = [i for i in range(len(m.universe)) if not gone >> i & 1]

    squeezed: dict = {}

    def squeeze(r: int) -> int:
        if r not in squeezed:
            squeezed[r] = sum(1 << t for t, p in enumerate(keep) if r >> p & 1)
        return squeezed[r]

    smask = _mask_of(m._pos, s)
    tables: dict = {}
    rows = []
    # new conditioning sets in ascending order, each as the old z ∪ s
    for zm in (smask, *(sub | smask for sub in _submasks((len(m.rows) - 1) & ~gone))):
        old = m.rows[zm]
        if old not in tables:
            tables[old] = tuple(squeeze(old[p]) for p in keep)
        rows.append(tables[old])
    return IndependenceModel((m.universe[i] for i in keep), rows)


def model_diff(m1: IndependenceModel, m2: IndependenceModel):
    """Triples only in m1 and only in m2, decoded for reporting, in dump order.

    Only conditioning sets whose row tables differ are expanded.
    """
    if m1.universe != m2.universe:
        raise ValueError("models have different universes")
    names = m1._name_table()
    only1, only2 = [], []
    for zm, (r1, r2) in enumerate(zip(m1.rows, m2.rows)):
        if r1 == r2:
            continue
        t1, t2 = list(m1._expand(zm)), list(m2._expand(zm))
        s1, s2 = set(t1), set(t2)
        only1 += [(names[x], names[y], names[zm]) for x, y in t1 if (x, y) not in s2]
        only2 += [(names[x], names[y], names[zm]) for x, y in t2 if (x, y) not in s1]
    return only1, only2


def random_cg(n: int, edge_density: float, seed: int) -> ChainGraph:
    """Sample a valid chain graph on n variable nodes, deterministic per seed.

    The draws are numpy's default_rng(seed) stream (see pcg64), so a seed
    gives the same graph with or without numpy installed.

    Nodes get a random order and a random split into consecutive blocks;
    undirected edges land within blocks and directed edges run from earlier
    to later blocks, each with the given density, so no semidirected cycle
    can form.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > MAX_GEN_NODES:
        raise GuardError(f"{n} nodes requested; guard allows {MAX_GEN_NODES} nodes")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must be in [0, 1]")
    rng = PCG64(seed)
    names = [chr(65 + i) for i in range(n)] if n <= 26 else [f"N{i:03d}" for i in range(n)]
    order = rng.permutation(names)
    blocks: list = []
    for v in order:
        if not blocks or rng.random() < 0.5:
            blocks.append([v])
        else:
            blocks[-1].append(v)
    directed, undirected = set(), set()
    for bi, block in enumerate(blocks):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if rng.random() < edge_density:
                    undirected.add((block[i], block[j]))
        for later in blocks[bi + 1 :]:
            for a in block:
                for b in later:
                    if rng.random() < edge_density:
                        directed.add((a, b))
    return ChainGraph({v: VARIABLE for v in names}, directed, undirected)
