"""Tree-like nodal curves as decorated dual graphs.

A curve is stored purely combinatorially: one vertex per irreducible
component (decorated with the geometric genus of its normalization and
its number of self-nodes) and one edge per node joining two distinct
components.  Tree-likeness (connected, acyclic, no multi-edges) is what
the ordering and balancing machinery relies on, so a curve is checked
once, when it is built; :func:`validate_curve` reports the result and
every other operation demands it.
"""

from operator import attrgetter

from .errors import (
    CycleDetected,
    Disconnected,
    IndexOutOfRange,
    MultiEdge,
    OrderingMismatch,
    ParseError,
    Record,
    _int,
    _int_arg,
    _require,
    _set,
    _small_int,
)


class Component(Record):
    """One irreducible component: genus data only, no embedded geometry."""

    __slots__ = _fields = ("id", "geometric_genus", "internal_nodes")

    def __init__(self, id: int, geometric_genus: int = 0, internal_nodes: int = 0):
        if not isinstance(id, int) or id < 1:
            raise ParseError("component ids must be positive integers", field="components.id")
        if not (isinstance(geometric_genus, int) and isinstance(internal_nodes, int)):
            raise ParseError("genus data must be integers", field="components." + (
                "internal_nodes" if isinstance(geometric_genus, int) else "geometric_genus"))
        if geometric_genus < 0 or internal_nodes < 0:
            raise ParseError("genus data must be nonnegative", field="components." + (
                "internal_nodes" if geometric_genus >= 0 else "geometric_genus"))
        _set(self, "id", id)
        _set(self, "geometric_genus", geometric_genus)
        _set(self, "internal_nodes", internal_nodes)

    @property
    def arithmetic_genus(self) -> int:
        return self.geometric_genus + self.internal_nodes

    @property
    def is_rational(self) -> bool:
        return self.geometric_genus == 0 and self.internal_nodes == 0


class TreeLikeCurve(Record):
    """Decorated dual graph of a nodal curve.

    The constructor sorts ``components`` by id, so ``components``,
    ``ids`` and the dense index share one order whatever order the
    document used, and normalizes each edge to (smaller id, larger id).
    ``edges`` keeps the raw normalized pair list: it is the field that
    ``==`` and pickling rebuild the curve from; every operation other than
    :func:`validate_curve` requires the curve to be a tree.

    One walk over ``edges``, in document order, builds the rest:
    ``simple_edges``, the set of nodes; ``_edges``, each node once as an
    index pair (x, y), x < y, in the order the document first lists it;
    ``_deg[k]``, the number of neighbors of ``components[k]``; and the
    validation report.  ``_index`` maps each id to its position k and
    ``_genus[k]`` is the arithmetic genus of ``components[k]``.  Index
    order is id order, so sorting indices sorts ids; the tree passes run
    on int lists over these indices.
    """

    _fields = ("components", "edges")
    __slots__ = _fields + ("ids", "simple_edges", "_index", "_genus", "_edges", "_deg",
                           "_validation")

    def __init__(self, components: tuple, edges: tuple):
        comps = tuple(sorted(components, key=attrgetter("id")))
        if not comps:
            raise ParseError("a curve needs at least one component", field="components")
        ids = tuple(comp.id for comp in comps)
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            raise ParseError("component ids must be unique", field="components")
        norm, simple, pairs, deg = [], set(), [], [0] * len(ids)
        # the report: self-loops and repeats as the walk meets them, then the
        # first node whose union-find roots agree (a closing edge, reported
        # only when no self-loop was), then the count of pieces
        errors, looped, closing = [], False, None
        parent, pieces = list(range(len(ids))), len(ids)
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise ParseError(f"edge {e!r} is not a pair of component ids",
                                 field="edges") from None
            if not (isinstance(a, int) and isinstance(b, int)):   # 2.0 would find id 2
                raise ParseError(f"edge {list(e)} has an endpoint that is not an integer",
                                 field="edges")
            try:
                x, y = index[a], index[b]
            except KeyError:
                raise ParseError(f"edge {list(e)} references unknown component id",
                                 field="edges") from None
            if x > y:
                a, b, x, y = b, a, y, x
            e = (a, b)
            norm.append(e)
            if x == y:
                errors.append(("CycleDetected", f"edge {[a, b]} joins a component to itself"))
                looped = True
            elif e in simple:
                errors.append(("MultiEdge", f"components {a} and {b} meet in more than one node"))
            else:
                simple.add(e)
                pairs.append((x, y))
                deg[x] += 1
                deg[y] += 1
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[x] = y
                    pieces -= 1
                elif closing is None:
                    closing = e
        if closing and not looped:
            errors.append(("CycleDetected", f"edge {list(closing)} closes a cycle"))
        if pieces > 1:
            errors.append(("Disconnected", f"dual graph has {pieces} connected pieces"))
        genus = [comp.arithmetic_genus for comp in comps]
        p_a = None if errors else sum(genus)
        report = ValidationReport(valid=not errors, errors=tuple(errors), n_components=len(ids),
                                  p_a=p_a, genus_at_least_two=None if errors else p_a >= 2)
        for name, value in (("components", comps), ("edges", tuple(norm)), ("ids", ids),
                            ("simple_edges", frozenset(simple)), ("_index", index),
                            ("_genus", genus), ("_edges", pairs), ("_deg", deg),
                            ("_validation", report)):
            _set(self, name, value)

    def component(self, comp_id: int) -> Component:
        try:
            if isinstance(comp_id, int):   # 2.0 would find id 2
                return self.components[self._index[comp_id]]
        except KeyError:
            pass
        raise IndexOutOfRange(f"no component with id {comp_id!r}")

    def degree(self, comp_id: int) -> int:
        self.component(comp_id)
        return self._deg[self._index[comp_id]]

    def require_valid(self) -> None:
        report = self._validation
        if not report.valid:
            code, detail = report.errors[0]
            raise {"CycleDetected": CycleDetected,
                   "Disconnected": Disconnected,
                   "MultiEdge": MultiEdge}[code](detail)


class ValidationReport(Record):
    # errors: (code, detail) pairs; p_a: the arithmetic genus, and
    # genus_at_least_two, only when the curve is a tree (else None)
    __slots__ = _fields = ("valid", "errors", "n_components", "p_a", "genus_at_least_two")


def _component(c, k) -> Component:
    """The component document c, item k of the components list."""
    _require(isinstance(c, dict), "component must be an object", "components[{}]", k)
    cid = _int(c.get("id"), "components[{}].id", k)
    genus = _small_int(c.get("geometric_genus", 0), "components[{}].geometric_genus", k)
    nodes = _small_int(c.get("internal_nodes", 0), "components[{}].internal_nodes", k)
    _require(cid >= 1, "component ids must be positive integers", "components[{}].id", k)
    _require(genus >= 0 and nodes >= 0, "genus data must be nonnegative", "components[{}]", k)
    return Component(cid, genus, nodes)


def _edge(e, k) -> tuple:
    """The edge document e, item k of the edges list: a pair of integer ids."""
    _require(isinstance(e, list) and len(e) == 2, "edge must be a pair", "edges[{}]", k)
    return _int(e[0], "edges[{}]", k), _int(e[1], "edges[{}]", k)


def parse_curve(obj) -> TreeLikeCurve:
    """Curve document: {"components": [{"id": 1, ...}, ...], "edges": [[1, 2], ...]}."""
    _require(isinstance(obj, dict), "curve document must be an object")
    _require(isinstance(obj.get("components"), list), "missing components list", "components")
    comps = [_component(c, k) for k, c in enumerate(obj["components"])]
    edges = obj.get("edges", [])
    _require(isinstance(edges, list), "edges must be a list", "edges")
    edges = [_edge(e, k) for k, e in enumerate(edges)]
    return TreeLikeCurve(components=tuple(comps), edges=tuple(edges))


class Ordering(Record):
    """A component ordering with the one-branch property, as a parent array.

    ``perm[k]`` is the component id at order position k+1.  For every
    position i < N, ``nu[i-1]`` > i is the position of its parent: the
    unique higher-positioned component adjacent to component i.  The
    parent edges are exactly the curve's nodes, so they form the dual tree
    rooted at position N, and G(i) is the subtree of position i: component
    i and everything below it.  B(i) is the rest of the curve, the single
    branch of the curve minus component i that holds every higher
    position; at position N, G is the whole curve and B is empty.

    ``subtrees`` lists G(i) at every position, built from ``perm`` and
    ``nu`` on each read; B(i) is the whole curve, ``subtrees[-1]``, minus
    G(i).  It takes O(N * depth) space and only reports read it, once
    each, so nothing that only needs window sums pays for it.  ``_curve``,
    a slot and not a field, is the curve object :func:`prune_ordering`
    built it for, which ``lambda_check`` trusts; a copy, an unpickled
    ordering or one built by hand has none.
    """

    _fields = ("perm", "nu")
    __slots__ = _fields + ("_curve",)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def subtrees(self) -> tuple:
        """The ids of G(i) at every position, each as a sorted tuple."""
        _parents(self)   # refuses a malformed nu before it is read
        below = [[cid] for cid in self.perm]
        for k, p in enumerate(self.nu):
            below[k].sort()
            below[p - 1] += below[k]
        below[-1].sort()
        return tuple(map(tuple, below))

    def boundary_edge(self, i: int):
        """The unique node joining G(i) and B(i), as an id pair; None at i = N."""
        edges = _parents(self)   # the whole ordering is checked, at i = N too
        if not 1 <= _int_arg(i, "order index") <= self.n:
            raise IndexOutOfRange(f"order index {i} out of range 1..{self.n}")
        return edges[i - 1] if i < self.n else None


def _parents(o: Ordering) -> list:
    """Each parent edge {perm(i), perm(nu(i))}, i < N, as a sorted id pair, once
    ``perm`` is a tuple or list of N >= 1 distinct ints and ``nu`` one of N - 1
    ints, nu(i) in i+1..N: the one check of an ordering that needs no curve."""
    perm, nu = o.perm, o.nu
    for name, seq in (("perm", perm), ("nu", nu)):   # a set, None or 5 has no order
        if not isinstance(seq, (tuple, list)):
            raise OrderingMismatch(f"{name} must be a tuple or a list, got {type(seq).__name__}")
    n = len(perm)
    for x in (x for x in perm if not isinstance(x, int)):   # 2.0 would find id 2
        raise OrderingMismatch(f"perm entry {x!r} is not an integer")
    if not n or len(set(perm)) != n:
        raise OrderingMismatch("perm is empty or repeats a component id")
    if len(nu) != n - 1:
        raise OrderingMismatch(f"nu has {len(nu)} entries, need {n - 1}")
    edges = []
    for k, nu_i in enumerate(nu):
        if not (isinstance(nu_i, int) and k + 2 <= nu_i <= n):   # 2.0 cannot index perm
            raise OrderingMismatch(f"nu({k + 1}) = {nu_i!r} is not an integer in {k + 2}..{n}")
        a, b = perm[k], perm[nu_i - 1]
        edges.append((a, b) if a <= b else (b, a))
    return edges


def ordering_to_obj(o: Ordering) -> dict:
    """The ``order`` report.  G(i) is written as its subtree tuple, B(i) as
    the ids of the whole curve, ``subtrees[-1]``, outside it (both sorted).
    Reading ``subtrees`` checks nu once, so the boundary nodes read it as is."""
    subtrees = o.subtrees
    whole, perm = subtrees[-1], o.perm
    return {
        "perm": perm,
        "nu": {str(i + 1): o.nu[i] for i in range(len(o.nu))},
        "G": {str(i + 1): g for i, g in enumerate(subtrees)},
        "B": {str(i + 1): [cid for cid in whole if cid not in g]
              for i, g in enumerate(map(set, subtrees))},
        "boundary_nodes": {str(k + 1): tuple(sorted((perm[k], perm[p - 1])))
                           for k, p in enumerate(o.nu)},
    }


def validate_curve(c: TreeLikeCurve) -> ValidationReport:
    """Check the tree axioms and report the arithmetic genus.

    Accepts iff the dual graph is connected and acyclic.  The genus
    hypothesis p_a >= 2 is reported, never enforced.  The curve's
    constructor computes the report, so this returns it.
    """
    return c._validation


def prune_ordering(c: TreeLikeCurve) -> Ordering:
    """Deterministic leaf-pruning order with the one-branch property.

    Leaves are peeled round by round: all current leaves, in increasing
    id order, then the leaves of what remains, and so on; the final
    surviving component takes position N.  One pass over the
    indices does it: degrees come from the curve and the XOR of each
    component's neighbor indices is read off the edge list, so a leaf's
    one surviving neighbor is its XOR.  Removing a leaf XORs it out of that neighbor
    and lowers its degree; the neighbor joins the next round's queue once
    it is a leaf itself, and becomes nu at the removed leaf's position.
    """
    c.require_valid()
    n = len(c.ids)
    deg, acc = c._deg[:], [0] * n
    for x, y in c._edges:
        acc[x] ^= y
        acc[y] ^= x
    # indices, like ids, from here on; index order is id order
    perm, parent = [], []
    leaves = [v for v in range(n) if deg[v] == 1]
    while len(perm) < n - 1:
        # leaves of one round are never adjacent unless only two remain,
        # and then the second one is the survivor
        leaves = leaves[:n - 1 - len(perm)]
        perm += leaves
        next_leaves = []
        for v in leaves:
            w = acc[v]
            acc[w] ^= v
            parent.append(w)
            deg[w] -= 1
            if deg[w] == 1:
                next_leaves.append(w)
        leaves = sorted(next_leaves)
    # the last leaf removed leaves only its neighbor
    perm.append(parent[-1] if parent else 0)
    pos = [0] * n
    for k, v in enumerate(perm, 1):
        pos[v] = k
    o = Ordering(perm=tuple(map(c.ids.__getitem__, perm)),
                 nu=tuple(map(pos.__getitem__, parent)))
    _set(o, "_curve", c)
    return o


def verify_ordering(c: TreeLikeCurve, ordering: Ordering) -> None:
    """Check an ordering against the curve in O(N); raise OrderingMismatch.

    :func:`_parents` checks what needs no curve: ``perm`` N distinct ints
    and every nu(i) an int in i+1..N.  Then the ids of ``perm`` must be
    the curve's and the parent edges {perm(i), perm(nu(i))} exactly its
    nodes.  On a tree this is the one-branch property: every other
    neighbor of component i is then a child, at a lower position, and the
    higher positions form one connected branch through nu(i).
    """
    edges = _parents(ordering)
    if ordering.n != len(c.ids) or not all(map(c._index.__contains__, ordering.perm)):
        raise OrderingMismatch("perm is not a permutation of the curve's component ids")
    if set(edges) != c.simple_edges:
        raise OrderingMismatch("the parent edges of the ordering are not the curve's nodes")
