"""Tree-like nodal curves as decorated dual graphs.

A curve is stored purely combinatorially: one vertex per irreducible
component (decorated with the geometric genus of its normalization and
its number of self-nodes) and one edge per node joining two distinct
components.  Tree-likeness (connected, acyclic, no multi-edges) is what
the ordering and balancing machinery relies on, so it is checked
explicitly by :func:`validate_curve` and demanded by every other
operation.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CycleDetected,
    Disconnected,
    IndexOutOfRange,
    MultiEdge,
    OrderingMismatch,
    ParseError,
)


@dataclass(frozen=True)
class Component:
    """One irreducible component: genus data only, no embedded geometry."""

    id: int
    geometric_genus: int = 0
    internal_nodes: int = 0

    def __post_init__(self):
        if self.id < 1:
            raise ParseError("component ids must be positive integers", field="components.id")
        if self.geometric_genus < 0 or self.internal_nodes < 0:
            raise ParseError("genus data must be nonnegative", field=f"components[{self.id}]")

    @property
    def arithmetic_genus(self) -> int:
        return self.geometric_genus + self.internal_nodes

    @property
    def is_rational(self) -> bool:
        return self.geometric_genus == 0 and self.internal_nodes == 0


@dataclass(frozen=True)
class TreeLikeCurve:
    """Decorated dual graph of a nodal curve.

    ``edges`` keeps the raw (normalized) pair list so that validation can
    still report duplicate edges; every operation other than
    :func:`validate_curve` requires the curve to be a tree.
    """

    components: tuple
    edges: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        ids = [c.id for c in comps]
        if not ids:
            raise ParseError("a curve needs at least one component", field="components")
        if len(set(ids)) != len(ids):
            raise ParseError("component ids must be unique", field="components")
        known = set(ids)
        norm = []
        for e in self.edges:
            a, b = e
            if a not in known or b not in known:
                raise ParseError(f"edge {list(e)} references unknown component id", field="edges")
            norm.append((a, b) if a <= b else (b, a))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def ids(self) -> tuple:
        return tuple(c.id for c in self.components)

    @cached_property
    def _by_id(self) -> dict:
        return {c.id: c for c in self.components}

    def component(self, comp_id: int) -> Component:
        try:
            return self._by_id[comp_id]
        except KeyError:
            raise IndexOutOfRange(f"no component with id {comp_id}") from None

    @cached_property
    def simple_edges(self) -> frozenset:
        return frozenset(e for e in self.edges if e[0] != e[1])

    @cached_property
    def neighbors(self) -> dict:
        adj = {i: set() for i in self.ids}
        for a, b in self.simple_edges:
            adj[a].add(b)
            adj[b].add(a)
        return {i: frozenset(v) for i, v in adj.items()}

    def degree(self, comp_id: int) -> int:
        self.component(comp_id)
        return len(self.neighbors[comp_id])

    def require_valid(self) -> None:
        # a validated curve answers from its stored report, without another call
        report = vars(self).get("_validation") or validate_curve(self)
        if not report.valid:
            code, detail = report.errors[0]
            raise {"CycleDetected": CycleDetected,
                   "Disconnected": Disconnected,
                   "MultiEdge": MultiEdge}[code](detail)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    errors: tuple            # (code, detail) pairs
    n_components: int
    p_a: int | None          # arithmetic genus, only when the curve is a tree
    genus_at_least_two: bool | None


@dataclass(frozen=True)
class Ordering:
    """A component ordering with the one-branch property, as a parent array.

    ``perm[k]`` is the component id at order position k+1.  For every
    position i < N, ``nu[i-1]`` > i is the position of its parent: the
    unique higher-positioned component adjacent to component i.  The
    parent edges are exactly the curve's nodes, so they form the dual tree
    rooted at position N, and G(i) is the subtree of position i: component
    i and everything below it.  B(i) is the rest of the curve, the single
    branch of the curve minus component i that holds every higher
    position; at position N, G is the whole curve and B is empty.

    ``subtrees``, ``g_sets`` and ``b_sets`` are derived from ``perm`` and
    ``nu`` when first read.  They take O(N * depth) space, so nothing that
    only needs window sums reads them.
    """

    perm: tuple
    nu: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    @cached_property
    def subtrees(self) -> tuple:
        """The ids of G(i) at every position, each as a sorted tuple."""
        below = [[cid] for cid in self.perm]
        for k, p in enumerate(self.nu):
            below[k].sort()
            below[p - 1] += below[k]
        below[-1].sort()
        return tuple(map(tuple, below))

    @cached_property
    def g_sets(self) -> tuple:
        return tuple(map(frozenset, self.subtrees))

    @cached_property
    def b_sets(self) -> tuple:
        return tuple(self.g_sets[-1] - g for g in self.g_sets)

    def boundary_edge(self, i: int):
        """The unique node joining G(i) and B(i), as an id pair; None at i = N."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"order index {i} out of range 1..{self.n}")
        if i == self.n:
            return None
        a, b = self.perm[i - 1], self.perm[self.nu[i - 1] - 1]
        return (a, b) if a <= b else (b, a)


def validate_curve(c: TreeLikeCurve) -> ValidationReport:
    """Check the tree axioms and report the arithmetic genus.

    Accepts iff the dual graph is connected and acyclic.  The genus
    hypothesis p_a >= 2 is reported, never enforced.  The report is
    computed once per curve and kept on it, where ``require_valid``
    reads it too.
    """
    report = vars(c).get("_validation")
    if report is not None:
        return report
    errors = []
    seen = set()
    for e in c.edges:
        if e[0] == e[1]:
            errors.append(("CycleDetected", f"edge {list(e)} joins a component to itself"))
        elif e in seen:
            errors.append(("MultiEdge", f"components {e[0]} and {e[1]} meet in more than one node"))
        seen.add(e)

    # union-find over the simple edges catches any remaining cycle
    parent = {i: i for i in c.ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in c.simple_edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            if not any(code == "CycleDetected" for code, _ in errors):
                errors.append(("CycleDetected", f"edge {[a, b]} closes a cycle"))
        else:
            parent[ra] = rb
    roots = {find(i) for i in c.ids}
    if len(roots) > 1:
        errors.append(("Disconnected", f"dual graph has {len(roots)} connected pieces"))

    valid = not errors
    p_a = sum(comp.arithmetic_genus for comp in c.components) if valid else None
    report = ValidationReport(
        valid=valid,
        errors=tuple(errors),
        n_components=len(c.components),
        p_a=p_a,
        genus_at_least_two=(p_a >= 2) if valid else None,
    )
    # stored like a cached property: the curve is frozen, its fields are not touched
    vars(c)["_validation"] = report
    return report


def arithmetic_genus(c: TreeLikeCurve) -> int:
    """Arithmetic genus of the whole curve: sum of the component genera.

    The tree shape contributes nothing (the edge-count correction
    vanishes), so this agrees with 1 - chi(O) for the trivial rank-1
    class.
    """
    c.require_valid()
    return sum(comp.arithmetic_genus for comp in c.components)


def _split_off(c: TreeLikeCurve, removed: int, seed: int) -> frozenset:
    """Ids of the connected piece of the curve minus ``removed`` containing ``seed``."""
    stack, seen = [seed], {seed}
    while stack:
        v = stack.pop()
        for w in c.neighbors[v]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def prune_ordering(c: TreeLikeCurve) -> Ordering:
    """Deterministic leaf-pruning order with the one-branch property.

    Leaves are peeled round by round: all current leaves, in increasing
    id order, then the leaves of what remains, and so on; the final
    surviving component takes position N.  One pass does it: degrees and
    the XOR of each component's neighbor ids are read off the edge list,
    so a leaf's one surviving neighbor is its XOR.  Removing a leaf XORs
    it out of that neighbor and lowers its degree; the neighbor joins the
    next round's queue once it is a leaf itself, and becomes nu at the
    removed leaf's position.
    """
    c.require_valid()
    ids = c.ids
    n = len(ids)
    deg, acc = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)
    for a, b in c.simple_edges:
        deg[a] += 1
        deg[b] += 1
        acc[a] ^= b
        acc[b] ^= a
    perm, parent = [], []
    leaves = sorted(i for i in ids if deg[i] == 1)
    while len(perm) < n - 1:
        # leaves of one round are never adjacent unless only two remain,
        # and then the second one is the survivor
        next_leaves = []
        for v in leaves[:n - 1 - len(perm)]:
            w = acc[v]
            acc[w] ^= v
            perm.append(v)
            parent.append(w)
            deg[w] -= 1
            if deg[w] == 1:
                next_leaves.append(w)
        leaves = sorted(next_leaves)
    # the last leaf removed leaves only its neighbor
    perm.append(parent[-1] if parent else ids[0])
    pos = {cid: k + 1 for k, cid in enumerate(perm)}
    return Ordering(perm=tuple(perm), nu=tuple(pos[w] for w in parent))


def decompose(c: TreeLikeCurve, ordering: Ordering, i: int):
    """Split the curve at order position i into (G(i), B(i), boundary node).

    Recomputed from the graph, not read off the ordering, so it can be
    cross-checked against the sets derived from the parent array.  At
    i = N the whole curve is G and there is no boundary node.
    """
    c.require_valid()
    n = ordering.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"order index {i} out of range 1..{n}")
    if set(ordering.perm) != set(c.ids):
        raise OrderingMismatch("ordering does not belong to this curve")
    everything = frozenset(c.ids)
    if i == n:
        return everything, frozenset(), None
    y = ordering.perm[i - 1]
    anchor = ordering.perm[ordering.nu[i - 1] - 1]
    if anchor not in c.neighbors[y]:
        raise OrderingMismatch(f"nu({i}) is not adjacent to component {y}")
    b = _split_off(c, y, anchor)
    return everything - b, b, ordering.boundary_edge(i)


def verify_ordering(c: TreeLikeCurve, ordering: Ordering) -> None:
    """Check an ordering against the curve in O(N); raise OrderingMismatch.

    ``perm`` must be a permutation of the component ids, every nu(i) must
    lie in i+1..N, and the parent edges {perm(i), perm(nu(i))} must be
    exactly the curve's nodes.  On a tree this is the one-branch property:
    every other neighbor of component i is then a child, at a lower
    position, and the higher positions form one connected branch through
    nu(i).
    """
    n = len(c.ids)
    perm, nu = ordering.perm, ordering.nu
    if len(perm) != n or set(perm) != set(c.ids):
        raise OrderingMismatch("perm is not a permutation of the curve's component ids")
    if len(nu) != n - 1:
        raise OrderingMismatch(f"nu has {len(nu)} entries, need {n - 1}")
    edges = set()
    for k, nu_i in enumerate(nu):
        if not k + 2 <= nu_i <= n:
            raise OrderingMismatch(f"nu({k + 1}) = {nu_i} is outside {k + 2}..{n}")
        a, b = perm[k], perm[nu_i - 1]
        edges.add((a, b) if a <= b else (b, a))
    if edges != c.simple_edges:
        raise OrderingMismatch("the parent edges of the ordering are not the curve's nodes")
