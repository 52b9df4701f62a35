"""Canonical SMILES via individualization-refinement with automorphism pruning.

Atom invariants are refined to a stable partition: each round splits the
classes by the sorted (bond order, class) pairs of every atom's neighbours,
and refinement stops once a round splits nothing or every class is a single
atom. A round recomputes those pairs only next to the atoms whose class
split in the round before (McKay & Piperno's cell-driven refinement), so an
unbranched chain refines in linear rather than quadratic work, and every
round splits exactly as a round over all atoms would. Whenever a tie class
survives refinement, the search individualizes each member of the
lowest-ranked tie class in turn (members in index order) and refines again;
every leaf of that tree is a discrete atom order, written with
``write_smiles`` and its fragments sorted. The canonical form is the
smallest leaf string. The branch set is isomorphism-invariant, so isomorphic
molecules map to the same string, and the form is idempotent under
re-parse. The tree is walked depth-first over an explicit stack of open
nodes, so its depth needs no interpreter frames.

The tree is pruned with automorphisms, after McKay & Piperno, "Practical
graph isomorphism, II". Mapping the first leaf's atom at each rank position
to a later leaf's atom at that position gives a candidate automorphism; it
is kept only if an explicit check confirms that it preserves every atom's
written fields and every bond with its order. If it does, the two relabelled
graphs are equal, so the later leaf's string is the first leaf's and is not
written. Any other leaf is written, and when its string equals an earlier
leaf's, the map between those two leaves is checked the same way. At a node
whose path individualized v1..vk, a tie member is skipped when an
automorphism that fixes v1..vk pointwise (or a product of such) maps it to
an already explored member; when a new automorphism does so for the member
a node is still exploring, the rest of that member's subtree is abandoned.
Refinement commutes with such an automorphism, so the skipped subtree is its
image of an explored one and gives the same leaf strings: the minimum, and
so the canonical form, is byte-identical to the exhaustive search's.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate

from .mol import Molecule
from .writer import write_smiles

# Order in the initial invariant; also the tie-break order between elements.
_ELEMENT_ORDER = (
    "C N O S F Cl Br I P B Si Sn Se Zn Cu Mg H".split())
_ELEMENT_RANK = {sym: i for i, sym in enumerate(_ELEMENT_ORDER)}


def canonical_form(mol: Molecule) -> str:
    """Deterministic SMILES equal for all isomorphic renumberings of mol."""
    if mol._canonical is None:
        mol._canonical = _Search(mol).best_string()
    return mol._canonical


def _initial_ranks(mol: Molecule) -> list[int]:
    keys = []
    for atom in mol.atoms:
        element_rank = _ELEMENT_RANK.get(atom.element, len(_ELEMENT_ORDER))
        keys.append((element_rank, atom.element, atom.formal_charge,
                     atom.total_h, atom.aromatic, atom.degree, atom.in_ring))
    return _dense(keys)


def _dense(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


class _Node:
    """A search-tree node: its path, its tie class, the next member to try
    and the members' orbits under the stored automorphisms that fix the
    path pointwise."""

    __slots__ = ("ranks", "path", "tie_rank", "members", "next", "orbit", "used",
                 "explored")

    def __init__(self, ranks: list[int], path: list[int], tie_rank: int):
        self.ranks = ranks
        self.path = path
        self.tie_rank = tie_rank
        self.members = [idx for idx, r in enumerate(ranks) if r == tie_rank]
        self.next = 0
        self.orbit = list(range(len(ranks)))  # union-find over atoms
        self.used = 0  # stored automorphisms merged into ``orbit`` so far
        self.explored: list[int] = []

    def merge(self, automorphisms) -> None:
        # An automorphism fixing the path maps the tie class onto itself, so
        # only members need merging.
        while self.used < len(automorphisms):
            gamma, moved = automorphisms[self.used]
            self.used += 1
            if moved.isdisjoint(self.path):
                for v in moved:
                    if self.ranks[v] == self.tie_rank:
                        _union(self.orbit, v, gamma[v])

    def seen(self, pick: int, explored: list[int]) -> bool:
        root = _find(self.orbit, pick)
        return any(_find(self.orbit, done) == root for done in explored)

    def next_pick(self, automorphisms) -> int | None:
        """The next member, in index order, outside the orbits of those
        explored so far; None once the members are used up."""
        while self.next < len(self.members):
            pick = self.members[self.next]
            self.next += 1
            self.merge(automorphisms)
            if not self.seen(pick, self.explored):
                self.explored.append(pick)
                return pick
        return None


class _Search:
    """One canonical-form search over one molecule."""

    def __init__(self, mol: Molecule):
        self.mol = mol
        n = len(mol.atoms)
        # A neighbour's code is ``bond.order * n + labels[u]``; class labels
        # are in [0, n), so codes sort exactly like (bond order, label) pairs.
        self.neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for bond in mol.bonds:
            self.neighbors[bond.a].append((bond.order * n, bond.b))
            self.neighbors[bond.b].append((bond.order * n, bond.a))
        self.first_order: list[int] | None = None
        self.first_leaf: dict[str, list[int]] = {}
        # (map, set of atoms it moves) for every verified automorphism.
        self.automorphisms: list[tuple[list[int], frozenset[int]]] = []
        self.stack: list[_Node] = []
        self.abandon: int | None = None
        self.best: str | None = None
        self.rekeyed = 0  # atoms whose neighbour codes refinement computed

    def best_string(self) -> str:
        # Depth-first over an explicit stack of open nodes, so deep trees
        # need no interpreter frames; ``stack[d]`` is the node at depth d.
        stack = self.stack
        self._visit(self._refine(_initial_ranks(self.mol)), [])
        while stack:
            node = stack[-1]
            if self.abandon is not None:
                if self.abandon < len(stack) - 1:
                    stack.pop()
                    continue
                self.abandon = None
            pick = node.next_pick(self.automorphisms)
            if pick is None:
                stack.pop()
                continue
            # ``pick`` takes a rank of its own, just below its former class.
            tie = node.tie_rank
            split = [r + (r > tie or (r == tie and idx != pick))
                     for idx, r in enumerate(node.ranks)]
            self._visit(self._refine(split, [pick]), node.path + [pick])
        assert self.best is not None
        return self.best

    def _visit(self, ranks: list[int], path: list[int]) -> None:
        counts = Counter(ranks)
        if len(counts) == len(ranks):
            self._leaf(ranks)
            return
        # Branch on the lowest-ranked tie class; it is determined by invariant
        # values only, so the branch set is invariant.
        tie_rank = min(r for r, c in counts.items() if c > 1)
        self.stack.append(_Node(ranks, path, tie_rank))

    def _refine(self, ranks: list[int], moved: list[int] | None = None) -> list[int]:
        """Split classes of dense ranks by their neighbours' classes until
        the partition is stable or discrete; returns dense ranks.

        ``moved`` lists the atoms that the caller split off a class of a
        stable partition (None: no round has run yet). A class's label is
        its first position in the ordered partition, so labels order like
        ranks and a split relabels no other class. A round keys only the
        atoms next to a moved atom, plus one other member of each such
        atom's class: the untouched members of a class key alike, because
        none of their neighbours moved. Of each class that splits, every
        part but one (the untouched members, else the largest part) then
        counts as moved; a neighbour count in the part left out is the
        class's count less the others' (Hopcroft), so leaving it out loses
        no split.
        """
        n = len(ranks)
        neighbors = self.neighbors
        sizes = [0] * n
        for r in ranks:
            sizes[r] += 1
        starts = list(accumulate(sizes, initial=0))
        labels = [starts[r] for r in ranks]
        cells: dict[int, set[int]] = {}  # label -> members, classes of two or more
        for idx, r in enumerate(ranks):
            if sizes[r] > 1:
                cells.setdefault(starts[r], set()).add(idx)
        n_cells = n - sum(len(cell) - 1 for cell in cells.values())
        touched = dict(cells) if moved is None else self._touched(moved, labels, cells)
        while touched and n_cells < n:
            # Every key of a round reads the labels of the round before.
            splits = []
            for label, members in touched.items():
                parts: dict[tuple, set[int]] = {}
                for idx in members:
                    key = tuple(sorted([code + labels[u] for code, u in neighbors[idx]]))
                    if key in parts:
                        parts[key].add(idx)
                    else:
                        parts[key] = {idx}
                cell = cells[label]
                rest_key = None
                if len(members) < len(cell):
                    other = next(idx for idx in cell if idx not in members)
                    rest_key = tuple(sorted([code + labels[u] for code, u in neighbors[other]]))
                    parts.setdefault(rest_key, set())
                self.rekeyed += len(members) + (rest_key is not None)
                if len(parts) > 1:
                    splits.append((label, parts, rest_key))
            moved = []
            for label, parts, rest_key in splits:
                cell = cells.pop(label)
                if rest_key is None:
                    kept = max(parts, key=lambda key: len(parts[key]))
                else:  # the untouched members join their part
                    kept = rest_key
                    cell -= touched[label]
                    cell |= parts[rest_key]
                    parts[rest_key] = cell
                for pos, key in enumerate(sorted(parts)):
                    part = parts[key]
                    if pos:  # the first part keeps the class's label
                        for idx in part:
                            labels[idx] = label
                    if len(part) > 1:
                        cells[label] = part
                    if key != kept:
                        moved.extend(part)
                    label += len(part)
                n_cells += len(parts) - 1
            touched = self._touched(moved, labels, cells)
        return labels if n_cells == n else _dense(labels)

    def _touched(self, moved: list[int], labels: list[int],
                 cells: dict[int, set[int]]) -> dict[int, set[int]]:
        """The neighbours of moved atoms in classes of two or more, by the
        label of their class."""
        touched: dict[int, set[int]] = {}
        for idx in moved:
            for _, u in self.neighbors[idx]:
                if labels[u] in cells:
                    touched.setdefault(labels[u], set()).add(u)
        return touched

    def _leaf(self, ranks: list[int]) -> None:
        order = [0] * len(ranks)
        for idx, r in enumerate(ranks):
            order[r] = idx
        if self.first_order is None:
            self.first_order = order
        elif self._maps_onto(self.first_order, order):
            # The relabelled graphs are equal, so the string is the first
            # leaf's, which ``best`` has already seen.
            return
        text = ".".join(sorted(write_smiles(self.mol, order).split(".")))
        earlier = self.first_leaf.setdefault(text, order)
        if earlier is not order:
            self._maps_onto(earlier, order)
        if self.best is None or text < self.best:
            self.best = text

    def _maps_onto(self, earlier: list[int], order: list[int]) -> bool:
        """Whether the map from ``earlier``'s atom at each rank position to
        ``order``'s is an automorphism; a new one is stored and may abandon
        a subtree."""
        gamma = [0] * len(order)
        for a, b in zip(earlier, order):
            gamma[a] = b
        moved = frozenset(v for v in range(len(gamma)) if gamma[v] != v)
        if not moved:
            return True
        if not self._is_automorphism(gamma):
            return False
        self.automorphisms.append((gamma, moved))
        self._find_abandon()
        return True

    def _find_abandon(self) -> None:
        # The shallowest open node whose current member now shares an orbit
        # with a member it finished earlier: the rest of that member's subtree
        # is an automorphic image of an explored one.
        for depth, node in enumerate(self.stack):
            node.merge(self.automorphisms)
            if node.seen(node.explored[-1], node.explored[:-1]):
                self.abandon = depth
                return

    @cached_property
    def atom_keys(self) -> list[tuple]:
        """Everything ``write_smiles`` reads of each atom."""
        return [(a.element, a.formal_charge, a.explicit_h, a.total_h, a.aromatic)
                for a in self.mol.atoms]

    @cached_property
    def bond_orders(self) -> dict[tuple[int, int], int]:
        return {(b.a, b.b): b.order for b in self.mol.bonds}

    def _is_automorphism(self, gamma: list[int]) -> bool:
        keys = self.atom_keys
        if any(keys[gamma[i]] != keys[i] for i in range(len(gamma))):
            return False
        orders = self.bond_orders
        for (a, b), order in orders.items():
            x, y = gamma[a], gamma[b]
            if orders.get((x, y) if x < y else (y, x)) != order:
                return False
        return True


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)
