"""Molecular graph types: atoms, bonds and the Molecule container.

A Molecule is immutable once finalized: derived fields (degree, ring
membership, implicit hydrogens) are filled in by ``finalize`` and the
object is then safe to share across threads.
"""

from __future__ import annotations

from .errors import ChemError

# Bond order codes.
SINGLE = 1
DOUBLE = 2
TRIPLE = 3
AROMATIC = 4

BOND_SYMBOL = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}

# Maximum allowed valences per organic-subset element; the first entry that
# covers the bond-order sum decides the implicit hydrogen count.
VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Aromatic atoms written in lowercase contribute one delocalized double bond
# for C/N/P/B but none for O/S/Se (ether-like ring members).
AROMATIC_VALENCE_BUMP = {"C": 1, "N": 1, "P": 1, "B": 1, "O": 0, "S": 0, "Se": 0}

AROMATIC_OK = frozenset(["B", "C", "N", "O", "P", "S", "Se", "As"])


class Atom:
    __slots__ = ("element", "formal_charge", "explicit_h", "aromatic",
                 "degree", "in_ring", "implicit_h")

    def __init__(self, element: str, formal_charge: int = 0,
                 explicit_h: int | None = None, aromatic: bool = False):
        self.element = element
        self.formal_charge = formal_charge
        self.explicit_h = explicit_h
        self.aromatic = aromatic
        # Derived, set by Molecule.finalize().
        self.degree = 0
        self.in_ring = False
        self.implicit_h = 0

    @property
    def total_h(self) -> int:
        return self.explicit_h if self.explicit_h is not None else self.implicit_h

    def __repr__(self):
        return f"Atom({self.element!r}, charge={self.formal_charge}, h={self.total_h})"


class Bond:
    __slots__ = ("a", "b", "order", "in_ring")

    def __init__(self, a: int, b: int, order: int):
        if a > b:
            a, b = b, a
        self.a = a
        self.b = b
        self.order = order
        self.in_ring = False  # set by Molecule.finalize()

    def __repr__(self):
        return f"Bond({self.a}, {self.b}, {BOND_SYMBOL[self.order]!r})"


class Molecule:
    """Undirected molecular graph with derived ring/hydrogen annotations."""

    __slots__ = ("atoms", "bonds", "source_text", "_canonical")

    def __init__(self, atoms: list[Atom], bonds: list[Bond], source_text: str = ""):
        self.atoms = atoms
        self.bonds = bonds
        self.source_text = source_text
        self._canonical: str | None = None

    def __len__(self):
        return len(self.atoms)

    def finalize(self) -> "Molecule":
        """Fill in degree, ring membership and implicit hydrogens.

        Ring membership uses bridge detection: a bond is in a ring iff it is
        not a bridge. Raises ValenceOverflow if a bare atom's explicit bonds
        exceed its valence table.
        """
        from .errors import ValenceOverflow

        for atom in self.atoms:
            atom.degree = 0
        order_sum = [0.0] * len(self.atoms)
        for bond in self.bonds:
            contribution = 1 if bond.order == AROMATIC else bond.order
            for idx in (bond.a, bond.b):
                self.atoms[idx].degree += 1
                order_sum[idx] += contribution

        for bond, ring in zip(self.bonds, _non_bridge_flags(self)):
            bond.in_ring = ring
        for atom in self.atoms:
            atom.in_ring = False
        for bond in self.bonds:
            if bond.in_ring:
                self.atoms[bond.a].in_ring = True
                self.atoms[bond.b].in_ring = True

        for idx, atom in enumerate(self.atoms):
            if atom.explicit_h is not None:
                atom.implicit_h = atom.explicit_h
                continue
            valences = VALENCES.get(atom.element)
            if valences is None:
                # Bracket-only element with no H spec: no implicit hydrogens.
                atom.implicit_h = 0
                continue
            total = int(order_sum[idx])
            if atom.aromatic:
                bump = AROMATIC_VALENCE_BUMP.get(atom.element, 0)
                if total + bump <= valences[-1]:
                    total += bump
            if total > valences[-1]:
                raise ValenceOverflow(
                    f"atom {idx} ({atom.element}) has bond order sum {total} "
                    f"exceeding valence {valences[-1]}")
            target = next(v for v in valences if v >= total)
            atom.implicit_h = target - total
        return self

    def validate(self) -> None:
        """Check structural invariants; raises ChemError on violation."""
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ChemError(f"bond endpoint out of range: {bond}")
            if bond.a == bond.b:
                raise ChemError(f"self-bond on atom {bond.a}")
            key = (bond.a, bond.b)
            if key in seen:
                raise ChemError(f"duplicate bond {key}")
            seen.add(key)
            if bond.order == AROMATIC:
                if not (self.atoms[bond.a].aromatic and self.atoms[bond.b].aromatic):
                    raise ChemError(f"aromatic bond {key} with non-aromatic endpoint")
        for idx, atom in enumerate(self.atoms):
            if atom.implicit_h < 0:
                raise ChemError(f"negative implicit H on atom {idx}")


def disjoint_union(*mols: Molecule) -> Molecule:
    """Disjoint union of molecules; atom indices of later inputs are offset."""
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    for mol in mols:
        offset = len(atoms)
        for a in mol.atoms:
            copy = Atom(a.element, a.formal_charge, a.explicit_h, a.aromatic)
            atoms.append(copy)
        for b in mol.bonds:
            bonds.append(Bond(b.a + offset, b.b + offset, b.order))
    text = ".".join(m.source_text for m in mols if m.source_text)
    return Molecule(atoms, bonds, text).finalize()


def _non_bridge_flags(mol: Molecule) -> list[bool]:
    """flags[i] is True iff bond i lies on a cycle (i.e. is not a bridge).

    Iterative Tarjan bridge search; safe on long chains that would overflow
    Python's recursion limit.
    """
    n = len(mol.atoms)
    m = len(mol.bonds)
    if m == 0:
        return []
    adjacency = [[] for _ in range(n)]
    for bidx, bond in enumerate(mol.bonds):
        adjacency[bond.a].append((bond.b, bidx))
        adjacency[bond.b].append((bond.a, bidx))

    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    is_bridge = [False] * m
    timer = 0
    for root in range(n):
        if visited[root]:
            continue
        # Stack entries: (vertex, incoming bond index, iterator position).
        stack = [(root, -1, 0)]
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_bond, pos = stack[-1]
            if pos < len(adjacency[v]):
                stack[-1] = (v, in_bond, pos + 1)
                u, bidx = adjacency[v][pos]
                if bidx == in_bond:
                    continue
                if visited[u]:
                    low[v] = min(low[v], disc[u])
                else:
                    visited[u] = True
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, bidx, 0))
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        is_bridge[in_bond] = True
    return [not b for b in is_bridge]
