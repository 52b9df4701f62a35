"""SMILES emission from a molecular graph.

``write_smiles`` performs a DFS guided by an atom priority order, so the
same graph can be rendered under many different atom orderings; every
rendering re-parses to an isomorphic graph.
"""

from __future__ import annotations

from .errors import ChemError
from .mol import AROMATIC, AROMATIC_OK, BOND_SYMBOL, SINGLE, Atom, Bond, Molecule

_BARE_OK = frozenset(["B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"])
_BARE_AROMATIC_OK = frozenset(["B", "C", "N", "O", "P", "S"])


def write_smiles(mol: Molecule, start_order: list[int] | None = None) -> str:
    """Emit SMILES for ``mol``; fragments are joined with dots.

    ``start_order`` is a permutation of atom indices used as DFS priority:
    each component starts at its highest-priority atom and neighbors are
    visited in priority order. Defaults to the natural order 0..n-1.
    """
    n = len(mol.atoms)
    if start_order is None:
        start_order = range(n)
    elif sorted(start_order) != list(range(n)):
        raise ChemError("start_order is not a permutation of atom indices")
    priority = [0] * n
    for rank, idx in enumerate(start_order):
        priority[idx] = rank
    # Each atom's neighbours as (priority, atom, bond index), sorted once;
    # priorities are distinct, so the sort never compares further.
    neighbors: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, bond in enumerate(mol.bonds):
        neighbors[bond.a].append((priority[bond.b], bond.b, idx))
        neighbors[bond.b].append((priority[bond.a], bond.a, idx))
    for entries in neighbors:
        entries.sort()

    # An atom's preorder position within its component; -1 until visited.
    position = [-1] * n
    bond_seen = [False] * len(mol.bonds)
    return ".".join([_emit_component(mol, start, neighbors, position, bond_seen)
                     for start in start_order if position[start] < 0])


def _emit_component(mol: Molecule, start: int, neighbors: list[list[tuple[int, int, int]]],
                    position: list[int], bond_seen: list[bool]) -> str:
    # DFS with visit-on-pop marking: edges to already-visited atoms become
    # ring closures, everything else becomes a tree edge. Bonds are named
    # by their index in ``mol.bonds``.
    children: dict[int, list[tuple[int, int]]] = {}
    ring_bonds: list[int] = []
    count = 0
    stack = [(start, -1, -1)]
    while stack:
        v, via, parent = stack.pop()
        if position[v] >= 0:
            if not bond_seen[via]:
                bond_seen[via] = True
                ring_bonds.append(via)
            continue
        position[v] = count
        count += 1
        children[v] = []
        if via >= 0:
            bond_seen[via] = True
            children[parent].append((v, via))
        for _, u, idx in reversed(neighbors[v]):
            if not bond_seen[idx]:
                stack.append((u, idx, v))

    # Ring digits open at the earlier-emitted endpoint and close at the later
    # one; a digit frees up once its ring closes.
    bonds = mol.bonds
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[tuple[int, int]]] = {}
    for idx in ring_bonds:
        a, b = bonds[idx].a, bonds[idx].b
        first, second = (a, b) if position[a] < position[b] else (b, a)
        opens.setdefault(first, []).append((position[second], idx))
        closes.setdefault(second, []).append((position[first], idx))
    for events in opens.values():
        events.sort()
    for events in closes.values():
        events.sort()

    atoms = mol.atoms
    digit_free = list(range(1, 100))
    bond_digit: dict[int, int] = {}
    out: list[str] = []
    # Entries are (atom, index of the bond it is reached by) or a parenthesis.
    emit_stack: list = [(start, -1)]
    while emit_stack:
        item = emit_stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        v, via = item
        if via >= 0:
            out.append(_bond_text(mol, bonds[via]))
        out.append(_atom_text(atoms[v]))
        if v in closes:
            for _, idx in closes[v]:
                digit = bond_digit.pop(idx)
                digit_free.append(digit)
                digit_free.sort()
                out.append(_digit_text(digit))
        if v in opens:
            for _, idx in opens[v]:
                if not digit_free:
                    raise ChemError("more than 99 simultaneously open ring bonds")
                digit = digit_free.pop(0)
                bond_digit[idx] = digit
                out.append(_bond_text(mol, bonds[idx]) + _digit_text(digit))
        kids = children[v]
        if kids:
            emit_stack.append(kids[-1])
            for kid in reversed(kids[:-1]):
                emit_stack += (")", kid, "(")
    return "".join(out)


def _digit_text(digit: int) -> str:
    return str(digit) if digit < 10 else f"%{digit:02d}"


def _bond_text(mol: Molecule, bond: Bond) -> str:
    a, b = mol.atoms[bond.a], mol.atoms[bond.b]
    default = AROMATIC if (a.aromatic and b.aromatic) else SINGLE
    if bond.order == default:
        return ""
    if bond.order == SINGLE:
        return "-"
    return BOND_SYMBOL[bond.order]


def _atom_text(atom: Atom) -> str:
    bare = (atom.formal_charge == 0 and atom.explicit_h is None
            and (atom.element in _BARE_AROMATIC_OK if atom.aromatic
                 else atom.element in _BARE_OK))
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if bare:
        return symbol
    if atom.aromatic and atom.element not in AROMATIC_OK:
        raise ChemError(f"element {atom.element} cannot be written aromatic")
    h = atom.total_h
    h_text = "" if h == 0 else ("H" if h == 1 else f"H{h}")
    c = atom.formal_charge
    if c == 0:
        c_text = ""
    elif c in (1, -1):
        c_text = "+" if c == 1 else "-"
    else:
        c_text = f"{'+' if c > 0 else '-'}{abs(c)}"
    return f"[{symbol}{h_text}{c_text}]"
