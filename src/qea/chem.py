"""Orbital-counting heuristics: problem sizes in atoms, not basis functions.

Scaling laws run over the basis-function count N, which is opaque to
non-specialists.  A per-element orbitals-per-atom table converts a
molecular composition to N and back.  Two tables ship built in:

* femoco-mixed: split-valence organics plus double-zeta ECP counts for
  the transition metals (Fe/Mo 22, S 13, C 9, H 2).  Applied to the
  FeMo cofactor core Fe7MoS9C it gives 302 orbitals over 18 atoms.
* hydrocarbon-631g: split-valence counts for hydrocarbons (C 9, H 2),
  giving 13 orbitals per CH2 unit, about 4.3 per atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnknownMethodError

__all__ = [
    "BasisHeuristic",
    "MoleculeSpec",
    "builtin_heuristics",
    "lookup_heuristic",
    "parse_molecule",
    "orbital_count",
    "orbital_to_atom_ratio",
    "atoms_from_basis_functions",
]


@dataclass(frozen=True)
class BasisHeuristic:
    name: str
    per_element_orbitals: dict[str, int]

    def __post_init__(self):
        for element, count in self.per_element_orbitals.items():
            if count < 1:
                raise DomainError(f"{self.name}: orbitals per atom must be >= 1 ({element})")


@dataclass(frozen=True)
class MoleculeSpec:
    composition: dict[str, int]

    def __post_init__(self):
        if not self.composition:
            raise DomainError("molecule composition must not be empty")
        for element, count in self.composition.items():
            if count < 1:
                raise DomainError(f"atom counts must be >= 1 ({element})")

    @property
    def total_atoms(self) -> int:
        return sum(self.composition.values())


_HEURISTICS = {
    "femoco-mixed": BasisHeuristic(
        name="femoco-mixed",
        per_element_orbitals={"Fe": 22, "Mo": 22, "S": 13, "C": 9, "H": 2},
    ),
    "hydrocarbon-631g": BasisHeuristic(
        name="hydrocarbon-631g",
        per_element_orbitals={"C": 9, "H": 2},
    ),
}

FEMOCO = MoleculeSpec(composition={"Fe": 7, "Mo": 1, "S": 9, "C": 1})


def builtin_heuristics() -> dict[str, BasisHeuristic]:
    return dict(_HEURISTICS)


def lookup_heuristic(name: str) -> BasisHeuristic:
    try:
        return _HEURISTICS[name.lower()]
    except KeyError:
        raise UnknownMethodError(f"unknown basis heuristic {name!r}") from None


def parse_molecule(text: str) -> MoleculeSpec:
    """Parse 'Fe:7,Mo:1,S:9,C:1' into a molecule composition."""
    composition: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        element, sep, count = chunk.partition(":")
        if not sep:
            raise DomainError(f"bad molecule entry {chunk!r}, expected El:count")
        try:
            composition[element.strip()] = composition.get(element.strip(), 0) + int(count)
        except ValueError:
            raise DomainError(f"bad atom count in {chunk!r}") from None
    return MoleculeSpec(composition=composition)


def orbital_count(molecule: MoleculeSpec, heuristic: BasisHeuristic) -> int:
    """Total basis functions: sum over elements of atoms * orbitals/atom."""
    total = 0
    for element, atoms in molecule.composition.items():
        try:
            total += atoms * heuristic.per_element_orbitals[element]
        except KeyError:
            raise DomainError(
                f"heuristic {heuristic.name!r} has no orbital count for element {element!r}"
            ) from None
    return total


def orbital_to_atom_ratio(molecule: MoleculeSpec, heuristic: BasisHeuristic) -> float:
    return orbital_count(molecule, heuristic) / molecule.total_atoms


def atoms_from_basis_functions(n: float, ratio: float) -> float:
    """Invert the ratio: atoms implied by n basis functions."""
    if not 0 < ratio < math.inf:
        raise DomainError(f"ratio must be finite and > 0, got {ratio}")
    if not 0 < n < math.inf:
        raise DomainError(f"n must be finite and > 0, got {n}")
    atoms = n / ratio
    if not 0 < atoms < math.inf:
        raise DomainError(f"{n} basis functions at ratio {ratio} is past float range")
    return atoms
