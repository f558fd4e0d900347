"""Orbital counting heuristics and conversions."""

import math

import pytest

from qea import (
    BasisHeuristic,
    DomainError,
    MoleculeSpec,
    UnknownMethodError,
    atoms_from_basis_functions,
    builtin_heuristics,
    orbital_count,
    orbital_to_atom_ratio,
    parse_molecule,
)
from qea.chem import FEMOCO, lookup_heuristic


def test_femoco_orbital_count_is_302():
    heur = lookup_heuristic("femoco-mixed")
    assert orbital_count(FEMOCO, heur) == 302


def test_femoco_ratio_rounds_to_16_8():
    ratio = orbital_to_atom_ratio(FEMOCO, lookup_heuristic("femoco-mixed"))
    assert ratio == pytest.approx(302 / 18, rel=1e-12)
    assert round(ratio, 1) == 16.8


def test_ch2_unit():
    heur = lookup_heuristic("hydrocarbon-631g")
    ch2 = MoleculeSpec(composition={"C": 1, "H": 2})
    assert orbital_count(ch2, heur) == 13
    ratio = orbital_to_atom_ratio(ch2, heur)
    assert ratio == pytest.approx(13 / 3, rel=1e-12)
    assert round(ratio, 1) == 4.3


def test_single_hydrogen():
    heur = BasisHeuristic(name="h", per_element_orbitals={"H": 2})
    assert orbital_count(MoleculeSpec(composition={"H": 1}), heur) == 2


def test_homogeneous_ratio_is_per_atom_count():
    heur = BasisHeuristic(name="x", per_element_orbitals={"X": 7})
    for k in (1, 3, 50):
        mol = MoleculeSpec(composition={"X": k})
        assert orbital_to_atom_ratio(mol, heur) == 7.0


def test_additivity_over_disjoint_compositions():
    heur = lookup_heuristic("femoco-mixed")
    a = MoleculeSpec(composition={"Fe": 2, "S": 3})
    b = MoleculeSpec(composition={"C": 4, "H": 6})
    union = MoleculeSpec(composition={"Fe": 2, "S": 3, "C": 4, "H": 6})
    assert orbital_count(union, heur) == orbital_count(a, heur) + orbital_count(b, heur)


def test_union_ratio_between_parts():
    heur = lookup_heuristic("femoco-mixed")
    a = MoleculeSpec(composition={"Fe": 2})
    b = MoleculeSpec(composition={"H": 5})
    union = MoleculeSpec(composition={"Fe": 2, "H": 5})
    ra, rb = orbital_to_atom_ratio(a, heur), orbital_to_atom_ratio(b, heur)
    assert min(ra, rb) <= orbital_to_atom_ratio(union, heur) <= max(ra, rb)


def test_atoms_from_basis_functions_inverse():
    heur = lookup_heuristic("femoco-mixed")
    ratio = orbital_to_atom_ratio(FEMOCO, heur)
    assert atoms_from_basis_functions(302, ratio) == pytest.approx(18.0, rel=1e-12)
    assert atoms_from_basis_functions(77.5, 1.0) == 77.5
    for n in (13, 302, 9999):
        count = orbital_count(FEMOCO, heur) if n == 302 else float(n)
        assert atoms_from_basis_functions(count, ratio) * ratio == pytest.approx(count, rel=1e-12)


def test_missing_element_names_the_element():
    heur = lookup_heuristic("hydrocarbon-631g")
    with pytest.raises(DomainError, match="Mo"):
        orbital_count(MoleculeSpec(composition={"Mo": 1}), heur)


def test_parse_molecule():
    mol = parse_molecule("Fe:7,Mo:1,S:9,C:1")
    assert mol == FEMOCO
    assert parse_molecule("C:1, H:2").composition == {"C": 1, "H": 2}
    with pytest.raises(DomainError):
        parse_molecule("Fe7")
    with pytest.raises(DomainError):
        parse_molecule("Fe:x")
    with pytest.raises(DomainError):
        parse_molecule("")


def test_builtins_and_validation():
    names = set(builtin_heuristics())
    assert names == {"femoco-mixed", "hydrocarbon-631g"}
    with pytest.raises(UnknownMethodError):
        lookup_heuristic("sto-3g")
    with pytest.raises(DomainError):
        BasisHeuristic(name="bad", per_element_orbitals={"H": 0})
    with pytest.raises(DomainError):
        MoleculeSpec(composition={})
    with pytest.raises(DomainError):
        atoms_from_basis_functions(302, 0.0)
    for n, ratio in [(1e308, 1e-308), (1e-300, 1e300), (math.inf, 2.0), (302, math.inf)]:
        with pytest.raises(DomainError, match="finite|float range"):
            atoms_from_basis_functions(n, ratio)
