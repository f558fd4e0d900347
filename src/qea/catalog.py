"""Cost and resource laws of the algorithms under study.

Every scaling law handled by the engine is a member of one monomial
family

    cost(N, eps) = constant * N**size_exponent * eps**(-inv_error_exponent)
                   * exp_base**N

which covers both the polynomial electronic-structure methods (DFT
through CCSD(T), exp_base = 1) and full configuration interaction
(exp_base = 4, size_exponent = 0).  Classical laws are in floating-point
operations, quantum laws in logical T gates.

The built-in catalog pins one representative asymptotic law per method.
The default disruption tables name theirs (CLASSICAL_TABLE_METHODS,
QUANTUM_TABLE_METHODS); every entry can be priced and named on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnknownMethodError

__all__ = [
    "ComplexityModel",
    "AlgorithmSpec",
    "eval_complexity",
    "fci_dimension",
    "builtin_catalog",
    "canonical_name",
    "lookup",
    "CLASSICAL_TABLE_METHODS",
    "QUANTUM_TABLE_METHODS",
]

# Natural log of the largest finite double; beyond this value() reports inf.
_LOG_FLOAT_MAX = 709.782712893384


@dataclass(frozen=True)
class ComplexityModel:
    """One cost law c * N^a * eps^(-b) * beta^N, every field finite.

    constant          -- dimensionless multiplier c, > 0
    size_exponent     -- a, exponent on the basis-function count N, >= 0
    inv_error_exponent-- b, exponent on 1/eps, >= 0
    exp_base          -- beta, >= 1; beta = 1 means purely polynomial
    """

    constant: float = 1.0
    size_exponent: float = 0.0
    inv_error_exponent: float = 0.0
    exp_base: float = 1.0

    def __post_init__(self):
        if not 0 < self.constant < math.inf:
            raise DomainError(f"constant must be finite and > 0, got {self.constant}")
        if not (0 <= self.size_exponent < math.inf and 0 <= self.inv_error_exponent < math.inf):
            raise DomainError("exponents must be finite and >= 0")
        if not 1 <= self.exp_base < math.inf:
            raise DomainError(f"exp_base must be finite and >= 1, got {self.exp_base}")

    def log_value(self, n: float, epsilon: float = 1.0) -> float:
        """Natural log of the law, valid far beyond float range.

        This is the representation the solvers work in: for exp_base = 4
        and n = 10**6 the log is ~1.4e6, comfortably a float, while the
        value itself is astronomically large.
        """
        return (
            math.log(self.constant)
            + self.size_exponent * math.log(n)
            - self.inv_error_exponent * math.log(epsilon)
            + n * math.log(self.exp_base)
        )

    def value(self, n: float, epsilon: float = 1.0) -> float:
        """The law's value as a float; inf if it exceeds float range."""
        if self.log_value(n, epsilon) > _LOG_FLOAT_MAX:
            return math.inf
        try:
            return (
                self.constant
                * float(n) ** self.size_exponent
                * float(epsilon) ** -self.inv_error_exponent
                * self.exp_base ** float(n)
            )
        except OverflowError:
            return math.exp(self.log_value(n, epsilon))

    def with_constant(self, constant: float) -> "ComplexityModel":
        return ComplexityModel(constant, self.size_exponent, self.inv_error_exponent, self.exp_base)


def eval_complexity(model: ComplexityModel, n: int, epsilon: float = 1.0) -> float:
    """Evaluate a cost law at integer problem size n and accuracy eps.

    Raises DomainError for n < 1 or epsilon outside (0, 1].
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    return model.value(n, epsilon)


def fci_dimension(n_spatial: int) -> int:
    """Exact half-filled determinant count C(2N, N) for N spatial orbitals.

    Arbitrary-precision: the binomial is computed exactly, never through
    floats, so Stirling-bound checks against 4**N stay meaningful.
    """
    if n_spatial < 1:
        raise DomainError(f"n_spatial must be >= 1, got {n_spatial}")
    return math.comb(2 * n_spatial, n_spatial)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named classical or quantum method.

    cost_law is in flops for classical methods and logical T gates for
    quantum ones.  Quantum methods carry a qubit_law (logical qubits as a
    function of N) and an initial-state fidelity F; a run is repeated
    ~1/F times on average, so F enters runtime linearly.
    """

    name: str
    kind: str  # "classical" | "quantum"
    cost_law: ComplexityModel
    qubit_law: ComplexityModel | None = None
    initial_state_fidelity: float = 1.0

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise DomainError(f"kind must be classical or quantum, got {self.kind!r}")
        if self.kind == "quantum" and self.qubit_law is None:
            raise DomainError(f"quantum spec {self.name!r} needs a qubit_law")
        if self.kind == "classical" and self.qubit_law is not None:
            raise DomainError(f"classical spec {self.name!r} must not have a qubit_law")
        if not 0 < self.initial_state_fidelity <= 1:
            raise DomainError("initial_state_fidelity must be in (0, 1]")


# Default overhead of logical qubits over basis functions: resource
# estimates across recent fault-tolerant compilations cluster near 10x N.
DEFAULT_QUBIT_CONSTANT = 10.0

# DMRG's k^3 M^3 law is folded to N^3 with the default bond dimension
# M = 1000 baked into the constant (M**3).  Override the constant via a
# scenario to model a different M.
DEFAULT_DMRG_BOND_DIMENSION = 1000.0


def _classical(name, exponent, exp_base=1.0, constant=1.0):
    return AlgorithmSpec(
        name=name,
        kind="classical",
        cost_law=ComplexityModel(constant=constant, size_exponent=exponent, exp_base=exp_base),
    )


def _quantum(name, exponent):
    return AlgorithmSpec(
        name=name,
        kind="quantum",
        cost_law=ComplexityModel(size_exponent=exponent, inv_error_exponent=1.0),
        qubit_law=ComplexityModel(constant=DEFAULT_QUBIT_CONSTANT, size_exponent=1.0),
    )


_CATALOG: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        # Classical electronic-structure ladder, cheapest to costliest.
        _classical("DFT", 3.0),
        _classical("HF", 4.0),
        _classical("MP2", 5.0),
        _classical("CCSD", 6.0),
        _classical("CCSD(T)", 7.0),
        _classical("FCI", 0.0, exp_base=4.0),
        # Classical methods priced but not in the default tables.
        _classical("DMRG", 3.0, constant=DEFAULT_DMRG_BOND_DIMENSION**3),
        _classical("VMC", 3.5),
        # Phase-estimation T-gate laws, all ~1/eps and 10 N logical qubits.
        _quantum("qpe-n5", 5.0),
        _quantum("qpe-n3", 3.0),
        _quantum("qpe-n2", 2.0),
        # First-quantized variant: Ne^(8/3) N^(1/3) collapses to N^3 under
        # the half-filled substitution Ne = N.  Not in the default tables.
        _quantum("qpe-first-quant", 3.0),
    ]
}

_ALIASES = {
    # Shell-safe spelling of CCSD(T) for the command line.
    "CCSDT": "CCSD(T)",
}

_LOWER_INDEX = {name.lower(): name for name in _CATALOG}
_LOWER_INDEX.update({alias.lower(): target for alias, target in _ALIASES.items()})

# Table row/column order for the default disruption report.
CLASSICAL_TABLE_METHODS = ("DFT", "HF", "MP2", "CCSD", "CCSD(T)", "FCI")
QUANTUM_TABLE_METHODS = ("qpe-n3", "qpe-n2")


def builtin_catalog() -> dict[str, AlgorithmSpec]:
    """All built-in methods keyed by canonical name."""
    return dict(_CATALOG)


def canonical_name(name: str) -> str:
    """Resolve aliases and case to a catalog key; raise if unknown."""
    try:
        return _LOWER_INDEX[name.lower()]
    except KeyError:
        raise UnknownMethodError(f"unknown method {name!r}") from None


def lookup(name: str) -> AlgorithmSpec:
    return _CATALOG[canonical_name(name)]
