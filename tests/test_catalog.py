"""Cost-law evaluation, the FCI binomial, and catalog contents."""

import math

import pytest

from qea import (
    AlgorithmSpec,
    ComplexityModel,
    DomainError,
    UnknownMethodError,
    builtin_catalog,
    canonical_name,
    eval_complexity,
    fci_dimension,
    lookup,
)
from qea.catalog import CLASSICAL_TABLE_METHODS, QUANTUM_TABLE_METHODS


class TestEvalComplexity:
    def test_cubic_law_with_error_term(self):
        model = ComplexityModel(constant=1, size_exponent=3, inv_error_exponent=1)
        assert eval_complexity(model, 10, 1e-3) == pytest.approx(1e6, rel=1e-12)

    def test_pure_exponential(self):
        model = ComplexityModel(exp_base=4.0)
        assert eval_complexity(model, 5, 1.0) == 1024.0

    def test_quintic_t_count_beta_amyloid_scale(self):
        # 192^5 / 1e-3, quoted as 2.6e14 in benchmark summaries.
        model = ComplexityModel(size_exponent=5, inv_error_exponent=1)
        value = eval_complexity(model, 192, 1e-3)
        assert value == pytest.approx(192**5 * 1e3, rel=1e-12)
        assert value == pytest.approx(2.6e14, rel=0.02)

    def test_identity_point(self):
        assert ComplexityModel().value(1, 1.0) == 1.0

    @pytest.mark.parametrize("n,eps", [(0, 1.0), (-3, 0.5), (2, 0.0), (2, 1.5), (2, -1e-3)])
    def test_domain_errors(self, n, eps):
        with pytest.raises(DomainError):
            eval_complexity(ComplexityModel(size_exponent=2), n, eps)

    def test_extended_range_no_overflow(self):
        # 4**1e6 is far beyond float range; the log form must stay finite.
        model = ComplexityModel(exp_base=4.0)
        lv = model.log_value(10**6, 1.0)
        assert math.isfinite(lv)
        assert lv == pytest.approx(10**6 * math.log(4.0), rel=1e-12)
        assert model.value(10**6, 1.0) == math.inf  # reported, not raised

    def test_strictly_increasing_in_n(self):
        for model in [
            ComplexityModel(size_exponent=2),
            ComplexityModel(exp_base=4.0),
            ComplexityModel(size_exponent=1, exp_base=2.0),
        ]:
            values = [model.log_value(n) for n in range(1, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_epsilon(self):
        model = ComplexityModel(size_exponent=3, inv_error_exponent=1)
        eps_grid = [1.0, 0.5, 0.1, 1e-2, 1e-3]
        values = [eval_complexity(model, 7, eps) for eps in eps_grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_constant_scaling_law(self):
        base = ComplexityModel(constant=2.5, size_exponent=4, inv_error_exponent=1)
        scaled = base.with_constant(2.5 * 7.0)
        for n in (1, 3, 17, 240):
            assert scaled.value(n, 1e-2) == pytest.approx(7.0 * base.value(n, 1e-2), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"constant": 0.0},
            {"constant": -1.0},
            {"size_exponent": -0.1},
            {"inv_error_exponent": -1.0},
            {"exp_base": 0.5},
            # Every field must also be finite.
            {"constant": math.inf},
            {"constant": math.nan},
            {"size_exponent": math.inf},
            {"size_exponent": math.nan},
            {"inv_error_exponent": math.nan},
            {"exp_base": math.inf},
            {"exp_base": math.nan},
        ],
    )
    def test_model_validation(self, kwargs):
        with pytest.raises(DomainError):
            ComplexityModel(**kwargs)


class TestFciDimension:
    def test_smallest(self):
        assert fci_dimension(1) == 2

    def test_against_factorial_oracle(self):
        # Independent route: C(2N, N) = (2N)! / (N!)^2, exact integers.
        for n in range(1, 24):
            expected = math.factorial(2 * n) // (math.factorial(n) ** 2)
            assert fci_dimension(n) == expected
        assert fci_dimension(4) == 70

    def test_stirling_bounds_at_23(self):
        value = fci_dimension(23)
        lower = 4**23 / (2.0 * math.sqrt(math.pi * 23))
        assert lower < value < 4**23

    def test_log_ratio_approaches_log4_from_below(self):
        ratios = [math.log(fci_dimension(n)) / n for n in range(1, 31)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < math.log(4.0) for r in ratios)

    def test_domain(self):
        with pytest.raises(DomainError):
            fci_dimension(0)


class TestCatalog:
    def test_classical_exponents(self):
        catalog = builtin_catalog()
        expected = {"DFT": 3.0, "HF": 4.0, "MP2": 5.0, "CCSD": 6.0, "CCSD(T)": 7.0}
        for name, exponent in expected.items():
            spec = catalog[name]
            assert spec.kind == "classical"
            assert spec.cost_law.size_exponent == exponent
            assert spec.cost_law.constant == 1.0
            assert spec.cost_law.inv_error_exponent == 0.0
            assert spec.cost_law.exp_base == 1.0

    def test_fci_is_exponential(self):
        spec = lookup("FCI")
        assert spec.cost_law.exp_base == 4.0
        assert spec.cost_law.size_exponent == 0.0

    def test_quantum_entries(self):
        catalog = builtin_catalog()
        for name, exponent in [("qpe-n5", 5.0), ("qpe-n3", 3.0), ("qpe-n2", 2.0)]:
            spec = catalog[name]
            assert spec.kind == "quantum"
            assert spec.cost_law.size_exponent == exponent
            assert spec.cost_law.inv_error_exponent == 1.0
            assert spec.initial_state_fidelity == 1.0

    def test_qubit_law_tenfold(self):
        spec = lookup("qpe-n3")
        assert spec.qubit_law.value(30, 1.0) == 300.0

    def test_catalog_only_entries(self):
        catalog = builtin_catalog()
        for name in ("DMRG", "VMC", "qpe-first-quant"):
            assert name in catalog
            assert name not in CLASSICAL_TABLE_METHODS and name not in QUANTUM_TABLE_METHODS
        with pytest.raises(TypeError):  # no tags field: the tables name their methods
            AlgorithmSpec("DMRG", "classical", ComplexityModel(), tags="catalog-only")
        # DMRG: N^3 with the default bond dimension folded into the constant.
        assert catalog["DMRG"].cost_law.constant == 1e9
        assert catalog["DMRG"].cost_law.size_exponent == 3.0
        assert catalog["VMC"].cost_law.size_exponent == 3.5
        # First-quantized law collapses to N^3 under half filling.
        assert catalog["qpe-first-quant"].cost_law.size_exponent == 3.0

    def test_aliases_and_case(self):
        assert canonical_name("CCSDT") == "CCSD(T)"
        assert canonical_name("ccsdt") == "CCSD(T)"
        assert canonical_name("fci") == "FCI"
        assert canonical_name("QPE-N3") == "qpe-n3"
        with pytest.raises(UnknownMethodError):
            canonical_name("HF2")

    def test_classical_cost_ordering(self):
        catalog = builtin_catalog()
        ladder = ["DFT", "HF", "MP2", "CCSD", "CCSD(T)"]
        for n in (2, 5, 30, 1000):
            values = [catalog[m].cost_law.log_value(n) for m in ladder]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fci_exceeds_ccsdt_from_18(self):
        fci = lookup("FCI").cost_law
        ccsdt = lookup("CCSD(T)").cost_law
        for n in range(18, 80):
            assert fci.log_value(n) > ccsdt.log_value(n)
        # Scan shows where 4^N first overtakes N^7 for N >= 2.
        first = next(n for n in range(2, 40) if fci.log_value(n) > ccsdt.log_value(n))
        assert first == 13

    def test_spec_validation(self):
        law = ComplexityModel(size_exponent=3)
        with pytest.raises(DomainError):
            AlgorithmSpec(name="bad", kind="quantum", cost_law=law)  # no qubit law
        with pytest.raises(DomainError):
            AlgorithmSpec(name="bad", kind="classical", cost_law=law, qubit_law=law)
        with pytest.raises(DomainError):
            AlgorithmSpec(name="bad", kind="sideways", cost_law=law)
        with pytest.raises(DomainError):
            AlgorithmSpec(name="bad", kind="quantum", cost_law=law, qubit_law=law, initial_state_fidelity=0.0)
