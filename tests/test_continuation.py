import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import hambif
from hambif import (
    AnalysisOptions,
    ContinuationConfig,
    CorrectorError,
    Equilibrium,
    HamiltonianField,
    IntegrationError,
    PeriodicOrbit,
    PolynomialHamiltonian,
    ProblemSpec,
    continue_branch,
    correct_orbit,
    emit_problem,
    flow,
    seed_from_linearization,
    standard_symplectic,
    verify_period_limit,
)
from hambif import dop853
from hambif.continuation import _KERNEL_MAX_TRIPLETS, _SAFETY

TWO_PI = 2.0 * math.pi


def quartic_radial():
    """H = (x^2+y^2)/2 + (x^2+y^2)^2/4; circles of radius a close at lam = 1/(1+a^2)."""
    return PolynomialHamiltonian(
        2,
        (
            (0.5, (2, 0)),
            (0.5, (0, 2)),
            (0.25, (4, 0)),
            (0.5, (2, 2)),
            (0.25, (0, 4)),
        ),
    )


def coupled4():
    """The coupled 4-dim quartic of the branch benchmark, frequencies 1 and sqrt(2)."""
    return PolynomialHamiltonian(
        4,
        ((0.5, (2, 0, 0, 0)), (0.5, (0, 0, 2, 0)), (1.0, (0, 2, 0, 0)), (0.5, (0, 0, 0, 2)),
         (0.25, (4, 0, 0, 0)), (0.1, (2, 2, 0, 0)), (0.25, (0, 4, 0, 0))),
    )


def field_test_hamiltonian(case, rng):
    """quartic2 and coupled4 of the branch benchmark, or a random positive
    full quadratic: of dim 4 (32 jet triplets, a generated kernel), or of
    dim 8 (128 triplets, above the cap: the numpy table)."""
    if case == "quartic2":
        return quartic_radial()
    if case == "coupled4":
        return coupled4()
    dim = 8 if case == "quadratic_above_cap" else 4
    B = rng.uniform(-0.5, 0.5, (dim, dim))
    return PolynomialHamiltonian.from_quadratic(B @ B.T + 0.5 * np.eye(dim))


FIELD_CASES = ["quartic2", "coupled4", "quadratic", "quadratic_above_cap"]


def solve_ivp_flow(field, x0, T):
    """scipy's DOP853 on flow's system and per-component default tolerances."""
    from scipy.integrate import solve_ivp

    n = x0.size

    def rhs(t, y):
        out = np.empty(y.size)
        field.bind(y, out)()
        return out

    rtol = np.full(n + n * n, 1e-10)
    atol = np.full(n + n * n, 1e-10)
    rtol[:n] = atol[:n] = 1e-10 * _SAFETY
    y0 = np.concatenate([x0, np.eye(n).ravel()])
    return solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True)


class Counting:
    """A field that counts its augmented calls, those of the evaluators its
    ``bind`` hands out, and its state-only calls."""

    def __init__(self, field):
        self.field, self.calls, self.state_calls = field, 0, 0

    def bind(self, y, out):
        evaluate = self.field.bind(y, out)

        def counted():
            self.calls += 1
            evaluate()
        return counted

    def __call__(self, x):
        self.state_calls += 1
        return self.field(x)


class VariationalOnly:
    """A field written as a per-call ``variational(y, out)``, bound by the
    plain closure over it, so the wrapped field is bound afresh on every
    call instead of once per buffer."""

    def __init__(self, field):
        self.field = field

    def variational(self, y, out):
        self.field.bind(y, out)()

    def bind(self, y, out):
        return lambda: self.variational(y, out)

    def __call__(self, x):
        return self.field(x)


def guess(x0, lam, amplitude):
    return PeriodicOrbit(
        x0=np.asarray(x0, dtype=float),
        lam=lam,
        amplitude=amplitude,
        residual=math.inf,
        energy_drift=math.inf,
    )


def reference_value(H, x):
    """H(x) term by term, the definition the compiled tables must reproduce."""
    return sum(c * math.prod(float(x[k]) ** e for k, e in enumerate(exps)) for c, exps in H.terms)


def reference_gradient(H, x):
    g = np.zeros(H.dim)
    for c, exps in H.terms:
        for k, ek in enumerate(exps):
            if ek:
                lowered = list(exps)
                lowered[k] -= 1
                g[k] += c * ek * math.prod(float(x[m]) ** p for m, p in enumerate(lowered))
    return g


def reference_hessian(H, x):
    hess = np.zeros((H.dim, H.dim))
    for c, exps in H.terms:
        for k in range(H.dim):
            for l in range(H.dim):
                lowered = list(exps)
                factor = lowered[k]
                lowered[k] -= 1
                factor *= lowered[l]
                lowered[l] -= 1
                if factor:
                    hess[k, l] += c * factor * math.prod(float(x[m]) ** p for m, p in enumerate(lowered))
    return hess


def random_polynomial(rng, dim, count):
    """Constant, linear and random terms of degree <= 5 with repeated monomials."""
    terms = [(float(rng.normal()), (0,) * dim)]
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        terms.append((float(rng.normal()), tuple(e)))
    for _ in range(count):
        e = [0] * dim
        for k in rng.choice(dim, size=int(rng.integers(1, min(dim, 3) + 1)), replace=False):
            e[k] = int(rng.integers(1, 4))
        terms.append((float(rng.normal()), tuple(e)))
    terms.append(terms[-1])  # the same monomial twice
    return PolynomialHamiltonian(dim, tuple(terms))


def table_bytes(H):
    """Bytes held by the compiled numpy tables of H."""
    return sum(v.nbytes for v in vars(H).values() if isinstance(v, np.ndarray))


def full_power_monomials(x, variables, powers, table):
    """The monomials of a column-indexed factor table, read from the full
    table of x_k ** p over every variable k and every power p up to the
    highest the table reads, as a (variable, power) table was evaluated
    before it indexed only the columns it reads."""
    degrees = np.arange(powers.max(initial=0.0) + 1.0)
    full = (x[..., None] ** degrees).reshape(x.shape[:-1] + (x.shape[-1] * degrees.size,))
    index = (variables * degrees.size + powers.astype(np.intp))[table]
    return np.multiply.reduce(full.take(index, axis=-1), axis=-1)


class TestCompiledPolynomial:
    def test_matches_reference_loop(self, rng):
        for dim in (2, 4, 6):
            for _ in range(4):
                H = random_polynomial(rng, dim, count=8)
                points = rng.uniform(-1.5, 1.5, (6, dim))
                points[1] = 0.0  # every 0**0
                points[2, ::2] = 0.0
                for x in points:
                    v = reference_value(H, x)
                    assert H.value(x) == pytest.approx(v, rel=1e-12, abs=1e-12)
                    assert isinstance(H.value(x), float)
                    g = reference_gradient(H, x)
                    assert np.allclose(H.gradient(x), g, rtol=1e-12, atol=1e-12)
                    hess = reference_hessian(H, x)
                    assert np.allclose(H.hessian(x), hess, rtol=1e-12, atol=1e-12)
                    assert np.array_equal(H.hessian(x), H.hessian(x).T)

    def test_batched_value_matches_pointwise(self, rng):
        H = random_polynomial(rng, 4, count=10)
        points = rng.uniform(-1.0, 1.0, (256, 4))
        points[:5] = 0.0
        batched = H.value(points)
        assert batched.shape == (256,)
        assert np.allclose(batched, [reference_value(H, x) for x in points], rtol=1e-12, atol=1e-12)
        assert np.allclose(H.value(points.reshape(16, 16, 4)), batched.reshape(16, 16))

    def test_constant_and_empty_polynomials(self):
        const = PolynomialHamiltonian(2, ((2.5, (0, 0)),))
        assert const.value([-1.0, 3.0]) == 2.5
        assert np.array_equal(const.gradient([-1.0, 3.0]), np.zeros(2))
        assert np.array_equal(const.hessian([-1.0, 3.0]), np.zeros((2, 2)))
        empty = PolynomialHamiltonian(2, ((0.0, (1, 1)),))
        assert empty.terms == ()
        assert empty.value([1.0, 1.0]) == 0.0
        assert np.array_equal(empty.hessian([1.0, 1.0]), np.zeros((2, 2)))

    def test_symplectic_derivatives_match_J_gradient_and_hessian(self, rng):
        for dim in (2, 4, 6, 8):
            J = standard_symplectic(dim // 2)
            for _ in range(4):
                H = random_polynomial(rng, dim, count=2 * dim)
                for x in rng.uniform(-1.5, 1.5, (4, dim)):
                    Jg, JH = H.symplectic_derivatives(x)
                    for fused, reference in ((Jg, J @ H.gradient(x)), (JH, J @ H.hessian(x))):
                        assert fused.shape == reference.shape
                        assert np.linalg.norm(fused - reference) <= 1e-13 * np.linalg.norm(reference)

    def test_no_negative_zero_at_zero_coordinates(self, rng):
        # -J is applied as 0.0 - v, which keeps an exact zero at +0.0
        for dim in (2, 4, 6):
            H = random_polynomial(rng, dim, count=2 * dim)
            points = rng.uniform(-1.5, 1.5, (6, dim))
            points[0] = 0.0
            points[1, ::2] = 0.0
            points[2, 1::2] = 0.0
            points[3, :dim // 2] = 0.0
            for values in [H.gradient(points)] + [H.hessian(x) for x in points]:
                assert not np.any((values == 0.0) & np.signbit(values))
        quadratic = PolynomialHamiltonian.from_quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
        zeros = (quadratic.gradient(np.zeros(4)), quadratic.hessian(np.zeros(4)))
        assert all(not np.any(np.signbit(v)) for v in zeros)

    @pytest.mark.parametrize("case", FIELD_CASES + ["random"])
    def test_column_powers_equal_the_full_power_table_bit_for_bit(self, case, rng, monkeypatch):
        # every path through the factor tables: value, gradient, hessian,
        # symplectic_derivatives, and the table path of field(X) and bind
        H = random_polynomial(rng, 4, count=10) if case == "random" else field_test_hamiltonian(case, rng)
        n = H.dim
        degree = max(max(e) for _, e in H.terms)
        assert H._value_variables.size < n * (degree + 1)  # not every (variable, power) column
        points = rng.uniform(-1.5, 1.5, (10, n))
        points[0] = 0.0
        points[1, ::2] = 0.0
        points[2, 0], points[3, -1] = 1e200, -1e200  # powers overflow to inf
        points[4, 1], points[5, 0] = math.inf, -math.inf
        y = np.concatenate([points[6], rng.uniform(-1.0, 1.0, n * n)])
        field = HamiltonianField(H, 0.9)

        def evaluations():
            out = np.empty(n + n * n)
            field.bind(y, out)()
            return [H.value(points), H.value(points[:0]), H.gradient(points), H.gradient(points[:0]),
                    field(points), out, *(H.value(x) for x in points), *(H.hessian(x) for x in points),
                    *(part for x in points for part in H.symplectic_derivatives(x))]

        with np.errstate(all="ignore"):
            columns = evaluations()
            monkeypatch.setattr("hambif.continuation._monomials", full_power_monomials)
            full = evaluations()
        for ours, reference in zip(columns, full):
            assert np.shape(ours) == np.shape(reference)
            assert np.asarray(ours).tobytes() == np.asarray(reference).tobytes()

    def test_64_dim_quadratic_compiles_small(self, rng):
        A = rng.uniform(-1, 1, (64, 64))
        A = 0.5 * (A + A.T)
        H = PolynomialHamiltonian.from_quadratic(A)
        assert len(H.terms) == 64 * 65 // 2
        # a dense (dim, dim, terms, dim) exponent table would take about 4 GB
        assert table_bytes(H) < 2**18
        x = rng.uniform(-1, 1, 64)
        assert H.value(x) == pytest.approx(0.5 * x @ A @ x, rel=1e-12)
        assert np.allclose(H.gradient(x), A @ x, rtol=1e-12, atol=1e-12)
        assert np.allclose(H.hessian(x), A, rtol=1e-12, atol=1e-12)


class TestPolynomialHamiltonian:
    def test_quadratic_roundtrip(self, rng):
        A = rng.uniform(-1, 1, (4, 4))
        A = 0.5 * (A + A.T)
        H = PolynomialHamiltonian.from_quadratic(A)
        x = rng.uniform(-1, 1, 4)
        assert H.value(x) == pytest.approx(0.5 * x @ A @ x)
        assert np.allclose(H.gradient(x), A @ x)
        assert np.allclose(H.hessian(x), A)

    def test_gradient_against_finite_differences(self, rng):
        H = quartic_radial()
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, 2)
            fd = np.array(
                [
                    (H.value(x + h * e) - H.value(x - h * e)) / (2 * h)
                    for e in np.eye(2)
                ]
            )
            grad = H.gradient(x)
            assert np.linalg.norm(grad - fd) < 1e-6 * (1.0 + np.linalg.norm(grad))

    def test_field_orientation(self):
        H = PolynomialHamiltonian(2, ((0.5, (2, 0)), (0.5, (0, 2))))
        field = HamiltonianField(H, 1.0)
        assert np.allclose(field(np.array([1.0, 0.0])), [0.0, -1.0])
        assert np.allclose(field(np.array([0.3, 0.4])), [0.4, -0.3])

    def test_quartic_field_norm_on_circle(self):
        H = quartic_radial()
        field = HamiltonianField(H, 0.7)
        for r in (0.2, 0.5):
            x = np.array([r, 0.0])
            assert np.linalg.norm(field(x)) == pytest.approx(0.7 * r * (1 + r * r))

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_field_refuses_nonpositive_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive"):
            HamiltonianField(quartic_radial(), lam)

    @pytest.mark.parametrize("case", FIELD_CASES + ["linear_term"])
    def test_batched_gradient_and_field_match_pointwise_bit_for_bit(self, case, rng):
        if case == "linear_term":
            # p2 enters only through 0.7 p2, so q2' is the constant 0.7 lam:
            # a kernel output that reads no coordinate, broadcast over the batch
            H = PolynomialHamiltonian(4, ((0.5, (2, 0, 0, 0)), (0.5, (0, 0, 2, 0)), (0.25, (4, 0, 0, 0)),
                                          (0.5, (2, 0, 2, 0)), (0.5, (0, 2, 0, 0)), (0.7, (0, 0, 0, 1))))
        else:
            H = field_test_hamiltonian(case, rng)
        points = rng.uniform(-1.0, 1.0, (50, H.dim))
        points[0] = 0.0
        for f in (H.gradient, HamiltonianField(H, 0.9)):
            values = f(points)
            assert values.shape == points.shape
            assert np.array_equal(values, np.stack([f(x) for x in points]))
            assert f(points[:0]).shape == (0, H.dim)  # an empty batch, on either path
        assert H.value(points[:0]).shape == (0,)
        grid = points.reshape(5, 10, H.dim)
        assert np.array_equal(H.gradient(grid), H.gradient(points).reshape(grid.shape))

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_field_is_lam_times_the_jet_gradient_byte_for_byte(self, case, rng):
        # one J grad H path: field(X) and the bound evaluators fold lam into
        # the same jet coefficients and sum the same triplets in the same
        # order, zero signs included
        H = field_test_hamiltonian(case, rng)
        n = H.dim
        field = HamiltonianField(H, 0.9)
        points = rng.uniform(-1.0, 1.0, (50, n))
        points[0] = 0.0
        points[1, ::2] = 0.0
        points[2, 1::2] = 0.0
        # the sums of the terms' magnitudes: the field of |H| at |x|
        magnitudes = HamiltonianField(
            PolynomialHamiltonian(n, tuple((abs(c), e) for c, e in H.terms)), field.lam
        )
        for row, x in zip(field(points), points):
            out = np.full(n + n * n, np.nan)
            field.bind(np.concatenate([x, np.eye(n).ravel()]), out)()
            assert row.tobytes() == out[:n].tobytes()
            # lam moved inside the sum: within a relative 1e-14 of those
            # magnitudes of lam times the unscaled jet gradient
            bound = 1e-14 * np.abs(magnitudes(np.abs(x)))
            assert np.all(np.abs(row - field.lam * H.symplectic_derivatives(x)[0]) <= bound)

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_variational_writes_the_augmented_field_bit_for_bit(self, case, rng):
        H = field_test_hamiltonian(case, rng)
        n = H.dim
        field = HamiltonianField(H, 0.9)
        for y in rng.uniform(-1.0, 1.0, (200, n + n * n)):
            x, Phi = y[:n], y[n:].reshape(n, n)
            out = np.full(n + n * n, np.nan)
            assert field.bind(y, out)() is None
            # the field's Jacobian, lam folded in, read at Phi = I
            jac = np.full(n + n * n, np.nan)
            field.bind(np.concatenate([x, np.eye(n).ravel()]), jac)()
            DF = jac[n:].reshape(n, n)
            assert np.array_equal(out, np.concatenate([field(x), (DF @ Phi).ravel()]))
            # lam moved inside the sum: a relative 1e-14 of the product of
            # magnitudes, the scale of a dot product's rounding
            JH = H.symplectic_derivatives(x)[1]
            bound = 1e-14 * field.lam * (np.abs(JH) @ np.abs(Phi)).ravel()
            assert np.all(np.abs(out[n:] - field.lam * (JH @ Phi).ravel()) <= bound)

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_one_derivative_path_chosen_by_the_jet_size(self, case, rng):
        # the generated kernel up to the cap on triplets and on power steps,
        # the numpy table above it, each for field(x), field(X) of any batch
        # shape and the bound evaluators
        H = field_test_hamiltonian(case, rng)
        field = HamiltonianField(H, 0.9)
        top = {}  # the highest power of each variable in the jet table
        for k, e in zip(H._jet_variables.tolist(), H._jet_powers.tolist()):
            top[k] = max(top.get(k, 1.0), e)
        steps = sum(e - 1.0 for e in top.values())
        assert (field._kernel is None) == (max(H._jet_rows.size, steps) > _KERNEL_MAX_TRIPLETS)
        assert (field._kernel is None) == (case == "quadratic_above_cap")
        points = rng.uniform(-1.0, 1.0, (2, 3, H.dim))
        assert np.array_equal(field(points), np.stack([field(x) for x in points]))

    def test_kernel_not_generated_for_a_high_power(self):
        # the kernel writes one line per power step: x^100000 stays on the
        # table, which raises each power in one numpy call
        import tracemalloc

        terms = quartic_radial().terms + ((1e-9, (100_000, 0)),)
        tracemalloc.start()
        try:
            H = PolynomialHamiltonian(2, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H._kernel is None and H._jet_rows.size < _KERNEL_MAX_TRIPLETS
        assert peak < 1e6
        x = np.array([0.5, 0.2])
        assert np.allclose(HamiltonianField(H, 1.0)(x), HamiltonianField(quartic_radial(), 1.0)(x),
                           rtol=1e-15, atol=0.0)

    def test_generated_kernel_overflows_to_inf_without_raising(self):
        # a stage state far outside the domain: the kernel's powers are
        # products, which overflow to inf as numpy's do, not Python's **
        field = HamiltonianField(quartic_radial(), 1.0)
        y = np.concatenate([[1e200, 0.0], np.eye(2).ravel()])
        out = np.empty(6)
        with np.errstate(invalid="ignore"):
            field.bind(y, out)()
        assert out[1] == -math.inf
        assert field(np.array([1e200, 0.0]))[1] == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialHamiltonian(3, ())
        with pytest.raises(ValueError):
            PolynomialHamiltonian(2, ((1.0, (1,)),))


class TestFlow:
    def test_quarter_rotation(self):
        field = HamiltonianField(PolynomialHamiltonian.from_quadratic(np.eye(2)), 1.0)  # x -> J x
        result = flow(field, np.array([1.0, 0.0]), math.pi / 2)
        assert np.allclose(result.endpoint, [0.0, -1.0], atol=1e-9)
        assert np.allclose(result.monodromy, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-9)

    def test_monodromy_matches_exponential(self, rng):
        for trial in range(5):
            A = rng.uniform(-0.6, 0.6, (2, 2))
            A = 0.5 * (A + A.T)
            lam = float(rng.uniform(0.4, 1.4))
            M = lam * standard_symplectic(1) @ A
            field = HamiltonianField(PolynomialHamiltonian.from_quadratic(A), lam)  # x -> M x
            result = flow(field, rng.uniform(-0.5, 0.5, 2), TWO_PI)
            assert np.allclose(result.monodromy, scipy.linalg.expm(TWO_PI * M), atol=1e-7)

    def test_hamiltonian_monodromy_is_exponential_and_symplectic(self, rng):
        # the variational components run at the advertised tolerance, not
        # below it like the state; the monodromy must stay accurate
        for dim in (2, 4):
            B = rng.uniform(-0.5, 0.5, (dim, dim))
            A = B @ B.T + 0.5 * np.eye(dim)
            lam = float(rng.uniform(0.5, 1.2))
            J = standard_symplectic(dim // 2)
            field = HamiltonianField(PolynomialHamiltonian.from_quadratic(A), lam)
            Phi = flow(field, rng.uniform(-0.5, 0.5, dim), TWO_PI).monodromy
            assert np.max(np.abs(Phi - scipy.linalg.expm(TWO_PI * lam * J @ A))) < 1e-8
            assert np.max(np.abs(Phi.T @ J @ Phi - J)) < 1e-8

    def test_flow_counters_count_every_rhs(self):
        rejected = 0
        for H, x0 in ((quartic_radial(), [0.3, 0.0]), (coupled4(), [0.3, 0.2, 0.0, 0.1]),
                      (coupled4(), [1.0, 0.5, 0.0, 0.1])):
            field = Counting(HamiltonianField(H, 1.0))
            result = flow(field, np.array(x0), TWO_PI)
            assert result.rhs_calls == field.calls == 12 * (result.steps + result.rejected) + 2
            assert result.solution.ts.size == result.steps + 1
            rejected += result.rejected
        assert rejected > 0  # the far coupled4 orbit rejects steps

    def test_quartic_period_rhs_budget(self):
        field = Counting(HamiltonianField(quartic_radial(), 1.0))
        result = flow(field, np.array([0.3, 0.0]), TWO_PI)
        # 557 when every component ran below the advertised tolerance, 452
        # while the dense output was built with the full system on every step
        assert field.calls == result.rhs_calls <= 370
        assert field.state_calls == 0  # the interpolant is built on its first read
        result.solution(np.linspace(0.0, TWO_PI, 256))
        result.solution(1.0)
        assert field.state_calls == 3  # one batched call per extra stage
        assert field.calls == result.rhs_calls

    def test_scipy_stays_unloaded_until_needed(self, tmp_path):
        # the package import, --help, a refusal and a branch traced by
        # `continue` load no scipy module; `analyze`, which reaches a Schur
        # form, loads scipy.linalg but still not scipy.integrate
        src = str(Path(hambif.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from hambif.cli import main\n"
                "try:\n"
                "    status = main(sys.argv[1:])\n"
                "except SystemExit as exc:\n"
                "    status = exc.code\n"
                "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'scipy'})\n"
                "print(loaded, 'scipy.integrate' in sys.modules, file=sys.stderr)\n"
                "sys.exit(status)")

        def run(*argv):
            done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            return done.returncode, done.stderr.splitlines()[-1], done.stdout

        imported = subprocess.run([sys.executable, "-c", "import sys, hambif; print(sorted(sys.modules))"],
                                  env=env, capture_output=True, text=True, check=True, timeout=120).stdout
        assert "hambif" in imported and "scipy" not in imported

        H = quartic_radial()
        equilibrium = Equilibrium(point=np.zeros(2), hessian=H.hessian(np.zeros(2)))
        spec = ProblemSpec(dim=2, equilibria=(equilibrium,), hamiltonian=H,
                           options=AnalysisOptions(continuation=ContinuationConfig(amplitude_target=0.1)))
        problem = tmp_path / "quartic.json"
        problem.write_text(emit_problem(spec))
        linear = tmp_path / "linear.json"
        linear.write_text(emit_problem(ProblemSpec(dim=2, equilibria=(equilibrium,))))

        assert run("--help")[:2] == (0, "[] False")
        assert run("continue", "--input", str(linear))[:2] == (2, "[] False")
        status, loaded, out = run("continue", "--input", str(problem))
        assert (status, loaded) == (0, "[] False")
        assert '"orbit_count": 0' not in out and '"orbit_count"' in out
        status, loaded, out = run("analyze", "--input", str(problem))
        assert (status, loaded) == (0, "['scipy'] False")
        assert '"orbit_count": 0' not in out and '"orbit_count"' in out

    def test_energy_conservation(self):
        H = quartic_radial()
        field = HamiltonianField(H, 1.0)
        x0 = np.array([0.3, 0.0])
        result = flow(field, x0, TWO_PI)
        ts = np.linspace(0.0, TWO_PI, 200)
        drift = max(abs(H.value(result.solution(t)[:2]) - H.value(x0)) for t in ts)
        assert drift <= 10.0 * 1e-10 * (1.0 + abs(H.value(x0)))

    def test_domain_exit_raises_with_time(self):
        # the saddle H = q p stretches q like e^t and leaves the guard ball quickly
        saddle = PolynomialHamiltonian(2, ((1.0, (1, 1)),))
        with pytest.raises(IntegrationError) as info:
            flow(HamiltonianField(saddle, 1.0), np.array([1.0, 0.0]), 20.0, domain_bound=10.0)
        # the end of the first step outside the ball, which q enters at t = ln 10
        assert math.log(10.0) <= info.value.exit_time < 20.0

    @pytest.mark.parametrize("H", [
        PolynomialHamiltonian(2, ((1.0, (1, 1)),)),  # the saddle H = q p
        PolynomialHamiltonian.from_quadratic(np.eye(2)),  # rotation at constant radius
    ])
    def test_start_outside_the_domain_raises_at_time_zero(self, H):
        with pytest.raises(IntegrationError) as info:
            flow(HamiltonianField(H, 1.0), np.array([20.0, 0.0]), 5.0, domain_bound=10.0)
        assert info.value.exit_time == 0.0

    def test_nonfinite_field_raises(self):
        # a NaN right-hand side makes a NaN initial step, which must fail
        # instead of looping forever
        class Broken:
            def bind(self, y, out):
                def evaluate():
                    out[:] = np.nan
                return evaluate

        with pytest.raises(IntegrationError) as info:
            flow(Broken(), np.array([0.3, 0.0]), 1.0)
        assert info.value.exit_time == 0.0

    def test_infinite_first_slope_raises(self):
        # the initial step comes out zero; the step-size check must catch it
        class Overflowing:
            def bind(self, y, out):
                def evaluate():
                    out[:] = np.inf
                return evaluate

        with np.errstate(all="ignore"), pytest.raises(IntegrationError) as info:
            flow(Overflowing(), np.array([0.3, 0.0]), 1.0)
        assert info.value.exit_time == 0.0

    def test_field_without_bind_rejected(self):
        class StateOnly:
            def __call__(self, x):
                return x

        with pytest.raises(ValueError, match=r"bind\(y, out\)"):
            flow(StateOnly(), np.array([0.3, 0.0]), 1.0)

    def test_nonpositive_time_rejected(self):
        field = HamiltonianField(quartic_radial(), 1.0)
        for T in (0.0, -1.0):
            with pytest.raises(ValueError):
                flow(field, np.array([0.3, 0.0]), T)

    def test_infinite_time_rejected(self):
        # an unbounded loop of steps on the unit oscillator otherwise
        field = Counting(HamiltonianField(PolynomialHamiltonian.from_quadratic(np.eye(2)), 1.0))
        with pytest.raises(ValueError, match="T must be positive and finite"):
            flow(field, np.array([1.0, 0.0]), math.inf)
        assert field.calls == 0

    def test_nan_domain_bound_rejected(self):
        # a NaN bound would switch the domain check off
        field = HamiltonianField(quartic_radial(), 1.0)
        with pytest.raises(ValueError, match="domain_bound"):
            flow(field, np.array([0.3, 0.0]), 1.0, domain_bound=math.nan)

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_unusable_tolerances_rejected(self, name, tol):
        # not clamped to the stepper's floor
        field = Counting(HamiltonianField(quartic_radial(), 1.0))
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            flow(field, np.array([0.3, 0.0]), 1.0, **{name: tol})
        assert field.calls == 0

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_bound_and_variational_fields_flow_byte_identically(self, case, rng):
        # HamiltonianField.bind, whose buffer views are taken once, against
        # the same field bound afresh at every call: stale views, or a flow
        # that evaluates into other buffers than it bound, would differ
        H = field_test_hamiltonian(case, rng)
        field = HamiltonianField(H, 0.9)
        x0 = rng.uniform(-0.5, 0.5, H.dim)
        bound, rebound = flow(field, x0, TWO_PI), flow(VariationalOnly(field), x0, TWO_PI)
        for name in ("endpoint", "monodromy"):
            assert getattr(bound, name).tobytes() == getattr(rebound, name).tobytes(), name
        for name in ("steps", "rejected", "rhs_calls"):
            assert getattr(bound, name) == getattr(rebound, name), name
        ts = np.linspace(0.0, TWO_PI, 64)
        assert bound.solution(ts).tobytes() == rebound.solution(ts).tobytes()

    @pytest.mark.parametrize("case", FIELD_CASES)
    @pytest.mark.parametrize("amplitude", [0.1, 0.5, 1.0])
    def test_monodromy_is_symplectic(self, case, amplitude, rng):
        H = field_test_hamiltonian(case, rng)
        direction = rng.uniform(-1.0, 1.0, H.dim)
        x0 = amplitude * direction / np.linalg.norm(direction)
        assert hambif.is_symplectic(flow(HamiltonianField(H, 0.9), x0, TWO_PI).monodromy)


class TestStepper:
    """The in-house DOP853 loop against scipy's, which it reproduces."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as reference

        for name in ("A", "B", "E3", "E5", "D"):
            ours, theirs = getattr(dop853, name), getattr(reference, name)
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name

    @pytest.mark.parametrize("case", ["quartic", "quadratic", "coupled4"])
    def test_flow_matches_solve_ivp(self, case, rng):
        if case == "quartic":
            H, x0 = quartic_radial(), np.array([0.3, 0.0])
        elif case == "quadratic":
            B = rng.uniform(-0.5, 0.5, (4, 4))
            H, x0 = PolynomialHamiltonian.from_quadratic(B @ B.T + 0.5 * np.eye(4)), rng.uniform(-0.5, 0.5, 4)
        else:
            H, x0 = coupled4(), np.array([0.3, 0.2, 0.0, 0.1])
        field = HamiltonianField(H, 0.9)
        ours = flow(field, x0, TWO_PI)
        theirs = solve_ivp_flow(field, x0, TWO_PI)
        n = x0.size
        assert np.max(np.abs(ours.endpoint - theirs.y[:n, -1])) <= 1e-12
        assert np.max(np.abs(ours.monodromy - theirs.y[n:, -1].reshape(n, n))) <= 1e-12
        ts = np.linspace(0.0, TWO_PI, 256)
        states = ours.solution(ts)
        assert states.shape == (n, ts.size)
        assert np.max(np.abs(states - theirs.sol(ts)[:n])) <= 1e-12
        for t in (0.0, 1.234, ours.solution.ts[3], TWO_PI):
            state = ours.solution(t)
            assert state.shape == (n,)
            assert np.max(np.abs(state - theirs.sol(t)[:n])) <= 1e-12


class TestStateInterpolant:
    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_scalar_reads_equal_the_array_path_bit_for_bit(self, case, rng):
        # a scalar time is read through its one step's coefficients, found
        # by bisection; an array of times through searchsorted and a gather
        H = field_test_hamiltonian(case, rng)
        solution = flow(HamiltonianField(H, 0.9), rng.uniform(-0.5, 0.5, H.dim), TWO_PI).solution
        times = [0.0, TWO_PI, *solution.ts.tolist(), *rng.uniform(0.0, TWO_PI, 16).tolist(),
                 -0.0, -1e-3, math.nextafter(TWO_PI, math.inf), TWO_PI + 0.5, math.nan]
        batch = solution(np.array(times))
        assert batch.shape == (H.dim, len(times))
        for k, t in enumerate(times):
            for scalar in (t, np.float64(t), np.array(t)):
                value = solution(scalar)
                assert value.shape == (H.dim,)
                assert value.tobytes() == batch[:, k].tobytes(), (t, type(scalar))
        assert np.all(np.isnan(solution(math.nan)))

    @pytest.mark.parametrize("case", ["coupled4", "quadratic_above_cap"])
    def test_array_reads_hold_a_few_times_their_output(self, case, rng):
        # one coefficient row per Horner step, not every step's (m, 7, n)
        # coefficients at once, with the same sums bit for bit
        import tracemalloc

        H = field_test_hamiltonian(case, rng)
        solution = flow(HamiltonianField(H, 0.9), rng.uniform(-0.5, 0.5, H.dim), TWO_PI).solution
        solution(0.0)  # the first read computes the coefficients
        times = np.linspace(0.0, TWO_PI, 100_000)
        tracemalloc.start()
        try:
            states = solution(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * states.nbytes
        ts = solution.ts
        step = np.clip(np.searchsorted(ts, times, side="left") - 1, 0, ts.size - 2)
        x = ((times - ts[step]) / (ts[step + 1] - ts[step]))[:, None]
        F = solution._F[step]  # the reference: every step's (m, 7, n) coefficients at once
        y = np.zeros(F.shape[:-2] + F.shape[-1:])
        for i in range(F.shape[-2]):
            y += F[..., -1 - i, :]
            y *= (x, 1.0 - x)[i % 2]
        y += solution._xs[step]
        assert states.tobytes() == y.T.tobytes()


class TestContinuationConfig:
    @pytest.mark.parametrize(
        "settings",
        [
            {"sample_points": 0},
            {"sample_points": 1},
            {"corrector_tol": 0.0},
            {"integrator_rtol": -1e-10},
            {"integrator_atol": 0.0},
            {"seed_amplitude": 0.0},
            {"initial_step": 0.0},
            {"min_step": -1e-6},
            {"max_step": 0.0},
            {"domain_bound": 0.0},
            {"min_step": 0.2, "max_step": 0.1},
            {"growth": 0.9},
            {"max_corrector_iters": 0},
            {"lambda_min": 2.0, "lambda_max": 2.0},
            {"corrector_tol": math.nan},
            {"sample_points": 100_001},
            {"sample_points": 10**12},
            # values the problem file refuses: each used to be accepted, and
            # gave a seed returned uncorrected (corrector_tol), a ValueError
            # of flow out of continue_branch (integrator_rtol), a TypeError
            # (an iteration count of 2.5), or RuntimeWarnings and NaN
            # (infinite steps)
            {"corrector_tol": math.inf},
            {"integrator_rtol": math.inf},
            {"max_corrector_iters": 2.5},
            {"initial_step": math.inf, "max_step": math.inf},
            {"amplitude_target": math.nan},
            {"lambda_max": math.inf},
            {"max_steps": True},
            {"sample_points": 256.0},
            {"growth": "1.3"},
            {"domain_bound": 10**400},
        ],
    )
    def test_unusable_settings_rejected(self, settings):
        with pytest.raises(ValueError):
            ContinuationConfig(**settings)

    def test_settings_follow_the_problem_file_rules(self):
        """Every field that the problem file refuses by type is refused by
        name; integer values of float fields and None as the amplitude
        target are kept, and numpy integers are kept as int."""
        import dataclasses

        for f in dataclasses.fields(ContinuationConfig):
            bad = 2.5 if f.type == "int" else math.inf
            with pytest.raises(ValueError, match=f.name):
                ContinuationConfig(**{f.name: bad})
        config = ContinuationConfig(corrector_tol=1, amplitude_target=None, sample_points=np.int64(16),
                                    max_steps=np.int32(7))
        assert config.corrector_tol == 1 and config.amplitude_target is None
        assert type(config.sample_points) is int and type(config.max_steps) is int
        assert config.sample_points == 16 and config.max_steps == 7

    @pytest.mark.parametrize("sample_points", [2, 256, 100_000])
    def test_sample_points_bounds_are_inclusive(self, sample_points):
        assert ContinuationConfig(sample_points=sample_points).sample_points == sample_points


class TestCorrector:
    def test_quartic_closed_form_a05(self):
        orbit = correct_orbit(quartic_radial(), guess([0.5, 0.0], 0.8, 0.5))
        assert abs(orbit.lam - 1.0 / 1.25) < 1e-6
        assert orbit.residual <= 1e-9

    def test_quartic_closed_form_a01(self):
        orbit = correct_orbit(quartic_radial(), guess([0.1, 0.0], 0.95, 0.1))
        assert abs(orbit.lam - 1.0 / 1.01) < 1e-6

    def test_linear_system_pins_level(self):
        H = PolynomialHamiltonian.from_quadratic(2.0 * np.eye(2))  # beta = 2
        orbit = correct_orbit(H, guess([0.05, 0.0], 0.47, 0.05))
        assert orbit.lam == pytest.approx(0.5, abs=1e-10)

    def test_failure_reports_residual(self):
        # no 2*pi-periodic orbit near lam ~ 0.2 for the oscillator: corrector diverges
        H = PolynomialHamiltonian.from_quadratic(np.eye(2))
        with pytest.raises(CorrectorError) as info:
            correct_orbit(H, guess([0.1, 0.0], 0.2, 0.1), ContinuationConfig(max_corrector_iters=6))
        assert info.value.residual is None or info.value.residual >= 0.0


class TestOrbitAmplitude:
    def test_duffing_amplitude_is_reached_between_samples(self):
        # H = (q^2 + p^2)/2 + q^4/4: on a level set q^2 + p^2 = 2H - q^4/2, so
        # the largest distance from the origin is sqrt(2H), reached at q = 0;
        # r is flat to fourth order there, so a coarse grid of 16 samples is
        # what a missing refinement fails on (1.5e-6 low from (0.6, -0.3))
        H = PolynomialHamiltonian(2, ((0.5, (2, 0)), (0.5, (0, 2)), (0.25, (4, 0))))
        for x0 in ((0.4, 0.25), (0.6, -0.3), (0.2, 0.45), (0.55, 0.05)):
            r = float(np.hypot(*x0))
            for samples in (256, 16):
                orbit = correct_orbit(H, guess(x0, 1.0 / (1.0 + 0.375 * r * r), r),
                                      ContinuationConfig(sample_points=samples))
                assert abs(orbit.amplitude - math.sqrt(2.0 * H.value(orbit.x0))) < 1e-10


class TestSeeding:
    def test_oscillator_seed(self):
        seed = seed_from_linearization(np.eye(2), 1.0, 0.1)
        assert seed.lam == pytest.approx(1.0)
        assert np.linalg.norm(seed.x0) == pytest.approx(0.1)

    def test_defective_block_uses_geometric_eigenvector(self):
        from hambif import odd_block_hessian

        A = odd_block_hessian(3, 1.0, +1)
        seed = seed_from_linearization(A, 1.0, 0.05)
        M = standard_symplectic(3) @ A
        # direction lies in the kernel of (M - i)(M + i) restricted to reals:
        v = seed.x0 / np.linalg.norm(seed.x0)
        residual = np.linalg.norm((M @ M + np.eye(6)) @ v)
        assert residual < 1e-6

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            seed_from_linearization(np.eye(2), 1.0, 0.0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be positive and finite"):
            seed_from_linearization(np.eye(2), 1.0, amplitude)

    def test_missing_frequency_rejected(self):
        from hambif import EigenvalueNotFoundError

        with pytest.raises(EigenvalueNotFoundError):
            seed_from_linearization(np.eye(2), 3.0, 0.1)

    def test_seed_names_frequencies_by_the_jordan_partition_rule(self):
        """The seed accepts a beta exactly where jordan_partition does: near a
        defective i, the smallest singular value of M - i*beta is tiny far
        beyond the rule's radius, so a singular-value cutoff accepted 1.01 at
        a (3,-1) block, 1.05 at a (5,-1) block and 1.0000015 at an oscillator."""
        import warnings

        from hambif import EigenvalueNotFoundError, jordan_partition, odd_block_hessian

        def refused(call):
            try:
                call()
            except EigenvalueNotFoundError:
                return True
            return False

        offsets = (0.0, 1e-9, 5e-7, -5e-7, 1.5e-6, -1.5e-6, 1e-5, 1e-3, 0.01, 0.05, 0.3)
        for A, outside in ((np.eye(2), 1.5e-6), (odd_block_hessian(3, 1.0, -1), 0.01),
                           (odd_block_hessian(5, 1.0, -1), 0.05)):
            M = standard_symplectic(A.shape[0] // 2) @ A
            verdicts = []
            for beta in (1.0 + d for d in offsets):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", hambif.ConditioningWarning)
                    expected = refused(lambda: jordan_partition(M, beta))
                verdicts.append(expected)
                assert refused(lambda: seed_from_linearization(A, beta, 0.01)) == expected, (A.shape, beta)
            assert verdicts[:4] == [False] * 4 and verdicts[offsets.index(outside)], verdicts


class TestBranch:
    def test_linear_branch_is_vertical(self):
        H = PolynomialHamiltonian.from_quadratic(np.eye(2))
        seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.4))
        assert branch.termination == "amplitude_target"
        assert branch.orbits[-1].amplitude >= 0.4
        assert all(abs(o.lam - 1.0) < 1e-8 for o in branch.orbits)

    def test_quartic_branch_tracks_closed_form(self):
        H = quartic_radial()
        seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.35))
        assert len(branch.orbits) >= 5
        for orbit in branch.orbits:
            a = orbit.amplitude
            assert abs(orbit.lam - 1.0 / (1.0 + a * a)) < 1e-5

    def test_lambda_stays_positive(self):
        H = quartic_radial()
        seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.3))
        assert all(o.lam > 0.0 for o in branch.orbits)

    def test_nonpositive_predicted_lambda_halves_the_step(self, monkeypatch):
        import hambif.continuation as continuation

        # secant anchors heading down in lambda: the first prediction lands at lam < 0
        anchors = [guess([0.01, 0.0], 0.02, 0.01), guess([0.02, 0.0], 0.01, 0.02)]
        predicted = []

        def fake_correct(H, g, config, equilibrium=None, constraint=None):
            if anchors:
                return anchors.pop(0)
            predicted.append(g.lam)
            return guess(g.x0, g.lam, 1.0)

        monkeypatch.setattr(continuation, "correct_orbit", fake_correct)
        H = quartic_radial()
        seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
        config = ContinuationConfig(lambda_min=1e-6, amplitude_target=0.5)
        branch = continue_branch(H, seed, config)
        assert branch.termination == "amplitude_target"
        assert len(branch.orbits) == 3
        # h = 0.02 predicts lam = 0.01 - 0.02/sqrt(2) < 0; the halved step is accepted
        assert predicted == [pytest.approx(0.01 - 0.01 / math.sqrt(2.0))]

    def test_predictor_is_secant_through_two_and_quadratic_through_three(self):
        from hambif.continuation import _extrapolate

        def chords(points):
            return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])

        two = np.array([[0.0, 1.0], [0.3, 0.6]])
        z, tangent = _extrapolate(two, chords(two), 0.25)
        assert np.allclose(tangent, [0.6, -0.8]) and np.allclose(z, [0.45, 0.4])
        # through three points of a line the quadratic is that line
        line = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        z, tangent = _extrapolate(line, chords(line), math.sqrt(5.0))
        assert np.allclose(z, [3.0, 6.0]) and np.allclose(tangent, np.array([1.0, 2.0]) / math.sqrt(5.0))
        # on the parabola y = x^2 the quadratic lands much nearer the curve
        curve = np.array([[t, t * t] for t in (0.0, 0.05, 0.1)])
        s = chords(curve)
        off_curve = [abs(z[1] - z[0] ** 2) for z in (_extrapolate(curve, s, 0.05)[0],
                                                    _extrapolate(curve[1:], s[1:] - s[1], 0.05)[0])]
        assert off_curve[0] < 0.1 * off_curve[1]

    def test_predictor_is_cubic_through_four(self):
        from hambif.continuation import _extrapolate

        # points of the cubic z(s) = (s, s^3 - s, 2 s^2), passed with their
        # parameters s as chord lengths: the prediction and its tangent lie
        # on the cubic itself
        def cubic(s):
            return np.array([s, s ** 3 - s, 2.0 * s * s])

        s = np.array([0.0, 0.1, 0.25, 0.3])
        z, tangent = _extrapolate(np.array([cubic(v) for v in s]), s, 0.2)
        assert np.allclose(z, cubic(0.5), rtol=0.0, atol=1e-13)
        slope = np.array([1.0, 3.0 * 0.25 - 1.0, 4.0 * 0.5])
        assert np.allclose(tangent, slope / np.linalg.norm(slope), rtol=0.0, atol=1e-13)

    def test_quartic_branch_flow_budget(self, monkeypatch):
        # criterion 09's branch to amplitude 0.55, as in the branch benchmark.
        # Flows of different lengths differ in work, so the work is counted
        # in accepted steps: 1149 in 44 flows of 2 pi with full-period
        # shooting, 695 in 50 flows of pi with half-period shooting on
        # Fix(R), 375 in 48 flows, all but 2 of pi/2, with quarter-period
        # shooting after the first orbit
        import hambif.continuation as continuation

        shots = []

        def counting_flow(*args, **kwargs):
            shots.append(flow(*args, **kwargs))
            return shots[-1]

        monkeypatch.setattr(continuation, "flow", counting_flow)
        branch = continue_branch(quartic_radial(), seed_from_linearization(np.eye(2), 1.0, 0.01),
                                 ContinuationConfig(amplitude_target=0.55))
        assert branch.termination == "amplitude_target" and len(branch.orbits) == 18
        assert sum(shot.steps for shot in shots) <= 400

    def test_leaving_the_lambda_domain_ends_the_branch(self):
        # on the quartic lam = 1/(1+a^2) falls below 0.98 past a = 0.143
        config = ContinuationConfig(lambda_min=0.98, amplitude_target=0.4)
        branch = continue_branch(quartic_radial(), seed_from_linearization(np.eye(2), 1.0, 0.01), config)
        assert branch.termination == "domain_boundary"
        assert branch.orbits[-1].lam <= 0.98 < min(o.lam for o in branch.orbits[:-1])

    def test_failed_second_anchor_keeps_the_first_orbit(self, monkeypatch):
        # the quartic's branch is doubly symmetric: its first orbit goes
        # through correct_orbit, its second anchor straight to the
        # quarter-period corrector, and both through _correct_orbit
        import hambif.continuation as continuation

        guesses = []
        corrector = continuation._correct_orbit

        def first_only(H, g, *args, **kwargs):
            guesses.append(g)
            if len(guesses) > 1:
                raise CorrectorError("no convergence", residual=1.0)
            return corrector(H, g, *args, **kwargs)

        monkeypatch.setattr(continuation, "_correct_orbit", first_only)
        branch = continue_branch(quartic_radial(), seed_from_linearization(np.eye(2), 1.0, 0.01),
                                 ContinuationConfig(amplitude_target=0.3))
        assert branch.termination == "corrector_failure"
        assert len(guesses) == 2 and len(branch.orbits) == 1
        assert branch.orbits[0].residual < 1e-9

    def test_hopeless_seed_gives_empty_branch(self):
        H = PolynomialHamiltonian.from_quadratic(np.eye(2))
        bad = guess([0.05, 0.0], 0.2, 0.05)  # far off the level grid
        branch = continue_branch(H, bad, ContinuationConfig(max_corrector_iters=6))
        assert branch.termination == "corrector_failure"
        assert branch.orbits == ()

    def test_off_grid_seeding_fails_linear_system(self):
        # necessary condition: correction back to nonstationary orbits only at m/beta
        H = PolynomialHamiltonian.from_quadratic(np.eye(2))
        for lam0 in (0.37, 0.61, 1.43):
            with pytest.raises(CorrectorError):
                orbit = correct_orbit(
                    H, guess([0.1, 0.0], lam0, 0.1), ContinuationConfig(max_corrector_iters=8)
                )
                # convergence back to an on-grid level counts as failure to stay off-grid
                if abs(orbit.lam - round(orbit.lam)) > 1e-6:
                    raise CorrectorError("landed off-grid")


def with_quartic(A):
    """x^T A x / 2 + sum_i x_i^4 / 4, the test Hamiltonian of a catalogue block."""
    dim = A.shape[0]
    quartic = tuple((0.25, tuple(4 if k == i else 0 for k in range(dim))) for i in range(dim))
    return PolynomialHamiltonian(dim, PolynomialHamiltonian.from_quadratic(A).terms + quartic)


def resonant_cubic():
    """The 1:2 resonant cubic with s = +1, in (q1, q2, p1, p2): A = diag(1, 2, 1, 2)
    and C = q1^2 p2 / 2 - p1^2 p2 / 2 - q1 q2 p1."""
    return PolynomialHamiltonian(4, (
        (0.5, (2, 0, 0, 0)), (1.0, (0, 2, 0, 0)), (0.5, (0, 0, 2, 0)), (1.0, (0, 0, 0, 2)),
        (0.5, (2, 0, 0, 1)), (-0.5, (0, 0, 2, 1)), (-1.0, (1, 1, 1, 0)),
    ))


def reversor_matrix(flipped, dim):
    R = np.eye(dim)
    R[flipped, flipped] = -1.0
    return R


# the branches of the branch benchmark: Hamiltonian, frequency, amplitude target
BENCH_BRANCHES = [("quartic2", 1.0, 0.55), ("coupled4", 1.0, 0.5), ("coupled4", math.sqrt(2.0), 0.5)]


class TestHalfPeriodShooting:
    """Reversible Hamiltonians: the reversor found from the terms, the seed
    moved to Fix(R), and orbits shot over half the period."""

    @pytest.mark.parametrize("half_dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_reversor_of_every_catalogue_block(self, half_dim, epsilon):
        from hambif import BlockSpec, NormalForm, assemble_hessian

        A = assemble_hessian(NormalForm((BlockSpec(1.0, half_dim, epsilon),)))
        H = with_quartic(A)
        flipped = H._reversor
        assert flipped is not None and len(flipped) == half_dim
        # one of q_i, p_i per degree of freedom
        assert sorted(k % half_dim for k in flipped) == list(range(half_dim))
        R = reversor_matrix(flipped, H.dim)
        J = standard_symplectic(half_dim)
        assert np.array_equal(R.T @ J @ R, -J)  # anti-symplectic
        assert np.array_equal(R @ A @ R, A)
        points = np.random.default_rng(half_dim).uniform(-1.0, 1.0, (8, H.dim))
        assert np.allclose(H.value(points @ R), H.value(points), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("make, flipped", [
        (quartic_radial, [1]),  # p flipped: H is even in p
        (coupled4, [2, 3]),
        (resonant_cubic, [2, 1]),  # p1 and q2, as no term allows p2
    ], ids=["quartic2", "coupled4", "resonant_cubic"])
    def test_reversor_of_the_benchmark_and_resonant_problems(self, make, flipped):
        H = make()
        assert H._reversor.tolist() == flipped
        R = reversor_matrix(flipped, H.dim)
        points = np.random.default_rng(1).uniform(-1.0, 1.0, (8, H.dim))
        assert np.allclose(H.value(points @ R), H.value(points), rtol=1e-14, atol=1e-14)

    def test_no_reversor_when_the_terms_allow_none(self):
        # q^3 needs p flipped, q^2 p needs q flipped
        H = PolynomialHamiltonian(2, ((0.5, (2, 0)), (0.5, (0, 2)), (0.1, (3, 0)), (0.1, (2, 1))))
        assert H._reversor is None
        from hambif.continuation import _symmetric_coordinates

        assert _symmetric_coordinates(H, np.zeros(2)) is None

    def test_no_reversor_when_the_equilibrium_lies_off_fix(self):
        # (p^2 - 1)^2 / 4 + q^2 / 2 + q^3 / 3 is even in p, and q^3 allows no
        # other reversor; its elliptic equilibrium (0, 1) is not on p = 0
        from hambif.continuation import _symmetric_coordinates

        H = PolynomialHamiltonian(2, ((0.25, (0, 4)), (-0.5, (0, 2)), (0.25, (0, 0)),
                                      (0.5, (2, 0)), (1.0 / 3.0, (3, 0))))
        eq = np.array([0.0, 1.0])
        assert np.array_equal(H.gradient(eq), np.zeros(2))
        assert H._reversor.tolist() == [1]
        assert _symmetric_coordinates(H, eq) is None
        assert _symmetric_coordinates(H, np.zeros(2)).tolist() == [1]

    @pytest.mark.parametrize("name, beta, _", BENCH_BRANCHES)
    def test_half_and_full_period_shooting_agree(self, name, beta, _):
        from hambif.continuation import _correct_orbit, _seed_on_fix

        H = quartic_radial() if name == "quartic2" else coupled4()
        eq = np.zeros(H.dim)
        flipped = H._reversor
        config = ContinuationConfig()
        A = H.hessian(eq)
        for amplitude in (0.05, 0.2):
            g = _seed_on_fix(H, seed_from_linearization(A, beta, amplitude), eq, flipped)
            assert not np.any(g.x0[flipped])
            half = correct_orbit(H, g, config)
            full = _correct_orbit(H, g, config, eq, None, None)
            assert not np.any(half.x0[flipped]) and np.any(full.x0[flipped])
            assert abs(half.amplitude - full.amplitude) <= 1e-8
            assert abs(half.lam - full.lam) <= 1e-8
            assert half.residual <= config.corrector_tol and full.residual <= config.corrector_tol

    @pytest.mark.parametrize("name, beta, target", BENCH_BRANCHES)
    def test_every_orbit_of_a_symmetric_branch_closes_over_the_full_period(self, name, beta, target):
        H = quartic_radial() if name == "quartic2" else coupled4()
        branch = continue_branch(H, seed_from_linearization(H.hessian(np.zeros(H.dim)), beta, 0.01),
                                 ContinuationConfig(amplitude_target=target))
        assert branch.termination == "amplitude_target" and len(branch.orbits) >= 10
        ts = np.linspace(0.0, TWO_PI, 256)
        for orbit in branch.orbits:
            assert not np.any(orbit.x0[H._reversor])  # on Fix(R), exactly
            whole = flow(HamiltonianField(H, orbit.lam), orbit.x0, TWO_PI)
            assert np.linalg.norm(whole.endpoint - orbit.x0) <= 1e-8
            drift = np.max(np.abs(H.value(whole.solution(ts).T) - H.value(orbit.x0)))
            assert drift <= 1e-8 and orbit.energy_drift <= 1e-8
            # the half window's amplitude is the whole orbit's
            distances = np.linalg.norm(whole.solution(ts), axis=0)
            assert orbit.amplitude >= distances.max() - 1e-9

    def test_seed_point_on_fix_does_not_depend_on_the_seed_phase(self):
        """Any point of the seed's linear orbit, of either sign, gives the one
        point on Fix(R) whose first nonzero coordinate is positive."""
        from hambif.continuation import _seed_on_fix

        H = coupled4()
        eq = np.zeros(4)
        seed = seed_from_linearization(H.hessian(eq), math.sqrt(2.0), 0.01)
        d = seed.x0
        e = H.symplectic_derivatives(eq)[1] @ d * seed.lam
        points = [_seed_on_fix(H, replace(seed, x0=math.cos(t) * d + math.sin(t) * e), eq, H._reversor).x0
                  for t in np.linspace(0.0, TWO_PI, 9)]
        for x0 in points:
            assert np.allclose(x0, points[0], rtol=0.0, atol=1e-17)
        assert points[0][1] > 0.0 and not np.any(points[0][H._reversor])

    def test_seed_whose_linear_orbit_misses_fix_keeps_full_shooting(self):
        # two oscillators at frequency 1, excited a quarter period apart: the
        # momenta (p1, p2) = (0, a) cos t - (a, 0) sin t never vanish together
        from hambif.continuation import _seed_on_fix

        H = PolynomialHamiltonian.from_quadratic(np.eye(4))
        seed = guess([0.01, 0.0, 0.0, 0.01], 1.0, math.sqrt(2.0) * 0.01)
        assert H._reversor.tolist() == [2, 3]
        assert _seed_on_fix(H, seed, np.zeros(4), H._reversor) is None
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.05))
        assert branch.orbits and all(np.any(o.x0[2:]) for o in branch.orbits)

    def test_nonsemisimple_block_falls_back_to_full_shooting(self):
        """At a (3,-1) block the point of the linear orbit on Fix(R) lies
        too far from the branch for the half-period corrector; the branch is
        the one full-period shooting traces from the seed as given."""
        from hambif import odd_block_hessian
        from hambif.continuation import _correct_orbit

        A = odd_block_hessian(3, 1.0, -1)
        H = with_quartic(A)
        seed = seed_from_linearization(A, 1.0, 0.01)
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.3))
        assert branch.termination == "amplitude_target" and len(branch.orbits) >= 10
        first = _correct_orbit(H, seed, ContinuationConfig(), np.zeros(6), None, None)
        assert branch.orbits[0].x0.tobytes() == first.x0.tobytes() and branch.orbits[0].lam == first.lam

    def test_report_of_a_problem_without_reversor_is_unchanged(self):
        """Full-period shooting, byte for byte: the sha256 of this report as
        taken before half-period shooting existed."""
        import hashlib

        from hambif import emit_report, parse_problem, run_analysis

        H = PolynomialHamiltonian(2, ((0.5, (2, 0)), (0.5, (0, 2)), (0.1, (3, 0)), (0.1, (2, 1))))
        eq = Equilibrium(point=np.zeros(2), hessian=H.hessian(np.zeros(2)))
        spec = ProblemSpec(dim=2, equilibria=(eq,), hamiltonian=H,
                           options=AnalysisOptions(continuation=ContinuationConfig(amplitude_target=0.2)))
        text = emit_report(run_analysis(parse_problem(emit_problem(spec))))
        assert '"orbit_count": 9' in text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "72090dc3d3cadf93aad9b612632db32797082fa4062b67cec201694661b69cf7"


# the branch of every catalogue block of half-dim 2-5, with sum x_i^4 / 4,
# traced from seed_from_linearization(A, 1.0, 0.01) to amplitude 0.3: the
# termination, the orbit count and the sha256 of the orbits' x0, lam and
# drift bytes, taken before quarter-period shooting existed
CATALOGUE_BRANCHES = {
    (2, +1): ("corrector_failure", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, -1): ("amplitude_target", 13, "67805bda1d2d12663493e1afe9bbe6f24609fb96035d15933f0cde93820fa4d4"),
    (3, +1): ("amplitude_target", 14, "2bccddfde9a77edb14bacf34c06429dc1dfcff3b41c98f7025eb65f16a7066ad"),
    (3, -1): ("amplitude_target", 18, "9986b838191afa1ad3a38a4921b2004039017c895d90fb8a25d11b0768c8ccec"),
    (4, +1): ("corrector_failure", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, -1): ("amplitude_target", 14, "afec4a2337fe28a041cfc2967d0d8f4eb9a480eb8b465d27b31071c4f91812ad"),
    (5, +1): ("corrector_failure", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, -1): ("corrector_failure", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def flow_lengths(monkeypatch):
    """The lengths T of the flows that continuation makes from now on."""
    import hambif.continuation as continuation

    lengths = []

    def recording_flow(field, x0, T, **kwargs):
        lengths.append(T)
        return flow(field, x0, T, **kwargs)

    monkeypatch.setattr(continuation, "flow", recording_flow)
    return lengths


class TestQuarterPeriodShooting:
    """Even reversible Hamiltonians at the origin: -R is a second reversor,
    and a branch whose first orbit crosses Fix(-R) at pi/2 is shot over a
    quarter of the period from its second orbit on."""

    @pytest.mark.parametrize("half_dim, epsilon", sorted(CATALOGUE_BRANCHES))
    def test_catalogue_branches_are_unchanged(self, half_dim, epsilon):
        """Without the level guard, quarter-period Newton from the seed sends
        the (2,-1), (3,+1), (4,-1) and (5,-1) branches to first orbits at lam
        3.03, 2.88, 2.75 and 2.61, a 3-fold cover filed under beta0 = 1.
        With it every branch is
        the one traced before, byte for byte, and each traced branch starts
        within 15 % of the level 1/beta0."""
        import hashlib

        from hambif import BlockSpec, NormalForm, assemble_hessian

        beta0 = 1.0
        A = assemble_hessian(NormalForm((BlockSpec(beta0, half_dim, epsilon),)))
        branch = continue_branch(with_quartic(A), seed_from_linearization(A, beta0, 0.01),
                                 ContinuationConfig(amplitude_target=0.3))
        digest = hashlib.sha256(b"".join(o.x0.tobytes() + np.float64(o.lam).tobytes()
                                         + np.float64(o.energy_drift).tobytes()
                                         for o in branch.orbits)).hexdigest()
        assert (branch.termination, len(branch.orbits), digest) == CATALOGUE_BRANCHES[half_dim, epsilon]
        if branch.orbits:
            assert abs(branch.orbits[0].lam - 1.0 / beta0) <= 0.15 / beta0

    def test_quartic_branch_shoots_quarter_periods_after_its_first_orbit(self, monkeypatch):
        import hambif.continuation as continuation

        lengths = flow_lengths(monkeypatch)
        first_orbit_flows = []

        def recording_correct_orbit(*args, **kwargs):
            orbit = correct_orbit(*args, **kwargs)
            first_orbit_flows.append(len(lengths))
            return orbit

        monkeypatch.setattr(continuation, "correct_orbit", recording_correct_orbit)
        branch = continue_branch(quartic_radial(), seed_from_linearization(np.eye(2), 1.0, 0.01),
                                 ContinuationConfig(amplitude_target=0.55))
        assert branch.termination == "amplitude_target" and len(branch.orbits) == 18
        # correct_orbit corrects the first orbit alone, over half the period
        assert len(first_orbit_flows) == 1
        k = first_orbit_flows[0]
        assert k >= 1 and lengths[:k] == [math.pi] * k
        # the guard's one flow, then the quarter-period corrector's
        assert len(lengths) > k + 17 and lengths[k:] == [0.5 * math.pi] * (len(lengths) - k)
        for orbit in branch.orbits:
            assert not np.any(orbit.x0[1])  # on Fix(R), p = 0 exactly
            assert abs(orbit.lam - 1.0 / (1.0 + orbit.amplitude ** 2)) <= 1e-9
            assert orbit.residual <= 1e-9 * min(1.0, float(np.linalg.norm(orbit.x0)))

    def test_odd_reversible_hamiltonian_keeps_half_period_shooting(self, monkeypatch):
        """(q^2 + p^2)/2 + q^3/3 has the reversor p -> -p but is not even:
        every flow is a half period, and the report's sha256 is the one taken
        before quarter-period shooting existed."""
        import hashlib

        from hambif import emit_report, parse_problem, run_analysis

        H = PolynomialHamiltonian(2, ((0.5, (2, 0)), (0.5, (0, 2)), (1.0 / 3.0, (3, 0))))
        assert H._reversor.tolist() == [1]
        lengths = flow_lengths(monkeypatch)
        eq = Equilibrium(point=np.zeros(2), hessian=H.hessian(np.zeros(2)))
        spec = ProblemSpec(dim=2, equilibria=(eq,), hamiltonian=H,
                           options=AnalysisOptions(continuation=ContinuationConfig(amplitude_target=0.2)))
        text = emit_report(run_analysis(parse_problem(emit_problem(spec))))
        assert '"orbit_count": 9' in text
        assert lengths and set(lengths) == {math.pi}
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "2f909922b30f5d4144390e260a0b0c4d169a87aa24e50df01a94496f5fe34cec"

    def test_family_repeating_after_half_the_period_keeps_half_period_shooting(self, monkeypatch):
        """At lam = 1 the frequency-2 oscillator's orbits close after pi, so
        the first orbit meets Fix(R) again at pi/2, not Fix(-R): the guard
        refuses the quarter system, and the branch stays on the half one."""
        lengths = flow_lengths(monkeypatch)
        H = PolynomialHamiltonian.from_quadratic(2.0 * np.eye(2))
        branch = continue_branch(H, guess([0.01, 0.0], 1.0, 0.01), ContinuationConfig(amplitude_target=0.1))
        assert branch.termination == "amplitude_target" and len(branch.orbits) >= 5
        assert all(abs(o.lam - 1.0) < 1e-8 for o in branch.orbits)
        assert lengths.count(0.5 * math.pi) == 1  # the guard's one flow
        assert all(T == math.pi for T in lengths if T != 0.5 * math.pi)

    def test_equilibrium_off_the_origin_keeps_half_period_shooting(self, monkeypatch):
        """-R fixes the origin alone, so a branch about another equilibrium
        is shot over half the period, even when H is even: here the double
        well (q^2 - 1)^2 / 4 + p^2 / 2 about its minimum (1, 0)."""
        lengths = flow_lengths(monkeypatch)
        H = PolynomialHamiltonian(2, ((0.25, (4, 0)), (-0.5, (2, 0)), (0.25, (0, 0)), (0.5, (0, 2))))
        eq = np.array([1.0, 0.0])
        branch = continue_branch(H, seed_from_linearization(H.hessian(eq), math.sqrt(2.0), 0.01, eq),
                                 ContinuationConfig(amplitude_target=0.2), eq)
        assert branch.termination == "amplitude_target" and len(branch.orbits) >= 5
        assert all(o.x0[1] == 0.0 for o in branch.orbits)
        assert lengths and set(lengths) == {math.pi}


class TestPeriodChecks:
    def test_verify_period_limit_quartic(self):
        H = quartic_radial()
        seed = seed_from_linearization(np.eye(2), 1.0, 0.01)
        branch = continue_branch(H, seed, ContinuationConfig(amplitude_target=0.3))
        assert verify_period_limit(branch, 1.0, 0.02 * TWO_PI, 0.1)
        assert not verify_period_limit(branch, 2.0, 0.02 * TWO_PI, 0.1)

    def test_verify_every_orbit_on_linear_branch(self):
        H = PolynomialHamiltonian.from_quadratic(np.eye(2))
        branch = continue_branch(
            H, seed_from_linearization(np.eye(2), 1.0, 0.01),
            ContinuationConfig(amplitude_target=0.2),
        )
        assert verify_period_limit(branch, 1.0, 1e-6, math.inf)

    def test_no_small_orbit_verifies_nothing(self):
        """An empty branch, or one whose orbits all lie at or above delta,
        has no small orbit whose period could approach 2*pi/beta0."""
        assert verify_period_limit(hambif.Branch(orbits=(), termination="corrector_failure"),
                                   1.0, 0.02 * TWO_PI, 0.1) is False
        orbits = tuple(guess([a, 0.0], 1.0, a) for a in (0.1, 0.2))
        branch = hambif.Branch(orbits=orbits, termination="amplitude_target")
        assert verify_period_limit(branch, 1.0, 0.02 * TWO_PI, 0.1) is False
        assert verify_period_limit(branch, 1.0, 0.02 * TWO_PI, 0.15) is True


class TestOrbitInvariants:
    def test_energy_drift_bound_on_branch(self):
        H = quartic_radial()
        branch = continue_branch(
            H, seed_from_linearization(np.eye(2), 1.0, 0.01),
            ContinuationConfig(amplitude_target=0.3),
        )
        cfg = ContinuationConfig()
        for orbit in branch.orbits:
            assert orbit.residual <= cfg.corrector_tol
            assert orbit.energy_drift <= 10.0 * cfg.integrator_atol * (1.0 + abs(H.value(orbit.x0)))

    def test_accuracy_headroom_on_quartic_branch(self):
        # the acceptance bounds are 1e-5 on lambda and 1e-8 on drift; the
        # shooting layer holds both with orders of magnitude to spare
        H = quartic_radial()
        branch = continue_branch(
            H, seed_from_linearization(np.eye(2), 1.0, 0.01),
            ContinuationConfig(amplitude_target=0.35),
        )
        assert branch.termination == "amplitude_target"
        assert branch.orbits[-1].amplitude >= 0.35
        lam_error = max(abs(o.lam - 1.0 / (1.0 + o.amplitude ** 2)) for o in branch.orbits)
        assert lam_error < 1e-9
        assert max(o.energy_drift for o in branch.orbits) < 1e-10

    def test_reintegration_consistency(self):
        H = quartic_radial()
        orbit = correct_orbit(H, guess([0.3, 0.0], 0.9, 0.3))
        field = HamiltonianField(H, orbit.lam)
        coarse = flow(field, orbit.x0, TWO_PI, rtol=1e-8, atol=1e-8)
        fine = flow(field, orbit.x0, TWO_PI, rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(coarse.endpoint - fine.endpoint) < 1e-7
