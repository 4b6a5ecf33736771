import dataclasses
import math
import re
import time

import numpy as np
import pytest

from hambif import (
    DEFAULT_TOL,
    BlockSpec,
    DegeneracyError,
    NormalForm,
    assemble_hessian,
    bifurcation_index,
    block_counts,
    brouwer_nondegenerate,
    brouwer_planar,
    check_classical_assumptions,
    check_main_condition,
    even_block_hessian,
    gamma_block,
    gamma_jump,
    isolation_radius,
    jordan_partition,
    lambda_set,
    morse_index,
    nonresonance_and_branch_count,
    odd_block_hessian,
    random_symplectic,
    seed_from_linearization,
    spectral_summary,
    standard_symplectic,
    structural_decomposition,
)
from hambif.bifurcation import MAX_LEVELS, _doubled_morse_index, _linearize
from hambif.spectral import Linearization
from hambif.linalg import random_symmetric
from hambif.errors import (
    DecompositionError,
    EigenvalueNotFoundError,
    LevelCountError,
    PlanarDegreeError,
    StructureError,
)

from conftest import conjugated_pair, random_normal_form, signature, squeezed_readme_example, t_matrix
from frontier import frontier


def oscillators(*betas):
    """Hessian whose linearization has simple frequencies at the given betas."""
    return assemble_hessian(NormalForm(tuple(BlockSpec(b, 1, -1) for b in betas)))


# the eight public functions that take a Hessian A, each at the frequency 1
HESSIAN_ENTRIES = pytest.mark.parametrize("call", [
    lambda A, tol=DEFAULT_TOL: brouwer_nondegenerate(A, tol),
    lambda A, tol=DEFAULT_TOL: lambda_set(A, 2.0, tol),
    lambda A, tol=DEFAULT_TOL: gamma_jump(A, 1.0, tol),
    lambda A, tol=DEFAULT_TOL: bifurcation_index(A, 1, 1.0, tol=tol),
    lambda A, tol=DEFAULT_TOL: check_classical_assumptions(A, tol),
    lambda A, tol=DEFAULT_TOL: nonresonance_and_branch_count(A, brouwer_nondegenerate(A, tol), tol),
    lambda A, tol=DEFAULT_TOL: check_main_condition(A, 1, 1.0, tol),
    lambda A, tol=DEFAULT_TOL: seed_from_linearization(A, 1.0, 0.1, tol=tol),
], ids=["brouwer_nondegenerate", "lambda_set", "gamma_jump", "bifurcation_index",
        "check_classical_assumptions", "nonresonance_and_branch_count", "check_main_condition",
        "seed_from_linearization"])


class TestTMatrix:
    def test_closed_form_eigenvalues(self):
        T = t_matrix(0.5, np.eye(2))
        assert np.allclose(np.sort(np.linalg.eigvalsh(T)), [-1.5, -1.5, 0.5, 0.5])

    def test_degenerate_at_characteristic_level(self):
        assert abs(np.linalg.det(t_matrix(1.0 / 0.7, 0.7 * np.eye(2)))) < 1e-9

    def test_symmetric(self, rng):
        A = rng.uniform(-1, 1, (6, 6))
        A = 0.5 * (A + A.T)
        T = t_matrix(1.7, A)
        assert np.array_equal(T, T.T)


class TestLambdaSet:
    def test_two_frequencies(self):
        ls = lambda_set(oscillators(1.0, 2.0), 2.5)
        assert np.allclose(ls.points, [0.5, 1.0, 1.5, 2.0, 2.5])

    def test_single_frequency(self):
        ls = lambda_set(np.eye(2), 3.0)
        assert np.allclose(ls.points, [1.0, 2.0, 3.0])

    def test_no_imaginary_spectrum(self):
        ls = lambda_set(np.diag([1.0, -1.0]), 5.0)
        assert ls.points == ()

    def test_sources_recorded(self):
        ls = lambda_set(oscillators(1.0, 2.0), 2.5)
        betas = sorted(round(b, 6) for b, _ in ls.source_betas)
        assert betas == [1.0, 2.0]
        for beta, ms in ls.source_betas:
            assert list(ms) == list(range(1, len(ms) + 1))


    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_levels_refused(self, value):
        """A level that is not finite is refused by the argument's name, not
        by an OverflowError or numpy's NaN-to-integer error; an infinite
        lambda_max keeps its LevelCountError."""
        with pytest.raises(ValueError, match="lambda0 must be finite"):
            bifurcation_index(np.eye(2), 1, value)
        with pytest.raises(ValueError, match="level must be finite"):
            isolation_radius(value, [1.0])
        if math.isnan(value):
            with pytest.raises(ValueError, match="lambda_max must be positive"):
                lambda_set(np.eye(2), value)
        else:
            with pytest.raises(LevelCountError):
                lambda_set(np.eye(2), value)

    def test_levels_counted_before_any_is_built(self):
        # MAX_LEVELS levels are built; one more, or a billion, is refused at once
        assert len(lambda_set(np.eye(2), MAX_LEVELS + 0.5).points) == MAX_LEVELS
        for lambda_max in (MAX_LEVELS + 1.0, 1e9, 1.7e308):  # 2 * 1.7e308 overflows
            start = time.perf_counter()
            with pytest.raises(LevelCountError, match="candidate levels"):
                lambda_set(oscillators(1.0, 2.0), lambda_max)
            assert time.perf_counter() - start < 1.0

class TestChooseMu:
    """The isolation radius mu around a candidate level."""

    def test_single_frequency(self):
        ls = lambda_set(np.eye(2), 3.0)
        assert isolation_radius(1.0, ls.betas) == pytest.approx(0.5)

    def test_two_frequencies(self):
        ls = lambda_set(oscillators(1.0, 2.0), 3.0)
        assert isolation_radius(1.0, ls.betas) == pytest.approx(0.25)

    def test_dense_grid(self):
        ls = lambda_set(oscillators(1.0, 10.0), 3.0)
        assert isolation_radius(1.0, ls.betas) == pytest.approx(0.05)

    def test_rejects_off_grid(self):
        with pytest.raises(ValueError, match="not a candidate level"):
            bifurcation_index(np.eye(2), 1, 1.37)

    def test_computed_beyond_truncation(self):
        # nearest neighbour of lambda0=3 is 4, beyond lambda_max: still exact
        ls = lambda_set(np.eye(2), 3.0)
        assert isolation_radius(3.0, ls.betas) == pytest.approx(0.5)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_frequency_that_is_not_positive_and_finite_refused(self, beta):
        """Refused by name, not by a ZeroDivisionError, an OverflowError,
        numpy's NaN-to-integer error or an infinite radius."""
        with pytest.raises(ValueError, match=f"frequency {beta} in betas must be positive and finite"):
            isolation_radius(1.0, [1.0, beta])

    @pytest.mark.parametrize("empty", [[], (), np.array([])], ids=["list", "tuple", "array"])
    def test_any_sequence_of_frequencies(self, empty):
        """An empty sequence of any kind is refused by name, and a numpy array
        gives the radius of the same frequencies as a tuple, not numpy's
        ambiguous truth value."""
        with pytest.raises(ValueError, match="no frequencies"):
            isolation_radius(1.0, empty)
        radius = isolation_radius(1.0, (1.0, 2.0))
        assert radius == 0.25
        assert isolation_radius(1.0, np.array([1.0, 2.0])) == radius
        assert isolation_radius(1.0, [1.0, 2.0]) == radius


class TestGammaJump:
    def test_oscillator(self):
        assert gamma_jump(np.eye(2), 1.0) == 2

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_odd_blocks_closed_form(self, n, eps):
        A = odd_block_hessian(n, 1.0, eps)
        assert gamma_jump(A, 1.0) == 2 * (-1) ** (((n + 1) // 2) % 2) * eps

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_even_blocks_vanish(self, n, eps):
        assert gamma_jump(even_block_hessian(n, 1.0, eps), 1.0) == 0

    def test_always_even(self, rng):
        for trial in range(15):
            nf = random_normal_form(rng, max_total_half_dim=5)
            A = assemble_hessian(nf)
            for beta in sorted({b.beta for b in nf.blocks}):
                assert gamma_jump(A, beta) % 2 == 0

    def test_off_centre_frequency_reads_the_spectrum_level(self):
        """A beta0 within the spectrum's tolerance but off its frequency jumps
        across the frequency's level, and both routes then agree."""
        assert gamma_jump(np.eye(2), 1.0 + 1e-8) == 2
        report = check_main_condition(np.eye(2), 1, 1.0 + 1e-8)
        assert (report.gamma, report.routes_agree) == (2, True)

    @pytest.mark.parametrize("refused_radii", [(1.0,), (1.0, 0.5)])
    def test_refused_radius_is_retried_once_at_half(self, refused_radii, monkeypatch):
        """The jump across lam0 = 1 is read at the isolation radius mu, and
        once more at mu / 2 when a count at lam0 +- mu is refused."""
        import hambif.bifurcation as bif

        lam0 = 1.0
        mu = isolation_radius(lam0, [1.0])
        doubled, asked, counts = bif._doubled_morse_index, [], []

        def refusing(A, lam, tol):
            asked.append(lam)
            if any(abs(abs(lam - lam0) - r * mu) < 1e-12 for r in refused_radii):
                raise DegeneracyError("morse_index: eigenvalue inside the zero band")
            counts.append(doubled(A, lam, tol))
            return counts[-1]

        monkeypatch.setattr(bif, "_doubled_morse_index", refusing)
        if len(refused_radii) == 2:
            with pytest.raises(DegeneracyError):
                gamma_jump(np.eye(2), 1.0)
            assert asked == pytest.approx([lam0 + mu, lam0 + mu / 2])
            return
        gamma = gamma_jump(np.eye(2), 1.0)
        assert asked == pytest.approx([lam0 + mu, lam0 + mu / 2, lam0 - mu / 2])
        assert gamma == counts[0] - counts[1] == 2

    def test_higher_index_resonance(self):
        # the level-2 family jumps across lam = 1 as T does across 1/2
        A = oscillators(1.0, 2.0)
        assert gamma_jump(A, 2.0) == 2  # beta=2 block seen by the j=2 family
        assert bifurcation_index(oscillators(1.0), 1, 1.0, j_max=2).coordinate(2) == 0


class TestGammaBlock:
    @pytest.mark.parametrize(
        "n,eps,value",
        [(5, -1, 2), (3, 1, 2), (4, 1, 0), (4, -1, 0), (1, -1, 2), (1, 1, -2), (7, -1, -2)],
    )
    def test_closed_form(self, n, eps, value):
        assert gamma_block(BlockSpec(1.0, n, eps)) == value

    def test_five_group_values(self):
        groups = [
            BlockSpec(1.0, 1, +1),   # level odd, eps +
            BlockSpec(1.0, 1, -1),   # level odd, eps -
            BlockSpec(1.0, 3, +1),   # level even, eps +
            BlockSpec(1.0, 3, -1),   # level even, eps -
            BlockSpec(1.0, 2, +1),   # even half_dim
        ]
        assert [gamma_block(b) for b in groups] == [-2, 2, 2, -2, 0]

    def test_matches_morse_route(self):
        for n in (1, 3, 5):
            for eps in (1, -1):
                A = odd_block_hessian(n, 1.0, eps)
                assert gamma_block(BlockSpec(1.0, n, eps)) == 2 * (morse_index(-A) - n)


class TestBrouwer:
    def test_identity(self):
        assert brouwer_nondegenerate(np.eye(4)) == 1

    def test_saddle(self):
        assert brouwer_nondegenerate(np.diag([1.0, -1.0])) == -1

    def test_worked_example_hessian(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        assert brouwer_nondegenerate(assemble_hessian(nf)) == 1

    def test_degenerate_raises(self):
        with pytest.raises(DegeneracyError):
            brouwer_nondegenerate(np.diag([1.0, 0.0]))

    def test_planar_identity(self):
        assert brouwer_planar(lambda p: p, (0.0, 0.0), 0.8) == 1

    def test_planar_squaring(self):
        field = lambda p: np.array([p[0] ** 2 - p[1] ** 2, 2.0 * p[0] * p[1]])
        assert brouwer_planar(field, (0.0, 0.0), 1.0) == 2

    def test_planar_reflection(self):
        assert brouwer_planar(lambda p: np.array([p[0], -p[1]]), (0.0, 0.0), 1.0) == -1

    def test_planar_vanishing_field(self):
        with pytest.raises(PlanarDegreeError):
            brouwer_planar(lambda p: np.zeros(2), (0.0, 0.0), 1.0)

    @pytest.mark.parametrize("center, radius, match", [
        ((0.0, 0.0), math.nan, "radius"), ((0.0, 0.0), math.inf, "radius"),
        ((math.nan, 0.0), 1.0, "center"), ((0.0, -math.inf), 1.0, "center"),
    ], ids=["nan-radius", "inf-radius", "nan-center", "inf-center"])
    def test_planar_non_finite_circle_refused_before_sampling(self, center, radius, match):
        calls = []

        def grad(p):
            calls.append(p)
            return p

        with pytest.raises(ValueError, match=match):
            brouwer_planar(grad, center, radius)
        assert calls == []

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_planar_non_finite_field_refused_at_the_first_sampling(self, value):
        """Neither a made-up degree nor a doubling of the sampling up to its cap."""
        calls = []

        def grad(p):
            calls.append(p)
            return np.array([value, 1.0])

        with pytest.raises(PlanarDegreeError, match="field is not finite"):
            brouwer_planar(grad, (0.0, 0.0), 0.1)
        assert len(calls) == 64

    @pytest.mark.parametrize("field, shape", [
        (lambda p: np.array([p[0], p[1], 5.0]), "(3,)"),
        (lambda p: np.array([p[0]]), "(1,)"),
    ], ids=["3-vector", "1-vector"])
    def test_planar_field_of_another_shape_refused_at_the_first_sampling(self, field, shape):
        """A 3-vector field is not read as its first two components (whose
        winding number is 1 here), and a 1-vector field raises no bare
        IndexError: both are refused, naming the shape, after one sampling."""
        calls = []

        def grad(p):
            calls.append(p)
            return field(p)

        with pytest.raises(PlanarDegreeError, match=re.escape(f"got shape {shape}")):
            brouwer_planar(grad, (0.0, 0.0), 0.5)
        assert len(calls) == 64


# frequencies 1, 2 and 3, the last on a nonsemisimple block
_ONE_TWO_THREE = assemble_hessian(NormalForm((
    BlockSpec(1.0, 1, -1), BlockSpec(2.0, 1, -1), BlockSpec(3.0, 3, +1))))


def _index_by_scanning_j(A, brouwer, lambda0, j_max=None):
    """The index by its definition: for each j <= j_max, the frequency b
    nearest lambda0/j = 1/b contributes when it lies within the band.
    Returns (entries, j_max, truncated)."""
    betas = spectral_summary(standard_symplectic(A.shape[0] // 2) @ A).betas
    if j_max is None:
        j_max = math.ceil(max(betas) / min(betas)) + 1
    band = DEFAULT_TOL.zero_band(max(1.0, lambda0))
    nearest = min(abs(lambda0 - m / b) for b in betas
                  for m in range(max(1, math.floor(lambda0 * b) - 1), math.ceil(lambda0 * b) + 2))
    if nearest > band:
        raise ValueError(f"lambda0={lambda0} is off the grid")
    entries = []
    if brouwer != 0:
        for j in range(1, j_max + 1):
            b = min(betas, key=lambda c: abs(lambda0 / j - 1.0 / c))
            if abs(lambda0 / j - 1.0 / b) <= band and gamma_jump(A, b) != 0:
                entries.append((j, brouwer * gamma_jump(A, b)))
    truncated = any(b * lambda0 > j_max + band for b in betas)
    return tuple(entries), j_max, truncated


class TestEtaAndIndex:
    def test_eta_fundamental(self):
        assert bifurcation_index(np.eye(2), 1, 1.0, j_max=2).coordinate(1) == 2

    def test_eta_off_resonance(self):
        assert bifurcation_index(np.eye(2), 1, 1.0, j_max=2).coordinate(2) == 0

    def test_eta_linearity_in_brouwer(self):
        assert bifurcation_index(np.eye(2), -1, 1.0, j_max=2).coordinate(1) == -2

    def test_index_oscillator(self):
        bif = bifurcation_index(np.eye(2), 1, 1.0, j_max=5)
        assert dict(bif.entries) == {1: 2}
        assert not bif.truncated

    @pytest.mark.parametrize("brouwer", [1, -1])
    def test_coordinates_are_frequency_jumps(self, brouwer):
        """eta_j at lambda0 = 1 is the Brouwer-weighted jump at beta = j."""
        A = oscillators(1.0, 2.0, 3.0, 5.0)
        bif = bifurcation_index(A, brouwer, 1.0)
        for j in (1, 2, 3, 5):
            assert bif.coordinate(j) == brouwer * gamma_jump(A, float(j)) != 0
        assert bif.coordinate(4) == 0

    def test_index_two_frequencies(self):
        A = oscillators(1.0, 2.0)
        bif = bifurcation_index(A, 1, 1.0, j_max=5)
        assert dict(bif.entries) == {1: 2, 2: 2}

    def test_zero_brouwer_gives_trivial(self):
        bif = bifurcation_index(oscillators(1.0, 2.0), 0, 1.0, j_max=4)
        assert bif.is_trivial

    def test_work_does_not_grow_with_j_max(self):
        start = time.perf_counter()
        bif = bifurcation_index(np.eye(2), 1, 1.0, 10**7)
        assert bif.entries == ((1, 2),)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("brouwer", [-1, 0, 1])
    @pytest.mark.parametrize("j_max", [1, 2, 3, 6, None])
    @pytest.mark.parametrize("lambda0", [1.0, 1 / 2, 1 / 3, 3 / 2, 2.0, 0.7])
    def test_agrees_with_the_scan_over_j(self, lambda0, j_max, brouwer):
        """One jump per frequency gives the index a scan of every j <= j_max gives."""
        A = _ONE_TWO_THREE
        try:
            expected = _index_by_scanning_j(A, brouwer, lambda0, j_max)
        except ValueError:
            with pytest.raises(ValueError, match="not a candidate level"):
                bifurcation_index(A, brouwer, lambda0, j_max)
            return
        bif = bifurcation_index(A, brouwer, lambda0, j_max)
        assert (bif.entries, bif.j_max, bif.truncated) == expected

    def test_truncation_flag(self):
        A = oscillators(1.0, 5.0)
        bif = bifurcation_index(A, 1, 1.0, j_max=2)
        assert bif.truncated
        full = bifurcation_index(A, 1, 1.0)  # default j_max covers everything
        assert not full.truncated
        assert dict(full.entries)[5] != 0


class TestMainCondition:
    def test_worked_example(self):
        nf = NormalForm((BlockSpec(1.0, 5, -1), BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, +1)))
        A = assemble_hessian(nf)
        report = check_main_condition(A, brouwer_nondegenerate(A), 1.0)
        assert report.kappa == -2
        assert report.gamma == 4
        assert report.brouwer == 1
        assert report.condition_holds is True
        assert report.routes_agree is True

    def test_cancelling_pair_fails(self):
        nf = NormalForm((BlockSpec(1.0, 1, +1), BlockSpec(1.0, 1, -1)))
        A = assemble_hessian(nf)
        report = check_main_condition(A, brouwer_nondegenerate(A), 1.0)
        assert report.kappa == 0 and report.gamma == 0
        assert report.condition_holds is False

    def test_positive_definite_always_holds(self, rng):
        for trial in range(8):
            dim = 2 * int(rng.integers(1, 4))
            Q = rng.normal(size=(dim, dim))
            A = Q @ Q.T + 0.3 * np.eye(dim)
            M = standard_symplectic(dim // 2) @ A
            for ev in spectral_summary(M).imaginary:
                report = check_main_condition(A, brouwer_nondegenerate(A), ev.beta)
                assert report.condition_holds is True
                assert report.gamma == 2 * report.counts.o_minus > 0

    def test_unknown_brouwer_is_undetermined(self):
        report = check_main_condition(np.eye(2), None, 1.0)
        assert report.condition_holds is None
        assert report.gamma == 2

    @pytest.mark.parametrize("brouwer, j_max, match", [
        (math.nan, None, "brouwer must be an integer"),
        (0.5, None, "brouwer must be an integer"),
        (True, None, "brouwer must be an integer"),
        (1.0, None, "brouwer must be an integer"),
        (1, math.nan, "j_max must be a positive integer"),
        (1, 2.5, "j_max must be a positive integer"),
        (1, True, "j_max must be a positive integer"),
        (1, math.inf, "j_max must be a positive integer"),
        (1, 0, "j_max must be a positive integer"),
    ])
    def test_index_that_is_not_an_integer_refused(self, brouwer, j_max, match):
        """A Brouwer index or a truncation that is not an integer would make a
        verdict up or silently lift the truncation."""
        with pytest.raises(ValueError, match=match):
            bifurcation_index(np.eye(2), brouwer, 1.0, j_max)
        if j_max is None:
            with pytest.raises(ValueError, match=match):
                check_main_condition(np.eye(2), brouwer, 1.0)

    def test_numpy_integers_accepted(self):
        assert check_main_condition(np.eye(2), np.int64(-1), 1.0).condition_holds is True
        assert bifurcation_index(np.eye(2), np.int32(1), 1.0, np.int64(2)).entries == ((1, 2),)


class TestOneFrequencyRule:
    """Every reader names a frequency by the spectral module's one rule: the
    nearest confirmed cluster within max(band, 1e-6 * beta)."""

    @pytest.mark.parametrize("offset", [1e-8, 1e-7, 5e-7])
    def test_both_routes_near_a_frequency(self, offset):
        report = check_main_condition(np.eye(2), 1, 1.0 + offset)
        assert report.gamma == 2
        assert report.routes_agree is True

    def test_partition_within_the_relative_radius(self):
        M = standard_symplectic(3) @ odd_block_hessian(3, 1.0, -1)
        assert jordan_partition(M, 1.0 + 5e-7) == (3,)

    def test_every_reader_refuses_beyond_it(self):
        """Also a beta that is not finite, whose relative radius is infinite."""
        for beta in (1.0 + 2e-6, math.inf):
            with pytest.raises(EigenvalueNotFoundError):
                jordan_partition(standard_symplectic(1), beta)
            with pytest.raises(EigenvalueNotFoundError):
                gamma_jump(np.eye(2), beta)
            with pytest.raises(EigenvalueNotFoundError):
                check_main_condition(np.eye(2), 1, beta)

    def test_report_carries_its_blocks(self):
        nf = NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.0, 2, -1), BlockSpec(1.0, 1, -1)))
        A = assemble_hessian(nf)
        report = check_main_condition(A, 1, 1.0)
        assert [(b.half_dim, b.epsilon) for b in report.blocks] == [(3, 1), (2, -1), (1, -1)]
        assert report.counts == block_counts(report.blocks, 1.0)


class TestCrossRouteIdentity:
    def test_component_level(self, rng):
        # the full 100-case sweep lives in the acceptance suite
        from conftest import conjugated_pair

        for trial in range(20):
            nf = random_normal_form(rng, max_total_half_dim=6)
            Mc, Ac = conjugated_pair(nf, seed=900 + trial, scale=0.5)
            for beta in sorted({b.beta for b in nf.blocks}):
                from hambif import block_counts

                kappa = block_counts(nf.blocks, beta).kappa
                assert gamma_jump(Ac, beta) == -2 * kappa


class TestSymplecticInvariance:
    def test_morse_index_of_t_matrix(self, rng):
        """Symplectic invariance, and the real-form identity the Morse jump
        reads: m^-(T(lam)) is twice the count of H(lam) = -lam A - iJ."""

        def hermitian_count(lam, A):
            return _doubled_morse_index(0.5 * (A + A.T), lam, DEFAULT_TOL)

        def count(lam, A):
            index = morse_index(t_matrix(lam, A))
            assert index == hermitian_count(lam, A)
            assert index % 2 == 0
            return index

        for trial in range(25):
            nf = random_normal_form(rng, max_total_half_dim=5)
            A = assemble_hessian(nf)
            N = A.shape[0] // 2
            S = random_symplectic(N, seed=700 + trial, scale=0.5)
            betas = sorted({b.beta for b in nf.blocks})
            lam = 0.37 / max(betas)  # safely off every level m/beta
            assert count(lam, S.T @ A @ S) == count(lam, A)
        for dim in (2, 4, 6, 10, 16, 32, 64):
            A = random_symmetric(dim, seed=dim)
            w = np.linalg.eigvals(standard_symplectic(dim // 2) @ A)
            # off the levels: the lam whose i/lam lies farthest from the spectrum of J A
            lam = max(np.linspace(0.2, 3.0, 15), key=lambda lam: np.min(np.abs(w - 1j / lam)))
            count(lam, A)
        block = odd_block_hessian(3, 1.0, -1)
        for lam in (0.8, 1.25):
            count(lam, block)
        # on a level both sit inside the band
        message = r"morse_index: eigenvalue .* inside the zero band \(\+-"
        for lam, A in ((1.0, block), (1.0 / 0.7, oscillators(0.7))):
            with pytest.raises(DegeneracyError, match=message):
                morse_index(t_matrix(lam, A))
            with pytest.raises(DegeneracyError, match=message):
                hermitian_count(lam, A)


class TestAdditivity:
    def test_morse_sum_over_blocks(self):
        blocks = (BlockSpec(1.0, 3, +1), BlockSpec(1.0, 1, -1), BlockSpec(1.0, 2, -1))
        nf = NormalForm(blocks)
        A = assemble_hessian(nf)
        betas = [1.0]
        from hambif import isolation_radius

        mu = isolation_radius(1.0, betas)
        for lam in (1.0 - mu, 1.0 + mu):
            total = morse_index(t_matrix(lam, A))
            parts = sum(
                morse_index(t_matrix(lam, odd_block_hessian(b.half_dim, b.beta, b.epsilon)
                                     if b.half_dim % 2
                                     else even_block_hessian(b.half_dim, b.beta, b.epsilon)))
                for b in blocks
            )
            assert total == parts

    def test_side_of_jump_values(self):
        for n in (1, 3, 5):
            for eps in (1, -1):
                A = odd_block_hessian(n, 2.0, eps)
                low = morse_index(t_matrix((1 / 2.0) * 0.7, A))
                high = morse_index(t_matrix((1 / 2.0) * 1.3, A))
                assert low == 2 * n
                assert high == 2 * morse_index(-A)


class TestDegeneracyLocus:
    def test_determinant_collapses_on_levels(self, rng):
        for trial in range(6):
            nf = random_normal_form(rng, max_total_half_dim=5)
            A = assemble_hessian(nf)
            betas = sorted({b.beta for b in nf.blocks})
            on = [abs(np.linalg.det(t_matrix(1.0 / b, A))) for b in betas]
            from hambif import isolation_radius

            off = []
            for b in betas:
                mu = isolation_radius(1.0 / b, betas)
                off.append(abs(np.linalg.det(t_matrix(1.0 / b + mu, A))))
            scale = float(np.exp(np.mean(np.log(off))))
            assert max(on) < 1e-9 * scale or max(on) < 1e-9 * max(off)
            assert min(off) > 1e-6 * scale * 1e-3  # loose guard at module level


class TestClassicalAssumptions:
    def test_positive_definite_identity(self):
        report = check_classical_assumptions(np.eye(4))
        assert report.positive_definite.holds is True
        assert report.positive_definite.certified_betas == (1.0,)

    def test_irrational_pair_nonresonant(self):
        A = oscillators(1.0, np.sqrt(2.0))
        report = check_classical_assumptions(A)
        assert report.nonresonant_pair.holds is True
        assert len(report.nonresonant_pair.certified_betas) == 2

    def test_resonant_balanced_signature_fails(self):
        # frequencies {1, 1} with opposite signs: nondegenerate, signature 0
        nf = NormalForm((BlockSpec(1.0, 1, +1), BlockSpec(1.0, 1, -1)))
        A = assemble_hessian(nf)
        report = check_classical_assumptions(A)
        assert report.signature_resonant.holds is False

    def test_commensurate_definite_case_satisfies_a2(self):
        A = oscillators(1.0, 2.0)
        report = check_classical_assumptions(A)
        assert report.signature_resonant.holds is True
        assert len(report.signature_resonant.certified_betas) == 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_zero_band_for_every_inertia(self, sign, rng):
        # diag(d) conjugated by a random orthogonal Q, one eigenvalue at half
        # and at twice the band eig_zero_tol * max|d|: the Morse index, the
        # signature, the Brouwer sign and hypotheses a1 and a2 read one band
        tol = DEFAULT_TOL
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))

        def conjugated(d):
            A = Q @ np.diag(d) @ Q.T
            return 0.5 * (A + A.T)

        for factor, outside in ((0.5, False), (2.0, True)):
            small = sign * factor * tol.eig_zero_tol * 3.0
            d = np.array([3.0, -2.0, 1.5, small])
            A = conjugated(d)
            details = check_classical_assumptions(A, tol).signature_resonant.details
            assert f"nondegenerate={outside}" in details
            definite = check_classical_assumptions(conjugated(np.array([3.0, 2.0, 1.5, small])), tol)
            assert definite.positive_definite.holds is (outside and sign > 0)
            if outside:
                assert morse_index(A, tol) == int(np.count_nonzero(d < 0))
                assert signature(A, tol) == int(np.count_nonzero(d > 0) - np.count_nonzero(d < 0))
                assert f"signature={signature(A, tol)}" in details
                assert brouwer_nondegenerate(A, tol) == (-1) ** int(np.count_nonzero(d < 0))
            else:
                for decide in (morse_index, signature, brouwer_nondegenerate):
                    with pytest.raises(DegeneracyError, match="inside the zero band"):
                        decide(A, tol)

    def test_kernel_is_read_from_the_hessian_zero_band(self):
        """diag(1, 1e-10) has an eigenvalue inside A's zero band: hypothesis
        a0 fails and certifies nothing, as a2 reads it degenerate and the
        Brouwer sign is refused, though J A shows the pair +-i*1e-5."""
        A = np.diag([1.0, 1e-10])
        report = check_classical_assumptions(A)
        assert report.nonresonant_pair.holds is False
        assert report.nonresonant_pair.certified_betas == ()
        assert "Hessian kernel is nontrivial" in report.nonresonant_pair.details
        assert "nondegenerate=False" in report.signature_resonant.details
        with pytest.raises(DegeneracyError, match="inside the zero band"):
            brouwer_nondegenerate(A)

    def test_hypotheses_imply_the_condition(self, rng):
        """The abstract's implication, on seeded normal forms conjugated by
        random symplectic maps: a definite Hessian certifies every frequency,
        the other two hypotheses certify at least one, and under the
        signature hypothesis the Morse jumps add up to the signature."""

        def draw(kind):
            if kind == "catalogue":
                return random_normal_form(rng, max_total_half_dim=6)
            count = int(rng.integers(1, 4))
            betas = rng.choice((1.0, 1.5, 2.0, 3.0, math.sqrt(2.0)), size=count)
            signs = rng.choice([-1, 1], size=count) if kind == "mixed" else [-1] * count
            return NormalForm(tuple(BlockSpec(float(b), 1, int(e)) for b, e in zip(betas, signs)))

        held = [0, 0, 0]
        for kind in ("catalogue", "mixed", "negative"):
            for trial in range(100):
                _, A = conjugated_pair(draw(kind), seed=trial)
                # parse_problem's symmetrization, so that the certified
                # frequencies are the spectrum's bit for bit
                A = 0.5 * (A + A.T)
                betas = spectral_summary(standard_symplectic(A.shape[0] // 2) @ A).betas
                report = check_classical_assumptions(A)
                hypotheses = (report.nonresonant_pair, report.positive_definite, report.signature_resonant)
                for i, result in enumerate(hypotheses):
                    assert isinstance(result.holds, bool)
                    held[i] += result.holds
                if report.positive_definite.holds:
                    assert report.positive_definite.certified_betas == betas, (kind, trial)
                for result in (report.nonresonant_pair, report.signature_resonant):
                    assert not result.holds or result.certified_betas, (kind, trial)
                if report.signature_resonant.holds:
                    assert sum(gamma_jump(A, b) for b in betas) == signature(A), (kind, trial)
        assert min(held) > 0, held


class TestNonresonance:
    def test_integer_ratio_pair(self):
        A = oscillators(1.0, 2.0)
        report = nonresonance_and_branch_count(A, brouwer_nondegenerate(A))
        flags = {round(b, 6): f for b, f in report.flags}
        assert flags == {2.0: True, 1.0: False}
        assert report.lower_bound == 1

    def test_irrational_pair(self):
        A = oscillators(1.0, np.sqrt(2.0))
        report = nonresonance_and_branch_count(A, brouwer_nondegenerate(A))
        assert all(f for _, f in report.flags)
        assert report.lower_bound == 2

    @pytest.mark.parametrize("betas", [(1.0, 2.0, 3.5), (1.0, math.sqrt(2.0))])
    def test_flags_are_the_nonresonant_pairs(self, betas):
        """One resonance test: hypothesis a0 certifies exactly the flagged frequencies."""
        A = oscillators(*betas)
        flagged = [b for b, flag in nonresonance_and_branch_count(A, brouwer_nondegenerate(A)).flags if flag]
        assert list(check_classical_assumptions(A).nonresonant_pair.certified_betas) == flagged

    def test_single_frequency(self):
        report = nonresonance_and_branch_count(np.eye(2), brouwer_nondegenerate(np.eye(2)))
        assert report.flags[0][1] is True
        assert report.lower_bound == 1

    def test_brouwer_index_zero_counts_no_branch(self, monkeypatch):
        """A problem file's brouwer_index of 0 reaches the count through the
        public function, and no frequency's condition holds at it."""
        import json

        import hambif.analysis as analysis
        from hambif import parse_problem, run_analysis

        A = oscillators(1.0, np.sqrt(2.0))
        assert nonresonance_and_branch_count(A, brouwer_nondegenerate(A)).lower_bound == 2
        calls = []

        def counted(lin, brouwer, tol):
            calls.append(brouwer)
            return nonresonance_and_branch_count(lin, brouwer, tol)

        monkeypatch.setattr(analysis, "nonresonance_and_branch_count", counted)
        problem = {"dim": 4, "equilibria": [{"point": [0.0] * 4, "hessian": A.tolist(), "brouwer_index": 0}]}
        entry = run_analysis(parse_problem(json.dumps(problem)))["equilibria"][0]
        assert calls == [0]
        assert [flag for _, flag in entry["nonresonance"]["flags"]] == [True, True]
        assert entry["nonresonance"]["lower_bound"] == 0
        assert [c["condition_holds"] for c in entry["conditions"]] == [False, False]

    def test_undecided_frequency_is_left_out_of_the_bound(self, monkeypatch):
        """A Morse jump that stays inside the zero band at one frequency
        drops that frequency from the lower bound instead of escaping, and
        the analysis records it as a failed condition check."""
        import json

        import hambif.bifurcation as bif
        from hambif import parse_problem, run_analysis

        morse_jump = bif._morse_jump

        def degenerate_at_one(A, lam0, mu, tol):
            if abs(lam0 - 1.0) < 1e-9:
                raise DegeneracyError("morse_index: eigenvalue inside the zero band")
            return morse_jump(A, lam0, mu, tol)

        monkeypatch.setattr(bif, "_morse_jump", degenerate_at_one)
        A = oscillators(1.0, np.sqrt(2.0))
        report = nonresonance_and_branch_count(A, brouwer_nondegenerate(A))
        assert all(f for _, f in report.flags)
        assert report.lower_bound == 1

        problem = {"dim": 4, "equilibria": [{"point": [0.0] * 4, "hessian": A.tolist()}]}
        entry = run_analysis(parse_problem(json.dumps(problem)))["equilibria"][0]
        assert entry["nonresonance"]["lower_bound"] == 1
        assert [c["beta0"] for c in entry["conditions"]] == [pytest.approx(np.sqrt(2.0))]
        assert any("condition check at beta=1 failed" in e for e in entry["errors"])


class TestOneKeptVerdict:
    """Every reader of a frequency reads its one verdict, kept on the
    Linearization with its refusal, and the verdict decides only where the
    routes agree."""

    def test_a_refused_jump_is_computed_once(self, monkeypatch):
        """A Morse jump refused at beta = 1 is computed once for the four
        readers of one Linearization, asked twice each, and each still
        abstains there: the check and the index raise, the hypotheses
        certify and the count counts only the other frequency."""
        import hambif.bifurcation as bif

        morse_jump, refused = bif._morse_jump, []

        def degenerate_at_one(A, lam0, mu, tol):
            if abs(lam0 - 1.0) < 1e-9:
                refused.append(lam0)
                raise DegeneracyError("morse_index: eigenvalue inside the zero band")
            return morse_jump(A, lam0, mu, tol)

        monkeypatch.setattr(bif, "_morse_jump", degenerate_at_one)
        lin = _linearize(oscillators(1.0, np.sqrt(2.0)), DEFAULT_TOL)
        other = lin.cluster_at(np.sqrt(2.0)).beta
        for _ in range(2):
            with pytest.raises(DegeneracyError, match="inside the zero band"):
                check_main_condition(lin, 1, 1.0)
            with pytest.raises(DegeneracyError, match="inside the zero band"):
                bifurcation_index(lin, 1, 1.0)
            hypotheses = check_classical_assumptions(lin)
            assert hypotheses.nonresonant_pair.certified_betas == (other,)
            assert hypotheses.positive_definite.certified_betas == (other,)
            assert nonresonance_and_branch_count(lin, 1).lower_bound == 1
        assert len(refused) == 1

    def test_a_repeat_check_counts_the_blocks_once(self, monkeypatch):
        """The check at one frequency with the Brouwer index None, +1 or -1
        applies it to one kept verdict."""
        import hambif.bifurcation as bif

        counted, real = [], bif.block_counts

        def counting(*args):
            counted.append(args)
            return real(*args)

        monkeypatch.setattr(bif, "block_counts", counting)
        lin = _linearize(assemble_hessian(NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.0, 1, -1)))),
                         DEFAULT_TOL)
        reports = [check_main_condition(lin, brouwer, 1.0) for brouwer in (None, 1, -1, None)]
        assert len(counted) == 1
        assert [(r.brouwer, r.condition_holds) for r in reports] == [
            (None, None), (1, True), (-1, True), (None, None)]
        assert {(r.gamma, r.kappa, r.routes_agree, r.blocks) for r in reports} == {
            (4, -2, True, reports[0].blocks)}

    @pytest.mark.parametrize("gamma, blocks_known, decides", [
        (2, True, True),      # the truth at a simple pair: gamma = -2 kappa = 2
        (-2, True, False),    # the routes disagree
        (-2, False, True),    # the partition bound alone cannot see a sign
        (0, False, False),    # gamma/2 and the one odd part differ in parity
        (4, False, False),    # |gamma|/2 exceeds the one odd part
    ])
    def test_verdict_rule(self, gamma, blocks_known, decides, monkeypatch):
        """At the simple pair of np.eye(2), partition (1,) and kappa = -1, a
        jump decides only if it agrees with the blocks, where they are known,
        and obeys the partition bound."""
        import hambif.bifurcation as bif

        monkeypatch.setattr(bif, "gamma_jump", lambda lin, beta0, tol: gamma)
        if not blocks_known:
            def unavailable(lin, beta, tol):
                raise DecompositionError("moment-form rank gap too small")

            monkeypatch.setattr(bif, "structural_decomposition", unavailable)
        if decides:
            report = check_main_condition(np.eye(2), 1, 1.0)
            assert (report.gamma, report.routes_agree) == (gamma, True if blocks_known else None)
            assert report.condition_holds is True
            return
        kappa = -1 if blocks_known else "unavailable"
        with pytest.raises(DegeneracyError, match=re.escape(
                f"Morse jump gamma={gamma}, block counts kappa={kappa}, "
                f"1 odd part(s) in the Jordan partition")):
            check_main_condition(np.eye(2), 1, 1.0)

    @pytest.mark.parametrize("t", [3.0, 4.0])
    def test_no_decided_gamma_is_wrong_on_the_frontier(self, t):
        """Over the squeezed family (see ``frontier.py``), every decided Morse
        jump at a constructed frequency is the construction's; before the
        verdict rule, s = 158 and 165 at t = 3, and s = 0, 13, 22, 138, 158
        and 165 at t = 4, read a wrong one with routes_agree false."""
        counts = frontier(t)
        assert counts.wrong == 0, counts.wrong_seeds
        assert counts.right == {3.0: 375, 4.0: 350}[t]


class TestEachMatrixCheckedOnce:
    def test_analysis_checks_each_matrix_once(self, monkeypatch):
        """While its spec is built and run_analysis runs the 20-dim README
        example, A is checked symmetric once (by the ProblemSpec, which the
        one Linearization then trusts); it takes A's spectrum once
        for the Brouwer sign and the hypotheses, and checks J A to be
        Hamiltonian once; every verdict, index coordinate and hypothesis
        certificate reads the Morse jump from the one kept verdict, which
        asks the public gamma_jump once."""
        import hambif.analysis as analysis
        import hambif.bifurcation as bifurcation
        import hambif.linalg as linalg
        import hambif.problem as problem
        from hambif import Equilibrium, ProblemSpec, run_analysis, spectral

        A = squeezed_readme_example(5, 1.0)

        def count(module, name, calls, when=lambda *args: True):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                if when(*args):
                    calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        hamiltonian_checks, symmetry_checks, hessian_spectra = [], [], []
        public_calls, jumps, morse_jumps = [], [], []
        count(spectral, "is_hamiltonian", hamiltonian_checks)
        count(bifurcation, "as_symmetric", symmetry_checks)
        count(linalg, "as_symmetric", symmetry_checks)
        count(problem, "_asymmetry", symmetry_checks)
        count(np.linalg, "eigvalsh", hessian_spectra, lambda a, *rest: np.array_equal(a, A))
        count(bifurcation, "gamma_jump", jumps)
        count(bifurcation, "_morse_jump", morse_jumps)
        for name in ("lambda_set", "check_main_condition", "bifurcation_index",
                     "check_classical_assumptions"):
            count(analysis, name, public_calls)

        spec = ProblemSpec(dim=20, equilibria=(Equilibrium(point=np.zeros(20), hessian=A),))
        entry = run_analysis(spec)["equilibria"][0]
        assert entry["errors"] == []
        assert entry["brouwer_provenance"] == "determinant"
        # the index coordinate reads the jump: the Brouwer sign is known
        eta = entry["brouwer_index"] * entry["conditions"][0]["gamma"]
        assert entry["bifurcation_indices"][0]["entries"] == {"1": eta} != {"1": 0}
        assert len(hamiltonian_checks) == len(symmetry_checks) == len(hessian_spectra) == 1
        assert len(public_calls) == 4
        assert len(jumps) == len(morse_jumps) == 1

    @HESSIAN_ENTRIES
    def test_asymmetric_hessian_refused_after_its_symmetric_part(self, call):
        """A checked once is handed on, not remembered: a visibly asymmetric
        A is refused right after its symmetric part succeeds."""
        A = oscillators(1.0, 2.0)
        call(A)
        bad = A.copy()
        bad[0, 1] += 0.1
        bad[1, 0] -= 0.1
        with pytest.raises(StructureError, match="not symmetric"):
            call(bad)

    @HESSIAN_ENTRIES
    def test_one_entry_checks_dimension_and_symmetry_at_the_callers_tol(self, call):
        """An odd dimension is refused by name before any product with J,
        and symmetry is judged at the tolerance the caller passes."""
        with pytest.raises(ValueError, match="must have even dimension, got 3"):
            call(np.eye(3))
        A = np.eye(2)
        A[0, 1] += 1e-7
        with pytest.raises(StructureError, match="not symmetric"):
            call(A)
        call(A, DEFAULT_TOL.scaled(1e3))


# every public function that reads J A or A, called on a Hessian A, its
# matrix M = J A, or a Linearization in place of either, at a frequency beta
# of J A
READS_J_A = pytest.mark.parametrize("call", [
    lambda A, M, beta, tol: brouwer_nondegenerate(A, tol),
    lambda A, M, beta, tol: spectral_summary(M, tol),
    lambda A, M, beta, tol: jordan_partition(M, beta, tol),
    lambda A, M, beta, tol: structural_decomposition(M, beta, tol),
    lambda A, M, beta, tol: lambda_set(A, 3.0, tol),
    lambda A, M, beta, tol: gamma_jump(A, beta, tol),
    lambda A, M, beta, tol: bifurcation_index(A, 1, 1.0 / beta, tol=tol),
    lambda A, M, beta, tol: check_classical_assumptions(A, tol),
    lambda A, M, beta, tol: nonresonance_and_branch_count(A, brouwer_nondegenerate(A, tol), tol),
    lambda A, M, beta, tol: check_main_condition(A, 1, beta, tol),
    lambda A, M, beta, tol: seed_from_linearization(A, beta, 0.1, tol=tol),
], ids=["brouwer_nondegenerate", "spectral_summary", "jordan_partition", "structural_decomposition",
        "lambda_set", "gamma_jump", "bifurcation_index", "check_classical_assumptions",
        "nonresonance_and_branch_count", "check_main_condition", "seed_from_linearization"])


def _plain(value):
    """A result with its dataclasses and arrays unpacked, for comparison by ==."""
    if dataclasses.is_dataclass(value):
        return tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    return value


def _two_frequency_form():
    _, A = conjugated_pair(NormalForm((BlockSpec(1.0, 3, +1), BlockSpec(1.5, 1, -1))), seed=3)
    return 0.5 * (A + A.T)


class TestLinearizationArgument:
    @READS_J_A
    @pytest.mark.parametrize("hessian", [lambda: squeezed_readme_example(5, 1.0), _two_frequency_form],
                             ids=["readme", "two_frequencies"])
    def test_same_result_on_the_matrix_and_its_linearization(self, call, hessian):
        A = hessian()
        M = standard_symplectic(A.shape[0] // 2) @ A
        beta = min(spectral_summary(M).betas)
        lin = _linearize(A, DEFAULT_TOL)
        assert _plain(call(lin, lin, beta, DEFAULT_TOL)) == _plain(call(A, M, beta, DEFAULT_TOL))
        # a second call reads what the first kept, and reads the same
        assert _plain(call(lin, lin, beta, DEFAULT_TOL)) == _plain(call(A, M, beta, DEFAULT_TOL))

    @READS_J_A
    def test_other_tolerance_refused(self, call):
        lin = _linearize(oscillators(1.0, 2.0), DEFAULT_TOL)
        with pytest.raises(ValueError, match="Linearization built at"):
            call(lin, lin, 1.0, DEFAULT_TOL.scaled(10.0))

    @pytest.mark.parametrize("call", [
        lambda lin: lambda_set(lin, 2.0),
        lambda lin: gamma_jump(lin, 1.0),
        lambda lin: seed_from_linearization(lin, 1.0, 0.1),
    ], ids=["lambda_set", "gamma_jump", "seed_from_linearization"])
    def test_a_matrix_alone_is_refused_where_the_hessian_is_read(self, call):
        with pytest.raises(ValueError, match="built from a Hessian"):
            call(Linearization(standard_symplectic(1)))
