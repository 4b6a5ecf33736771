"""Periodic-orbit continuation for polynomial Hamiltonian fields.

The family traced here keeps the period fixed at 2*pi and continues in the
time-scale parameter lambda, so orbits of x' = lambda J grad H(x) correspond
to orbits of the unscaled field with period 2*pi*lambda.  Orbits are corrected
by Gauss-Newton shooting with variational-equation Jacobians and continued by
pseudo-arclength steps in (x0, lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CorrectorError, EigenvalueNotFoundError, IntegrationError
from .linalg import as_symmetric, standard_symplectic

TWO_PI = 2.0 * math.pi

# the stepper controls the local error; run it below the advertised tolerance
# so accumulated drift over one period stays within the 10x-tolerance contract
_SAFETY = 1.0e-2

# _orbit_diagnostics refines the amplitude over _ZOOMS grids of 2 * _ZOOM + 1
# points, each _ZOOM times finer than the last
_ZOOM = 8
_ZOOMS = 6


def _divide(factors, k: int) -> tuple[tuple[int, int], ...]:
    """The factors of x^E / x_k, for a variable x_k that divides x^E."""
    return tuple((m, e - 1 if m == k else e) for m, e in factors if (m, e) != (k, 1))


def _factor_table(monomials, stride: int) -> np.ndarray:
    """Monomials as rows of indices ``variable * stride + power`` into the
    flattened table of powers; short rows are padded with x_0**0."""
    width = max((len(f) for f in monomials), default=0)
    table = np.zeros((len(monomials), width), dtype=np.intp)
    for row, factors in enumerate(monomials):
        for col, (k, e) in enumerate(factors):
            table[row, col] = k * stride + e
    return table


@dataclass(frozen=True)
class PolynomialHamiltonian:
    """Polynomial H on R^(2N) as (coefficient, exponent vector) terms.

    The terms are compiled once into numpy tables.  A monomial is stored as
    its nonzero (variable, power) factors, so the tables grow with the number
    of terms and their degree, never with the dimension.  Besides the terms,
    one signed jet table holds (output index, coefficient, monomial)
    triplets: first those of J grad H, then those of vec J hess H, one per
    derivative of a term.  It is evaluated with one gather of powers, one
    product per triplet and one sum into the outputs.  J grad H reads the
    table's prefix, J grad H and J hess H together read all of it, and the
    gradient and the hessian are -J applied to those.
    """

    dim: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError("dim must be an even integer >= 2")
        cleaned = []
        for coeff, exps in self.terms:
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dim or any(e < 0 for e in exps):
                raise ValueError("exponent vectors must be nonnegative of length dim")
            if coeff != 0.0:
                cleaned.append((coeff, exps))
        object.__setattr__(self, "terms", tuple(cleaned))
        self._compile()

    def _compile(self) -> None:
        dim, half = self.dim, self.dim // 2
        # a monomial as its (variable, power) factors with nonzero power
        monomials = [tuple((k, e) for k, e in enumerate(exps) if e) for _, exps in self.terms]
        jet_grad, jet_hess = [], []  # (output index, coefficient, monomial)
        for (coeff, _), factors in zip(self.terms, monomials):
            for k, ek in factors:
                d1 = _divide(factors, k)
                # J = [[0, I], [-I, 0]] as a signed row permutation
                row, sign = (k - half, 1.0) if k >= half else (k + half, -1.0)
                jet_grad.append((row, sign * coeff * ek, d1))
                # both orders (k, l) and (l, k), each with the same integer
                # factor, so the assembled hessian is exactly symmetric
                for l, el in d1:
                    jet_hess.append((dim + row * dim + l, sign * coeff * (ek * el), _divide(d1, l)))
        # float exponents: the same powers as integer ones, with no cast per call
        degrees = np.arange(max((max(e) for _, e in self.terms), default=0) + 1.0)
        rows, coeffs, factors = zip(*(jet_grad + jet_hess)) if jet_grad else ((), (), ())
        for name, table in (
            ("coeffs", np.array([c for c, _ in self.terms], dtype=float)),
            ("value_monomials", _factor_table(monomials, degrees.size)),
            ("degrees", degrees),
            ("jet_rows", np.array(rows, dtype=np.intp)),
            ("jet_coeffs", np.array(coeffs, dtype=float)),
            ("jet_monomials", _factor_table(factors, degrees.size)),
        ):
            object.__setattr__(self, f"_{name}", table)
        # J grad H reads the first _grad_size triplets, sliced at each call
        object.__setattr__(self, "_grad_size", len(jet_grad))

    def _monomials(self, table, x) -> np.ndarray:
        """The monomials of ``table`` at x, over x's last axis."""
        powers = (x[..., None] ** self._degrees).reshape(x.shape[:-1] + (-1,))
        # take and multiply.reduce: the same values as fancy indexing and
        # prod, with less call overhead per right-hand side
        return np.multiply.reduce(powers.take(table, axis=-1), axis=-1)

    @classmethod
    def from_quadratic(cls, A) -> "PolynomialHamiltonian":
        """The quadratic Hamiltonian x -> x^T A x / 2."""
        A = as_symmetric(A)
        dim = A.shape[0]
        terms = []
        for i in range(dim):
            for j in range(i, dim):
                coeff = A[i, i] / 2.0 if i == j else A[i, j]
                if coeff != 0.0:
                    e = [0] * dim
                    e[i] += 1
                    e[j] += 1
                    terms.append((coeff, tuple(e)))
        return cls(dim=dim, terms=tuple(terms))

    def value(self, x):
        """H(x); for an array of points (last axis of length dim), H at each."""
        x = np.asarray(x, dtype=float)
        values = self._monomials(self._value_monomials, x) @ self._coeffs
        return float(values) if x.ndim == 1 else values

    def _symplectic_gradient(self, x, coeffs) -> np.ndarray:
        """J grad H(x) from the jet table's prefix, with ``coeffs`` in place
        of its coefficients, over x's last axis.  Each point's triplets are
        summed in table order, so a row of a batch equals the single-point
        value, and the J grad H of :meth:`symplectic_derivatives`, bit for
        bit."""
        x = np.asarray(x, dtype=float)
        size = self._grad_size
        weights = coeffs[:size] * self._monomials(self._jet_monomials[:size], x)
        Jg = np.zeros(x.shape[:-1] + (self.dim,))
        np.add.at(Jg.T, self._jet_rows[:size], weights.T)
        return Jg

    def gradient(self, x) -> np.ndarray:
        """grad H(x); for an array of points (last axis of length dim), the
        gradient at each."""
        Jg = self._symplectic_gradient(x, self._jet_coeffs)
        half = self.dim // 2
        # -J Jg; 0.0 - v keeps an exact zero at +0.0
        return np.concatenate([0.0 - Jg[..., half:], Jg[..., :half]], axis=-1)

    def hessian(self, x) -> np.ndarray:
        JH = self.symplectic_derivatives(x)[1]
        half = self.dim // 2
        return np.concatenate([0.0 - JH[half:], JH[:half]])  # -J JH, as in gradient

    def symplectic_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """J grad H(x) and J hess H(x) from one evaluation of the jet table."""
        m = self._monomials(self._jet_monomials, np.asarray(x, dtype=float))
        flat = np.bincount(self._jet_rows, weights=self._jet_coeffs * m, minlength=self.dim * (self.dim + 1))
        return flat[:self.dim], flat[self.dim:].reshape(self.dim, self.dim)


@dataclass(frozen=True)
class HamiltonianField:
    """x -> lam * J * grad H(x), with its variational equation for shooting.

    The field protocol of :func:`flow`: ``field(x)`` is the state-only field,
    at one point or, for an ``(m, dim)`` array, at each row (bit for bit the
    single-point values); ``variational(y, out)`` writes the augmented field
    at ``y = (x, vec Phi)`` into ``out``.  ``lam`` is folded once, into a
    copy of the jet table's coefficients, so both read the same table and
    ``field(x)`` equals the first ``dim`` outputs of ``variational`` bit for
    bit; both round differently from ``lam`` times the unscaled sums.
    """

    H: PolynomialHamiltonian
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "_coeffs", self.lam * self.H._jet_coeffs)

    def __call__(self, x) -> np.ndarray:
        return self.H._symplectic_gradient(x, self._coeffs)

    def variational(self, y, out) -> None:
        """Write ``lam J grad H(x)`` and then ``lam J hess H(x) @ Phi``, row
        by row, into ``out``, a contiguous array of length ``n + n*n``, for
        ``y = (x, vec Phi)``: one gather of powers, one product per triplet
        and one sum give both, as in
        :meth:`PolynomialHamiltonian.symplectic_derivatives`."""
        H = self.H
        n = H.dim
        powers = (y[:n, None] ** H._degrees).ravel()
        weights = self._coeffs * np.multiply.reduce(powers.take(H._jet_monomials), axis=-1)
        flat = np.bincount(H._jet_rows, weights=weights, minlength=n * (n + 1))
        out[:n] = flat[:n]
        np.dot(flat[n:].reshape(n, n), y[n:].reshape(n, n), out=out[n:].reshape(n, n))


def gradient_field(H: PolynomialHamiltonian, lam: float) -> HamiltonianField:
    """The time-scaled Hamiltonian vector field lambda * J * grad H."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    return HamiltonianField(H=H, lam=lam)


@dataclass(frozen=True)
class FlowResult:
    endpoint: np.ndarray
    monodromy: np.ndarray
    solution: object  # a dop853.StateInterpolant of the state over [0, T]
    steps: int  # accepted steps
    rejected: int  # rejected step attempts
    rhs_calls: int  # variational(y, out) calls: 12 * (steps + rejected) + 2


def flow(field, x0, T: float, rtol: float = 1e-10, atol: float = 1e-10,
         domain_bound: float = 1e6) -> FlowResult:
    """Integrate the field and its variational equations over [0, T], T > 0.

    One loop of the DOP853 embedded 8(5,3) pair of Dormand and Prince
    (Hairer, Norsett and Wanner, Solving ODEs I, section II.10), with scipy's
    initial step, step-size controller and error norm.  The field's
    ``variational(y, out)`` writes the augmented field at ``y = (x, vec Phi)``,
    the field at x and its Jacobian applied to Phi, into the stage row
    ``out``; for a :class:`HamiltonianField` both come from one evaluation of
    the jet table of J grad H and J hess H.  The state y is row 0 of one
    buffer whose other rows are the stage slopes K, so each stage state and
    the order-8 update are one product of the row ``[1, h*A[s, :s]]`` with
    that buffer, and both error estimates one product of ``[E5, E3]`` with
    K; the stage states go through one reused buffer, so the loop itself
    allocates no array per stage.  The products sum in another order than
    scipy's, so endpoints agree with ``solve_ivp``'s to rounding, not bit
    for bit.  The error is controlled per component: the state runs
    ``_SAFETY`` below ``rtol``/``atol`` so that the energy drift over a
    period stays within ten times the tolerance, while the monodromy, which
    only steers Newton, runs at ``rtol``/``atol`` itself.

    The right-hand side budget is exact: 12 ``variational`` calls per
    attempted step, plus 2 at the start (the first slope and the initial
    step's probe), counted in the result's ``steps``, ``rejected`` and
    ``rhs_calls``.  The result's ``solution`` is a
    :class:`~hambif.dop853.StateInterpolant` of the state rows only, which
    makes no field call until it is read; its first read makes 3 batched
    state-only calls ``field(X)``, each over all steps at once.  A state of
    norm above ``domain_bound``, at the start or at the end of an accepted
    step, raises :class:`IntegrationError` with that time as ``exit_time``;
    so does a step size below the spacing of floats at t.
    """
    # imported on first use: compiling the tableau would add to the import
    # of every run that traces no branch
    from . import dop853

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    variational = getattr(field, "variational", None)
    if variational is None:
        raise ValueError("field must expose variational(y, out) for variational integration")
    T = float(T)
    if not T > 0.0:
        raise ValueError("T must be positive")

    def escaped(x):
        return math.sqrt(x.dot(x)) > domain_bound  # the 2-norm, bit for bit

    if escaped(x0):
        raise IntegrationError(f"trajectory left the domain (norm > {domain_bound:g})",
                               exit_time=0.0)

    size = n + n * n
    rtols = np.full(size, max(rtol, 1e-13))
    atols = np.full(size, max(atol, 1e-14))
    rtols[:n] = max(rtol * _SAFETY, 1e-13)
    atols[:n] = max(atol * _SAFETY, 1e-14)

    def rhs(y):
        out = np.empty(size)
        variational(y, out)
        return out

    # row 0 holds the state y and rows 1 to 13 the stage slopes K, so that a
    # stage state y + h * (A[s, :s] . K[:s]) is the one product
    # [1, h * A[s, :s]] . [y; K[:s]], and the order-8 update is row 12's
    YK = np.empty((dop853.N_STAGES + 2, size))
    y, K = YK[0], YK[1:]
    weights = np.ones((dop853.N_STAGES + 1, dop853.N_STAGES + 1))  # column 0 stays 1
    A, hA = dop853.A[:dop853.N_STAGES + 1, :dop853.N_STAGES], weights[:, 1:]
    stage_sums = [(weights[s, :s + 1], YK[:s + 1], K[s]) for s in range(1, dop853.N_STAGES)]
    step_weights, step_rows = weights[dop853.N_STAGES], YK[:dop853.N_STAGES + 1]
    estimators, errors = np.stack([dop853.E5, dop853.E3]), np.empty((2, size))
    stage, y_new = np.empty(size), np.empty(size)
    y[:n] = x0
    y[n:] = np.eye(n).ravel()
    variational(y, K[0])
    h_abs = dop853.initial_step(rhs, y, K[0], T, rtols, atols)
    rhs_calls, steps, rejections = 2, 0, 0
    t = 0.0
    ts, xs, stages = [t], [x0], []
    while t < T:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size fails here too
                raise IntegrationError("Required step size is less than spacing between numbers.",
                                       exit_time=t)
            t_new = min(t + h_abs, T)
            h = h_abs = t_new - t
            np.multiply(A, h, out=hA)  # once per attempted step
            for row, rows_before, slope in stage_sums:
                np.dot(row, rows_before, out=stage)
                variational(stage, slope)
            np.dot(step_weights, step_rows, out=y_new)
            variational(y_new, K[-1])
            rhs_calls += dop853.N_STAGES
            # the 5th- and 3rd-order estimates, damped as in Hairer's DOP853
            np.dot(estimators, K, out=errors)
            errors /= atols + np.maximum(np.abs(y), np.abs(y_new)) * rtols
            err5, err3 = errors
            # squares of the 2-norms, rounded as np.linalg.norm(v) ** 2 rounds them
            err5_2, err3_2 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                error = float(h * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * size))
            h_abs *= dop853.step_factor(error, rejected)
            if error < 1:
                break
            rejected = True
            rejections += 1
        steps += 1
        t = t_new
        y[:] = y_new
        if escaped(y[:n]):
            raise IntegrationError(f"trajectory left the domain (norm > {domain_bound:g})",
                                   exit_time=t)
        ts.append(t)
        xs.append(y[:n].copy())
        stages.append(K[:, :n].copy())
        K[0] = K[-1]
    return FlowResult(
        endpoint=y[:n],
        monodromy=y[n:].reshape(n, n),
        solution=dop853.StateInterpolant(field, ts, xs, stages),
        steps=steps,
        rejected=rejections,
        rhs_calls=rhs_calls,
    )


@dataclass(frozen=True)
class PeriodicOrbit:
    """One corrected 2*pi-periodic orbit of the time-scaled family."""

    x0: np.ndarray
    lam: float
    amplitude: float
    residual: float
    energy_drift: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.lam <= 0.0:
            raise ValueError("lambda must stay positive along a branch")


@dataclass(frozen=True)
class Branch:
    orbits: tuple[PeriodicOrbit, ...]
    termination: str  # step_budget | domain_boundary | corrector_failure | amplitude_target


@dataclass(frozen=True)
class ContinuationConfig:
    corrector_tol: float = 1e-9
    max_corrector_iters: int = 25
    integrator_rtol: float = 1e-10
    integrator_atol: float = 1e-10
    seed_amplitude: float = 0.01
    initial_step: float = 0.02
    min_step: float = 1e-6
    max_step: float = 0.15
    growth: float = 1.3
    growth_after: int = 3
    max_steps: int = 400
    amplitude_cap: float = 1.0
    amplitude_target: float | None = None
    lambda_min: float = 1e-3
    lambda_max: float = 1e3
    domain_bound: float = 100.0
    sample_points: int = 256

    def __post_init__(self):
        """Refuse only settings with which no branch can be traced."""
        positive = ("corrector_tol", "integrator_rtol", "integrator_atol", "seed_amplitude",
                    "initial_step", "min_step", "max_step", "domain_bound")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.min_step <= self.max_step:
            raise ValueError("min_step must not exceed max_step")
        if not self.growth >= 1.0:
            raise ValueError("growth must be at least 1")
        if self.max_corrector_iters < 1:
            raise ValueError("max_corrector_iters must be at least 1")
        if not self.lambda_min < self.lambda_max:
            raise ValueError("lambda_min must be below lambda_max")
        if self.sample_points < 2:
            raise ValueError("sample_points must be at least 2")


DEFAULT_CONFIG = ContinuationConfig()


def _orbit_diagnostics(H, equilibrium, x0, config, dense_sol):
    """Amplitude (largest distance from the equilibrium) and energy drift of
    the orbit, read from its dense interpolant: the drift over
    ``sample_points`` equally spaced samples, the amplitude from the best
    sample refined by zooming in on its neighbourhood."""
    ts = np.linspace(0.0, TWO_PI, config.sample_points)
    states = dense_sol(ts)
    drift = float(np.max(np.abs(H.value(states.T) - H.value(x0))))
    distances = np.linalg.norm(states - equilibrium[:, None], axis=0)
    best = int(np.argmax(distances))
    t, amplitude, width = ts[best], distances[best], ts[1] - ts[0]
    for _ in range(_ZOOMS):
        # the grid keeps t at its centre, so the amplitude never decreases
        grid = t + np.linspace(-width, width, 2 * _ZOOM + 1)
        states = dense_sol(np.mod(grid, TWO_PI))
        distances = np.linalg.norm(states - equilibrium[:, None], axis=0)
        best = int(np.argmax(distances))
        t, amplitude, width = grid[best], distances[best], width / _ZOOM
    return float(amplitude), drift


def _shoot(H, x0, lam, config):
    field = gradient_field(H, lam)
    result = flow(
        field,
        x0,
        TWO_PI,
        rtol=config.integrator_rtol,
        atol=config.integrator_atol,
        domain_bound=config.domain_bound,
    )
    defect = result.endpoint - x0
    dlam = (TWO_PI / lam) * field(result.endpoint)
    return defect, result.monodromy, dlam, result.solution


def correct_orbit(H: PolynomialHamiltonian, guess: PeriodicOrbit,
                  config: ContinuationConfig = DEFAULT_CONFIG,
                  equilibrium=None, constraint=None) -> PeriodicOrbit:
    """Gauss-Newton correction of the 2*pi shooting system.

    The bordered system is {shooting defect, phase anchor, one scalar
    constraint}; by default the constraint pins the distance from the
    equilibrium at the guess amplitude, while branch stepping passes a
    pseudo-arclength row instead.
    """
    n = H.dim
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    x0 = np.asarray(guess.x0, dtype=float).copy()
    lam = float(guess.lam)
    if constraint is None:
        target = float(guess.amplitude)
        if target <= 0.0:
            raise ValueError("guess amplitude must be positive")

        def constraint(x, lam_):
            r = np.linalg.norm(x - equilibrium)
            row = np.zeros(n + 1)
            if r > 0.0:
                row[:n] = (x - equilibrium) / r
            return r - target, row

    x_ref = x0.copy()
    f_ref = gradient_field(H, lam)(x_ref)
    if np.linalg.norm(f_ref) == 0.0:
        raise CorrectorError("phase anchor sits at an equilibrium", residual=np.inf)

    residual = math.inf
    dense = None
    for _ in range(config.max_corrector_iters):
        if not (max(config.lambda_min / 10.0, 0.0) < lam < config.lambda_max * 10.0):
            raise CorrectorError(f"lambda {lam:g} left the trust window", residual=residual)
        defect, monodromy, dlam, dense = _shoot(H, x0, lam, config)
        phase = float(f_ref @ (x0 - x_ref))
        cval, crow = constraint(x0, lam)
        F = np.concatenate([defect, [phase, cval]])
        residual = float(np.linalg.norm(defect))
        if residual <= config.corrector_tol and abs(phase) <= config.corrector_tol and \
                abs(cval) <= config.corrector_tol:
            amplitude, drift = _orbit_diagnostics(H, equilibrium, x0, config, dense)
            return PeriodicOrbit(
                x0=x0, lam=lam, amplitude=amplitude, residual=residual, energy_drift=drift
            )
        jac = np.zeros((n + 2, n + 1))
        jac[:n, :n] = monodromy - np.eye(n)
        jac[:n, n] = dlam
        jac[n, :n] = f_ref
        jac[n + 1, :] = crow
        step, *_ = np.linalg.lstsq(jac, -F, rcond=None)
        x0 = x0 + step[:n]
        lam = lam + step[n]
    raise CorrectorError(
        f"no convergence in {config.max_corrector_iters} iterations", residual=residual
    )


def seed_from_linearization(A, beta0: float, amplitude: float,
                            equilibrium=None) -> PeriodicOrbit:
    """Predictor on the eigendirection of i*beta0, at the linear level 1/beta0."""
    A = as_symmetric(A)
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    n = A.shape[0]
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    M = standard_symplectic(n // 2) @ A
    # a geometric eigenvector always exists; the SVD null vector of the shifted
    # matrix stays machine-accurate even when i*beta0 is defective
    shifted = M.astype(complex) - 1j * beta0 * np.eye(n)
    _, s, Vh = np.linalg.svd(shifted)
    if s[-1] > 1e-6 * s[0]:
        raise EigenvalueNotFoundError(f"i*{beta0} is not in the spectrum")
    v = Vh[-1].conj()
    direction = v.real
    if np.linalg.norm(direction) < 1e-8:
        direction = v.imag
    direction = direction / np.linalg.norm(direction)
    return PeriodicOrbit(
        x0=equilibrium + amplitude * direction,
        lam=1.0 / beta0,
        amplitude=amplitude,
        residual=math.inf,
        energy_drift=math.inf,
    )


def _extrapolate(points, s, h):
    """Point and unit tangent at chord length ``s[-1] + h`` on the polynomial
    that interpolates ``points`` at chord lengths ``s``: the secant through two
    points, a quadratic through three, a cubic through four (Allgower and
    Georg, Introduction to Numerical Continuation Methods, ch. 6)."""
    s = [float(v) for v in s]
    t = s[-1] + h
    weights, slopes = [], []  # the Lagrange basis and its derivative at t
    for i, si in enumerate(s):
        others = s[:i] + s[i + 1:]
        denom = math.prod(si - sj for sj in others)
        weights.append(math.prod(t - sj for sj in others) / denom)
        slopes.append(sum(math.prod(t - sk for k, sk in enumerate(others) if k != j)
                          for j in range(len(others))) / denom)
    value = np.array(weights) @ points
    slope = np.array(slopes) @ points
    norm = np.linalg.norm(slope)
    if not 0.0 < norm < math.inf:
        raise CorrectorError("predictor tangent vanished", residual=math.inf)
    return value, slope / norm


def _arclength_constraint(tangent, z_pred, n):
    def constraint(x, lam_):
        z = np.concatenate([x, [lam_]])
        return float(tangent @ (z - z_pred)), tangent

    return constraint


def continue_branch(H: PolynomialHamiltonian, seed: PeriodicOrbit,
                    config: ContinuationConfig = DEFAULT_CONFIG,
                    equilibrium=None) -> Branch:
    """Pseudo-arclength continuation in (x0, lambda) from a linearization seed.

    The seed's ``lam`` is a time scale (1/beta0 for the seed of
    :func:`seed_from_linearization`), not a frequency.  The step halves on
    corrector failure and grows by ``growth`` after ``growth_after``
    consecutive successes.  The branch holds the corrected orbits and its
    termination, one of step_budget / domain_boundary / corrector_failure /
    amplitude_target.
    """
    n = H.dim
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)

    try:
        first = correct_orbit(H, seed, config, equilibrium)
    except (CorrectorError, IntegrationError):
        return Branch(orbits=(), termination="corrector_failure")
    orbits = [first]

    # second anchor slightly farther out, still amplitude-pinned
    second_guess = replace(
        seed,
        x0=equilibrium + (first.x0 - equilibrium) * (1.0 + config.initial_step / max(first.amplitude, 1e-12)),
        lam=first.lam,
        amplitude=first.amplitude + config.initial_step,
    )
    try:
        second = correct_orbit(H, second_guess, config, equilibrium)
        orbits.append(second)
    except (CorrectorError, IntegrationError):
        return Branch(orbits=tuple(orbits), termination="corrector_failure")

    h = config.initial_step
    streak = 0
    termination = "step_budget"
    for _ in range(config.max_steps):
        current = orbits[-1]
        if current.amplitude >= config.amplitude_cap or (
            config.amplitude_target is not None
            and current.amplitude >= config.amplitude_target
        ):
            termination = "amplitude_target"
            break
        if not (config.lambda_min < current.lam < config.lambda_max):
            termination = "domain_boundary"
            break

        # predict along the Lagrange polynomial in chord length through the
        # last four orbits: the secant at two orbits, the quadratic at three
        points = np.array([np.concatenate([o.x0, [o.lam]]) for o in orbits[-4:]])
        chords = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
        if not np.all(np.diff(chords) > 0.0):
            termination = "corrector_failure"
            break

        stepped = False
        while h >= config.min_step:
            try:
                z_pred, tangent = _extrapolate(points, chords, h)
                if z_pred[n] <= 0.0:
                    raise CorrectorError("predicted lambda is not positive", residual=math.inf)
                guess = PeriodicOrbit(
                    x0=z_pred[:n],
                    lam=float(z_pred[n]),
                    amplitude=max(current.amplitude, config.seed_amplitude),
                    residual=math.inf,
                    energy_drift=math.inf,
                )
                nxt = correct_orbit(
                    H, guess, config, equilibrium,
                    constraint=_arclength_constraint(tangent, z_pred, n),
                )
            except (CorrectorError, IntegrationError):
                h *= 0.5
                streak = 0
                continue
            orbits.append(nxt)
            streak += 1
            if streak >= config.growth_after:
                h = min(h * config.growth, config.max_step)
                streak = 0
            stepped = True
            break
        if not stepped:
            termination = "corrector_failure"
            break
    return Branch(orbits=tuple(orbits), termination=termination)


def verify_period_limit(branch: Branch, beta0: float, epsilon: float, delta: float) -> bool:
    """True iff every branch orbit with amplitude < delta has its unscaled
    period 2*pi*lambda within epsilon of 2*pi/beta0."""
    if not branch.orbits:
        raise ValueError("branch is empty")
    for orbit in branch.orbits:
        if orbit.amplitude < delta:
            if abs(TWO_PI * orbit.lam - TWO_PI / beta0) >= epsilon:
                return False
    return True
