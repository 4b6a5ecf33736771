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
    of terms and their degree, never with the dimension.  Each derivative is
    the distinct derivative monomials plus a sparse coefficient matrix of
    (output index, monomial, coefficient) triplets.
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
        first: dict = {}
        second: dict = {}
        both: dict = {}
        grad, hess, jet = [], [], []  # (output index, monomial, coefficient)
        for (coeff, _), factors in zip(self.terms, monomials):
            for k, ek in factors:
                d1 = _divide(factors, k)
                grad.append((k, first.setdefault(d1, len(first)), coeff * ek))
                # J = [[0, I], [-I, 0]] as a signed row permutation
                row, sign = (k - half, 1.0) if k >= half else (k + half, -1.0)
                jet.append((row, both.setdefault(d1, len(both)), sign * coeff * ek))
                # both orders (k, l) and (l, k), each with the same integer
                # factor, so the assembled hessian is exactly symmetric
                for l, el in d1:
                    d2 = _divide(d1, l)
                    hess.append((k * dim + l, second.setdefault(d2, len(second)), coeff * (ek * el)))
                    jet.append((dim + row * dim + l, both.setdefault(d2, len(both)),
                                sign * coeff * (ek * el)))
        degrees = np.arange(max((max(e) for _, e in self.terms), default=0) + 1)
        stride = degrees.size
        tables = {
            "coeffs": np.array([c for c, _ in self.terms], dtype=float),
            "value_monomials": _factor_table(monomials, stride),
            "degrees": degrees,
        }
        for name, found, triplets in (("grad", first, grad), ("hess", second, hess), ("jet", both, jet)):
            tables[f"{name}_monomials"] = _factor_table(list(found), stride)
            rows, cols, coeffs = zip(*triplets) if triplets else ((), (), ())
            tables[f"{name}_rows"] = np.array(rows, dtype=np.intp)
            tables[f"{name}_cols"] = np.array(cols, dtype=np.intp)
            tables[f"{name}_coeffs"] = np.array(coeffs, dtype=float)
        for name, table in tables.items():
            object.__setattr__(self, f"_{name}", table)

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

    def gradient(self, x) -> np.ndarray:
        m = self._monomials(self._grad_monomials, np.asarray(x, dtype=float))
        return np.bincount(self._grad_rows, weights=self._grad_coeffs * m.take(self._grad_cols),
                           minlength=self.dim)

    def hessian(self, x) -> np.ndarray:
        m = self._monomials(self._hess_monomials, np.asarray(x, dtype=float))
        flat = np.bincount(self._hess_rows, weights=self._hess_coeffs * m.take(self._hess_cols),
                           minlength=self.dim * self.dim)
        return flat.reshape(self.dim, self.dim)

    def symplectic_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """J grad H(x) and J hess H(x) from one evaluation of the combined table."""
        m = self._monomials(self._jet_monomials, np.asarray(x, dtype=float))
        flat = np.bincount(self._jet_rows, weights=self._jet_coeffs * m.take(self._jet_cols),
                           minlength=self.dim * (self.dim + 1))
        return flat[:self.dim], flat[self.dim:].reshape(self.dim, self.dim)


@dataclass(frozen=True)
class HamiltonianField:
    """x -> lam * J * grad H(x), with its variational equation for shooting."""

    H: PolynomialHamiltonian
    lam: float

    def __call__(self, x) -> np.ndarray:
        g = self.H.gradient(x)
        half = g.size // 2
        return self.lam * np.concatenate([g[half:], -g[:half]])  # lam * J g

    def variational(self, x, Phi) -> tuple[np.ndarray, np.ndarray]:
        """The field at x and its Jacobian applied to Phi."""
        Jg, JH = self.H.symplectic_derivatives(x)
        return self.lam * Jg, self.lam * (JH @ Phi)


def gradient_field(H: PolynomialHamiltonian, lam: float) -> HamiltonianField:
    """The time-scaled Hamiltonian vector field lambda * J * grad H."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    return HamiltonianField(H=H, lam=lam)


@dataclass(frozen=True)
class FlowResult:
    endpoint: np.ndarray
    monodromy: np.ndarray
    solution: object  # a dop853.StateInterpolant of the state over [0, T], when dense


def flow(field, x0, T: float, rtol: float = 1e-10, atol: float = 1e-10,
         domain_bound: float = 1e6, dense: bool = False) -> FlowResult:
    """Integrate the field and its variational equations over [0, T], T > 0.

    One loop of the DOP853 embedded 8(5,3) pair of Dormand and Prince
    (Hairer, Norsett and Wanner, Solving ODEs I, section II.10), with scipy's
    initial step, step-size controller and error norm.  The field's
    ``variational(x, Phi)`` returns the field at x and its Jacobian applied to
    Phi in one call; for a :class:`HamiltonianField` both come from one
    evaluation of the combined table of J grad H and J hess H.  The error is
    controlled per component: the state runs ``_SAFETY`` below
    ``rtol``/``atol`` so that the energy drift over a period stays within ten
    times the tolerance, while the monodromy, which only steers Newton, runs
    at ``rtol``/``atol`` itself.

    With ``dense=True`` the result's ``solution`` is a
    :class:`~hambif.dop853.StateInterpolant` of the state rows only; it calls
    the state-only field ``field(x)`` 3 times per step, on its first read.
    A state of norm above ``domain_bound``, at the start or at the end of an
    accepted step, raises :class:`IntegrationError` with that time as
    ``exit_time``; so does a step size below the spacing of floats at t.
    """
    # imported on first use: compiling the tableau would add to the import
    # of every run that traces no branch
    from . import dop853

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    variational = getattr(field, "variational", None)
    if variational is None:
        raise ValueError("field must expose variational(x, Phi) for variational integration")
    T = float(T)
    if not T > 0.0:
        raise ValueError("T must be positive")

    def escaped(x):
        return np.linalg.norm(x) > domain_bound

    if escaped(x0):
        raise IntegrationError(f"trajectory left the domain (norm > {domain_bound:g})",
                               exit_time=0.0)

    size = n + n * n
    rtols = np.full(size, max(rtol, 1e-13))
    atols = np.full(size, max(atol, 1e-14))
    rtols[:n] = max(rtol * _SAFETY, 1e-13)
    atols[:n] = max(atol * _SAFETY, 1e-14)

    def rhs(y):
        dx, dPhi = variational(y[:n], y[n:].reshape(n, n))
        return np.concatenate([dx, dPhi.ravel()])

    K = np.empty((dop853.N_STAGES + 1, size))  # the stage slopes, in rows
    y = np.concatenate([x0, np.eye(n).ravel()])
    K[0] = rhs(y)
    h_abs = dop853.initial_step(rhs, y, K[0], T, rtols, atols)
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
            for s in range(1, dop853.N_STAGES):
                K[s] = rhs(y + np.dot(K[:s].T, dop853.A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, dop853.B)
            K[-1] = rhs(y_new)
            scale = atols + np.maximum(np.abs(y), np.abs(y_new)) * rtols
            error = dop853.error_norm(K, h, scale)
            h_abs *= dop853.step_factor(error, rejected)
            if error < 1:
                break
            rejected = True
        t, y = t_new, y_new
        if escaped(y[:n]):
            raise IntegrationError(f"trajectory left the domain (norm > {domain_bound:g})",
                                   exit_time=t)
        if dense:
            ts.append(t)
            xs.append(y[:n])
            stages.append(K[:, :n].copy())
        K[0] = K[-1]
    return FlowResult(
        endpoint=y[:n],
        monodromy=y[n:].reshape(n, n),
        solution=dop853.StateInterpolant(field, ts, xs, stages) if dense else None,
    )


@dataclass(frozen=True)
class PeriodicOrbit:
    """One corrected 2*pi-periodic orbit of the time-scaled family."""

    x0: np.ndarray
    lam: float
    amplitude: float
    residual: float
    energy_drift: float
    period_in_rescaled_time: float = TWO_PI

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.lam <= 0.0:
            raise ValueError("lambda must stay positive along a branch")


@dataclass(frozen=True)
class Branch:
    orbits: tuple[PeriodicOrbit, ...]
    origin: tuple[tuple[float, ...], float]  # (equilibrium point, beta0)
    termination: str  # step_budget | domain_boundary | corrector_failure | amplitude_target

    def lambdas(self) -> np.ndarray:
        return np.array([o.lam for o in self.orbits])

    def amplitudes(self) -> np.ndarray:
        return np.array([o.amplitude for o in self.orbits])


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


def _orbit_diagnostics(H, equilibrium, x0, lam, config, dense_sol):
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


def _shoot(H, equilibrium, x0, lam, config):
    field = gradient_field(H, lam)
    result = flow(
        field,
        x0,
        TWO_PI,
        rtol=config.integrator_rtol,
        atol=config.integrator_atol,
        domain_bound=config.domain_bound,
        dense=True,
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
        defect, monodromy, dlam, dense = _shoot(H, equilibrium, x0, lam, config)
        phase = float(f_ref @ (x0 - x_ref))
        cval, crow = constraint(x0, lam)
        F = np.concatenate([defect, [phase, cval]])
        residual = float(np.linalg.norm(defect))
        if residual <= config.corrector_tol and abs(phase) <= config.corrector_tol and \
                abs(cval) <= config.corrector_tol:
            amplitude, drift = _orbit_diagnostics(H, equilibrium, x0, lam, config, dense)
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
    points, a quadratic through three (Allgower and Georg, Introduction to
    Numerical Continuation Methods, ch. 6)."""
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
                    equilibrium=None, beta0: float | None = None) -> Branch:
    """Pseudo-arclength continuation in (x0, lambda) from a linearization seed.

    The step halves on corrector failure and grows by ``growth`` after
    ``growth_after`` consecutive successes.  Termination is recorded as one of
    step_budget / domain_boundary / corrector_failure / amplitude_target.
    """
    n = H.dim
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    origin = (tuple(float(v) for v in equilibrium), float(beta0 if beta0 is not None else seed.lam))

    try:
        first = correct_orbit(H, seed, config, equilibrium)
    except (CorrectorError, IntegrationError):
        return Branch(orbits=(), origin=origin, termination="corrector_failure")
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
        return Branch(orbits=tuple(orbits), origin=origin, termination="corrector_failure")

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

        # predict along the secant of the last two orbits, or along the
        # quadratic in chord length through the last three once there are three
        points = np.array([np.concatenate([o.x0, [o.lam]]) for o in orbits[-3:]])
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
    return Branch(orbits=tuple(orbits), origin=origin, termination=termination)


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
