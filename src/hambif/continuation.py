"""Periodic-orbit continuation for polynomial Hamiltonian fields.

The family traced here keeps the period fixed at 2*pi and continues in the
time-scale parameter lambda, so orbits of x' = lambda J grad H(x) correspond
to orbits of the unscaled field with period 2*pi*lambda.  Orbits are corrected
by Newton shooting with variational-equation Jacobians and continued by
pseudo-arclength steps in (x0, lambda).

When H has a diagonal anti-symplectic reversor R that fixes the equilibrium,
the family is made of symmetric orbits (Devaney, "Reversible diffeomorphisms
and flows", Trans. AMS 218, 1976), each crossing Fix(R) at t = 0 and again
at t = pi; such a branch starts on Fix(R) and is shot over half the period.
When H is also even and the equilibrium is the origin, -R is a second
reversor, and the orbits of the family are doubly symmetric (Lamb and
Roberts, "Time-reversal symmetry in dynamical systems: a survey", Physica D
112, 1998): each also crosses Fix(-R) at t = pi/2, and a branch whose first
orbit does is shot over a quarter of the period from its second orbit on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .bifurcation import _linearize
from .errors import CorrectorError, IntegrationError, SpecError
from .linalg import DEFAULT_TOL, TolerancePolicy, _check_fields, _even_dim, _is_integer, _is_number, as_symmetric

TWO_PI = 2.0 * math.pi

# the stepper controls the local error; run it below the advertised tolerance
# so accumulated drift over one period stays within the 10x-tolerance contract
_SAFETY = 1.0e-2

# a jet table of at most this many triplets is compiled into straight-line
# Python, a larger one is evaluated by numpy.  One call of a bound evaluator
# on random full quadratics (2 * dim^2 triplets), generated against table,
# the best of six runs: 2.3 against 7.4 us at 32 triplets, 4.9 against 6.6 us
# at 72, 6.1 against 7.3 us at 128, 9.8 against 8.5 us at 200, 26 against
# 10 us at 512 (Python 3.11, numpy 2.4, one core of a shared 2-core x86 VM,
# whose runs spread by up to 2x).  The gain is small by 128 triplets and gone
# by 200, while generating and compiling, 2-3.5 ms per Hamiltonian at 128,
# grows with the table; so the cap sits below 128.  The kernel also writes
# one line per power step x_k^e = x_k^(e-1) * x_k, so a table whose power
# steps exceed the same cap stays on numpy: a term x^100000 would otherwise
# generate 100000 lines
_KERNEL_MAX_TRIPLETS = 96

# _orbit_diagnostics refines the largest distance from the equilibrium by at
# most _REFINE_STEPS bracketed steps, and stops once it can gain at most
# _REFINE_GAIN of itself, below the error of the interpolated states
_REFINE_STEPS = 16
_REFINE_GAIN = 1e-14

# the most samples that sample_points may ask for: each is one dense-output
# read, held while the orbit's diagnostics run
_MAX_SAMPLE_POINTS = 10**5
# H.value holds samples x terms x factors powers at once, so the drift is
# read over blocks of at most this many samples
_DRIFT_BLOCK = 256

# a linear seed is moved to Fix(R) when a point of its linear orbit has its
# flipped coordinates within this fraction of the seed's size of zero
_FIX_TOL = 1e-8


def _divide(factors, k: int) -> tuple[tuple[int, int], ...]:
    """The factors of x^E / x_k, for a variable x_k that divides x^E."""
    return tuple((m, e - 1 if m == k else e) for m, e in factors if (m, e) != (k, 1))


def _factor_table(monomials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monomials as rows of indices into the (variable, power) columns that
    they read, and those columns as their variables and their float powers,
    sorted; short rows are padded with the column x_0**0, which is 1."""
    width = max((len(f) for f in monomials), default=0)
    padded = [f + ((0, 0),) * (width - len(f)) for f in monomials]
    columns = sorted({c for f in padded for c in f})
    index = {c: i for i, c in enumerate(columns)}
    table = np.array([[index[c] for c in f] for f in padded], dtype=np.intp)
    variables = np.array([k for k, _ in columns], dtype=np.intp)
    # float powers: the same values as integer ones, with no cast per call
    powers = np.array([e for _, e in columns], dtype=float)
    return variables, powers, table.reshape(len(monomials), width)


def _monomials(x, variables, powers, table) -> np.ndarray:
    """The monomials of a factor table at x, over x's last axis: its columns
    raised elementwise, then each row's factors multiplied left to right."""
    # take and multiply.reduce: the same values as fancy indexing and prod,
    # with less call overhead per right-hand side
    return np.multiply.reduce((x.take(variables, axis=-1) ** powers).take(table, axis=-1), axis=-1)


def _jet_coefficient(scaled: float, factor: int, term) -> float:
    """``scaled * factor``, one derivative coefficient of a term, c*e or
    c*e*e'; one that is not a finite float, as when an exponent lies beyond
    the float range, raises ValueError naming the term."""
    try:
        value = scaled * factor
    except OverflowError:  # an integer factor beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"term {term}: an exponent or a derivative coefficient is not a finite float")
    return value


def _top_powers(factors) -> dict[int, int]:
    """The highest power of each variable that the monomials ``factors`` read."""
    top = {}
    for f in factors:
        for k, e in f:
            top[k] = max(top.get(k, 1), e)
    return top


def _reversor_flips(terms, half: int) -> np.ndarray | None:
    """The coordinates that a diagonal anti-symplectic reversor of the
    polynomial ``terms`` flips, or None when it has none.

    ``R = diag(S, -S)`` with ``S = diag(+-1)`` flips ``q_i`` when ``b_i = 1``
    and ``p_i`` when ``b_i = 0``, and keeps a monomial ``x^e`` exactly when
    ``sum_i e_(p_i) + sum_i b_i (e_(q_i) + e_(p_i))`` is even: one linear
    equation over GF(2) per term.  The equations are reduced by Gauss-Jordan
    elimination over bit masks, with no search, and every free ``b_i`` is 0:
    R flips ``p_i`` wherever the terms allow it.  A term is read on its own,
    so two that cancel each other exactly still count."""
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (mask, parity), reduced
    for _, e in terms:
        mask = sum(1 << i for i in range(half) if (e[i] + e[half + i]) % 2)
        parity = sum(e[half:]) % 2
        for bit, (m, p) in pivots.items():
            if mask >> bit & 1:
                mask, parity = mask ^ m, parity ^ p
        if not mask:
            if parity:
                return None
            continue
        bit = mask.bit_length() - 1
        for other, (m, p) in list(pivots.items()):
            if m >> bit & 1:
                pivots[other] = (m ^ mask, p ^ parity)
        pivots[bit] = (mask, parity)
    flips_q = [pivots.get(i, (0, 0))[1] for i in range(half)]
    return np.array([i if b else half + i for i, b in enumerate(flips_q)], dtype=np.intp)


def _compile_kernel(rows, factors, dim: int, grad_size: int):
    """Straight-line Python for a jet table, compiled once.

    ``rows`` and ``factors`` are the table's output indices and monomials,
    each a tuple of (variable, power) factors.  The returned
    ``kernel(coeffs)`` binds one coefficient per triplet and returns
    ``state(x0, ..., x_{dim-1})``, the tuple of the first ``dim`` outputs,
    and ``bind(y, out)``.  ``state`` takes floats or equal-length arrays of
    them, the coordinates of a batch, with the same operations per element;
    an output that reads no coordinate stays a float.  ``bind`` takes the
    views of the two contiguous buffers once and returns ``evaluate()``,
    which writes the augmented field at ``y`` into ``out``: the first
    ``dim`` outputs, then J hess H times ``Phi = y[dim:]`` by one
    ``ndarray.dot``.  Each output is ``0.0`` plus its triplets' ``c *
    (product of powers)`` in table order, as ``np.bincount`` sums them; a
    power is a chain of products, which overflows to inf as numpy's does
    where Python's ``**`` would raise.  ``state`` and ``evaluate`` share the
    text of the first ``dim`` sums.  J hess H lives in one buffer per bound
    kernel: its constant entries, those of the quadratic part, are written
    once, by ``kernel(coeffs)``, and ``evaluate`` writes the others, so a
    bound kernel serves one thread.
    """
    def power(k, e):
        return f"x{k}" if e == 1 else f"x{k}_{e}"

    def term(t, factors):
        product = " * ".join(power(k, e) for k, e in factors)
        if len(factors) > 1:  # multiplied left to right, as np.multiply.reduce does
            product = f"({product})"
        return f"c{t} * {product}" if factors else f"c{t}"

    sums = [["0.0"] for _ in range(dim * (dim + 1))]
    for t, (row, f) in enumerate(zip(rows, factors)):
        sums[row].append(term(t, f))
    sums = [" + ".join(s) for s in sums]
    varying = {row - dim for row, f in zip(rows, factors) if f}
    hess = [(r, s) for r, s in enumerate(sums[dim:]) if s != "0.0"]

    def powers(count):
        """Assignments of the powers above 1 that the first ``count`` triplets read."""
        top = _top_powers(factors[:count])
        return [f"{power(k, e)} = {power(k, e - 1)} * x{k}"
                for k in sorted(top) for e in range(2, top[k] + 1)]

    xs = "".join(f"x{k}, " for k in range(dim))
    cs = "".join(f"c{t}, " for t in range(len(rows)))
    lines = [
        "def kernel(coeffs):",
        f"    {cs}= coeffs" if cs else "    pass",
        f"    hess = zeros({dim * dim})  # row-major J hess H; entries with no triplet stay 0.0",
        *(f"    hess[{r}] = {s}" for r, s in hess if r not in varying),
        f"    JH_dot = hess.reshape({dim}, {dim}).dot",
        f"    def state({xs}):",
        *(f"        {p}" for p in powers(grad_size)),
        f"        return ({''.join(s + ', ' for s in sums[:dim])})",
        "    def bind(y, out):",
        f"        x = y[:{dim}].tolist",
        f"        Phi, JH_Phi = y[{dim}:].reshape({dim}, {dim}), out[{dim}:].reshape({dim}, {dim})",
        "        def evaluate():",
        f"            {xs}= x()",
        *(f"            {p}" for p in powers(len(rows))),
        *(f"            out[{r}] = {s}" for r, s in enumerate(sums[:dim])),
        *(f"            hess[{r}] = {s}" for r, s in hess if r in varying),
        "            JH_dot(Phi, out=JH_Phi)",
        "        return evaluate",
        "    return state, bind",
    ]
    namespace = {"zeros": np.zeros}
    exec(compile("\n".join(lines), "<jet kernel>", "exec"), namespace)
    return namespace["kernel"]


@dataclass(frozen=True)
class PolynomialHamiltonian:
    """Polynomial H on R^(2N) as (coefficient, exponent vector) terms.

    The terms are compiled once into numpy tables.  A monomial is stored as
    its nonzero (variable, power) factors, each an index into the columns,
    (variable, power) pairs, that its table reads; so the tables grow with
    the number of terms and their degree, never with the dimension, and an
    evaluation raises only those columns, elementwise by ``**``.  Besides
    the terms, one signed jet table holds (output index, coefficient,
    monomial) triplets: first those of J grad H, then those of vec J hess H,
    one per derivative of a term.  It is evaluated with one gather of
    powers, one product per triplet and one sum into the outputs.  J grad H
    reads the table's prefix, J grad H and J hess H together read all of it,
    and the gradient and the hessian are -J applied to those.

    A table of at most ``_KERNEL_MAX_TRIPLETS`` triplets and as many power
    steps is also generated into straight-line Python once, here: one
    kernel per Hamiltonian, which each :class:`HamiltonianField` binds to
    its ``lam``-scaled coefficients.  The numpy evaluation stays the path of
    this class's own methods, and of every field above the cap.
    """

    dim: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", _even_dim(self.dim))
        cleaned = []
        for i, (coeff, exps) in enumerate(self.terms):
            if not _is_number(coeff):
                raise SpecError("coefficient must be a finite number", f"$.terms[{i}]")
            if not (len(exps) == self.dim and all(_is_integer(e) and e >= 0 for e in exps)):
                raise SpecError(f"exponents must be {self.dim} nonnegative integers", f"$.terms[{i}]")
            if coeff != 0.0:
                cleaned.append((float(coeff), tuple(map(int, exps))))
        object.__setattr__(self, "terms", tuple(cleaned))
        self._compile()

    def _compile(self) -> None:
        dim, half = self.dim, self.dim // 2
        # a monomial as its (variable, power) factors with nonzero power
        monomials = [tuple((k, e) for k, e in enumerate(exps) if e) for _, exps in self.terms]
        jet_grad, jet_hess = [], []  # (output index, coefficient, monomial)
        for term, factors in zip(self.terms, monomials):
            for k, ek in factors:
                d1 = _divide(factors, k)
                # J = [[0, I], [-I, 0]] as a signed row permutation
                row, sign = (k - half, 1.0) if k >= half else (k + half, -1.0)
                jet_grad.append((row, _jet_coefficient(sign * term[0], ek, term), d1))
                # both orders (k, l) and (l, k), each with the same integer
                # factor, so the assembled hessian is exactly symmetric
                for l, el in d1:
                    jet_hess.append((dim + row * dim + l, _jet_coefficient(sign * term[0], ek * el, term),
                                     _divide(d1, l)))
        rows, coeffs, factors = zip(*(jet_grad + jet_hess)) if jet_grad else ((), (), ())
        value_variables, value_powers, value_monomials = _factor_table(monomials)
        jet_variables, jet_powers, jet_monomials = _factor_table(factors)
        for name, table in (
            ("coeffs", np.array([c for c, _ in self.terms], dtype=float)),
            ("value_variables", value_variables),
            ("value_powers", value_powers),
            ("value_monomials", value_monomials),
            ("jet_rows", np.array(rows, dtype=np.intp)),
            ("jet_coeffs", np.array(coeffs, dtype=float)),
            ("jet_variables", jet_variables),
            ("jet_powers", jet_powers),
            ("jet_monomials", jet_monomials),
        ):
            object.__setattr__(self, f"_{name}", table)
        # J grad H reads the first _grad_size triplets, sliced at each call
        object.__setattr__(self, "_grad_size", len(jet_grad))
        kernel = None
        steps = sum(e - 1 for e in _top_powers(factors).values())
        if max(len(rows), steps) <= _KERNEL_MAX_TRIPLETS:
            kernel = _compile_kernel(rows, factors, dim, len(jet_grad))
        object.__setattr__(self, "_kernel", kernel)

    @cached_property
    def _reversor(self) -> np.ndarray | None:
        """The coordinates flipped by H's diagonal anti-symplectic reversor
        (see :func:`_reversor_flips`), or None; found once, when the first
        branch or orbit on H asks for it, so building H does not pay for it."""
        return _reversor_flips(self.terms, self.dim // 2)

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
        values = _monomials(x, self._value_variables, self._value_powers,
                            self._value_monomials) @ self._coeffs
        return float(values) if x.ndim == 1 else values

    def _symplectic_gradient(self, x, coeffs) -> np.ndarray:
        """J grad H(x) from the jet table's prefix, with ``coeffs`` in place
        of its coefficients, over x's last axis.  Each point's triplets are
        summed in table order, so a row of a batch equals the single-point
        value, and the J grad H of :meth:`symplectic_derivatives`, bit for
        bit."""
        x = np.asarray(x, dtype=float)
        size = self._grad_size
        weights = coeffs[:size] * _monomials(x, self._jet_variables, self._jet_powers,
                                             self._jet_monomials[:size])
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

    def _jet(self, x, coeffs) -> np.ndarray:
        """J grad H(x) followed by vec J hess H(x), from one evaluation of the
        jet table with ``coeffs`` in place of its coefficients."""
        m = _monomials(x, self._jet_variables, self._jet_powers, self._jet_monomials)
        return np.bincount(self._jet_rows, weights=coeffs * m, minlength=self.dim * (self.dim + 1))

    def symplectic_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """J grad H(x) and J hess H(x) from one evaluation of the jet table."""
        flat = self._jet(np.asarray(x, dtype=float), self._jet_coeffs)
        return flat[:self.dim], flat[self.dim:].reshape(self.dim, self.dim)


@dataclass(frozen=True)
class HamiltonianField:
    """x -> lam * J * grad H(x), with its variational equation for shooting.

    It implements the whole field protocol of :func:`flow`, two calls.
    ``field(x)`` is the state-only field, at one point or, for an ``(m,
    dim)`` array, at each row (bit for bit the single-point values).
    ``bind(y, out)``, for two contiguous buffers of length ``dim +
    dim*dim``, returns ``evaluate()``, which writes the
    augmented field at ``y = (x, vec Phi)`` into ``out`` each time it is
    called, with the buffers' slices and ``(dim, dim)`` views taken once, in
    ``bind``.  ``lam`` is folded once, into a copy of the jet table's
    coefficients, so both read the same triplets and ``field(x)`` equals the
    first ``dim`` outputs of an evaluation bit for bit; both round
    differently from ``lam`` times the unscaled sums.

    Each field takes one derivative path, chosen by the size of ``H``'s jet
    table.  At most ``_KERNEL_MAX_TRIPLETS`` triplets and power steps:
    ``H``'s generated kernel, bound here to the folded coefficients, whose
    ``field(X)`` is one call of its ``state`` on the batch's columns; its
    powers are products, so it agrees with the table to rounding, not bit
    for bit.  Above the cap: the numpy table, with one gather of powers, one
    product per triplet and one sum.  Either way ``J hess H @ Phi`` is one
    ``ndarray.dot``.
    """

    H: PolynomialHamiltonian
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        coeffs = self.lam * self.H._jet_coeffs
        kernel = self.H._kernel
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_kernel", None if kernel is None else kernel(coeffs.tolist()))

    def __call__(self, x) -> np.ndarray:
        """``lam J grad H`` at a point x, or at each point of an array whose
        last axis has length ``dim``.  On the kernel path a point is read as
        floats, and a batch as one array per coordinate, each output
        computed with the same operations per element as at one point, so
        each row equals the single-point value bit for bit; an output that
        reads no coordinate (a linear term's) is broadcast to every row."""
        if self._kernel is None:
            return self.H._symplectic_gradient(x, self._coeffs)
        state = self._kernel[0]
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.array(state(*x.tolist()))
        X = x.reshape(-1, x.shape[-1])
        values = np.empty(X.shape)
        for k, column in enumerate(state(*X.T)):
            values[:, k] = column
        return values.reshape(x.shape)

    def bind(self, y, out):
        """The evaluator that writes ``lam J grad H(x)`` and then
        ``lam J hess H(x) @ Phi``, row by row, into ``out`` for ``y = (x,
        vec Phi)``, both contiguous arrays of length ``n + n*n``: one
        evaluation of the jet, by the kernel or as in
        :meth:`PolynomialHamiltonian.symplectic_derivatives`, gives both."""
        if self._kernel is not None:
            return self._kernel[1](y, out)
        jet, coeffs = self.H._jet, self._coeffs
        n = self.H.dim
        x, Jg = y[:n], out[:n]
        Phi, JH_Phi = y[n:].reshape(n, n), out[n:].reshape(n, n)

        def evaluate():
            flat = jet(x, coeffs)
            Jg[:] = flat[:n]
            flat[n:].reshape(n, n).dot(Phi, out=JH_Phi)
        return evaluate


@dataclass(frozen=True)
class FlowResult:
    endpoint: np.ndarray
    monodromy: np.ndarray
    solution: object  # a dop853.StateInterpolant of the state over [0, T]
    steps: int  # accepted steps
    rejected: int  # rejected step attempts
    rhs_calls: int  # evaluator calls: 12 * (steps + rejected) + 2


def flow(field, x0, T: float, rtol: float = 1e-10, atol: float = 1e-10,
         domain_bound: float = 1e6) -> FlowResult:
    """Integrate the field and its variational equations over [0, T].

    One loop of the DOP853 embedded 8(5,3) pair of Dormand and Prince
    (Hairer, Norsett and Wanner, Solving ODEs I, section II.10), with scipy's
    initial step, step-size controller and error norm.  The field protocol
    is two calls.  ``bind(y, out)`` returns an evaluator that writes the
    augmented field at ``y = (x, vec Phi)``, the field at x and its Jacobian
    applied to Phi, into ``out``; for a :class:`HamiltonianField` both come
    from one evaluation of the jet table of J grad H and J hess H.  A field
    without ``bind`` raises :class:`ValueError`.  The other call is the
    state-only ``field(X)``, which only the result's interpolant makes (see
    below).  The state y is row 0 of one buffer whose other rows are the
    stage slopes K, and each stage pair is bound once per flow: the product
    of the row ``[1, h*A[s, :s]]`` with the rows before it, which makes the
    stage state (the order-8 update for the last pair), and the evaluator of
    that state into its slope row.  Both error estimates are one product
    of ``[E5, E3]`` with K, divided by a scale built in place from ``|y|``,
    carried over from the accepted step; so the loop itself allocates no
    array per stage.  Each accepted step is recorded by one copy of the
    buffer's first n columns, its start state and its 13 state slopes,
    which the interpolant stacks once, on its first read.
    The products sum in another order than scipy's, so endpoints agree with
    ``solve_ivp``'s to rounding, not bit for bit.  The error is controlled
    per component: the state runs ``_SAFETY`` below ``rtol``/``atol`` so
    that the energy drift over a period stays within ten times the
    tolerance, while the monodromy, which only steers Newton, runs at
    ``rtol``/``atol`` itself.

    The right-hand side budget is exact: 12 evaluator calls per attempted
    step, plus 2 at the start (the first slope and the initial step's
    probe), counted in the result's ``steps``, ``rejected`` and
    ``rhs_calls``.  The result's ``solution`` is a
    :class:`~hambif.dop853.StateInterpolant` of the state rows only, which
    makes no field call until it is read; its first read makes 3 batched
    state-only calls ``field(X)``, each over all steps at once.  A state of
    norm above ``domain_bound``, at the start or at the end of an accepted
    step, raises :class:`IntegrationError` with that time as ``exit_time``;
    so does a step size below the spacing of floats at t.  ``T``, ``rtol``
    and ``atol`` must be positive and finite and ``domain_bound`` not NaN,
    or :class:`ValueError` is raised before the first step.
    """
    # imported on first use: compiling the tableau would add to the import
    # of every run that traces no branch
    from . import dop853

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    bind = getattr(field, "bind", None)
    if bind is None:
        raise ValueError("field must expose bind(y, out) for variational integration")
    T = float(T)
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise ValueError(f"{name} must be positive and finite")
    if math.isnan(domain_bound):
        raise ValueError("domain_bound must not be NaN")

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

    # row 0 holds the state y and rows 1 to 13 the stage slopes K, so that a
    # stage state y + h * (A[s, :s] . K[:s]) is the one product
    # [1, h * A[s, :s]] . [y; K[:s]], and the order-8 update is row 12's
    YK = np.empty((dop853.N_STAGES + 2, size))
    y, K = YK[0], YK[1:]
    weights = np.ones((dop853.N_STAGES + 1, dop853.N_STAGES + 1))  # column 0 stays 1
    A, hA = dop853.A[:dop853.N_STAGES + 1, :dop853.N_STAGES], weights[:, 1:]
    stage, y_new = np.empty(size), np.empty(size)
    # each stage pair: its weights' bound product with the rows before it,
    # written into one stage buffer, and the evaluator of that buffer into
    # its slope row; the last pair makes the order-8 update y_new and K[12]
    stage_pairs = [(weights[s, :s + 1].dot, YK[:s + 1], stage, bind(stage, K[s]))
                   for s in range(1, dop853.N_STAGES)]
    stage_pairs.append((weights[dop853.N_STAGES].dot, YK[:dop853.N_STAGES + 1], y_new,
                        bind(y_new, K[-1])))
    estimate, errors = dop853._E5_E3.dot, np.empty((2, size))
    err5, err3 = errors
    # |y| carries over from the accepted step; scale = atols + max(|y|, |y_new|) * rtols
    abs_y, abs_y_new, scale = np.empty(size), np.empty(size), np.empty(size)
    x = y[:n]
    x[:] = x0
    y[n:] = np.eye(n).ravel()
    bind(y, K[0])()

    def rhs(y_probe):
        out = np.empty(size)
        bind(y_probe, out)()
        return out

    h_abs = dop853.initial_step(rhs, y, K[0], T, rtols, atols)
    np.abs(y, out=abs_y)
    rhs_calls, steps, rejections = 2, 0, 0
    t = 0.0
    # per accepted step, its start time and one copy of YK's state columns:
    # its start state and its 13 state slopes
    ts, records = [t], []
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
            for weighted_sum, rows_before, stage_y, evaluate in stage_pairs:
                weighted_sum(rows_before, out=stage_y)
                evaluate()
            rhs_calls += dop853.N_STAGES
            # the 5th- and 3rd-order estimates, damped as in Hairer's DOP853
            estimate(K, out=errors)
            np.abs(y_new, out=abs_y_new)
            np.maximum(abs_y, abs_y_new, out=scale)
            scale *= rtols
            scale += atols
            errors /= scale
            # squares of the 2-norms, rounded as np.linalg.norm(v) ** 2 rounds them
            err5_2, err3_2 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                error = h * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * size)
            h_abs *= dop853.step_factor(error, rejected)
            if error < 1:
                break
            rejected = True
            rejections += 1
        steps += 1
        records.append(YK[:, :n].copy())
        t = t_new
        y[:] = y_new
        abs_y, abs_y_new = abs_y_new, abs_y
        if escaped(x):
            raise IntegrationError(f"trajectory left the domain (norm > {domain_bound:g})",
                                   exit_time=t)
        ts.append(t)
        K[0] = K[-1]
    return FlowResult(
        endpoint=x,
        monodromy=y[n:].reshape(n, n),
        solution=dop853.StateInterpolant(field, ts, records, x.copy()),
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
        """Refuse the values the problem file refuses: each field's type by
        the one field rule, then the settings with which no branch can be
        traced."""
        _check_fields(self)
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
        if self.sample_points > _MAX_SAMPLE_POINTS:
            raise ValueError(f"sample_points must be at most {_MAX_SAMPLE_POINTS}")


DEFAULT_CONFIG = ContinuationConfig()


def _orbit_diagnostics(field, equilibrium, x0, config, dense_sol, window):
    """Amplitude (largest distance from the equilibrium) and energy drift of
    the orbit, read from its dense interpolant over ``[0, window]``: the
    whole period, or its first half or quarter on a symmetric orbit.  Its
    other half is its mirror image ``x(2 pi - t) = R x(t)``, and on a doubly
    symmetric orbit, whose equilibrium is the origin, its second quarter is
    ``x(pi - t) = -R x(t)``, each at the same distances and energies.  The
    drift is read over
    ``sample_points`` equally spaced samples, read in one array and valued
    by ``H`` in blocks of at most ``_DRIFT_BLOCK`` samples (one block by
    default), the amplitude from the best sample, refined towards the zero
    of ``d/dt |x - eq|^2 = 2 (x - eq) . f(x)`` between its two neighbours,
    with f the field at the interpolated state.  Each refining step reads
    the interpolant at one time, through the scalar path of
    :class:`~hambif.dop853.StateInterpolant`.  It is a secant step inside
    the bracket that the slope's sign change keeps, or a bisection after a
    step that did not halve it, so a flat maximum (a multiple zero)
    converges too; the amplitude is the largest distance read, never less
    than the best sample's.  The bracket of a half or quarter window stays
    inside it: the distance of a symmetric orbit is stationary at both of
    the window's ends, where it meets a reversor."""
    ts = np.linspace(0.0, window, config.sample_points)
    states = dense_sol(ts)
    H = field.H
    energy = H.value(x0)
    drift = float(np.max([np.max(np.abs(H.value(states[:, i:i + _DRIFT_BLOCK].T) - energy))
                          for i in range(0, ts.size, _DRIFT_BLOCK)]))
    distances = np.linalg.norm(states - equilibrium[:, None], axis=0)
    best = int(np.argmax(distances))
    amplitude = distances[best]

    def slope(t):
        """Half the slope of |x - eq|^2 at time t, and the distance there."""
        x = dense_sol(t % TWO_PI)
        offset = x - equilibrium
        # the 2-norm as np.linalg.norm computes it, bit for bit
        return float(offset @ field(x)), math.sqrt(offset.dot(offset))

    # the bracket [lo, hi] keeps slope(lo) > 0 > slope(hi); inside it, with
    # the slope decreasing, |x - eq|^2 / 2 exceeds its value at either end,
    # and so amplitude^2 / 2, by at most min(g_lo, -g_hi) * (hi - lo)
    width = ts[1] - ts[0]
    lo, hi = ts[best] - width, ts[best] + width
    if window < TWO_PI:
        lo, hi = max(lo, 0.0), min(hi, window)
    (g_lo, _), (g_hi, _) = slope(lo), slope(hi)
    halved = True
    for _ in range(_REFINE_STEPS):
        if not g_lo > 0.0 > g_hi or min(g_lo, -g_hi) * (hi - lo) <= _REFINE_GAIN * amplitude ** 2:
            break
        t = (lo * g_hi - hi * g_lo) / (g_hi - g_lo) if halved else 0.5 * (lo + hi)
        g, distance = slope(t)
        amplitude = max(amplitude, distance)
        before = hi - lo
        if g > 0.0:
            lo, g_lo = t, g
        else:
            hi, g_hi = t, g
        halved = hi - lo <= 0.5 * before
    return float(amplitude), drift


def _symmetric_coordinates(H: PolynomialHamiltonian, equilibrium) -> np.ndarray | None:
    """The coordinates flipped by H's reversor R when R fixes the
    equilibrium, which then has them all 0; else None."""
    flipped = H._reversor
    if flipped is None or np.any(equilibrium[flipped]):
        return None
    return flipped


def correct_orbit(H: PolynomialHamiltonian, guess: PeriodicOrbit,
                  config: ContinuationConfig = DEFAULT_CONFIG,
                  equilibrium=None, constraint=None) -> PeriodicOrbit:
    """Newton correction of the shooting system.

    The bordered system is {shooting defect, phase anchor, one scalar
    constraint}; by default the constraint pins the distance from the
    equilibrium at the guess amplitude, while branch stepping passes a
    pseudo-arclength row instead.  When H has a diagonal anti-symplectic
    reversor R that fixes the equilibrium, and the guess lies on Fix(R)
    (the coordinates R flips are exactly 0), the orbit is corrected as a
    symmetric one, by half-period shooting on Fix(R); otherwise over the
    whole period.  See :func:`_correct_orbit`.
    """
    equilibrium = np.zeros(H.dim) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    flipped = _symmetric_coordinates(H, equilibrium)
    if flipped is not None and np.any(np.asarray(guess.x0, dtype=float)[flipped]):
        flipped = None
    return _correct_orbit(H, guess, config, equilibrium, constraint, flipped)


def _symmetric_residual(shot: FlowResult, zero: np.ndarray) -> float:
    """``|Phi(T)^-1 d|`` for a shot over ``[0, T]`` from Fix(R), with ``d =
    x(T) - R' x(T)`` and ``R'`` the reversor that the orbit meets at T, which
    negates the coordinates ``zero``: to first order, how far the orbit
    continued over ``[T, 2T]`` ends from ``R' x(0)``, the point a symmetric
    orbit reaches at ``2T`` (see :func:`_correct_orbit`)."""
    d = np.zeros(shot.endpoint.size)
    d[zero] = 2.0 * shot.endpoint[zero]
    return float(np.linalg.norm(np.linalg.solve(shot.monodromy, d)))


def _correct_orbit(H: PolynomialHamiltonian, guess: PeriodicOrbit, config: ContinuationConfig,
                   equilibrium: np.ndarray, constraint, flipped: np.ndarray | None,
                   quarter: bool = False) -> PeriodicOrbit:
    """The corrector of :func:`correct_orbit`, over the whole period when
    ``flipped`` is None, else on the Fix(R) of the reversor R that flips the
    coordinates ``flipped``: over half the period, or over a quarter of it
    when ``quarter`` is set (H even, the equilibrium the origin, so that -R
    is a reversor too).

    Both systems are read off one bordered Jacobian of the shot ``x(T)``,
    the phase anchor and the constraint, over ``(x0, lam)``.  Over the
    whole period, ``T = 2 pi``: the defect ``x(T) - x0``, the phase anchor
    and the constraint, overdetermined, solved by least squares.  On Fix(R)
    a symmetric orbit meets a reversor ``R'`` again at ``T``, where the
    coordinates ``zero`` that ``R'`` negates vanish: ``R' = R`` at ``T =
    pi``, ``zero`` the flipped coordinates, and ``R' = -R`` at ``T = pi/2``,
    ``zero`` those that R fixes.  The system is those components of
    ``x(T)`` and the constraint, over the coordinates that R fixes and
    ``lam``.  It is square, with no phase row, since a symmetric orbit
    crosses Fix(R) at isolated points; it is solved by LU, and a singular
    one raises :class:`CorrectorError`.  With ``x0[flipped]`` exactly 0,
    the half system's ``x(pi)`` rows are those of its defect, bit for bit.

    On Fix(R) the ``residual`` is first-order: with ``d = x(T) - R' x(T)``,
    reversibility, ``phi_T(R' y) = R' phi_-T(y)``, says that the flow over
    ``[T, 2T]`` maps ``R' x(T)`` to ``R' x0``, and so ``x(T)`` to ``R' x0 -
    R' Phi(T)^-1 d`` to first order, for ``Phi(T)`` the monodromy over
    ``[0, T]``.  The residual is ``|Phi(T)^-1 d|``: the full-period defect
    for the half system, and the defect of ``x(pi)`` from ``-x0`` for the
    quarter one.  It must fall to ``corrector_tol`` times ``min(1, |x0 -
    eq|)``: the defect moves by about ``2 pi beta |x0 - eq|`` per unit of
    ``lam``, so ``lam`` is then held to about ``corrector_tol / (2 pi
    beta)`` at every amplitude, where the absolute bound of the
    whole-period system lets it stray by that over ``|x0 - eq|``.
    """
    n = H.dim
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
    f_ref = HamiltonianField(H, lam)(x_ref)
    if np.linalg.norm(f_ref) == 0.0:
        raise CorrectorError("phase anchor sits at an equilibrium", residual=np.inf)
    period = TWO_PI if flipped is None else 0.5 * math.pi if quarter else math.pi

    residual = math.inf
    for _ in range(config.max_corrector_iters):
        if not (max(config.lambda_min / 10.0, 0.0) < lam < config.lambda_max * 10.0):
            raise CorrectorError(f"lambda {lam:g} left the trust window", residual=residual)
        field = HamiltonianField(H, lam)
        shot = flow(field, x0, period, rtol=config.integrator_rtol, atol=config.integrator_atol,
                    domain_bound=config.domain_bound)
        cval, crow = constraint(x0, lam)
        if flipped is None:
            defect, jac_x = shot.endpoint - x0, shot.monodromy - np.eye(n)
            phase = float(f_ref @ (x0 - x_ref))
            residual = float(np.linalg.norm(defect))
            residual_tol = config.corrector_tol
        else:
            defect, jac_x = shot.endpoint, shot.monodromy
            phase = 0.0  # a point of Fix(R) leaves no phase to pin
            fixed, residual_tol = _symmetric_bound(x0, equilibrium, flipped, config)
            zero = fixed if quarter else flipped  # the components of x(T) that vanish
            residual = _symmetric_residual(shot, zero)
        F = np.concatenate([defect, [phase, cval]])
        if residual <= residual_tol and abs(phase) <= config.corrector_tol and \
                abs(cval) <= config.corrector_tol:
            amplitude, drift = _orbit_diagnostics(field, equilibrium, x0, config, shot.solution,
                                                  period)
            return PeriodicOrbit(
                x0=x0, lam=lam, amplitude=amplitude, residual=residual, energy_drift=drift
            )
        jac = np.zeros((n + 2, n + 1))
        jac[:n, :n] = jac_x
        jac[:n, n] = (period / lam) * field(shot.endpoint)
        jac[n, :n] = f_ref
        jac[n + 1, :] = crow
        if flipped is None:
            step, *_ = np.linalg.lstsq(jac, -F, rcond=None)
        else:
            step = np.zeros(n + 1)
            rows, cols = np.append(zero, n + 1), np.append(fixed, n)  # with the constraint, lam
            try:
                step[cols] = np.linalg.solve(jac[np.ix_(rows, cols)], -F[rows])
            except np.linalg.LinAlgError:
                raise CorrectorError("singular symmetric system", residual=residual) from None
        x0 = x0 + step[:n]
        lam = lam + step[n]
    raise CorrectorError(
        f"no convergence in {config.max_corrector_iters} iterations", residual=residual
    )


def seed_from_linearization(A, beta0: float, amplitude: float, equilibrium=None,
                            tol: TolerancePolicy = DEFAULT_TOL) -> PeriodicOrbit:
    """Predictor on the eigendirection of i*beta0, at the linear level 1/beta0.

    beta0 names a frequency of J A by the rule of ``jordan_partition``, which
    raises EigenvalueNotFoundError when it names none and DecompositionError
    when the spectrum is undecided."""
    lin = _linearize(A, tol)
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {amplitude}")
    n = lin.M.shape[0]
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    lin.cluster_at(beta0)
    # a geometric eigenvector always exists; the SVD null vector of the shifted
    # matrix stays machine-accurate even when i*beta0 is defective
    shifted = lin.M.astype(complex) - 1j * beta0 * np.eye(n)
    v = np.linalg.svd(shifted)[2][-1].conj()
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


def _seed_on_fix(H: PolynomialHamiltonian, seed: PeriodicOrbit, equilibrium,
                 flipped: np.ndarray) -> PeriodicOrbit | None:
    """The seed moved along its linear orbit to Fix(R), or None when that
    orbit does not meet Fix(R).

    A linear seed ``eq + d`` of frequency ``beta = 1/lam`` runs along
    ``eq + cos(t) d + sin(t) e``, with ``e = J hess H(eq) d / beta`` a
    quarter period later.  The point whose flipped coordinates are smallest
    in norm is taken at the ``t`` that minimizes that quadratic form, with
    no eigensolver; its flipped coordinates are set to 0 if they lie within
    ``_FIX_TOL`` of the seed's size of it, and of the two such points of the
    orbit, ``eq + x`` and ``eq - x``, the one whose first coordinate beyond
    that tolerance is positive is kept.  So the seed depends on its linear
    orbit, not on the phase the linear algebra gave it.  A seed of several
    modes at once (at a multiple frequency) can have no point on Fix(R)."""
    d = np.asarray(seed.x0, dtype=float) - equilibrium
    e = H.symplectic_derivatives(equilibrium)[1] @ d * seed.lam
    a, b = d[flipped], e[flipped]
    t = 0.5 * math.atan2(2.0 * float(a @ b), float(a @ a - b @ b)) + 0.5 * math.pi
    x = math.cos(t) * d + math.sin(t) * e
    size = np.linalg.norm(d)
    if not (size > 0.0 and np.linalg.norm(x[flipped]) <= _FIX_TOL * size):
        return None
    x[flipped] = 0.0
    if x[np.argmax(np.abs(x) > _FIX_TOL * size)] < 0.0:
        x = -x
    return replace(seed, x0=equilibrium + x, amplitude=float(np.linalg.norm(x)))


def _symmetric_bound(x0, equilibrium, flipped: np.ndarray, config: ContinuationConfig) -> tuple[np.ndarray, float]:
    """The coordinates that R fixes, and the residual bound ``corrector_tol * min(1, |x0 - eq|)`` at
    which the half and quarter correctors stop and the quarter-period guard accepts."""
    fixed = np.ones(x0.size, dtype=bool)
    fixed[flipped] = False  # a mask, not np.setdiff1d: this runs at every Newton step, and 10x faster
    return np.flatnonzero(fixed), config.corrector_tol * min(1.0, float(np.linalg.norm(x0 - equilibrium)))


def _doubly_symmetric(H: PolynomialHamiltonian, first: PeriodicOrbit, config: ContinuationConfig,
                      equilibrium: np.ndarray, flipped: np.ndarray | None) -> bool:
    """Whether the branch through its first orbit ``first`` is shot over a
    quarter of the period: H has the reversor R that flips ``flipped`` and
    is even, so -R is a reversor too; the equilibrium is the origin, the one
    point that -R fixes; ``first`` lies on Fix(R); and one flow of ``pi/2``
    from it meets Fix(-R) within the quarter system's residual bound, so
    that the orbit is doubly symmetric and no Newton step moves it."""
    if flipped is None or np.any(equilibrium) or np.any(first.x0[flipped]) or \
            any(sum(e) % 2 for _, e in H.terms):
        return False
    try:
        shot = flow(HamiltonianField(H, first.lam), first.x0, 0.5 * math.pi, rtol=config.integrator_rtol,
                    atol=config.integrator_atol, domain_bound=config.domain_bound)
    except IntegrationError:
        return False
    fixed, bound = _symmetric_bound(first.x0, equilibrium, flipped, config)
    return _symmetric_residual(shot, fixed) <= bound


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


def _arclength_constraint(tangent, z_pred):
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

    When H has a diagonal anti-symplectic reversor R that fixes the
    equilibrium, the first orbit is corrected from the seed moved along its
    linear orbit to Fix(R) (:func:`_seed_on_fix`).  The second anchor and
    every prediction are affine combinations of points of Fix(R), so they
    stay on it, and each orbit is corrected by half-period shooting
    (:func:`correct_orbit`), its ``x0`` a point of Fix(R).  When H is also
    even and the equilibrium is the origin, and the first orbit lies on
    Fix(R) and already passes the quarter-period residual test with no
    Newton step (one flow of ``pi/2``), every later orbit is corrected by
    quarter-period shooting; a first orbit that fails the test, such as one
    of a family whose orbits repeat after half the period, keeps half-period
    shooting for the whole branch.  A seed whose
    linear orbit misses Fix(R), or whose point there does not converge, is
    corrected as given, which off Fix(R) means full-period shooting for the
    whole branch.  The point on Fix(R) of a nonsemisimple block's linear
    orbit is one that does not converge: there the branch's orbits lie far
    from the linear ones at the seed amplitude.
    """
    n = H.dim
    equilibrium = np.zeros(n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    flipped = _symmetric_coordinates(H, equilibrium)
    guesses = [seed]
    if flipped is not None:
        symmetric = _seed_on_fix(H, seed, equilibrium, flipped)
        if symmetric is not None:
            guesses.insert(0, symmetric)
    for guess in guesses:
        try:
            first = correct_orbit(H, guess, config, equilibrium)
            break
        except (CorrectorError, IntegrationError):
            continue
    else:
        return Branch(orbits=(), termination="corrector_failure")
    orbits = [first]
    correct = correct_orbit
    if _doubly_symmetric(H, first, config, equilibrium, flipped):
        correct = partial(_correct_orbit, flipped=flipped, quarter=True)

    # second anchor slightly farther out, still amplitude-pinned
    second_guess = replace(
        seed,
        x0=equilibrium + (first.x0 - equilibrium) * (1.0 + config.initial_step / max(first.amplitude, 1e-12)),
        lam=first.lam,
        amplitude=first.amplitude + config.initial_step,
    )
    try:
        second = correct(H, second_guess, config, equilibrium, None)
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
                nxt = correct(H, guess, config, equilibrium, _arclength_constraint(tangent, z_pred))
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
    """True iff the branch has an orbit with amplitude < delta and every such
    orbit has its unscaled period 2*pi*lambda within epsilon of 2*pi/beta0;
    an empty branch, or one with no orbit that small, verifies nothing."""
    small = [orbit.lam for orbit in branch.orbits if orbit.amplitude < delta]
    return bool(small) and all(abs(TWO_PI * lam - TWO_PI / beta0) < epsilon for lam in small)
