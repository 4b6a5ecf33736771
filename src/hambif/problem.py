"""Problem descriptions: parsing, validation, and canonical serialization.

The on-disk format is JSON with explicit dimensions and row-major matrices;
polynomial Hamiltonians are (coefficient, exponent-vector) term lists.  Field
names are frozen in docs/FORMAT.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .continuation import ContinuationConfig, PolynomialHamiltonian
from .errors import ConsistencyError, SpecError
from .linalg import TolerancePolicy, _asymmetry, _check_fields, _even_dim, _is_number, _typed


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    hessian: np.ndarray
    brouwer_index: int | None = None

    def __post_init__(self):
        """Refuse a Brouwer index that is not an integer; keep a numpy one as the int JSON emits."""
        _check_fields(self)


@dataclass(frozen=True)
class AnalysisOptions:
    lambda_max: float = 10.0
    j_max: int | None = None
    betas: tuple[float, ...] | str = "all"
    tolerances: TolerancePolicy = field(default_factory=TolerancePolicy)
    continuation: ContinuationConfig = field(default_factory=ContinuationConfig)
    continuation_enabled: bool = True

    def __post_init__(self):
        """Refuse the values the problem file refuses, so that none reaches
        ``run_analysis``; keep betas as a tuple of floats."""
        _check_fields(self)
        if not self.lambda_max > 0.0:
            raise SpecError("expected a positive number", "$.lambda_max")
        if self.j_max is not None and self.j_max < 1:
            raise SpecError("expected a positive integer", "$.j_max")
        if isinstance(self.betas, tuple) and all(_is_number(b) and b > 0.0 for b in self.betas):
            object.__setattr__(self, "betas", tuple(map(float, self.betas)))
        elif not (isinstance(self.betas, str) and self.betas == "all"):
            raise SpecError('expected "all" or a list of positive finite numbers', "$.betas")


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    equilibria: tuple[Equilibrium, ...]
    hamiltonian: PolynomialHamiltonian | None = None
    options: AnalysisOptions = field(default_factory=AnalysisOptions)

    def __post_init__(self):
        """Refuse what the problem file refuses of the whole problem, with its
        text and JSON path (docs/FORMAT.md); keep each point and Hessian as
        read-only finite float arrays, each Hessian symmetrized, which
        ``run_analysis`` reads without a second check."""
        object.__setattr__(self, "dim", _even_dim(self.dim))
        _require(self.equilibria, "at least one equilibrium is required", "$.equilibria")
        H = self.hamiltonian
        _require(H is None or H.dim == self.dim, f"hamiltonian dim must be the integer {self.dim}", "$.hamiltonian.dim")
        equilibria = []
        for i, eq in enumerate(self.equilibria):
            path = f"$.equilibria[{i}]"
            point = _entries(eq.point, self.dim, f"{path}.point")
            hessian = _entries(eq.hessian, self.dim, f"{path}.hessian", ndim=2)
            asym, bound = _asymmetry(hessian, self.options.tolerances)
            _require(asym <= bound, f"equilibrium {i}: hessian asymmetry {asym:.3e} exceeds tolerance",
                     f"{path}.hessian", ConsistencyError)
            hessian = 0.5 * (hessian + hessian.T)
            if H is not None:
                # a term that overflows at the point is refused below, with no numpy warning first
                with np.errstate(all="ignore"):
                    gnorm = float(np.linalg.norm(H.gradient(point)))
                    mismatch = float(np.max(np.abs(H.hessian(point) - hessian)))
                _require(gnorm <= bound, f"equilibrium {i}: Hamiltonian gradient norm {gnorm:.3e} does not vanish",
                         f"{path}.point", ConsistencyError)  # NaN included
                _require(mismatch <= bound, f"equilibrium {i}: declared hessian differs from the Hamiltonian's by "
                         f"{mismatch:.3e}", f"{path}.hessian", ConsistencyError)
            point.flags.writeable = hessian.flags.writeable = False
            equilibria.append(replace(eq, point=point, hessian=hessian))
        object.__setattr__(self, "equilibria", tuple(equilibria))


def _require(condition, message, path, error=SpecError):
    if not condition:
        raise error(message, path)


def _entries(value, dim, path, ndim=1):
    """``value`` as a float array of ``ndim`` axes of ``dim`` finite
    numbers: a point (1) or a Hessian (2), read as rows."""
    if isinstance(value, np.ndarray):
        value = value.tolist()  # read as the file's lists are
    if ndim == 2:
        _require(isinstance(value, (list, tuple)), "expected a row-major matrix", path)
        _require(len(value) == dim, f"expected {dim} rows, got {len(value)}", path)
        return np.array([_entries(row, dim, f"{path}[{r}]") for r, row in enumerate(value)])
    _require(isinstance(value, (list, tuple)), "expected a list of numbers", path)
    _require(len(value) == dim, f"expected length {dim}, got {len(value)}", path)
    if not all(map(_is_number, value)):
        k = next(k for k, v in enumerate(value) if not _is_number(v))
        raise SpecError("expected a finite number", f"{path}[{k}]")
    return np.array(value, dtype=float)


def _build(path, make, values):
    """``make(**values)``, the object at ``path`` in the file; a refusal of
    one of its fields, at ``$.<field>``, is moved under ``path``."""
    try:
        return make(**values)
    except SpecError as exc:
        raise SpecError(exc.message, path + exc.path[1:]) from None
    except ValueError as exc:
        raise SpecError(str(exc), path) from None


def _parse_settings(cls, data, path, kind):
    """A ``cls`` settings object from a JSON object of its fields; null gives
    the defaults."""
    data = {} if data is None else data
    _require(isinstance(data, dict), "expected an object", path)
    unknown = set(data) - {f.name for f in fields(cls)}
    _require(not unknown, f"unknown {kind} fields {sorted(unknown)}", path)
    return _build(path, cls, data)


def _parse_hamiltonian(data, dim, path):
    _require(isinstance(data, dict), "expected an object", path)
    _require(isinstance(data.get("terms"), list), "hamiltonian needs a 'terms' list", f"{path}.terms")
    terms = []
    for i, term in enumerate(data["terms"]):
        tpath = f"{path}.terms[{i}]"
        if isinstance(term, dict):
            _require({"coefficient", "exponents"} <= set(term), "term needs coefficient and exponents", tpath)
            coeff, exps = term["coefficient"], term["exponents"]
        else:
            _require(isinstance(term, list) and len(term) == 2, "term must be [coefficient, exponents]", tpath)
            coeff, exps = term
        _require(isinstance(exps, list), "exponents must be a list", tpath)
        terms.append((coeff, tuple(exps)))
    return _build(path, PolynomialHamiltonian, {"dim": data.get("dim", dim), "terms": tuple(terms)})


def parse_problem(text: str) -> ProblemSpec:
    """Read a JSON problem description.

    The reader checks the JSON's shape (objects, lists, known fields) and
    ``dim``, against which the Hamiltonian is read; the objects it builds
    check the rest.  A refusal is a :class:`SpecError` at the JSON path of
    the field it names, or a :class:`ConsistencyError` naming the equilibrium.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise SpecError(f"not valid JSON: {exc}", "$") from None
    _require(isinstance(data, dict), "top level must be an object", "$")
    unknown = set(data) - {"dim", "equilibria", "hamiltonian", "analysis"}
    _require(not unknown, f"unknown top-level fields {sorted(unknown)}", "$")
    _require("dim" in data, "missing 'dim'", "$")
    dim = _even_dim(data["dim"])  # the shapes below are read against it
    _require(isinstance(data.get("equilibria"), list), "at least one equilibrium is required", "$.equilibria")

    analysis = data.get("analysis")
    if analysis is None:
        analysis = {}
    _require(isinstance(analysis, dict), "expected an object", "$.analysis")
    unknown = set(analysis) - {"lambda_max", "j_max", "betas", "tolerances", "continuation"}
    _require(not unknown, f"unknown analysis fields {sorted(unknown)}", "$.analysis")
    values = {key: analysis[key] for key in ("lambda_max", "j_max", "betas") if key in analysis}
    if isinstance(values.get("betas"), list):
        values["betas"] = tuple(values["betas"])
    values["tolerances"] = _parse_settings(TolerancePolicy, analysis.get("tolerances"),
                                           "$.analysis.tolerances", "tolerance")
    continuation = analysis.get("continuation")
    if isinstance(continuation, dict) and "enabled" in continuation:
        continuation = dict(continuation)
        values["continuation_enabled"] = _typed("bool", continuation.pop("enabled"),
                                                "$.analysis.continuation.enabled")
    values["continuation"] = _parse_settings(ContinuationConfig, continuation, "$.analysis.continuation",
                                             "continuation")
    options = _build("$.analysis", AnalysisOptions, values)

    hamiltonian = None
    if data.get("hamiltonian") is not None:
        hamiltonian = _parse_hamiltonian(data["hamiltonian"], dim, "$.hamiltonian")

    equilibria = []
    for i, eq in enumerate(data["equilibria"]):
        path = f"$.equilibria[{i}]"
        _require(isinstance(eq, dict), "expected an object", path)
        unknown = set(eq) - {"point", "hessian", "brouwer_index"}
        _require(not unknown, f"unknown fields {sorted(unknown)}", path)
        _require("point" in eq and "hessian" in eq, "equilibrium needs 'point' and 'hessian'", path)
        equilibria.append(_build(path, Equilibrium, eq))
    return ProblemSpec(dim=dim, equilibria=tuple(equilibria), hamiltonian=hamiltonian, options=options)


def problem_to_dict(spec: ProblemSpec) -> dict:
    """Canonical JSON-ready form of a problem; parse(emit(.)) is the identity."""
    out: dict = {
        "dim": spec.dim,
        "equilibria": [
            {
                "point": eq.point.tolist(),
                "hessian": eq.hessian.tolist(),
                **({"brouwer_index": eq.brouwer_index} if eq.brouwer_index is not None else {}),
            }
            for eq in spec.equilibria
        ],
        "analysis": {
            "lambda_max": spec.options.lambda_max,
            "j_max": spec.options.j_max,
            "betas": "all" if spec.options.betas == "all" else list(spec.options.betas),
            "tolerances": asdict(spec.options.tolerances),
            "continuation": {
                "enabled": spec.options.continuation_enabled, **asdict(spec.options.continuation)
            },
        },
    }
    if spec.hamiltonian is not None:
        out["hamiltonian"] = {
            "dim": spec.hamiltonian.dim,
            "terms": [
                {"coefficient": c, "exponents": list(e)} for c, e in spec.hamiltonian.terms
            ],
        }
    return out


def emit_problem(spec: ProblemSpec) -> str:
    return json.dumps(problem_to_dict(spec), indent=2, sort_keys=True) + "\n"
