"""Problem descriptions: parsing, validation, and canonical serialization.

The on-disk format is JSON with explicit dimensions and row-major matrices;
polynomial Hamiltonians are (coefficient, exponent-vector) term lists.  Field
names are frozen in docs/FORMAT.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bifurcation import _is_integer, _is_number
from .continuation import ContinuationConfig, PolynomialHamiltonian
from .errors import ConsistencyError, SpecError
from .linalg import TolerancePolicy, matrix_norm


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    hessian: np.ndarray
    brouwer_index: int | None = None

    def __post_init__(self):
        """Refuse a Brouwer index that is not an integer; keep a numpy one as the int JSON emits."""
        if self.brouwer_index is not None:
            if not _is_integer(self.brouwer_index):
                raise ValueError(f"brouwer_index must be None or an integer, got {self.brouwer_index!r}")
            object.__setattr__(self, "brouwer_index", int(self.brouwer_index))


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
        ``run_analysis``."""
        if not (_is_number(self.lambda_max) and self.lambda_max > 0.0):
            raise ValueError(f"lambda_max must be a positive finite number, got {self.lambda_max!r}")
        if not (self.j_max is None or (_is_integer(self.j_max) and self.j_max >= 1)):
            raise ValueError(f"j_max must be None or a positive integer, got {self.j_max!r}")
        if self.j_max is not None:
            object.__setattr__(self, "j_max", int(self.j_max))
        if self.betas != "all" and not (
                isinstance(self.betas, tuple) and all(_is_number(b) and b > 0.0 for b in self.betas)):
            raise ValueError(f'betas must be "all" or a tuple of positive finite numbers, got {self.betas!r}')


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    equilibria: tuple[Equilibrium, ...]
    hamiltonian: PolynomialHamiltonian | None = None
    options: AnalysisOptions = field(default_factory=AnalysisOptions)


def _require(condition, message, path):
    if not condition:
        raise SpecError(message, path)


def _check_types(data, types, path):
    """Each field of ``data`` against its declared type: ``int`` takes a
    JSON integer, ``float`` a finite number, ``float | None`` one or null."""
    for name, value in data.items():
        kind = types[name]
        ok = _is_integer(value) if kind == "int" else (
            _is_number(value) or (value is None and kind == "float | None"))
        _require(ok, f"expected {'an integer' if kind == 'int' else 'a finite number'}", f"{path}.{name}")


def _as_float_list(value, length, path):
    _require(isinstance(value, list), "expected a list of numbers", path)
    _require(len(value) == length, f"expected length {length}, got {len(value)}", path)
    for k, v in enumerate(value):
        _require(_is_number(v), "expected a finite number", f"{path}[{k}]")
    return np.array(value, dtype=float)


def _as_matrix(value, dim, path):
    _require(isinstance(value, list), "expected a row-major matrix", path)
    _require(len(value) == dim, f"expected {dim} rows, got {len(value)}", path)
    return np.vstack([_as_float_list(row, dim, f"{path}[{i}]") for i, row in enumerate(value)])


def _parse_settings(cls, data, path, kind):
    """A ``cls`` settings object from a JSON object of its fields; null gives
    the defaults.  No cast is needed: the fields' types are checked, and no
    integer lies in ``TolerancePolicy``'s open range (0, 1)."""
    if data is None:
        return cls()
    _require(isinstance(data, dict), "expected an object", path)
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    _require(not unknown, f"unknown {kind} fields {sorted(unknown)}", path)
    _check_types(data, types, path)
    try:
        return cls(**data)
    except ValueError as exc:
        raise SpecError(str(exc), path) from None


def _parse_hamiltonian(data, dim, path):
    _require(isinstance(data, dict), "expected an object", path)
    _require(isinstance(data.get("terms"), list), "hamiltonian needs a 'terms' list", f"{path}.terms")
    declared = data.get("dim", dim)
    _require(_is_integer(declared) and declared == dim, f"hamiltonian dim must be the integer {dim}",
             f"{path}.dim")
    terms = []
    for i, term in enumerate(data["terms"]):
        tpath = f"{path}.terms[{i}]"
        if isinstance(term, dict):
            _require({"coefficient", "exponents"} <= set(term), "term needs coefficient and exponents", tpath)
            coeff, exps = term["coefficient"], term["exponents"]
        else:
            _require(isinstance(term, list) and len(term) == 2, "term must be [coefficient, exponents]", tpath)
            coeff, exps = term
        _require(_is_number(coeff), "coefficient must be a finite number", tpath)
        _require(isinstance(exps, list) and len(exps) == dim and all(map(_is_integer, exps)),
                 f"exponents must be {dim} integers", tpath)
        terms.append((float(coeff), tuple(exps)))
    try:
        return PolynomialHamiltonian(dim=dim, terms=tuple(terms))
    except ValueError as exc:
        raise SpecError(str(exc), path) from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem description.

    Schema violations raise :class:`SpecError` with the offending path;
    disagreements between declared and derived data raise
    :class:`ConsistencyError` naming the equilibrium.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise SpecError(f"not valid JSON: {exc}", "$") from None
    _require(isinstance(data, dict), "top level must be an object", "$")
    unknown = set(data) - {"dim", "equilibria", "hamiltonian", "analysis"}
    _require(not unknown, f"unknown top-level fields {sorted(unknown)}", "$")
    _require("dim" in data, "missing 'dim'", "$")
    dim = data["dim"]
    _require(_is_integer(dim) and dim >= 2 and dim % 2 == 0, "'dim' must be an even integer >= 2", "$.dim")
    _require("equilibria" in data and isinstance(data["equilibria"], list) and data["equilibria"],
             "at least one equilibrium is required", "$.equilibria")

    analysis = data.get("analysis")
    if analysis is None:
        analysis = {}
    _require(isinstance(analysis, dict), "expected an object", "$.analysis")
    unknown = set(analysis) - {"lambda_max", "j_max", "betas", "tolerances", "continuation"}
    _require(not unknown, f"unknown analysis fields {sorted(unknown)}", "$.analysis")
    tolerances = _parse_settings(TolerancePolicy, analysis.get("tolerances"), "$.analysis.tolerances",
                                 "tolerance")
    continuation, enabled = analysis.get("continuation"), True
    if isinstance(continuation, dict):
        continuation = dict(continuation)
        enabled = continuation.pop("enabled", True)
        _require(isinstance(enabled, bool), "expected true or false", "$.analysis.continuation.enabled")
    continuation = _parse_settings(ContinuationConfig, continuation, "$.analysis.continuation", "continuation")
    lambda_max = analysis.get("lambda_max", 10.0)
    _require(_is_number(lambda_max) and lambda_max > 0.0, "lambda_max must be a positive finite number",
             "$.analysis.lambda_max")
    lambda_max = float(lambda_max)
    j_max = analysis.get("j_max")
    if j_max is not None:
        _require(_is_integer(j_max) and j_max >= 1, "j_max must be a positive integer", "$.analysis.j_max")
    betas = analysis.get("betas", "all")
    if betas != "all":
        _require(isinstance(betas, list) and all(map(_is_number, betas)),
                 'betas must be "all" or a list of numbers', "$.analysis.betas")
        betas = tuple(float(b) for b in betas)
        _require(all(b > 0 for b in betas), "requested betas must be positive", "$.analysis.betas")

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
        point = _as_float_list(eq["point"], dim, f"{path}.point")
        hessian = _as_matrix(eq["hessian"], dim, f"{path}.hessian")
        scale = 1.0 + matrix_norm(hessian)
        asym = float(np.max(np.abs(hessian - hessian.T)))
        if asym > tolerances.residual_tol * scale:
            raise ConsistencyError(
                f"equilibrium {i}: hessian asymmetry {asym:.3e} exceeds tolerance",
                f"{path}.hessian",
            )
        hessian = 0.5 * (hessian + hessian.T)
        brouwer = eq.get("brouwer_index")
        if brouwer is not None:
            _require(_is_integer(brouwer), "brouwer_index must be an integer", f"{path}.brouwer_index")
        if hamiltonian is not None:
            # a term that overflows at the point is refused below, with no numpy warning first
            with np.errstate(all="ignore"):
                grad = hamiltonian.gradient(point)
                derived = hamiltonian.hessian(point)
            gnorm = float(np.linalg.norm(grad))
            if not gnorm <= tolerances.residual_tol * scale:  # NaN included
                raise ConsistencyError(
                    f"equilibrium {i}: Hamiltonian gradient norm {gnorm:.3e} does not vanish",
                    f"{path}.point",
                )
            mismatch = float(np.max(np.abs(derived - hessian)))
            if not mismatch <= tolerances.residual_tol * scale:
                raise ConsistencyError(
                    f"equilibrium {i}: declared hessian differs from the Hamiltonian's by {mismatch:.3e}",
                    f"{path}.hessian",
                )
        equilibria.append(Equilibrium(point=point, hessian=hessian, brouwer_index=brouwer))

    options = AnalysisOptions(
        lambda_max=lambda_max,
        j_max=j_max,
        betas=betas,
        tolerances=tolerances,
        continuation=continuation,
        continuation_enabled=enabled,
    )
    return ProblemSpec(dim=dim, equilibria=tuple(equilibria), hamiltonian=hamiltonian, options=options)


def problem_to_dict(spec: ProblemSpec) -> dict:
    """Canonical JSON-ready form of a problem; parse(emit(.)) is the identity."""
    out: dict = {
        "dim": spec.dim,
        "equilibria": [
            {
                "point": [float(v) for v in eq.point],
                "hessian": [[float(v) for v in row] for row in eq.hessian],
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
