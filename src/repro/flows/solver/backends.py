"""Pluggable LP/MILP solver backends.

Every optimisation problem in the library — the routability test, the
split-amount LP, the concurrent-flow satisfaction LP, the multi-commodity
relaxation and the exact MinR MILP — is expressed as a backend-neutral
:class:`LinearProgram` / :class:`MILProgram` and dispatched through a
:class:`SolverBackend`:

* :class:`ScipyHighsBackend` (name ``"scipy"``) — the default, always
  available.  LPs go straight to the HiGHS bindings that scipy vendors
  (``scipy.optimize._highspy._core``): :func:`_solve_lp_highs` builds the
  HiGHS model straight from the :class:`LinearProgram` and runs it with the
  options ``linprog(method="highs")`` would set, so answers are
  bit-identical to ``linprog`` without its input validation and
  per-column marginal loop.  Because that module is private, ``linprog`` is
  kept as the path taken when it cannot be imported (older scipy, or a
  scipy that moves it); the choice follows from what is importable, with
  no option to flip it.  MILPs go through ``scipy.optimize.milp``.  Every
  program is solved from scratch: no warm starts.
* :class:`HighspyBackend` (name ``"highs"``) — registered only when the
  optional ``highspy`` package is importable (``pip install repro[highs]``).
  It runs the same :func:`_solve_lp_highs` on the ``highspy`` module and
  additionally accepts the previous solution as a warm start
  (``setSolution``), which is what makes incremental re-solves across the
  ISP inner loop cheap.

The active backend is resolved per solve: an explicit argument wins, then a
process-wide override (:func:`set_default_backend`, set by the CLI's
``--lp-backend``), then the ``REPRO_LP_BACKEND`` environment variable, then
``"scipy"``.  All registered backends are interchangeable — the backend
parity suite asserts identical verdicts and metrics on the tier-1 scenarios.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.flows.solver.stats import record_solve

try:  # scipy >= 1.15 vendors the HiGHS bindings under this private name
    from scipy.optimize._highspy import _core as _VENDORED_HIGHS
except ImportError:  # pragma: no cover - older scipy, or the module moved
    _VENDORED_HIGHS = None

#: Environment variable naming the default backend.
BACKEND_ENV_VAR = "REPRO_LP_BACKEND"

#: Per-variable bounds: one (lo, hi) for all variables, one (lo, hi) per
#: variable, or a (lower, upper) pair of arrays.  ``None`` means unbounded.
BoundsLike = Union[
    Tuple[Optional[float], Optional[float]],
    Sequence[Tuple[Optional[float], Optional[float]]],
    Tuple[np.ndarray, np.ndarray],
]


@dataclass
class LinearProgram:
    """A backend-neutral LP: ``min c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``."""

    c: np.ndarray
    a_ub: Optional[sparse.spmatrix] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[sparse.spmatrix] = None
    b_eq: Optional[np.ndarray] = None
    bounds: BoundsLike = (0, None)
    #: ``"auto"`` lets the backend choose (simplex for HiGHS);
    #: ``"interior-point"`` requests an IPM solve (used by MCW, whose optimal
    #: face interior is the point of the exercise).
    method_hint: str = "auto"

    @property
    def num_variables(self) -> int:
        return len(self.c)


@dataclass
class LPSolution:
    """Outcome of one LP solve, normalised across backends."""

    status: str  #: ``"optimal"``, ``"infeasible"``, ``"unbounded"`` or ``"error"``
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    message: str = ""
    warm_started: bool = False

    @property
    def success(self) -> bool:
        return self.status == "optimal"


@dataclass
class MILProgram:
    """A backend-neutral MILP: objective, linear constraints, integrality."""

    c: np.ndarray
    #: Constraints as ``(matrix, lb, ub)`` triples (row bounds may be ±inf).
    constraints: List[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]] = field(default_factory=list)
    integrality: Optional[np.ndarray] = None
    lb: Union[float, np.ndarray] = 0.0
    ub: Union[float, np.ndarray] = np.inf
    time_limit: Optional[float] = None
    mip_rel_gap: float = 0.0

    @property
    def num_variables(self) -> int:
        return len(self.c)


@dataclass
class MILPSolution:
    """Outcome of one MILP solve, normalised across backends."""

    status: str  #: ``"optimal"``, ``"feasible"``, ``"infeasible"`` or ``"error"``
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    mip_gap: Optional[float] = None
    #: Best proven lower bound on the objective (the MIP dual bound), when
    #: the backend reports one.  Equals ``objective`` on a proven optimum.
    dual_bound: Optional[float] = None
    #: Whether the backend actually consumed the offered incumbent.
    warm_started: bool = False

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def _bounds_arrays(bounds: BoundsLike, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise :attr:`LinearProgram.bounds` into dense (lower, upper) arrays."""
    if isinstance(bounds, tuple) and len(bounds) == 2 and isinstance(bounds[0], np.ndarray):
        lower = np.array(bounds[0], dtype=float)
        upper = np.array(bounds[1], dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError(
                f"expected lower/upper bound arrays of length {n}, "
                f"got shapes {lower.shape} and {upper.shape}"
            )
    else:
        if isinstance(bounds, tuple) and len(bounds) == 2 and not isinstance(
            bounds[0], (tuple, list)
        ):
            pairs = np.array([bounds], dtype=float).repeat(n, axis=0)
        else:
            pairs = np.array(list(bounds), dtype=float)
            if pairs.shape != (n, 2):
                raise ValueError(f"expected {n} bound pairs, got an array of shape {pairs.shape}")
        lower, upper = pairs[:, 0].copy(), pairs[:, 1].copy()
    # ``None`` parses as NaN; like ``linprog``, read it as "unbounded".
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    return lower, upper


def _stack_rows(
    program: Union[LinearProgram, MILProgram]
) -> Tuple[sparse.csc_matrix, np.ndarray, np.ndarray]:
    """One CSC row system with row bounds: ``A_ub`` rows, then ``A_eq`` rows.

    The matrix is canonical (sorted row indices, duplicates summed), which is
    the form ``linprog`` hands to HiGHS.
    """
    blocks: List[sparse.spmatrix] = []
    lowers: List[np.ndarray] = []
    uppers: List[np.ndarray] = []
    if isinstance(program, LinearProgram):
        if program.a_ub is not None:
            blocks.append(program.a_ub)
            upper = np.asarray(program.b_ub, dtype=float)
            lowers.append(np.full(len(upper), -np.inf))
            uppers.append(upper)
        if program.a_eq is not None:
            rhs = np.asarray(program.b_eq, dtype=float)
            blocks.append(program.a_eq)
            lowers.append(rhs)
            uppers.append(rhs)
    else:
        for matrix, lb, ub in program.constraints:
            rows = matrix.shape[0]
            blocks.append(matrix)
            lowers.append(np.broadcast_to(np.asarray(lb, dtype=float), (rows,)))
            uppers.append(np.broadcast_to(np.asarray(ub, dtype=float), (rows,)))
    if not blocks:
        empty = sparse.csc_matrix((0, program.num_variables))
        return empty, np.zeros(0), np.zeros(0)
    # Stacking CSR blocks is a plain concatenation; the CSC conversion then
    # sorts row indices (and copies, so the caller's matrices stay intact).
    csr_blocks = [sparse.csr_matrix(block) for block in blocks]  # dense too, like linprog
    stacked = sparse.vstack(csr_blocks, format="csr", dtype=float).tocsc()
    stacked.sum_duplicates()
    return stacked, np.concatenate(lowers), np.concatenate(uppers)


def _new_highs(core):
    """A fresh HiGHS instance from ``core`` with logging off.

    ``highspy`` exposes the public ``Highs`` class; scipy's vendored copy of
    the same bindings only the base ``_Highs``.
    """
    solver = core.Highs() if hasattr(core, "Highs") else core._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("log_to_console", False)
    return solver


def _load_model(
    core,
    solver,
    program: Union[LinearProgram, MILProgram],
    col_lower: np.ndarray,
    col_upper: np.ndarray,
):
    """Pass ``program`` to ``solver`` as one HiGHS model; returns the HighsStatus."""
    matrix, row_lower, row_upper = _stack_rows(program)
    lp = core.HighsLp()
    lp.num_col_ = program.num_variables
    lp.num_row_ = matrix.shape[0]
    lp.col_cost_ = np.asarray(program.c, dtype=float)
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = program.num_variables
    lp.a_matrix_.num_row_ = matrix.shape[0]
    # Float arrays cross the bindings as buffers, integer arrays element by
    # element; as Python lists the latter convert about twice as fast.
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data
    if isinstance(program, MILProgram) and program.integrality is not None:
        lp.integrality_ = [
            core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
            for flag in np.asarray(program.integrality)
        ]
    return solver.passModel(lp)


def _offer_solution(core, solver, values: np.ndarray) -> bool:
    """Hand ``values`` to ``solver`` as a starting point; True if accepted."""
    try:
        solution = core.HighsSolution()
        solution.col_value = np.asarray(values, dtype=float)
        return solver.setSolution(solution) == core.HighsStatus.kOk
    except (AttributeError, TypeError, ValueError):
        return False


#: HiGHS ``simplex_strategy`` value of the dual simplex (``linprog``'s choice).
_SIMPLEX_STRATEGY_DUAL = 1


def _solve_lp_highs(
    core,
    program: LinearProgram,
    warm_start: Optional[np.ndarray] = None,
    *,
    use_warm_start: bool = False,
) -> LPSolution:
    """Solve ``program`` through the HiGHS bindings module ``core``.

    Runs with exactly the options ``linprog(method="highs")`` sets (dual
    simplex, presolve on, no output; the interior-point solver for
    ``method_hint="interior-point"``) and maps model statuses the way
    ``linprog`` does, so the answer is bit-identical to ``linprog``'s.
    ``warm_start`` is only consumed when ``use_warm_start`` is set (and never
    for IPM solves); the offer is recorded in the solver stats either way.
    """
    interior = program.method_hint == "interior-point"
    started = time.perf_counter()
    solver = _new_highs(core)
    solver.setOptionValue("presolve", "on")
    solver.setOptionValue("simplex_strategy", _SIMPLEX_STRATEGY_DUAL)
    if interior:
        solver.setOptionValue("solver", "ipm")
    col_lower, col_upper = _bounds_arrays(program.bounds, program.num_variables)
    loaded = _load_model(core, solver, program, col_lower, col_upper)
    warm_started = False
    if loaded != core.HighsStatus.kError:
        if use_warm_start and warm_start is not None and not interior:
            warm_started = _offer_solution(core, solver, warm_start)
        solver.run()
    record_solve(
        time.perf_counter() - started,
        kind="lp",
        warm_start_attempted=warm_start is not None,
        warm_start_used=warm_started,
    )
    statuses = core.HighsModelStatus
    # ``linprog`` reports a model HiGHS refuses to load as kModelError.
    status = statuses.kModelError if loaded == core.HighsStatus.kError else solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if status == statuses.kOptimal:
        return LPSolution(
            status="optimal",
            x=np.array(solver.getSolution().col_value),
            objective=float(solver.getInfo().objective_function_value),
            message=message,
            warm_started=warm_started,
        )
    if status in (statuses.kInfeasible, statuses.kModelError):
        return LPSolution(status="infeasible", message=message)
    if status == statuses.kUnbounded:
        return LPSolution(status="unbounded", message=message)
    return LPSolution(status="error", message=message)


def _solve_lp_linprog(program: LinearProgram, warm_start: Optional[np.ndarray] = None) -> LPSolution:
    """``scipy.optimize.linprog`` path, taken when the vendored bindings are missing."""
    method = "highs-ipm" if program.method_hint == "interior-point" else "highs"
    started = time.perf_counter()
    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=np.column_stack(_bounds_arrays(program.bounds, program.num_variables)),
        method=method,
    )
    record_solve(
        time.perf_counter() - started,
        kind="lp",
        warm_start_attempted=warm_start is not None,
    )
    if result.success:
        return LPSolution(
            status="optimal",
            x=np.asarray(result.x),
            objective=float(result.fun),
            message=str(result.message),
        )
    status = {2: "infeasible", 3: "unbounded"}.get(result.status, "error")
    return LPSolution(status=status, message=str(result.message))


class SolverBackend(ABC):
    """Interface every LP/MILP backend implements."""

    name: str = "abstract"
    supports_warm_start: bool = False

    @abstractmethod
    def solve_lp(
        self, program: LinearProgram, warm_start: Optional[np.ndarray] = None
    ) -> LPSolution:
        """Solve ``program``, optionally starting from ``warm_start``."""

    @abstractmethod
    def solve_milp(
        self, program: MILProgram, warm_start: Optional[np.ndarray] = None
    ) -> MILPSolution:
        """Solve the mixed-integer ``program``.

        ``warm_start`` is a feasible incumbent (full variable vector) offered
        to the branch-and-bound search.  Backends that cannot consume MILP
        incumbents still record the offer in the solver stats so seeding
        behaviour is observable everywhere.
        """


class ScipyHighsBackend(SolverBackend):
    """Default backend: the HiGHS that scipy vendors.

    LPs go straight to ``scipy.optimize._highspy._core`` through
    :func:`_solve_lp_highs` (``scipy.optimize.linprog`` when that private
    module cannot be imported); MILPs through ``scipy.optimize.milp``.  A warm start cannot
    be consumed, but the *offer* is still recorded so warm-start reuse is
    visible on every backend.
    """

    name = "scipy"
    supports_warm_start = False

    def solve_lp(
        self, program: LinearProgram, warm_start: Optional[np.ndarray] = None
    ) -> LPSolution:
        if _VENDORED_HIGHS is None:
            return _solve_lp_linprog(program, warm_start)
        return _solve_lp_highs(_VENDORED_HIGHS, program, warm_start)

    def solve_milp(
        self, program: MILProgram, warm_start: Optional[np.ndarray] = None
    ) -> MILPSolution:
        constraints = [
            LinearConstraint(matrix, lb=lb, ub=ub)
            for matrix, lb, ub in program.constraints
        ]
        options: Dict[str, object] = {"mip_rel_gap": program.mip_rel_gap}
        if program.time_limit is not None:
            options["time_limit"] = float(program.time_limit)
        started = time.perf_counter()
        result = milp(
            c=program.c,
            constraints=constraints,
            integrality=program.integrality,
            bounds=Bounds(lb=program.lb, ub=program.ub),
            options=options,
        )
        # ``scipy.optimize.milp`` exposes no incumbent-injection API; the
        # offer is recorded (never consumed) so seeding stays observable.
        record_solve(
            time.perf_counter() - started,
            kind="milp",
            warm_start_attempted=warm_start is not None,
        )
        # scipy/HiGHS status codes: 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 numerical trouble.
        if result.status == 2:
            return MILPSolution(status="infeasible")
        if result.x is None:
            return MILPSolution(status="error")
        mip_gap = getattr(result, "mip_gap", None)
        dual_bound = getattr(result, "mip_dual_bound", None)
        return MILPSolution(
            status="optimal" if result.status == 0 else "feasible",
            x=np.asarray(result.x),
            objective=float(result.fun),
            mip_gap=float(mip_gap) if mip_gap is not None else None,
            dual_bound=float(dual_bound) if dual_bound is not None else None,
        )


class HighspyBackend(SolverBackend):
    """Direct HiGHS backend via the optional ``highspy`` package.

    Runs the same :func:`_solve_lp_highs` as :class:`ScipyHighsBackend`, on
    the ``highspy`` module, with one fresh :class:`highspy.Highs` per solve
    (models are small; the win is the warm start, not instance reuse).  What
    differs is the previous solution offered as a primal starting point
    (``setSolution``) for LPs, and the MILP heuristic incumbent for MILPs.
    """

    name = "highs"
    supports_warm_start = True

    @staticmethod
    def is_available() -> bool:
        try:  # pragma: no cover - exercised only where highspy is installed
            import highspy  # noqa: F401
        except ImportError:
            return False
        return True

    def solve_lp(
        self, program: LinearProgram, warm_start: Optional[np.ndarray] = None
    ) -> LPSolution:
        import highspy

        return _solve_lp_highs(highspy, program, warm_start, use_warm_start=True)

    def solve_milp(
        self, program: MILProgram, warm_start: Optional[np.ndarray] = None
    ) -> MILPSolution:
        import highspy

        lower = np.broadcast_to(np.asarray(program.lb, dtype=float), (program.num_variables,))
        upper = np.broadcast_to(np.asarray(program.ub, dtype=float), (program.num_variables,))
        solver = _new_highs(highspy)
        solver.setOptionValue("mip_rel_gap", float(program.mip_rel_gap))
        if program.time_limit is not None:
            solver.setOptionValue("time_limit", float(program.time_limit))
        _load_model(highspy, solver, program, np.array(lower), np.array(upper))
        # Hand HiGHS the heuristic incumbent: branch-and-bound starts with an
        # upper bound and can prune from the first node.
        warm_started = warm_start is not None and _offer_solution(highspy, solver, warm_start)
        started = time.perf_counter()
        solver.run()
        record_solve(
            time.perf_counter() - started,
            kind="milp",
            warm_start_attempted=warm_start is not None,
            warm_start_used=warm_started,
        )
        status = solver.getModelStatus()
        info = solver.getInfo()
        has_incumbent = info.primal_solution_status == highspy.kSolutionStatusFeasible
        if status == highspy.HighsModelStatus.kInfeasible:
            return MILPSolution(status="infeasible")
        if not has_incumbent:
            return MILPSolution(status="error")
        values = np.array(solver.getSolution().col_value, dtype=float)
        gap = getattr(info, "mip_gap", None)
        dual_bound = getattr(info, "mip_dual_bound", None)
        return MILPSolution(
            status="optimal" if status == highspy.HighsModelStatus.kOptimal else "feasible",
            x=values,
            objective=float(info.objective_function_value),
            mip_gap=float(gap) if gap is not None else None,
            dual_bound=float(dual_bound) if dual_bound is not None else None,
            warm_started=warm_started,
        )


# --------------------------------------------------------------------------- #
# Registry and default-backend resolution
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Tuple[Callable[[], SolverBackend], Callable[[], bool]]] = {}
_INSTANCES: Dict[str, SolverBackend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def register_backend(
    name: str,
    factory: Callable[[], SolverBackend],
    available: Callable[[], bool] = lambda: True,
) -> None:
    """Register a backend ``factory`` under ``name`` (gated by ``available``)."""
    _REGISTRY[name] = (factory, available)
    _INSTANCES.pop(name, None)


register_backend("scipy", ScipyHighsBackend)
register_backend("highs", HighspyBackend, available=HighspyBackend.is_available)


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends usable in this environment."""
    return tuple(name for name, (_, available) in _REGISTRY.items() if available())


def set_default_backend(name: Optional[str]) -> None:
    """Override the default backend process-wide (``None`` clears the override)."""
    if name is not None:
        _resolve(name)  # validate eagerly
    global _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = name


def default_backend_name() -> str:
    """The backend used when a solve site names none explicitly."""
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or "scipy"


def _resolve(name: str) -> SolverBackend:
    try:
        factory, available = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown LP backend {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None
    if not available():
        raise KeyError(
            f"LP backend {name!r} is not available in this environment "
            f"(available: {', '.join(available_backends())})"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = factory()
    return _INSTANCES[name]


def get_backend(name: Optional[Union[str, SolverBackend]] = None) -> SolverBackend:
    """Resolve a backend: explicit name/instance > override > env var > scipy."""
    if isinstance(name, SolverBackend):
        return name
    return _resolve(name or default_backend_name())


__all__ = [
    "BACKEND_ENV_VAR",
    "LinearProgram",
    "LPSolution",
    "MILProgram",
    "MILPSolution",
    "SolverBackend",
    "ScipyHighsBackend",
    "HighspyBackend",
    "register_backend",
    "available_backends",
    "set_default_backend",
    "default_backend_name",
    "get_backend",
]
