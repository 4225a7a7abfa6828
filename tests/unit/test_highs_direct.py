"""Direct HiGHS LP solves against ``scipy.optimize.linprog``.

``ScipyHighsBackend`` solves LPs by building the HiGHS model itself and
running it with the options ``linprog(method="highs")`` sets.  ``linprog``
stays the reference: on every program of a fixed corpus the direct solve must
report the same status and a bit-identical ``x``.  The corpus runs through
every importable HiGHS bindings module — scipy's vendored copy always, and
``highspy`` where it is installed — and through the ``linprog`` path the
backend takes when the vendored module cannot be imported.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.failures.complete import CompleteDestruction
from repro.flows.routability import routability_test
from repro.flows.solver import backends
from repro.flows.solver.backends import (
    HighspyBackend,
    LinearProgram,
    MILProgram,
    ScipyHighsBackend,
    _bounds_arrays,
    _solve_lp_highs,
)
from repro.flows.solver.stats import collect_solver_stats
from repro.flows.splitting_lp import maximum_splittable_amount
from repro.network.demand import DemandGraph
from repro.topologies.grids import grid_topology

BINDINGS = [pytest.param(backends._VENDORED_HIGHS, id="vendored")]
if importlib.util.find_spec("highspy") is not None:
    import highspy

    BINDINGS.append(pytest.param(highspy, id="highspy"))


def _duplicate_entry_matrix() -> sparse.csr_matrix:
    """A 2x3 CSR matrix with unsorted column indices and one duplicate entry."""
    data = np.array([1.0, 2.0, 0.5, 0.5, 1.0, 3.0])
    indices = np.array([2, 0, 1, 1, 1, 0])
    indptr = np.array([0, 4, 6])
    return sparse.csr_matrix((data, indices, indptr), shape=(2, 3))


class _Recorder(ScipyHighsBackend):
    """Default backend that keeps every program it is asked to solve."""

    def __init__(self):
        self.programs = []

    def solve_lp(self, program, warm_start=None):
        self.programs.append(program)
        return super().solve_lp(program, warm_start)


def _flow_programs():
    """The split-amount and routability LPs of a broken 3x3 grid.

    Flow LPs are degenerate: they have many optimal vertices, and which one
    HiGHS returns depends on presolve, the simplex variant and the solver,
    so these cases catch any drift from ``linprog``'s options.
    """
    supply = grid_topology(3, 3, capacity=10.0)
    CompleteDestruction().apply(supply)
    demand = DemandGraph()
    demand.add((0, 0), (2, 2), 5.0)
    demand.add((0, 2), (2, 0), 3.0)
    full = supply.full_graph(use_residual=False)
    recorder = _Recorder()
    maximum_splittable_amount(full, demand, ((0, 0), (2, 2)), (1, 1), backend=recorder)
    routability_test(full, demand, backend=recorder)
    split, routability = recorder.programs
    return [
        ("split-amount-lp", split),
        ("split-amount-lp-ipm", dataclasses.replace(split, method_hint="interior-point")),
        ("routability-lp", routability),
    ]


def _corpus():
    """(name, program) pairs covering every status and constraint shape."""
    return _flow_programs() + [
        (
            "optimal",
            LinearProgram(
                c=np.array([-1.0, -2.0, 0.5]),
                a_ub=sparse.csr_matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                b_ub=np.array([4.0, 3.0]),
                a_eq=sparse.csr_matrix([[1.0, 0.0, -1.0]]),
                b_eq=np.array([1.0]),
                bounds=[(0, None), (0, 2.5), (None, 5)],
            ),
        ),
        (
            "infeasible",
            LinearProgram(
                c=np.ones(2),
                a_ub=sparse.csr_matrix([[1.0, 1.0]]),
                b_ub=np.array([1.0]),
                a_eq=sparse.csr_matrix([[1.0, 1.0]]),
                b_eq=np.array([3.0]),
            ),
        ),
        (
            "unbounded",
            LinearProgram(
                c=np.array([-1.0, 0.0]),
                a_ub=sparse.csr_matrix([[0.0, 1.0]]),
                b_ub=np.array([1.0]),
            ),
        ),
        (
            "equality-only",
            LinearProgram(
                c=np.array([2.0, 1.0, 3.0]),
                a_eq=sparse.csr_matrix([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
                b_eq=np.array([6.0, 1.0]),
            ),
        ),
        (
            "inequality-only",
            LinearProgram(
                c=np.array([-3.0, -1.0, -2.0]),
                a_ub=np.eye(3),  # dense, which linprog accepts too
                b_ub=np.array([1.0, 2.0, 3.0]),
                bounds=(np.zeros(3), np.array([np.inf, 1.5, np.inf])),
            ),
        ),
        (
            "interior-point",
            LinearProgram(
                c=np.array([0.0, 0.0, -1.0]),
                a_ub=sparse.csr_matrix([[1.0, 1.0, 1.0]]),
                b_ub=np.array([2.0]),
                bounds=(0, 1),
                method_hint="interior-point",
            ),
        ),
        (
            "model-error",  # HiGHS refuses the coefficient; linprog says infeasible
            LinearProgram(
                c=np.ones(2),
                a_ub=sparse.csr_matrix([[1e300, 1.0]]),
                b_ub=np.array([1.0]),
            ),
        ),
        (
            "duplicate-entries",
            LinearProgram(
                c=np.array([-1.0, -1.0, -1.0]),
                a_ub=_duplicate_entry_matrix(),
                b_ub=np.array([4.0, 5.0]),
            ),
        ),
    ]


CORPUS = dict(_corpus())
CORPUS_IDS = list(CORPUS)
PROGRAMS = list(CORPUS.values())

_LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _reference(program: LinearProgram):
    """``linprog``'s verdict on ``program``: (status, x)."""
    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=np.column_stack(_bounds_arrays(program.bounds, program.num_variables)),
        method="highs-ipm" if program.method_hint == "interior-point" else "highs",
    )
    return _LINPROG_STATUS.get(result.status, "error"), result.x


def test_corpus_covers_every_status():
    statuses = {_reference(program)[0] for program in PROGRAMS}
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("core", BINDINGS)
@pytest.mark.parametrize("program", PROGRAMS, ids=CORPUS_IDS)
def test_direct_solve_matches_linprog(core, program):
    status, x = _reference(program)
    solution = _solve_lp_highs(core, program)
    assert solution.status == status
    if status == "optimal":
        assert np.array_equal(solution.x, x)
        assert solution.objective == pytest.approx(float(program.c @ x), abs=1e-9)
    else:
        assert solution.x is None


@pytest.mark.parametrize("program", PROGRAMS, ids=CORPUS_IDS)
def test_linprog_fallback_matches_direct_solve(program, monkeypatch):
    expected = _solve_lp_highs(backends._VENDORED_HIGHS, program)
    monkeypatch.setattr(backends, "_VENDORED_HIGHS", None)
    solution = ScipyHighsBackend().solve_lp(program)
    assert solution.status == expected.status
    if expected.success:
        assert np.array_equal(solution.x, expected.x)
        assert solution.objective == expected.objective


def test_default_backend_solves_directly():
    assert backends._VENDORED_HIGHS is not None  # scipy >= 1.15 in tier-1
    program = CORPUS["optimal"]
    solution = ScipyHighsBackend().solve_lp(program)
    assert solution.message == "Optimal"  # HiGHS' wording, not linprog's
    assert np.array_equal(solution.x, _reference(program)[1])


def test_direct_solve_leaves_input_matrices_intact():
    program = CORPUS["duplicate-entries"]
    before = program.a_ub.copy()
    _solve_lp_highs(backends._VENDORED_HIGHS, program)
    assert np.array_equal(program.a_ub.indices, before.indices)
    assert np.array_equal(program.a_ub.data, before.data)


@pytest.mark.parametrize("core", BINDINGS)
def test_direct_solve_records_each_solve(core):
    with collect_solver_stats() as stats:
        _solve_lp_highs(core, CORPUS["optimal"], warm_start=np.zeros(3))
        _solve_lp_highs(core, CORPUS["infeasible"])
    assert stats.lp_solves == 2
    assert stats.warm_start_attempts == 1
    assert stats.warm_start_hits == 0  # offered, not consumed


@pytest.mark.parametrize("core", BINDINGS)
def test_direct_solve_consumes_warm_start_when_asked(core):
    program = CORPUS["split-amount-lp"]
    cold = _solve_lp_highs(core, program)
    with collect_solver_stats() as stats:
        warm = _solve_lp_highs(core, program, warm_start=cold.x, use_warm_start=True)
    assert warm.success and warm.warm_started
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert stats.warm_start_hits == 1


class TestBoundsForms:
    N = 4

    def test_scalar_pair_broadcasts(self):
        lower, upper = _bounds_arrays((0, None), self.N)
        assert np.array_equal(lower, np.zeros(self.N))
        assert np.array_equal(upper, np.full(self.N, np.inf))

    def test_pairs_and_arrays_agree(self):
        pairs = [(0, None), (None, 2), (1, 3), (-1.5, 0)]
        arrays = (np.array([0, -np.inf, 1, -1.5]), np.array([np.inf, 2, 3, 0]))
        from_pairs = _bounds_arrays(pairs, self.N)
        from_arrays = _bounds_arrays(arrays, self.N)
        for ours, theirs in zip(from_pairs, from_arrays):
            assert np.array_equal(ours, theirs)

    def test_arrays_are_copied(self):
        lower = np.zeros(self.N)
        out_lower, _ = _bounds_arrays((lower, np.ones(self.N)), self.N)
        out_lower[0] = 7.0
        assert lower[0] == 0.0

    @pytest.mark.parametrize(
        "bounds",
        [[(0, 1)] * 3, (np.zeros(3), np.ones(4)), [(0, 1, 2)] * 4],
        ids=["too-few-pairs", "short-array", "triples"],
    )
    def test_wrong_lengths_raise(self, bounds):
        with pytest.raises(ValueError, match="expected"):
            _bounds_arrays(bounds, self.N)


@pytest.fixture
def vendored_as_highspy(monkeypatch):
    """Let ``HighspyBackend`` load scipy's vendored bindings as ``highspy``."""
    monkeypatch.setitem(sys.modules, "highspy", backends._VENDORED_HIGHS)


def test_highspy_backend_lp_runs_the_shared_solve(vendored_as_highspy):
    for program in PROGRAMS:
        status, x = _reference(program)
        solution = HighspyBackend().solve_lp(program)
        assert solution.status == status
        if status == "optimal":
            assert np.array_equal(solution.x, x)


def test_highspy_backend_milp_matches_scipy(vendored_as_highspy):
    # max x + y  s.t.  2x + 2y <= 5, x, y integer in [0, 2]
    program = MILProgram(
        c=np.array([-1.0, -1.0]),
        constraints=[(sparse.csr_matrix([[2.0, 2.0]]), -np.inf, 5.0)],
        integrality=np.ones(2),
        ub=2.0,
    )
    reference = ScipyHighsBackend().solve_milp(program)
    solution = HighspyBackend().solve_milp(program, warm_start=np.array([1.0, 0.0]))
    assert solution.status == reference.status == "optimal"
    assert solution.objective == reference.objective == -2.0
    assert solution.warm_started
