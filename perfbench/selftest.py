"""Self-tests of the output checks: each must pass a good result and fail a broken one.

Run by every benchmark run (a failure makes the run incorrect) and by
``python3 perfbench/run.py selftest``.
"""

from __future__ import annotations

from types import SimpleNamespace

import checks


def _serve_cases():
    from repro import AllocationRequest, AllocationResponse, random_instance
    from repro.tatim.greedy import density_greedy

    geometry = random_instance(8, 2, seed=3)
    request = AllocationRequest(request_id=0, arrival_s=0.0, importance=geometry.importance)
    assignment = density_greedy(geometry).as_assignment()
    objective = float(geometry.importance[list(assignment)].sum())

    def respond(assignment, objective):
        return AllocationResponse(
            request_id=0, status="ok", assignment=assignment, objective=objective
        )

    good = checks.check_serve(geometry, [request], [respond(assignment, objective)])
    everything_on_one = {task: 0 for task in range(geometry.n_tasks)}
    infeasible = checks.check_serve(
        geometry,
        [request],
        [respond(everything_on_one, float(geometry.importance.sum()))],
    )
    wrong_objective = checks.check_serve(
        geometry, [request], [respond(assignment, objective + 1.0)]
    )
    lost = checks.check_serve(geometry, [request], [])
    broken = [
        ("infeasible assignment", infeasible),
        ("wrong objective", wrong_objective),
        ("lost response", lost),
    ]
    return good, broken


def run() -> list[str]:
    """Failures of the self-tests (empty when every check behaves)."""
    ordered = {"DCTA": 100.0, "CRL": 200.0, "DML": 300.0, "RM": 400.0}
    swapped = dict(ordered, DCTA=200.0, CRL=100.0)
    fleet = SimpleNamespace(arrivals=10, completed=9, dropped=1)
    lost_task = SimpleNamespace(arrivals=10, completed=8, dropped=1)
    missed = SimpleNamespace(gate_crossed=False, processing_time=float("inf"))
    day = {
        name: SimpleNamespace(gate_crossed=True, processing_time=value)
        for name, value in ordered.items()
    }
    serve_good, serve_broken = _serve_cases()

    goods = [
        ("PT order", checks.check_pt_order(ordered, "selftest")),
        ("sweep", checks.check_sweep({k: [v] for k, v in ordered.items()}, (2,))),
        ("pipeline", checks.check_pipeline({0: day})),
        ("fleet", checks.check_fleet(fleet)),
        ("same", checks.check_same(["a", "a"], "digest")),
        ("serve", serve_good),
    ]
    broken = [
        ("swapped PT order", checks.check_pt_order(swapped, "selftest")),
        ("swapped sweep point", checks.check_sweep({k: [v] for k, v in swapped.items()}, (2,))),
        ("missed gate", checks.check_pipeline({0: dict(day, CRL=missed)})),
        (
            "pipeline with DML and RM swapped",
            checks.check_pipeline({0: dict(day, DML=day["RM"], RM=day["DML"])}),
        ),
        ("pipeline with DCTA behind DML", checks.check_pipeline({0: dict(day, DCTA=day["RM"])})),
        ("infinite PT", checks.check_pt_order(dict(ordered, RM=float("inf")), "selftest")),
        ("fleet lost a task", checks.check_fleet(lost_task)),
        ("digest drift", checks.check_same(["a", "b"], "digest")),
        *serve_broken,
    ]
    failures = [f"check rejects a good {name}: {errors}" for name, errors in goods if errors]
    failures += [f"check accepts a {name}" for name, errors in broken if not errors]
    return failures
