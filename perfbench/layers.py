"""Per-layer metrics from one traced round.

Layers are the rsv modules; the oracle's calls into scipy.special and
numpy.linalg are separate groups (`oracle_solver.bessel.*`,
`oracle_solver.legendre.*`, `oracle_solver.linalg.*`) so that the Bessel /
Trefftz table and QR + SVD show apart from the solver's own Python.

Seconds of layers that a workload never enters are structurally zero (no
eigen solve in series-scan, no CLI in series-scan), so the metrics printed
as the run's result give the oracle and CLI splits as shares of the traced
case time; the seconds themselves go to the result file.  Span durations
are summed over threads, so with the sweep pool running a share can exceed
the part of the wall time the layer took.
"""
from __future__ import annotations

import statistics

from tracer import ancestors_named, self_times

EXTERNAL = ("oracle_solver.bessel.", "oracle_solver.legendre.", "oracle_solver.linalg.")


def _group(name: str) -> str:
    for prefix in EXTERNAL:
        if name.startswith(prefix):
            return prefix.rstrip(".")
    return name.split(".", 1)[0]


def per_layer_metrics(tracer, pairs) -> tuple[dict, dict]:
    names, spans = tracer.names, tracer.spans
    selfs = self_times(spans)
    ids = {name: i for i, name in enumerate(names)}

    def named(name):
        nid = ids.get(name)
        return [s for s in spans if s[0] == nid]

    def total(wanted: set[str]):
        return sum(s[2] - s[1] for s in spans if names[s[0]] in wanted)

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span in spans:
        group = _group(names[span[0]])
        calls[group] = calls.get(group, 0) + 1
        self_s[group] = self_s.get(group, 0.0) + selfs[span[3]]

    case_time = sum(s[2] - s[1] for s in spans if names[s[0]].startswith("case."))
    eigen = named("oracle_solver.solve_perturbed_eigen")
    torsion = named("oracle_solver.solve_perturbed_torsion")
    eigen_ids = {s[3] for s in eigen}
    bessel = [s for s in spans if names[s[0]].startswith("oracle_solver.bessel.")]
    svd = named("oracle_solver.linalg.svd")

    nearest_eigen = ancestors_named(spans, {ids.get("oracle_solver.solve_perturbed_eigen")})
    sigma_evals = sum(1 for s in svd if nearest_eigen[s[3]] in eigen_ids)

    fd_id = ids.get("oracle_solver.finite_difference_derivatives")
    nearest_fd = ancestors_named(spans, {fd_id})
    per_fd: dict[int, int] = {}
    for s in eigen + torsion:
        fd = nearest_fd[s[3]]
        if fd is not None:
            per_fd[fd] = per_fd.get(fd, 0) + 1

    linalg = {f"oracle_solver.linalg.{a}" for a in ("qr", "svd")}
    seconds = {
        "oracle_solver.eigen_solve_s.p50": statistics.median([s[2] - s[1] for s in eigen]) if eigen else 0.0,
        "oracle_solver.bessel_s": sum(s[2] - s[1] for s in bessel),
        "oracle_solver.qr_svd_s": total(linalg),
        "oracle_solver.eigen_self_s": sum(selfs[s[3]] for s in eigen),
        "oracle_solver.torsion_solve_s.p50": statistics.median([s[2] - s[1] for s in torsion]) if torsion else 0.0,
        "oracle_solver.lstsq_s": total({"oracle_solver.linalg.lstsq"}),
        "cli.self_s": self_s.get("cli", 0.0),
        "oracle_solver.self_s": self_s.get("oracle_solver", 0.0),
        "traced_case_s": case_time,
    }

    def share(value):
        return value / case_time if case_time > 0.0 else 0.0

    untraced = sum(u for u, _t in pairs)
    traced = sum(t for _u, t in pairs)
    metrics = {
        "oracle_solver.eigen_solves": (len(eigen), "count"),
        "oracle_solver.sigma_evals_per_eigen_solve": (sigma_evals / len(eigen) if eigen else 0.0, "count"),
        "oracle_solver.bessel_calls": (len(bessel), "count"),
        "oracle_solver.torsion_solves": (len(torsion), "count"),
        "oracle_solver.solves_per_derivative": (
            sum(per_fd.values()) / len(per_fd) if per_fd else 0.0, "count"),
        "oracle_solver.errors": (sum(1 for s in eigen + torsion if not s[5]), "count"),
        "oracle_solver.bessel_share": (share(seconds["oracle_solver.bessel_s"]), "frac"),
        "oracle_solver.qr_svd_share": (share(seconds["oracle_solver.qr_svd_s"]), "frac"),
        "oracle_solver.eigen_self_share": (share(seconds["oracle_solver.eigen_self_s"]), "frac"),
        "oracle_solver.lstsq_share": (share(seconds["oracle_solver.lstsq_s"]), "frac"),
        "sphere_geometry.calls": (calls.get("sphere_geometry", 0), "count"),
        "sphere_geometry.self_s": (self_s.get("sphere_geometry", 0.0), "s"),
        "sphere_geometry.area_volume_calls": (
            len(named("sphere_geometry.exact_surface_area")) + len(named("sphere_geometry.exact_volume")),
            "count"),
        "special_functions.spherical_harmonic_calls": (
            len(named("special_functions.spherical_harmonic")), "count"),
        "special_functions.quadrature_builds": (
            len(named("special_functions.SphereQuadrature.__init__")), "count"),
        "special_functions.self_s": (self_s.get("special_functions", 0.0), "s"),
    }
    for module in ("steklov", "variations", "radial_solutions"):
        metrics[f"{module}.calls"] = (calls.get(module, 0), "count")
        metrics[f"{module}.self_s"] = (self_s.get(module, 0.0), "s")
    metrics["cli.reports"] = (len(named("cli.main")), "count")
    metrics["cli.self_share"] = (share(seconds["cli.self_s"]), "frac")
    metrics["trace.cases_per_ref_s"] = (len(pairs) / traced, "1/s")
    metrics["trace.untraced_cases_per_ref_s"] = (len(pairs) / untraced, "1/s")
    metrics["trace.slowdown"] = (traced / untraced, "ratio")
    return metrics, {name: (value, "s") for name, value in seconds.items()}
