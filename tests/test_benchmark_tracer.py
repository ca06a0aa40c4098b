"""The benchmark's span tracer still fits the library.

`perfbench/tracer.py` patches rsv by attribute name: the public functions
and methods of every rsv module, and in `rsv.oracle_solver` the scipy
functions it binds by name (`jv`, `jvp`, `spherical_jn`, `eval_legendre`)
and its `np`.  A rename in rsv breaks `Tracer.install`; this check catches
that in a fraction of a second, without a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import rsv
import rsv.cli  # noqa: F401  (the benchmark imports it; rsv alone does not)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracer):
    """Every module and rsv class whose attributes `install` may patch."""
    modules = [rsv, *(getattr(rsv, name) for name in tracer.RSV_MODULES)]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    return modules + classes


def test_tracer_installs_on_rsv_and_uninstall_restores_everything():
    tracer = load_tracer()
    owners = namespaces(tracer)
    before = [dict(vars(owner)) for owner in owners]
    oracle = rsv.oracle_solver
    np_before = oracle.np
    t = tracer.Tracer()
    try:
        t.install(rsv)
        assert oracle.np is not np_before
        for attr in tracer.ORACLE_SPECIAL:
            assert getattr(oracle, attr) is not before[owners.index(oracle)][attr]
        assert oracle.solve_perturbed_torsion is not before[owners.index(oracle)][
            "solve_perturbed_torsion"
        ]
    finally:
        t.uninstall()
    assert oracle.np is np_before
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(attrs), owner
        for attr, value in attrs.items():
            assert now[attr] is value, (owner, attr)


def test_tracer_wraps_the_radial_field_and_its_jacobian():
    # the tracer wraps plain functions only; a cache decorator on either of
    # these would drop the radial-field layer out of the traced counts
    tracer = load_tracer()
    geometry = rsv.sphere_geometry
    field, jacobian = geometry.radial_harmonic_field, vars(geometry.AmbientField)["jacobian"]
    t = tracer.Tracer()
    try:
        t.install(rsv)
        assert geometry.radial_harmonic_field.__wrapped__ is field
        assert vars(geometry.AmbientField)["jacobian"].__wrapped__ is jacobian
    finally:
        t.uninstall()
    assert geometry.radial_harmonic_field is field
