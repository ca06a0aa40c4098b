"""The benchmark's workloads still fit the library's call surface.

`perfbench/workloads.py` calls rsv by attribute (`rsv.solve_perturbed_torsion`,
`rsv.cli.main`, ...) and the benchmark runs it unchanged against every later
commit.  A rename or a changed parameter in rsv would first show as failed
cases in a benchmark run; this check reads the file's source and catches it
in a fraction of a second.
"""

import ast
import inspect
from pathlib import Path

import rsv
import rsv.cli  # noqa: F401  (the workloads call it; rsv alone does not import it)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MISSING = object()


def dotted(node):
    """"rsv.a.b" for an attribute chain rooted at the name `rsv`, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "rsv" and parts:
        return ".".join(["rsv", *reversed(parts)])
    return None


def resolve(name):
    """The object `name` reads, or MISSING where an attribute is missing."""
    obj = rsv
    for attr in name.split(".")[1:]:
        obj = getattr(obj, attr, MISSING)
        if obj is MISSING:
            break
    return obj


def surface():
    """(reads, calls): every rsv attribute chain the workloads read, and for
    each call through one, (name, positional count, keyword names, line);
    a call that unpacks * or ** arguments is left out."""
    tree = ast.parse(WORKLOADS.read_text())
    reads, calls = set(), []
    for node in ast.walk(tree):
        name = dotted(node)
        if name is not None:
            reads.add(name)
        if isinstance(node, ast.Call) and dotted(node.func) is not None:
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            if not unpacked:
                keywords = tuple(kw.arg for kw in node.keywords)
                calls.append((dotted(node.func), len(node.args), keywords, node.lineno))
    return reads, calls


def test_every_rsv_name_the_workloads_read_exists():
    reads, _ = surface()
    # the frozen entry points of the oracle, the CLI and the closed forms
    for name in ("rsv.cli.main", "rsv.solve_perturbed_torsion", "rsv.solve_perturbed_eigen",
                 "rsv.second_variation_energy_ball", "rsv.perturbed_domain"):
        assert name in reads
    assert sorted(name for name in reads if resolve(name) is None) == []


def test_every_rsv_call_of_the_workloads_binds_its_arguments():
    _, calls = surface()
    assert any(keywords == ("modes",) for _, _, keywords, _ in calls)
    unbound = []
    for name, positional, keywords, line in calls:
        target = resolve(name)
        if target is MISSING:  # the test above names it
            continue
        try:
            inspect.signature(target).bind_partial(
                *[None] * positional, **dict.fromkeys(keywords)
            )
        except TypeError as error:
            unbound.append(f"line {line}: {name}: {error}")
    assert unbound == []
