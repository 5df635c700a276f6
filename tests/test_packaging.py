"""The project metadata points at files and modules that exist."""

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_readme_exists():
    assert (ROOT / PROJECT["readme"]).is_file()


def test_script_targets_import():
    for name, target in PROJECT.get("scripts", {}).items():
        module, attr = target.split(":")
        assert hasattr(importlib.import_module(module), attr), name


def test_numba_is_not_a_dependency():
    assert not any(dep.startswith("numba") for dep in PROJECT["dependencies"])


def test_no_runtime_dependency():
    """The package runs on the standard library alone."""
    assert PROJECT["dependencies"] == []


@pytest.mark.parametrize("module", ["vtangle.charformula"])
def test_deleted_modules_stay_deleted(module):
    """A module that left the package is neither importable nor an entry point."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
    targets = PROJECT.get("scripts", {}).values()
    assert not any(target.split(":")[0] == module for target in targets)


def library_has(name):
    """Whether ``module:Owner.attr`` (or ``module:attr``) exists."""
    module, path = name.split(":")
    owner_path, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return hasattr(owner, attr)


@pytest.mark.parametrize(
    "name",
    [
        "vtangle.census:canonical_diagram",
        "vtangle.census:canonical_form_bruteforce",
        "vtangle.census:relabelling_elements",
        "vtangle.census:weighted_link_counts",
        "vtangle.codes:canonical_multiplicity",
        "vtangle.codes:is_canonical",
        "vtangle.codes:tied_roots",
        "vtangle.codes:_trace",
        "vtangle.codes:_scan",
        "vtangle.codes:_compare",
        "vtangle.diagrams:_same_cycle_pairs",
        "vtangle.diagrams:_cycle_ids",
        "vtangle.diagrams:relabel",
        "vtangle.diagrams:TangleDiagram.real_crossings",
        "vtangle.diagrams:vertex_sign",
        "vtangle.flypes:_decode",
        "vtangle.flypes:flype_classes_every_site",
        "vtangle.flypes:image_site",
        "vtangle.groups:FiniteGroup.mul",
        "vtangle.groups:load_group_table",
        "vtangle.groups:save_group_table",
        "vtangle.invariants:bracket_by_loop_walk",
        "vtangle.invariants:_loop_state_sum",
        "vtangle.invariants:jones_span",
        "vtangle.invariants:morphism_count_bruteforce",
        "vtangle.laurent:divexact",
        "vtangle.laurent:_det_bareiss",
        "vtangle.laurent:MultiLaurentPoly.evaluate",
        "vtangle.perms:cycle_type",
        "vtangle.perms:from_cycles",
        "vtangle.series:G2_of",
        "vtangle.series:G4_of",
        "vtangle.series:compose_rows",
        "vtangle.series:GenusSeries.from_rows",
        "vtangle.series:QSeries.zero",
        "vtangle.series:QSeries.constant",
        "vtangle.series:QSeries.gee",
        "vtangle.series:QSeries._join",
        "vtangle.series:QSeries.__add__",
        "vtangle.series:QSeries.__radd__",
        "vtangle.series:QSeries.__neg__",
        "vtangle.series:QSeries.__sub__",
        "vtangle.series:QSeries.__rsub__",
        "vtangle.series:QSeries.__mul__",
        "vtangle.series:QSeries.__rmul__",
        "vtangle.series:QSeries.__pow__",
        "vtangle.series:QSeries.shift",
        "vtangle.series:QSeries.reciprocal",
        "vtangle.series:QSeries.derivative",
        "vtangle.series:QSeries.compose",
        "vtangle.series:growth_diagnostic",
        "vtangle.diagrams:transform",
        "vtangle.diagrams:TRANSFORM_KINDS",
        "vtangle.groups:FiniteGroup.dihedral",
        "vtangle.laurent:MultiLaurentPoly.variable",
        "vtangle.laurent:MultiLaurentPoly.__pow__",
    ],
)
def test_moved_names_stay_out_of_the_library(name):
    """Code whose only callers are tests lives in ``tests/oracles.py``."""
    assert not library_has(name)


@pytest.mark.parametrize(
    "name",
    [
        "vtangle.census:_link_leaves",
        "vtangle.census:_tangle_leaves",
        "vtangle.diagrams:_orbit_size",
        "vtangle.diagrams:LinkDiagram.from_sigma",
        "vtangle.diagrams:close_tangle",
        "vtangle.diagrams:edge_senses",
        "vtangle.diagrams:edge_component_ids",
        "vtangle.diagrams:LinkDiagram.rho",
        "vtangle.flypes:_surgery",
        "vtangle.laurent:MultiLaurentPoly.is_constant",
        "vtangle.laurent:MultiLaurentPoly.leading_term",
        "vtangle.laurent:MultiLaurentPoly.coefficient",
        "vtangle.invariants:boundary_determinants",
        "vtangle.invariants:tangle_record",
        "vtangle.invariants:_crossing_frames",
        "vtangle.invariants:tangle_closure_strings",
        "vtangle.invariants:_reference_orientation",
        "vtangle.invariants:linking_profile",
        "vtangle.series:GenusSeries.derivative_g",
        "vtangle.series:GenusSeries.shift_g",
        "vtangle.series:_fixed_point",
        "vtangle.series:GenusSeries.__pow__",
    ],
)
def test_deleted_names_stay_deleted(name):
    """Library code that lost its last caller, or was folded into other
    code, does not come back."""
    assert not library_has(name)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "vtangle").glob("*.py")), ids=lambda p: p.name
)
def test_library_validates_without_assert(path):
    """Checks in the library raise exceptions: ``python -O`` strips an
    ``assert``, and the check with it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"
