"""What ``import ulat`` loads.  The carriers, the semimetrics and the catalog
load with the package; the convergence half and the suite runner load on
first use, behind the same names.  Each check runs in a fresh interpreter,
since the tests in this process import everything."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ulat

SRC = Path(__file__).resolve().parents[1] / "src"

EAGER = {"ulat", "ulat.carriers", "ulat.catalog", "ulat.exact", "ulat.semimetrics",
         "ulat.spaces", "ulat.truncation", "ulat.verdicts"}

LOADED = "sorted(m for m in sys.modules if m == 'ulat' or m.startswith('ulat.'))"

# every name the package exported when all of it loaded eagerly, by the
# module that defines it
EXPORTS = {
    "carriers": ("Carrier", "CheckResult", "FiniteLattice", "GroupCarrier", "NotALattice",
                 "chain_lattice", "diamond_lattice", "divisor_lattice", "load_finite_lattice",
                 "pentagon_lattice", "powerset_lattice", "sublattices"),
    "catalog": ("CatalogEntry", "finite_entries", "standard_carriers"),
    "convergence": ("DEFAULT_EPS_GRID", "DEFAULT_HORIZON", "decide_O1_eventual_constancy",
                    "exhaustivity_probe", "metric_cauchy", "metric_converges",
                    "pairs_from_positives", "truncate_sequence", "unbounded_separation_example",
                    "ustar_nonconvergence_on_line", "verify_O1", "verify_O2", "verify_uO"),
    "entourages": ("compose_case_analysis", "compose_triple_violation", "entourage_clause",
                   "real_entourage_compose_check", "real_entourage_contains"),
    "exact": ("EXT_INF", "ExtValue", "Poly", "RatAltSeq", "ext", "rat"),
    "semimetrics": ("KernelRelation", "LatticeSemimetric", "QuotientLattice",
                    "SemimetricFamily", "derived_semimetric", "discrete_semimetric",
                    "interval_agreement", "kernel_partition", "load_distance_table",
                    "norm_semimetric", "order_interval", "ph_criterion",
                    "pullback_semimetric", "quotient", "table_semimetric", "ustar_family",
                    "validate_semimetric", "zero_semimetric"),
    "sequences": ("BoundClaim", "EventuallyConstant", "MetricCertificate", "O1Witness",
                  "O2Witness", "SequenceFamily", "TailClosedForm", "Window", "chain_bound",
                  "constant_sequence", "o2_from_o1", "parse_scalar_series",
                  "parse_sequence_term", "series_sequence", "window_sequence"),
    "spaces": ("C00Space", "C00Vec", "EvLinSeq", "EvLinSpace", "FinCofAlgebra", "FinCofSet",
               "QLine", "QVec"),
    "subnet": ("SubnetContainmentError", "SubnetEnumeration", "SubnetStep", "build_subnet"),
    "suites": ("CheckRecord", "SuiteConfig", "SuiteResult", "render_json", "render_markdown",
               "run_suite", "run_suites", "suite_names"),
    "truncation": ("TruncationPair", "canonical_pairs", "clamp_difference_bound",
                   "compose_truncations", "decompose_abs_meet", "is_truncation_hom",
                   "truncate_f", "truncate_g"),
    "verdicts": ("AT_HORIZON", "EXACT", "FALSIFIED", "INCONCLUSIVE", "Verdict"),
    "optrees": (),
}

# names the package no longer exports: the periodic descriptor is gone, the
# axiom checks live in the tests' reference module, one window descriptor
# replaced the typed streams, and the recovery criterion answers a bool
REMOVED = ("Periodic", "periodic_sequence", "eventually_constant_sequence",
           "check_distributive", "check_group_axioms", "check_lattice_axioms",
           "UnitVectors", "unit_vector_sequence", "singleton_atom_sequence",
           "cofinite_chain_sequence", "RecoveryResult", "ph_criterion_detail")


def _env(**extra) -> dict:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _python(code: str, *args: str):
    """The JSON that code prints last, run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True, env=_env(), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_and_the_cli_loads_the_eager_modules_only():
    loaded = _python(f"""
        import json, sys
        import ulat, ulat.cli
        print(json.dumps({LOADED}))
    """)
    assert set(loaded) == EAGER | {"ulat.cli"}


def test_a_lattice_check_and_a_distance_table_load_no_lazy_module(tmp_path):
    lattice = tmp_path / "diamond.json"
    lattice.write_text(json.dumps({"elements": ["0", "a", "b", "1"],
                                   "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}))
    loaded = _python(f"""
        import contextlib, io, json, sys
        import ulat, ulat.cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = ulat.cli.main(["lattice", "check", sys.argv[1]])
        assert code == 0 and json.loads(out.getvalue())["ok"], out.getvalue()
        catalog = ulat.standard_carriers()
        doc = {{"carrier": "chain3", "distances": [[0, 1, "1/2"], [1, 2, "1/2"], [0, 2, "1"]]}}
        d = ulat.load_distance_table(doc, carriers={{"chain3": ulat.chain_lattice(3)}})
        assert ulat.validate_semimetric(d).ok
        family = ulat.SemimetricFamily.of(d.name, d)
        ulat.quotient(d.carrier, ulat.kernel_partition(d.carrier, family), family)
        print(json.dumps({LOADED}))
    """, str(lattice))
    assert set(loaded) == EAGER | {"ulat.cli"}


def test_the_suite_run_help_lists_every_suite():
    done = subprocess.run([sys.executable, "-m", "ulat.cli", "suite", "run", "--help"],
                          capture_output=True, text=True, env=_env(COLUMNS="1000"), check=True)
    names = _python("import json, ulat; print(json.dumps(ulat.suite_names()))")
    assert len(names) == 12
    assert f"one of: {', '.join(names)}" in done.stdout


def test_every_export_resolves_to_its_defining_object():
    report = _python(f"""
        import json, sys
        import ulat
        exports = {EXPORTS!r}
        before = {LOADED}
        listed = set(dir(ulat))
        modules = {{module: getattr(ulat, module) for module in exports}}
        resolved = {{name: getattr(ulat, name) for names in exports.values() for name in names}}
        wrong = [module for module in exports if modules[module] is not sys.modules["ulat." + module]]
        wrong += [name for module, names in exports.items() for name in names
                  if resolved[name] is not getattr(sys.modules["ulat." + module], name)]
        unlisted = sorted(set(exports).union(*exports.values()) - listed)
        bound = all(name in vars(ulat) for names in exports.values() for name in names)
        print(json.dumps({{"before": before, "wrong": wrong, "unlisted": unlisted,
                          "bound": bound}}))
    """)
    assert set(report["before"]) == EAGER
    assert report["wrong"] == []
    assert report["unlisted"] == []
    assert report["bound"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ulat.no_such_name  # noqa: B018
    assert not hasattr(ulat, "no_such_name")
    assert "no_such_name" not in dir(ulat)


@pytest.mark.parametrize("name", REMOVED)
def test_a_removed_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ulat, name)
    assert name not in dir(ulat)
