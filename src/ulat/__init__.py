"""Exact computational laboratory for lattice uniformities and unbounded
convergence.

The package builds everything from rational arithmetic: carriers (finite
lattices, rational vectors, finitely supported and eventually linear
sequences, the finite/cofinite algebra), truncation maps, lattice
semimetrics with their clamp-derived families, entourage calculations on
the line, order and unbounded-order convergence checkers, and constructive
subnet extraction.  Every oracle answers with a graded verdict: exact,
verified-at-horizon, falsified (with a witness), or inconclusive.

Importing the package loads the carriers, the semimetrics and the catalog.
The convergence half (``sequences``, ``convergence``, ``entourages``,
``subnet``, ``optrees``) and the ``suites`` runner load on first access to
one of their names or modules, which is then bound in the package like an
eagerly imported name.
"""

from importlib import import_module

from .carriers import (
    Carrier,
    CheckResult,
    FiniteLattice,
    GroupCarrier,
    NotALattice,
    chain_lattice,
    diamond_lattice,
    divisor_lattice,
    load_finite_lattice,
    pentagon_lattice,
    powerset_lattice,
    sublattices,
)
from .catalog import CatalogEntry, finite_entries, standard_carriers
from .exact import EXT_INF, ExtValue, Poly, RatAltSeq, ext, rat
from .semimetrics import (
    KernelRelation,
    LatticeSemimetric,
    QuotientLattice,
    SemimetricFamily,
    derived_semimetric,
    discrete_semimetric,
    interval_agreement,
    kernel_partition,
    load_distance_table,
    norm_semimetric,
    order_interval,
    ph_criterion,
    pullback_semimetric,
    quotient,
    table_semimetric,
    ustar_family,
    validate_semimetric,
    zero_semimetric,
)
from .spaces import (
    C00Space,
    C00Vec,
    EvLinSeq,
    EvLinSpace,
    FinCofAlgebra,
    FinCofSet,
    QLine,
    QVec,
)
from .truncation import (
    TruncationPair,
    canonical_pairs,
    clamp_difference_bound,
    compose_truncations,
    decompose_abs_meet,
    is_truncation_hom,
    truncate_f,
    truncate_g,
)
from .verdicts import AT_HORIZON, EXACT, FALSIFIED, INCONCLUSIVE, Verdict

__version__ = "0.1.0"

# name -> the submodule that defines it, for every name that loads on first
# access; each of those submodules is listed under its own name as well
_LAZY = {name: module for module, names in {
    "convergence": (
        "DEFAULT_EPS_GRID", "DEFAULT_HORIZON", "decide_O1_eventual_constancy",
        "exhaustivity_probe", "metric_cauchy", "metric_converges", "pairs_from_positives",
        "truncate_sequence", "unbounded_separation_example", "ustar_nonconvergence_on_line",
        "verify_O1", "verify_O2", "verify_uO"),
    "entourages": (
        "compose_case_analysis", "compose_triple_violation", "entourage_clause",
        "real_entourage_compose_check", "real_entourage_contains"),
    "optrees": (),
    "sequences": (
        "BoundClaim", "EventuallyConstant", "MetricCertificate", "O1Witness", "O2Witness",
        "SequenceFamily", "TailClosedForm", "Window", "chain_bound", "constant_sequence",
        "o2_from_o1", "parse_scalar_series", "parse_sequence_term", "series_sequence",
        "window_sequence"),
    "subnet": ("SubnetContainmentError", "SubnetEnumeration", "SubnetStep", "build_subnet"),
    "suites": (
        "CheckRecord", "SuiteConfig", "SuiteResult", "render_json", "render_markdown",
        "run_suite", "run_suites", "suite_names"),
}.items() for name in (module, *names)}


def __getattr__(name: str):
    """Load the submodule behind a lazy name and bind the name here, so
    that later reads are plain attribute reads."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module("." + module, __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
