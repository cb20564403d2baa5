"""The benchmark in perfbench/ reaches the library through names: every
``U.<name>`` chain it reads, with ``U`` the ``ulat`` package, the keywords
it passes to ``U.<callable>(...)``, the entry points its tracer wraps, and
the attributes of a parsed closed form that the ``closed-forms`` workload
reads.  A renamed or moved name fails here instead of breaking a benchmark
run.  The benchmark's files are only read."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import ulat
import ulat.cli  # noqa: F401  (the benchmark imports it too)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """'a.b.c' for an attribute chain U.a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "U" and names:
        return ".".join(reversed(names))
    return None


def _bench_chains():
    """(file, chain) for every U.<chain> in perfbench/*.py.  The prefixes
    of a chain (U.a of U.a.b) come along; they resolve whenever it does."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = _chain(node)
            if chain is not None:
                chains.add((path.name, chain))
    return sorted(chains)


def _resolve(chain: str):
    obj = ulat
    for part in chain.split("."):
        obj = getattr(obj, part)
    return obj


def _resolves(chain: str) -> bool:
    try:
        _resolve(chain)
    except AttributeError:
        return False
    return True


def test_every_name_the_benchmark_reads_resolves():
    chains = _bench_chains()
    assert ("closed_forms.py", "spaces.NO_BOUND") in chains
    assert ("tracer.py", "truncate_sequence") in chains
    missing = [f"{name}: U.{chain}" for name, chain in chains if not _resolves(chain)]
    assert not missing


def _bench_keywords():
    """(file, chain, keyword) for every keyword passed to a U.<chain>(...) call."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (chain := _chain(node.func)) is not None:
                found.update((path.name, chain, kw.arg) for kw in node.keywords if kw.arg)
    return sorted(found)


def _accepts(chain: str, keyword: str) -> bool:
    params = inspect.signature(_resolve(chain)).parameters
    return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    keywords = _bench_keywords()
    assert ("closed_forms.py", "verify_uO", "horizon") in keywords
    assert ("suites_wl.py", "unbounded_separation_example", "k_values") in keywords
    unknown = [f"{name}: U.{chain}({kw}=...)" for name, chain, kw in keywords
               if not _accepts(chain, kw)]
    assert not unknown


def _load(filename: str, name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_restores():
    module = _load("tracer.py", "bench_tracer")
    before = ulat.convergence.truncate_sequence
    tracer = module.Tracer(str(BENCH), str(Path(ulat.__file__).parent))
    try:
        tracer.install(ulat)
        assert ulat.convergence.truncate_sequence is not before
    finally:
        tracer.restore()
    assert ulat.convergence.truncate_sequence is before


def test_the_parsed_degree_of_closed_forms_reads_the_series(monkeypatch):
    # instance attributes such as series.den are out of reach of the name check
    monkeypatch.syspath_prepend(str(BENCH))  # closed_forms imports its siblings
    workload = _load("closed_forms.py", "bench_closed_forms").ClosedFormsWorkload()
    degree = workload.parsed_degree(ulat, workload.generate(ulat, ulat.standard_carriers(), 0))
    assert isinstance(degree, int) and degree > 0


def test_the_harness_swap_keeps_one_package():
    """A timed set-up imports the library afresh and then puts the first
    package back.  The tracer reads ``ulat.carriers`` and ``ulat.exact``
    from ``sys.modules`` and walks the ``Carrier`` subclasses right after
    the import, before any name that loads on first use; and a module that
    first loads after the swap binds the first package's modules."""
    code = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import harness

        class Workload:
            def generate(self, U, catalog, seed):
                return None

        def subclasses(cls):
            return {cls.__qualname__}.union(*map(subclasses, cls.__subclasses__()))

        seen = {}

        def on_import(U):
            seen["modules"] = sorted(m for m in sys.modules if m.startswith("ulat"))
            seen["carriers"] = sorted(subclasses(sys.modules["ulat.carriers"].Carrier))

        U, _ = harness.setup(Workload(), 0, on_import=on_import)
        harness.timed_setup(Workload(), 0)
        U.parse_sequence_term, U.truncate_sequence, U.suite_names
        print(json.dumps({
            **seen,
            "restored": sys.modules["ulat"] is U,
            "one_pair": U.sequences.TruncationPair is U.truncation.TruncationPair,
            "one_oracle": U.truncate_sequence is sys.modules["ulat.convergence"].truncate_sequence,
            "all_carriers": sorted(subclasses(U.Carrier)),
        }))
    """)
    src = str(Path(ulat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                          text=True, env=env, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert {"ulat.carriers", "ulat.exact"} <= set(report["modules"])
    assert "ulat.sequences" not in report["modules"]
    assert report["carriers"] == report["all_carriers"]
    assert "FiniteLattice" in report["carriers"] and "QLine" in report["carriers"]
    assert report["restored"] and report["one_pair"] and report["one_oracle"]


def test_one_round_of_each_document_workload_is_correct(tmp_path):
    """The name check cannot see the result attributes the workloads read
    (``BoundClaim.exact``, ``EventuallyConstant.from_index``,
    ``Verdict.witness``), so run the set-up, one round, its check and the
    run's finish of both document workloads at seed 0, in a fresh process
    since the set-up imports the library afresh.  The lattice documents go
    to a temporary directory."""
    code = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, sys.argv[1])
        import harness, lattice_docs
        from closed_forms import ClosedFormsWorkload

        lattice_docs.WORK_DIR = Path(sys.argv[2]) / "work" / "lattice-docs"
        report = {}
        for workload in (ClosedFormsWorkload(), lattice_docs.LatticeDocsWorkload()):
            U, inputs = harness.setup(workload, 0)
            rnd = harness.Round()
            outputs = workload.run_round(U, inputs, rnd.record)
            more, _ = workload.finish(U, inputs, [outputs])
            report[workload.name] = {"attempted": rnd.attempted, "failed": rnd.failed,
                                     "problems": workload.check(U, inputs, outputs) + more}
        print(json.dumps(report))
    """)
    src = str(Path(ulat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, str(BENCH), str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert sorted(report) == ["closed-forms", "lattice-docs"]
    for name, result in report.items():
        assert result["attempted"] > 0, name
        assert result["failed"] == 0 and result["problems"] == [], (name, result)
    assert not (tmp_path / "work").exists()
