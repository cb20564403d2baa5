"""Suite runner and command line behavior."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

import ulat.carriers as carriers
import ulat.suites as suites
from ulat.catalog import standard_carriers
from ulat.cli import _PARSERS, MAX_HORIZON, main
from ulat.suites import (
    EXPECT_EXACT,
    EXPECT_FALSIFIED,
    EXPECT_OK,
    CheckRecord,
    SuiteConfig,
    render_json,
    render_markdown,
    run_suite,
    run_suites,
    suite_names,
)
from ulat.exact import EXT_INF
from ulat.spaces import FinCofSet
from ulat.verdicts import Verdict

FAST = SuiteConfig(horizon=100)

ALL_SUITES = [
    "closure-t4-finite",
    "ex",
    "ex-r",
    "exhaustive-t2",
    "lemma-l2",
    "lemma-l5",
    "o1o2",
    "prop-d",
    "prop-p1",
    "prop-ph",
    "prop-q",
    "subnet-t3",
]


# sha256 of the final getstate() of the generator each seeded suite draws
# from, at horizon 100.  A report shows counts and the suite-level witness,
# not the draws, so a change that alters what a suite samples shows here.
DRAW_PINS = {
    ("lemma-l5", 0): "9c0cce27a9c39ab5a0c02d64a7c399ee7d47039bf293f412357643fa35291ed9",
    ("lemma-l5", 1): "8067ebb1771c3b1e9db9862dd90d0fdd8b9412ac10ecdedc1de158034c3c6202",
    ("lemma-l5", 7): "e2c95a24bb5687af86d10ecca0a5c50a3d3671501030e5802e862e99084a8425",
    ("lemma-l2", 0): "1d400531791c62915b442615dd1996157a5be7dfa060bd36a5f80228bb556b24",
    ("lemma-l2", 1): "5bc7d487725a6a251083c84f7da6143b5e7ad0de8e00ebcd9d53d510b2e99d51",
    ("lemma-l2", 7): "5e33dca45f5aca1a07ecd3e87bdfed292bdedcfb3a09166a133e9d8912bbe6ac",
    ("ex-r", 0): "ad2b7c241da23e0c802aca7f18cf39c73320fb671b74577f95ba93faa27d7115",
    ("ex-r", 1): "73aabcd958ad07c67757858ba23191b2278ab4a7315043ba1c4b481e1ec80da2",
    ("ex-r", 7): "68d8d8831f4a390b0d13a4e1c80d5a314d56458300f3a547167e08612f657fb1",
}


@pytest.mark.parametrize("suite, seed", list(DRAW_PINS))
def test_the_seeded_suites_make_the_pinned_draws(monkeypatch, suite, seed):
    made = []
    rng_for = SuiteConfig.rng_for
    monkeypatch.setattr(SuiteConfig, "rng_for",
                        lambda cfg, name: made.append(rng_for(cfg, name)) or made[-1])
    run_suite(suite, SuiteConfig(seed=seed, horizon=100))
    digests = [hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() for rng in made]
    assert digests == [DRAW_PINS[suite, seed]]


def test_registry_names():
    assert suite_names() == ALL_SUITES


def test_record_expectations():
    ok = CheckRecord("a", Verdict.at_horizon(10))
    assert ok.met and ok.expect == EXPECT_OK
    assert not CheckRecord("b", Verdict.at_horizon(10), EXPECT_EXACT).met
    assert CheckRecord("c", Verdict.exact(), EXPECT_EXACT).met
    control = CheckRecord("d", Verdict.falsified(witness=1), EXPECT_FALSIFIED)
    assert control.met
    assert not CheckRecord("e", Verdict.exact(), EXPECT_FALSIFIED).met
    with pytest.raises(ValueError):
        CheckRecord("f", Verdict.exact(), "maybe").met


def test_rng_streams_are_per_suite_and_seeded():
    cfg = SuiteConfig(seed=5)
    a = cfg.rng_for("lemma-l2").random()
    b = cfg.rng_for("lemma-l2").random()
    c = cfg.rng_for("lemma-l5").random()
    assert a == b != c
    assert SuiteConfig(seed=6).rng_for("lemma-l2").random() != a


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        run_suite("lemma-l99")


def test_o1o2_record_statuses():
    result = run_suite("o1o2", FAST)
    assert result.status == "pass"
    assert result.anchor == "o1o2"
    statuses = {rec.name: rec.verdict.status for rec in result.records}
    assert statuses == {
        "line-sandwich": "verified-at-horizon",
        "line-intervals": "exact",
        "line-replay": "exact",
        "atoms-intervals": "exact",
        "atoms-no-constancy": "falsified",
        "units-unbounded-order": "exact",
        "walk-control": "falsified",
    }
    assert result.counts["cases"] == 106
    assert result.counts["xfail"] == 2
    # a passing suite surfaces its first negative-control witness
    assert result.witness == [1, 2]


def test_o1o2_never_decides_one_witness_twice(monkeypatch):
    decide, handed = suites.verify_O2, []
    monkeypatch.setattr(suites, "verify_O2",
                        lambda seq, x, w, **kw: handed.append(w) or decide(seq, x, w, **kw))
    assert run_suite("o1o2", FAST).status == "pass"
    assert len(handed) == 3
    assert all(v != w for v, w in itertools.combinations(handed, 2))


def test_no_two_probes_share_a_sequence_and_family(monkeypatch):
    probe, handed = suites.exhaustivity_probe, []
    monkeypatch.setattr(suites, "exhaustivity_probe",
                        lambda seq, D, **kw: handed.append(
                            (seq.descriptor, D.name, [d.name for d in D.members]))
                        or probe(seq, D, **kw))
    assert all(run_suite(name, FAST).status == "pass" for name in ("ex-r", "exhaustive-t2"))
    assert len(handed) == 5
    assert all(p != q for p, q in itertools.combinations(handed, 2))


def test_prop_d_separates_distributive_carriers():
    result = run_suite("prop-d", SuiteConfig())
    assert result.status == "pass"
    by_name = {rec.name: rec for rec in result.records}
    assert by_name["hom-powerset3"].verdict.status == "exact"
    assert by_name["hom-gap-n5"].expect == EXPECT_FALSIFIED
    assert by_name["hom-gap-m3"].verdict.status == "falsified"
    assert result.witness == ["0", "c", "a", "b", "join"]


def test_closure_sets_are_built_without_checks(monkeypatch):
    catalog = {id(entry.carrier) for entry in standard_carriers().values()}
    calls = []
    check = carriers.Carrier.check_element
    monkeypatch.setattr(carriers.Carrier, "check_element",
                        lambda self, x: calls.append(id(self) in catalog) or check(self, x))
    assert run_suite("closure-t4-finite", SuiteConfig()).status == "pass"
    # the closure sets add none to the checks of the interval agreement on
    # the catalog carriers, and the collapse pullback checks its images on
    # its target once, when the catalog builds it, not per distance
    assert calls.count(True) == 1020
    assert calls.count(False) == 0


def test_counts_cover_every_record():
    result = run_suite("exhaustive-t2", FAST)
    c = result.counts
    assert set(c) == {"cases", "checks", "exact", "verified-at-horizon",
                      "falsified", "inconclusive", "xfail"}
    assert c["checks"] == len(result.records)
    assert c["exact"] + c["verified-at-horizon"] + c["falsified"] \
        + c["inconclusive"] == c["checks"]


def test_unmet_expectation_fails_the_suite(monkeypatch):
    body = lambda cfg: [CheckRecord("must-fail", Verdict.exact(), EXPECT_FALSIFIED)]
    monkeypatch.setitem(suites.REGISTRY, "stub", ("stub", body))
    result = run_suite("stub")
    assert result.status == "fail"


def test_crashing_suite_reports_failure(monkeypatch):
    def explode(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(suites.REGISTRY, "stub", ("stub", explode))
    result = run_suite("stub")
    assert result.status == "fail"
    assert result.witness == "error: RuntimeError: boom"


def test_inconclusive_suite_status(monkeypatch):
    body = lambda cfg: [CheckRecord("shrug", Verdict.inconclusive("no idea"))]
    monkeypatch.setitem(suites.REGISTRY, "stub", ("stub", body))
    assert run_suite("stub").status == "inconclusive"


def test_escape_targets_are_the_draws_of_randrange(monkeypatch):
    """ex-r draws its last 100 targets, from the state the compose check
    leaves, as F(randrange(-10_000, 10_001), randrange(1, 100))."""
    rngs, states, targets = [], [], []
    rng_for, probes = SuiteConfig.rng_for, suites._walk_probes
    escape = suites.ustar_nonconvergence_on_line
    monkeypatch.setattr(SuiteConfig, "rng_for",
                        lambda cfg, name: rngs.append(rng_for(cfg, name)) or rngs[-1])
    monkeypatch.setattr(suites, "_walk_probes",
                        lambda *args: states.append(rngs[0].getstate()) or probes(*args))
    monkeypatch.setattr(suites, "ustar_nonconvergence_on_line",
                        lambda r: targets.append(r) or escape(r))
    assert run_suite("ex-r", FAST).status == "pass"
    ref = random.Random()
    ref.setstate(states[0])
    assert targets[3:] == [F(ref.randrange(-10_000, 10_001), ref.randrange(1, 100))
                           for _ in range(100)]
    assert len(rngs) == 1 and rngs[0].getstate() == ref.getstate()


def test_reports_are_byte_deterministic():
    names = ("prop-p1", "subnet-t3", "ex-r")
    first = render_json(run_suites(names, FAST))
    second = render_json(run_suites(names, FAST))
    assert first == second
    doc = json.loads(first)
    assert doc["version"] == 1
    assert [rec["suite"] for rec in doc["suites"]] == sorted(names)
    assert all("elapsed" not in rec for rec in doc["suites"])


def test_timings_are_opt_in():
    cfg = SuiteConfig(horizon=100, timings=True)
    doc = run_suites(["subnet-t3"], cfg)
    assert "elapsed" in doc["suites"][0]


def test_empty_report_literal():
    assert render_json(run_suites([], FAST)) == '{"version":1,"suites":[]}\n'


def _two_suite_report():
    return {
        "version": 1,
        "suites": [
            {"suite": "good", "anchor": "g", "status": "pass", "witness": None,
             "counts": {"cases": 3, "checks": 1, "exact": 1,
                        "verified-at-horizon": 0, "falsified": 0,
                        "inconclusive": 0, "xfail": 0}},
            {"suite": "bad", "anchor": "b", "status": "fail", "witness": [1, 2],
             "counts": {"cases": 1, "checks": 1, "exact": 0,
                        "verified-at-horizon": 0, "falsified": 1,
                        "inconclusive": 0, "xfail": 0}},
        ],
    }


def test_markdown_report_lists_failing_witnesses():
    text = render_markdown(_two_suite_report())
    lines = text.splitlines()
    assert lines[0].startswith("| suite | anchor | status |")
    assert "| good | g | pass | 3 |" in text
    assert "- `bad` fail: witness [1, 2]" in text
    assert "- `good`" not in text
    assert lines[:3] == [
        "| suite | anchor | status | cases | exact | at-horizon | falsified | inconclusive | xfail |",
        "|---|---|---|---|---|---|---|---|---|",
        "| good | g | pass | 3 | 1 | 0 | 0 | 0 | 0 |",
    ]


def test_markdown_report_shows_timings():
    report = _two_suite_report()
    for rec, elapsed in zip(report["suites"], (0.25, 1.5)):
        rec["elapsed"] = elapsed
    lines = render_markdown(report).splitlines()
    assert lines[0].endswith("| xfail | elapsed s |")
    assert lines[1] == "|---|---|---|---|---|---|---|---|---|---|"
    assert lines[2] == "| good | g | pass | 3 | 1 | 0 | 0 | 0 | 0 | 0.250 |"
    assert lines[3].endswith("| 1.500 |")


def test_witnesses_render_as_plain_json():
    witness = (F(1, 2), EXT_INF, {1: F(2)}, frozenset({"b", "a"}), None, FinCofSet.finite({2, 1}))
    assert suites._witness_json(witness) == ["1/2", "inf", {"1": "2"}, ["a", "b"], None, "{1,2}"]


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_runs_a_suite(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "prop-p1", "--horizon", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["suite"] == "prop-p1"
    assert doc["suites"][0]["status"] == "pass"


def test_cli_rejects_unknown_suites(capsys):
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "lemma-l99")
    assert code == 2
    assert "unknown suite(s): lemma-l99" in err


def test_cli_settings_precedence(tmp_path, monkeypatch, capsys):
    config = tmp_path / "ulat.conf"
    config.write_text("# comment\nhorizon = 200\nformat = md\n")

    code, out, _ = run_cli(capsys, "suite", "run", "o1o2", "--config", str(config))
    assert code == 0 and out.startswith("| suite |")
    assert "| 206 |" in out

    monkeypatch.setenv("ULAT_HORIZON", "300")
    code, out, _ = run_cli(capsys, "suite", "run", "o1o2", "--config", str(config),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["suites"][0]["counts"]["cases"] == 306

    code, out, _ = run_cli(capsys, "suite", "run", "o1o2", "--config", str(config),
                           "--format", "json", "--horizon", "100")
    assert code == 0
    assert json.loads(out)["suites"][0]["counts"]["cases"] == 106


def test_cli_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("colour = blue\n")
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--config", str(bad))
    assert code == 2 and "unknown config key" in err

    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--config",
                           str(tmp_path / "absent.conf"))
    assert code == 2 and "cannot read config file" in err

    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--horizon", "0")
    assert code == 2 and "horizon must be at least 1" in err

    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--eps-grid", "1,-1/2")
    assert code == 2 and "positive" in err


def test_cli_refuses_a_horizon_above_the_bound_from_every_source(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(suites, "run_suites", lambda *args: pytest.fail("a suite ran"))
    over = str(MAX_HORIZON + 1)
    config = tmp_path / "far.conf"
    config.write_text(f"horizon = {over}\n")
    for argv, env, origin in ((["--horizon", over], None, "--horizon"),
                              ([], over, "ULAT_HORIZON"),
                              (["--config", str(config)], None, f"{config}:1")):
        monkeypatch.delenv("ULAT_HORIZON", raising=False)
        if env is not None:
            monkeypatch.setenv("ULAT_HORIZON", env)
        code, out, err = run_cli(capsys, "suite", "run", "o1o2", *argv)
        assert (code, out) == (2, "")
        assert err == f"ulat: {origin}: horizon must be at most {MAX_HORIZON}, got {over}\n"
    assert _PARSERS["horizon"](str(MAX_HORIZON)) == MAX_HORIZON


def test_cli_eps_grid_sets_the_cases(tmp_path, capsys):
    config = tmp_path / "eps.conf"
    config.write_text("eps_grid = 1,1/2\n")
    for argv, cases in (([], 20), (["--eps-grid", "1,1/2"], 11), (["--config", str(config)], 11)):
        code, out, _ = run_cli(capsys, "suite", "run", "exhaustive-t2", *argv)
        assert code == 0
        assert json.loads(out)["suites"][0]["counts"]["cases"] == cases


def test_cli_refuses_an_eps_grid_exponent_at_once(tmp_path, capsys):
    config = tmp_path / "eps.conf"
    config.write_text("eps_grid = 1,1e10000000\n")
    for argv, origin in ((["--eps-grid", "1e10000000"], "--eps-grid"),
                         (["--config", str(config)], f"{config}:1")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "suite", "run", "prop-d", *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err.startswith(f"ulat: {origin}: eps_grid has a bad value '1e10000000'")
        assert "has an exponent" in err


def test_cli_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "subnet-t3", "--timings",
                           "--horizon", "100")
    assert code == 0
    assert "elapsed" in json.loads(out)["suites"][0]


def test_cli_markdown_timings(capsys):
    code, out, _ = run_cli(capsys, "suite", "run", "subnet-t3", "--timings",
                           "--format", "md", "--horizon", "100")
    assert code == 0
    header, rule, row = out.splitlines()
    assert header.endswith("| elapsed s |") and rule.endswith("---|---|")
    assert float(row.rsplit("|", 2)[1]) >= 0


def test_cli_timings_from_a_config_file(tmp_path, capsys):
    config = tmp_path / "timed.conf"
    config.write_text("timings = true\nformat = md\nhorizon = 100\n")
    code, out, _ = run_cli(capsys, "suite", "run", "subnet-t3", "--config", str(config))
    assert code == 0 and "| elapsed s |" in out.splitlines()[0]

    config.write_text("timings = off\n")
    code, out, _ = run_cli(capsys, "suite", "run", "subnet-t3", "--config", str(config),
                           "--horizon", "100")
    assert code == 0 and "elapsed" not in json.loads(out)["suites"][0]

    config.write_text("timings = maybe\n")
    code, _, err = run_cli(capsys, "suite", "run", "subnet-t3", "--config", str(config))
    assert code == 2 and f"{config}:1: timings needs a boolean" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_rejects_a_nonpositive_horizon_from_the_environment(monkeypatch, capsys, value):
    monkeypatch.setenv("ULAT_HORIZON", value)
    code, out, err = run_cli(capsys, "suite", "run", "o1o2")
    assert code == 2 and out == ""
    assert err.startswith("ulat: ULAT_HORIZON: horizon must be at least 1")


def test_cli_validates_every_source_alike(tmp_path, monkeypatch, capsys):
    config = tmp_path / "seed.conf"
    config.write_text("seed = x\n")
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--config", str(config))
    assert code == 2 and f"{config}:1: seed needs an integer" in err
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--seed", "x")
    assert code == 2 and "--seed: seed needs an integer" in err
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--format", "xml")
    assert code == 2 and "--format: format must be 'json' or 'md'" in err
    monkeypatch.setenv("ULAT_SEED", "x")
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1")
    assert code == 2 and "ULAT_SEED: seed needs an integer" in err


def test_cli_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "latin1.conf"
    config.write_bytes("# r\xe9glage\nhorizon = 100\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "suite", "run", "prop-p1", "--config", str(config))
    assert code == 2 and err.startswith("ulat: config file") and "not UTF-8" in err


def test_cli_lattice_check_accepts_a_chain(tmp_path, capsys):
    doc = {"name": "c3", "elements": ["0", "1", "2"],
           "covers": [["0", "1"], ["1", "2"]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert parsed == {"ok": True, "name": "c3", "elements": 3, "bottom": "0",
                      "top": "2", "distributive": True}


def test_cli_lattice_check_rejects_a_vee(tmp_path, capsys):
    doc = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
    path = tmp_path / "vee.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 1
    parsed = json.loads(out)
    assert parsed["ok"] is False
    assert parsed["pair"] == ["b", "c"]
    assert parsed["missing"] == "join"


def test_cli_lattice_check_flags_nondistributive(tmp_path, capsys):
    doc = {"name": "m3", "elements": ["0", "a", "b", "c", "1"],
           "covers": [["0", "a"], ["0", "b"], ["0", "c"],
                      ["a", "1"], ["b", "1"], ["c", "1"]]}
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["ok"] is True and parsed["distributive"] is False
    assert len(parsed["distributivity-witness"]) == 3


def test_cli_lattice_check_output_is_pinned(tmp_path, capsys, monkeypatch):
    # N5 glued between a bottom and a top, elements out of order: the
    # report, witness included, is fixed byte for byte, and distributivity
    # is decided once, when the lattice is built
    doc = {"name": "glued", "elements": ["x", "1", "b", "0", "c", "a", "t"],
           "covers": [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"],
                      ["1", "t"], ["x", "0"]]}
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(doc))
    calls = []
    decide = carriers._distributivity
    monkeypatch.setattr(carriers, "_distributivity", lambda *a: calls.append(a) or decide(*a))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 0 and len(calls) == 1
    assert out == ('{"ok":true,"name":"glued","elements":7,"bottom":"x","top":"t",'
                   '"distributive":false,"distributivity-witness":["c","b","a"]}\n')


def test_cli_lattice_check_refuses_a_chain_above_256_elements(tmp_path, capsys):
    elements = [str(i) for i in range(257)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"elements": elements,
                                "covers": [list(c) for c in zip(elements, elements[1:])]}))
    code, out, err = run_cli(capsys, "lattice", "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"ulat: {str(path)!r}: a finite lattice has at most 256 elements, got 257\n"


@pytest.mark.parametrize("cover, error", [
    (5, "cover 5 is not a pair"),
    ([["0"], "1"], "cover [['0'], '1'] mentions an unknown element"),
])
def test_cli_lattice_check_names_a_malformed_cover(tmp_path, capsys, cover, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", "1"], "covers": [cover]}))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "error": error}


@pytest.mark.parametrize("doc, error", [
    (["0", "1"], "document must be a JSON object"),
    ({"elements": ["0", 1], "covers": []}, "'elements' must be strings"),
    ({"elements": ["0", "1"], "covers": {"0": "1"}}, "'covers' must be a list of [lo, hi] pairs"),
    ({"elements": ["0", "1", "0"], "covers": []}, "duplicate element name '0'"),
    ({"elements": ["0", "1"], "covers": [["0", "0"]]}, "cover ['0', '0'] is reflexive"),
], ids=["not-an-object", "non-string-element", "covers-not-a-list", "duplicate-element",
        "reflexive-cover"])
def test_cli_lattice_check_names_a_malformed_document(tmp_path, capsys, doc, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "error": error}


@pytest.mark.parametrize("covers, pair", [
    ([["a", "b"], ["b", "a"]], ["b", "a"]),
    ([["a", "b"], ["b", "c"], ["c", "a"]], ["c", "a"]),
])
def test_cli_lattice_check_refuses_a_cover_cycle(tmp_path, capsys, covers, pair):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": covers}))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "error": "cover cycle through 'a'",
                               "pair": pair}


def test_cli_lattice_check_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "lattice", "check", str(tmp_path / "none.json"))
    assert code == 2 and "cannot read" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "lattice", "check", str(garbled))
    assert code == 2 and "not valid JSON" in err


def test_cli_lattice_check_rejects_unreadable_documents(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"elements": ["\xe9"], "covers": []}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "lattice", "check", str(latin1))
    assert code == 2 and out == ""
    assert err.startswith("ulat: lattice file") and "not UTF-8" in err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "lattice", "check", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("ulat: ") and "nests too deeply" in err


def test_cli_lattice_check_refuses_an_integer_too_long_to_convert(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"elements": ["a"], "covers": [], "x": ' + "1" * 5000 + "}")
    code, out, err = run_cli(capsys, "lattice", "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"ulat: {str(path)!r} cannot be parsed") and "4300" in err


def test_cli_without_command_prints_help(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()
