"""The verification harness itself: reports, sweeps, and the slow oracle."""

import hashlib
import inspect
import json
import math
import pickle
import random

import pytest

from zred import oracle
from zred.contfrac import (
    QuadraticSurd,
    denjoy_surd,
    neg_cf_period,
    neg_cf_surd,
    reg_cf_period,
    reg_cf_surd,
    surd,
)
from zred.forms import Form
from zred.maps import gamma
from zred.reduction import (
    cycles,
    enumerate_g_reduced,
    enumerate_z_reduced,
    orbit_to_cycle,
)
from zred.oracle import (
    SUITE_IDS,
    VerificationReport,
    _work,
    discriminants,
    expand_surd_oracle,
    verify,
)


def test_discriminants_listing():
    assert discriminants(21) == [5, 8, 12, 13, 17, 20, 21]
    assert discriminants(4) == []
    # squares and 2, 3 mod 4 excluded
    assert 9 not in discriminants(50)
    assert 16 not in discriminants(50)
    assert 7 not in discriminants(50)


def test_report_merge_and_truncation():
    r = VerificationReport("demo", 10)
    assert r.passed
    r.merge(5, [])
    r.merge(3, ["a", "b"])
    assert (r.cases, r.failure_count) == (8, 2)
    assert not r.passed
    r.merge(1, [f"x{i}" for i in range(100)])
    assert r.failure_count == 102
    assert len(r.failures) == 50
    assert "FAIL" in r.summary() and "102" in r.summary()
    j = r.to_json()
    assert j["theorem_id"] == "demo" and j["passed"] is False
    assert j["failure_count"] == 102 and len(j["failures"]) == 50


def test_report_summary_pass():
    r = VerificationReport("demo", 10)
    r.merge(4, [])
    assert r.summary() == "demo: PASS (4 cases, bound 10)"


def test_verify_validation():
    with pytest.raises(ValueError):
        verify("no_such_suite", 100)
    with pytest.raises(ValueError):
        verify("rotation", 0)
    with pytest.raises(ValueError):
        verify("rotation", 100, jobs=0)
    with pytest.raises(ValueError):
        verify("rotation", 100.5)
    with pytest.raises(ValueError):
        verify("rotation", 100, jobs=1.5)
    # a suite id of the wrong type is an unknown suite, not a TypeError
    for bad in (["rotation"], {"rotation": 1}):
        with pytest.raises(ValueError, match="known suites"):
            verify(bad, 10)


def test_suite_ids_are_stable():
    assert SUITE_IDS == [
        "rotation", "xi_diagram_plus", "xi_diagram_minus", "formfrombeads",
        "reductionrelation", "firstcoefficient", "reversal", "mu_fiber",
        "primitivity", "weightparity", "zcaliber", "denjoy", "lgz",
        "continuant_identities", "tz_knead"]


def test_sweep_suites_pass_at_desk_scale():
    for tid in ("rotation", "xi_diagram_plus", "xi_diagram_minus",
                "reductionrelation", "firstcoefficient", "reversal",
                "mu_fiber", "primitivity", "weightparity"):
        rep = verify(tid, 150)
        assert rep.passed, rep.summary()
        assert rep.cases > 0


def test_random_suites_pass_at_desk_scale():
    assert verify("continuant_identities", 400).passed
    assert verify("tz_knead", 300).passed
    assert verify("zcaliber", 9).passed
    assert verify("lgz", 30).passed


def test_parallel_report_is_deterministic(monkeypatch):
    # three workers even on a machine with fewer CPUs
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    a = verify("rotation", 200, jobs=1)
    b = verify("rotation", 200, jobs=3)
    assert a.to_json() == b.to_json()


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    import multiprocessing

    started = []

    class RecordingPool:
        # runs the units in this process; never forks
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    want = verify("rotation", 60, jobs=1).to_json()
    assert verify("rotation", 60, jobs=5000).to_json() == want
    assert started == [2]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert verify("rotation", 60, jobs=5000).to_json() == want
    assert started == [2]


def test_formfrombeads_units_pin_the_known_collision():
    # tau collapses (1, 1, 1) onto the even-length string of delta 5;
    # every other string in the block round-trips
    cases, fails = _work((oracle._beads_strings, (3, 1)))
    assert cases == 36
    assert len(fails) == 1
    assert "(1, 1, 1)" in fails[0]
    cases, fails = _work((oracle._beads_strings, (2, 1)))
    assert (cases, fails) == (6, [])
    cases, fails = _work((oracle._beads_forms, 68))
    assert fails == [] and cases > 0


def test_every_unit_pickles():
    # jobs > 1 sends each unit to a worker process; every body yields its
    # cases, since _work would count a returned (cases, fails) as 2 cases
    for tid in SUITE_IDS:
        for unit in oracle._SUITES[tid](300):
            assert pickle.loads(pickle.dumps(unit)) == unit, tid
            assert inspect.isgeneratorfunction(unit[0]), (tid, unit[0])


def test_lgz_runs_the_same_in_a_worker_pool(monkeypatch):
    # both unit kinds, the per-discriminant forms and the random sample,
    # go through real worker processes
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert verify("lgz", 60, jobs=3).to_json() == verify("lgz", 60).to_json()


def test_lgz_walks_each_period_once(monkeypatch):
    walks = []
    period = oracle._period

    def counting_period(*args):
        walks.append(args[0])
        return period(*args)

    monkeypatch.setattr(oracle, "_period", counting_period)
    for d in (5, 21, 60, 148):
        walks.clear()
        _work((oracle._lgz_forms, d))
        forms = (len(enumerate_z_reduced(d))
                 + sum(f.a > 0 for f in enumerate_g_reduced(d)))
        assert walks, d
        assert len(walks) == forms, d


def lgz_forms_walking_each_form(delta):
    """_lgz_forms with one Zagier cycle walk per form: the reference."""
    cases, fails = 0, []
    s = math.isqrt(delta)
    for f in enumerate_z_reduced(delta):
        x = surd(f.b, 2 * f.a, delta)
        period = neg_cf_period(x)
        cases += 1
        if not (x.cmp(1) > 0 and x.conj_cmp(0) > 0 and x.conj_cmp(1) < 0
                and period[0] == ()):
            fails.append(f"delta={delta} f={f}: {x} fails the reduced "
                         f"negative characterization")
        cases += 1
        cyc = orbit_to_cycle(f).cycle
        want = tuple(oracle._z_number(g.a, g.b, s) for g in cyc)
        if period != ((), want):
            fails.append(f"delta={delta} f={f}: negative period "
                         f"{period} vs reducing numbers {want}")
    for f in enumerate_g_reduced(delta):
        if f.a < 0:
            continue
        x = surd(f.b, 2 * f.a, delta)
        period = reg_cf_period(x)
        cases += 1
        if not (x.cmp(1) > 0 and x.conj_cmp(-1) > 0 and x.conj_cmp(0) < 0
                and period[0] == ()):
            fails.append(f"delta={delta} f={f}: {x} fails the reduced "
                         f"regular characterization")
        if f.is_primitive():
            cases += 1
            if period != ((), gamma(f)):
                fails.append(f"delta={delta} f={f}: regular period "
                             f"{period} vs gamma {gamma(f)}")
    return cases, fails


def test_lgz_forms_match_a_cycle_walk_per_form(monkeypatch):
    for d in discriminants(300):
        assert _work((oracle._lgz_forms, d)) == lgz_forms_walking_each_form(d), d
    # a wrong reducing number fails the same forms, in the same order
    z_number = oracle._z_number
    monkeypatch.setattr(oracle, "_z_number", lambda a, b, s: z_number(a, b, s) + 1)
    for d in discriminants(300):
        got = _work((oracle._lgz_forms, d))
        assert got[1] and got == lgz_forms_walking_each_form(d), d


def test_lgz_records_a_form_that_no_listed_cycle_holds(monkeypatch):
    # lgz is the check that cycles lists every Zagier-reduced form, so a
    # dropped cycle is a failure per form of it, not a KeyError
    monkeypatch.setattr(oracle, "cycles", lambda delta: cycles(delta)[1:])
    dropped = cycles(148)[0]
    cases, fails = _work((oracle._lgz_forms, 148))
    assert cases == lgz_forms_walking_each_form(148)[0]
    assert fails == [f"delta=148 f={f}: in no cycle that cycles lists"
                     for f in sorted(dropped)]
    rep = verify("lgz", 60)
    assert rep.failure_count > 0
    assert all("in no cycle" in f for f in rep.failures)


def test_lgz_records_a_form_in_more_than_one_listed_cycle(monkeypatch):
    # a cycle that cycles lists twice fails each of its forms once, under
    # the membership case, so the case count stays the reference's
    monkeypatch.setattr(oracle, "cycles", lambda d: cycles(d) + cycles(d)[:1])
    assert [len(c) for c in cycles(148)] == [12, 7, 6, 6]
    twice = cycles(148)[0]
    cases, fails = _work((oracle._lgz_forms, 148))
    assert cases == lgz_forms_walking_each_form(148)[0]
    assert fails == [f"delta=148 f={f}: in more than one listed cycle"
                     for f in enumerate_z_reduced(148) if f in twice]


def test_lgz_sample_catches_a_period_walk_started_late(monkeypatch):
    period = oracle._period

    def late_period(*args):
        pre, per = period(*args)
        return pre + per[:1], per[1:] + per[:1]

    cases, fails = _work((oracle._lgz_sample, 200))
    assert fails == []
    monkeypatch.setattr(oracle, "_period", late_period)
    late_cases, late_fails = _work((oracle._lgz_sample, 200))
    # every case fails but the 50 regular-to-binary rewrites, which read
    # no period
    assert late_cases == cases
    assert len(late_fails) == cases - 50


def test_suites_do_not_reenter_the_public_boundary(monkeypatch):
    # the suites' surds and discriminants are valid by construction, so
    # they call the period, expansion and Pell cores, not the public names
    # that check their input again
    def boundary(*args):
        raise AssertionError("a suite went back through a public function")

    for name in ("reg_cf_period", "neg_cf_period", "reg_cf_surd",
                 "neg_cf_surd", "denjoy_surd", "fundamental_solution"):
        monkeypatch.setattr(oracle, name, boundary, raising=False)
    assert _work((oracle._lgz_sample, 200))[1] == []
    assert _work((oracle._weightparity_work, 148))[1] == []


def test_lgz_sample_records_a_diverging_conversion(monkeypatch):
    cases, _ = _work((oracle._lgz_sample, 200))
    monkeypatch.setattr(oracle, "neg_to_reg_stream", lambda per, n: ())
    bad_cases, fails = _work((oracle._lgz_sample, 200))
    assert bad_cases == cases
    assert len(fails) == 50
    assert all("diverges from the direct expansion" in f for f in fails)


def test_primitivity_records_a_repetition_and_a_collision(monkeypatch):
    cases, fails = _work((oracle._primitivity_work, 148))
    assert fails == []
    primitive = [f for f in enumerate_z_reduced(148) if f.is_primitive()]
    monkeypatch.setattr(oracle, "_sigma", lambda f: "1010")
    got = _work((oracle._primitivity_work, 148))
    assert got == (cases, [f"delta=148 f={f}: sigma=1010 is a repetition"
                           for f in primitive])
    monkeypatch.setattr(oracle, "_sigma", lambda f: "100")
    got = _work((oracle._primitivity_work, 148))
    assert got == (cases, [f"delta=148 f={f}: sigma=100 collides with "
                           f"{primitive[0]}" for f in primitive[1:]])


def test_reversal_records_a_reverse_that_is_not_reduced(monkeypatch):
    # with a G+ form missing from the enumeration, the G- forms whose
    # reverse or rho it is fail the guard instead of raising a KeyError
    cases, fails = _work((oracle._reversal_work, 60))
    assert fails == []
    dropped = Form(1, 6, -6)
    enumerate_g = oracle.enumerate_g_reduced
    monkeypatch.setattr(oracle, "enumerate_g_reduced",
                        lambda d: [f for f in enumerate_g(d) if f != dropped])
    got = _work((oracle._reversal_work, 60))
    assert got == (cases, [
        "delta=60 f=(-6, 6, 1): reverse (1, 6, -6) or rho (6, 6, -1) is not reduced",
        "delta=60 f=(-1, 6, 6): reverse (6, 6, -1) or rho (1, 6, -6) is not reduced",
    ])


def test_denjoy_suite_red_cases_are_exactly_imprimitive_minimality():
    rep = verify("denjoy", 40)
    assert rep.failure_count == 3
    for tag in ("(2, 6, 2)", "(2, 8, 4)", "(4, 8, 2)"):
        assert any(tag in f for f in rep.failures)
    # scaled forms repeat the primitive period; nothing else breaks
    rep = verify("denjoy", 60)
    assert all("not minimal" in f for f in rep.failures)


def _denjoy_work_through_denjoy_surd(delta):
    # reference for the denjoy unit, which calls the kernel core: here the
    # triple goes through the public denjoy_surd, with surd's rescaling and
    # the positivity check
    cases, fails = 0, []
    for f in enumerate_z_reduced(delta):
        p = oracle._denjoy_period(f)
        cases += 1
        got = denjoy_surd((f.b - 2 * f.a, 2 * f.a, delta), 3 * len(p))
        if got != p * 3:
            fails.append(f"delta={delta} f={f}: expansion {got} does not "
                         f"repeat period {p}")
        cases += 1
        root = oracle.primitive_root(p)
        if root != p:
            fails.append(f"delta={delta} f={f}: period {p} is not minimal "
                         f"(true period {root})")
    return cases, fails


def test_denjoy_unit_matches_the_public_path():
    for d in discriminants(300):
        assert (_work((oracle._denjoy_work, d))
                == _denjoy_work_through_denjoy_surd(d)), d


# (cases, failure_count, sha256 of the JSON failure list) of every suite but
# formfrombeads at delta_max=300; a change to any report shows up here
_NO_FAILURES = hashlib.sha256(b"[]").hexdigest()
GOLDEN_300 = {
    "rotation": (3248, 0, _NO_FAILURES),
    "xi_diagram_plus": (938, 0, _NO_FAILURES),
    "xi_diagram_minus": (938, 0, _NO_FAILURES),
    "reductionrelation": (7000, 0, _NO_FAILURES),
    "firstcoefficient": (938, 0, _NO_FAILURES),
    "reversal": (4186, 0, _NO_FAILURES),
    "mu_fiber": (7434, 0, _NO_FAILURES),
    "primitivity": (3248, 0, _NO_FAILURES),
    "weightparity": (3248, 0, _NO_FAILURES),
    "zcaliber": (126, 0, _NO_FAILURES),
    "denjoy": (6496, 189,
               "900fa391ae773b1b7f8513de45b5e4a69f652510095c71da276cadcf77984ddf"),
    "lgz": (9278, 0, _NO_FAILURES),
    "continuant_identities": (2974, 0, _NO_FAILURES),
    "tz_knead": (2778, 0, _NO_FAILURES),
}


def test_golden_reports_at_300():
    assert sorted(GOLDEN_300) == sorted(set(SUITE_IDS) - {"formfrombeads"})
    for tid, want in GOLDEN_300.items():
        rep = verify(tid, 300)
        digest = hashlib.sha256(json.dumps(rep.failures).encode()).hexdigest()
        assert (rep.cases, rep.failure_count, digest) == want, tid


def test_step_off_the_reduced_set_is_a_recorded_failure(monkeypatch):
    # a broken Zagier step must show up in the report, not end the sweep
    # with a KeyError or an AssertionError
    monkeypatch.setattr(oracle, "_z_step", lambda f, s: Form(f.a, -f.b, f.c))
    for tid in ("rotation", "reductionrelation"):
        rep = verify(tid, 40)
        assert rep.failure_count > 0, tid
        assert any("is not reduced" in f for f in rep.failures), tid


def _random_surd(rng):
    while True:
        d = rng.randint(2, 800)
        if math.isqrt(d) ** 2 != d:
            break
    s = math.isqrt(d)
    p = rng.randint(-s, 2 * s + 2)
    q = rng.randint(1, s + 2)
    return surd(p, q, d)


def test_engines_match_interval_oracle():
    rng = random.Random(5)
    for _ in range(40):
        x = _random_surd(rng)
        assert reg_cf_surd(x, 25) == expand_surd_oracle(x, "reg", 25)
        assert neg_cf_surd(x, 25) == expand_surd_oracle(x, "neg", 25)
        if x.cmp(0) > 0:
            assert denjoy_surd(x, 40) == expand_surd_oracle(x, "denjoy", 40)


def test_oracle_validation():
    with pytest.raises(ValueError):
        expand_surd_oracle(surd(1, 2, 5), "ternary", 5)
    x = surd(0, 1, 2)
    for bad in (2.9, -3, "2.9", None):
        with pytest.raises(ValueError):
            expand_surd_oracle(x, "reg", bad)
        with pytest.raises(ValueError):
            reg_cf_surd(x, bad)
    assert expand_surd_oracle(x, "reg", "3") == reg_cf_surd(x, 3) == (1, 2, 2)
    # the oracle takes x through surd like the engines: a square
    # discriminant is rejected, not refined forever, and a plain triple
    # is a surd
    with pytest.raises(ValueError):
        expand_surd_oracle(QuadraticSurd(0, 1, 4), "reg", 3)
    assert expand_surd_oracle((1, 2, 5), "reg", 3) == reg_cf_surd(surd(1, 2, 5), 3)
    # the binary expansion is defined for positive values only, in both
    with pytest.raises(ValueError):
        denjoy_surd(surd(-3, 1, 2), 8)
    with pytest.raises(ValueError):
        expand_surd_oracle(surd(-3, 1, 2), "denjoy", 8)
