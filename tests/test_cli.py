"""Exercise the command line front end through main(argv)."""

import json
import shlex
import sys
from pathlib import Path

import pytest

import zred.cli as cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_pell_text_and_json(capsys):
    code, out, _ = run(capsys, "pell", "17")
    assert (code, out) == (0, "t=8 u=2 epsilon=-4")
    code, out, _ = run(capsys, "--json", "pell", "17")
    assert code == 0
    assert json.loads(out) == {"t": "8", "u": "2", "epsilon": -4}


def decimal(s):
    # int of a decimal string of any length, read in chunks short enough
    # for the int <-> str digit limit of Python 3.11 and 3.10.7
    n = 0
    for i in range(0, len(s), 1000):
        n = n * 10 ** len(s[i:i + 1000]) + int(s[i:i + 1000])
    return n


def test_integers_of_any_length(capsys):
    # t has 4,818 digits and the cf input 5,000, past the 4300-digit limit
    # of int <-> str; main lifts that limit for its own call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run(capsys, "pell", "4000000001")
    assert (code, err) == (0, "")
    t, u, eps = (decimal(w.split("=")[1]) for w in out.split())
    assert eps in (4, -4)
    assert t * t - 4000000001 * u * u == eps
    code, out, _ = run(capsys, "--json", "pell", "4000000001")
    doc = json.loads(out)
    assert code == 0
    assert (decimal(doc["t"]), decimal(doc["u"]), doc["epsilon"]) == (t, u, eps)
    big = "7" * 5000
    assert run(capsys, "cf", big, "1", "--parity", "odd")[:2] == (0, big)
    assert limit() == before


def test_cf_parities(capsys):
    assert run(capsys, "cf", "9", "7", "--parity", "odd")[1] == "1,3,2"
    code, out, _ = run(capsys, "cf", "9", "7", "--parity", "even")
    assert (code, out) == (0, "1,3,1,1")
    code, out, _ = run(capsys, "--json", "cf", "9", "7", "--parity", "even")
    assert json.loads(out) == [1, 3, 1, 1]


def test_surd_cf_kinds(capsys):
    code, out, _ = run(capsys, "surd-cf", "0", "1", "31", "--terms", "9")
    assert (code, out) == (0, "5,1,1,3,5,3,1,1,10")
    code, out, _ = run(capsys, "surd-cf", "0", "1", "2", "--kind", "neg",
                       "--terms", "6")
    assert (code, out) == (0, "2,2,4,2,4,2")
    code, out, _ = run(capsys, "surd-cf", "0", "1", "2", "--kind", "denjoy",
                       "--terms", "14")
    assert (code, out) == (0, "11011011011011")
    code, out, _ = run(capsys, "--json", "surd-cf", "0", "1", "2",
                       "--kind", "denjoy", "--terms", "4")
    assert json.loads(out) == "1101"


def test_reduce_output(capsys):
    code, out, _ = run(capsys, "reduce", "1", "1", "-9", "--op", "z")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("pre: ")
    assert all(l.startswith(("pre: ", "cycle: ")) for l in lines)
    code, out, _ = run(capsys, "--json", "reduce", "1", "5", "2")
    doc = json.loads(out)
    assert doc["pre_period"] == []
    assert doc["cycle"][0] == ["1", "5", "2"]
    assert len(doc["cycle"]) == 5


def test_cycles_and_caliber(capsys):
    code, out, _ = run(capsys, "cycles", "17", "--op", "g")
    assert code == 0
    assert len(out.splitlines()) == 1 and out.count("->") == 5
    code, out, _ = run(capsys, "caliber", "1", "5", "2")
    assert (code, out) == (0, "5")


def form_text(f):
    return f"({', '.join(f)})"


def test_text_and_json_list_the_same_forms(capsys):
    # one unreduced form, then a Zagier cycle of 1001 forms
    argv = ("reduce", "--", "1", "1", "-250000")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, "--json", *argv)
    doc = json.loads(out)
    assert code == 0 and len(doc["cycle"]) == 1001
    assert text.splitlines() == (
        [f"pre: {form_text(f)}" for f in doc["pre_period"]]
        + [f"cycle: {form_text(f)}" for f in doc["cycle"]])
    for op in ("z", "g"):
        code, text, _ = run(capsys, "cycles", "20001", "--op", op)
        assert code == 0
        code, out, _ = run(capsys, "--json", "cycles", "20001", "--op", op)
        doc = json.loads(out)
        assert code == 0 and len(doc) == 4
        assert text.splitlines() == [" -> ".join(map(form_text, c))
                                     for c in doc]


def test_string_maps(capsys):
    assert run(capsys, "gamma", "--", "1", "3", "-2")[1] == "3,1,1"
    assert run(capsys, "beta", "1", "5", "2")[1] == "1,3,1,1"
    assert run(capsys, "sigma", "1", "5", "2")[1] == "10011"
    code, out, _ = run(capsys, "--json", "mu", "--", "1", "3", "-2")
    assert json.loads(out) == ["1", "5", "2"]
    assert run(capsys, "tau", "1,3,1,1")[1] == "(2, 10, 4)"
    assert run(capsys, "tau", "1 3 1 1")[1] == "(2, 10, 4)"
    assert run(capsys, "tau", " 1, 3 ,1,1")[1] == "(2, 10, 4)"
    assert run(capsys, "xi", "3,1,1")[1] == "(2, 6, -4)"
    assert run(capsys, "denjoy-period", "1", "5", "2")[1] == "1010111"


def test_precondition_failures_exit_3(capsys):
    code, _, err = run(capsys, "gamma", "1", "5", "2")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "cf", "7", "9", "--parity", "odd")
    assert code == 3 and "num >= den" in err
    code, _, err = run(capsys, "pell", "16")
    assert code == 3
    code, _, err = run(capsys, "tau", "1,0,1")
    assert code == 3
    for kind in ("reg", "neg", "denjoy"):
        code, out, err = run(capsys, "surd-cf", "0", "1", "2", "--kind", kind,
                             "--terms", "-3")
        assert (code, out) == (3, "") and "term count" in err
    code, out, err = run(capsys, "verify", "--suite", "rotation", "--jobs", "0")
    assert (code, out) == (3, "") and "jobs" in err


def test_boundary_failures_exit_3(capsys):
    # (2, 5, 2) passes the Zagier-reduced shape check; its delta is 9
    for argv in (("beta", "2", "5", "2"), ("sigma", "2", "5", "2"),
                 ("tau", "1,0"), ("tau", "1.5,2"), ("tau", "3"),
                 ("tau", ""), ("tau", " , "), ("xi", ""),
                 ("tau", "1,,3"), ("tau", ",1,3"), ("tau", "1,3,"),
                 ("reduce", "1", "3", "2"), ("caliber", "1", "3", "2"),
                 ("cycles", "9")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and err.startswith("error:"), argv
    # a missing bead is named, not dropped into a shorter string
    for entries, nth in (("1,,3", 2), (",1,3", 1), ("1,3,", 3)):
        err = run(capsys, "tau", entries)[2]
        assert f"entry {nth} of {entries!r} is empty" in err, entries


def test_usage_failures_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cf", "9", "7", "--parity", "sideways"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_internal_breakage_exit_4(capsys, monkeypatch):
    def boom(delta):
        raise AssertionError("synthetic")
    monkeypatch.setattr(cli, "fundamental_solution", boom)
    code, _, err = run(capsys, "pell", "17")
    assert code == 4 and "internal error: synthetic" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rotation",
                       "--delta-max", "120")
    assert code == 0
    assert out.startswith("rotation: PASS")
    code, out, _ = run(capsys, "verify", "--suite", "denjoy",
                       "--delta-max", "40")
    assert code == 1
    assert "denjoy: FAIL" in out and "not minimal" in out
    code, out, _ = run(capsys, "--json", "verify", "--suite", "zcaliber",
                       "--delta-max", "8", "--jobs", "1")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["reports"][0]["theorem_id"] == "zcaliber"


def readme_examples():
    """(argv, transcript lines) for each `$ zred` line of README's
    "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ zred "):
            examples.append((shlex.split(line)[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_examples(capsys):
    examples = readme_examples()
    assert len(examples) == 11
    for argv, want in examples:
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()) == (0, want), argv
