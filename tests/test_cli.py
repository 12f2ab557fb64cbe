"""Command line interface: exit codes, record output, round trips."""

import os
import subprocess
import sys

import pytest

from consfree.cli import main
from consfree.counting import gen_bincount, gen_lincount
from corpus import CORPUS, PRELUDE

CHOOSE = dict(CORPUS)["choose"]
NOT_CONS_FREE = PRELUDE + """\
fun g : list => list
rules:
g xs -> true::xs
"""

PARITY_TM = """\
states: even odd acc rej
start: even
accept: acc
reject: rej
bound: lin
transitions:
even 0 -> even 0 R
even 1 -> odd 1 R
odd 0 -> odd 0 R
odd 1 -> even 1 R
even _ -> acc _ L
odd _ -> rej _ L
"""


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def records(out):
    pairs = []
    for line in out.splitlines():
        k, _, v = line.partition(": ")
        pairs.append((k, v))
    return pairs


def test_check_cons_free(tmp_path, capsys):
    path = write(tmp_path, "lin.cf", gen_lincount().source)
    assert main(["check", path, "--format", "records"]) == 0
    rec = dict(records(capsys.readouterr().out))
    assert rec["cons_free"] == "yes"
    assert rec["unary_variables"] == "yes"
    assert rec["data_order"] == "0"


def test_check_failure_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.cf", NOT_CONS_FREE)
    assert main(["check", path, "--format", "records"]) == 1
    rec = dict(records(capsys.readouterr().out))
    assert rec["cons_free"] == "no"
    assert "cons_free_witness" in rec


def test_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "syntax.cf", "sort bool\nfun f bool\n")
    assert main(["check", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.cf")]) == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_run_choose(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["run", path, "1", "--format", "records"]) == 0
    rec = records(capsys.readouterr().out)
    assert ("result", "false") in rec and ("result", "true") in rec
    assert ("complete", "yes") in rec


def test_run_wrong_input_count(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["run", path, "1", "0"]) == 1


def test_run_trace(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["run", path, "1", "--trace", "--format", "records"]) == 0
    assert "trace:" in capsys.readouterr().out


def test_saturate_records_and_stats(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["saturate", path, "10", "--format", "records"]) == 0
    rec = dict(records(capsys.readouterr().out))
    assert int(rec["confirmed_statements"]) > 0
    assert int(rec["base_size"]) > 0


def test_saturate_dump_statements(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["saturate", path, "1", "--dump-statements"]) == 0
    assert "statement:" in capsys.readouterr().out


def test_saturate_dump_statements_function_claims(tmp_path, capsys):
    # `bin 2 1 1` has keys whose claims are closures over a 128-pair graph;
    # the dump lists their maximal confirmed values, not the whole domain
    src = gen_bincount(2, 1, 1).source.replace(
        "rules:", "fun start : list => bool\nrules:")
    src += "start cs -> zero2 cs (pred2 cs (seed2 cs))\n"
    path = write(tmp_path, "bin.cf", src)
    assert main(["saturate", path, "11", "--dump-statements"]) == 0
    out, err = capsys.readouterr()
    marks = {line.rpartition(" ")[2] for line in out.splitlines()
             if line.startswith("statement: ")}
    assert marks == {"[confirmed]", "[unconfirmed]", "[maximal]"}
    assert err == ""


def test_saturate_long_input(tmp_path, capsys):
    # 8000 and 30 000 bits: type checking the input, building the base set
    # and checking data-ness do not recurse on the length of the list
    path = write(tmp_path, "parity.cf", dict(CORPUS)["parity"])
    for bits, parity in (("110" * 2666 + "10", "true"),  # 5333 ones
                         ("1" * 30000, "false")):
        assert main(["saturate", path, bits, "--format", "records"]) == 0
        rec = records(capsys.readouterr().out)
        assert rec[0] == ("result", parity) and rec[1][0] != "result"


def test_bad_numbers_are_one_line_errors(tmp_path, capsys):
    choose = write(tmp_path, "choose.cf", CHOOSE)
    cases = [
        (["run", choose, "1", "--budget-depth", "0"], 2),
        (["run", choose, "1", "--budget-steps", "-1"], 2),
        (["saturate", choose, "1", "--domain-cap", "0"], 2),
        (["saturate", choose, "1", "--domain-cap", "-5"], 2),
    ]
    for i, bound in enumerate(("bin x 1 1", "bin 0 1 1", "poly 0 1",
                               "nondet x")):
        tm = write(tmp_path, "m%d.tm" % i,
                   PARITY_TM.replace("bound: lin", "bound: " + bound))
        cases.append((["compile-tm", tm], 1))
    for argv, code in cases:
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        err = capsys.readouterr().err
        assert rc == code, (argv, err)
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (argv, err)


def test_saturate_domain_cap_exit_3(tmp_path, capsys):
    # lincount with a start entry so the command reaches saturation
    src = gen_lincount().source.replace(
        "rules:", "fun start : list => bool\nrules:")
    src += "start cs -> zero cs (seed cs)\n"
    path = write(tmp_path, "lin.cf", src)
    # eager mode enumerates every domain up front, so a tiny cap trips
    assert main(["saturate", path, "11", "--mode", "eager",
                 "--domain-cap", "1"]) == 3
    assert "resource limit" in capsys.readouterr().err


def run_cli(argv, timeout=300):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_deep_searches_exit_without_traceback(tmp_path):
    # a derivation depth bound of 100 000 and a 30 000-bit input, under
    # Python's default recursion limit: the search keeps its frames on a
    # stack of its own
    loop = write(tmp_path, "loop.cf", dict(CORPUS)["loop_with_escape"])
    parity = write(tmp_path, "parity.cf", dict(CORPUS)["parity"])
    ones = "1" * 30_000
    for argv, out in (
            (["run", "--budget-depth", "100000", loop, "1"],
             ["result: true", "complete: no", "steps: 199999"]),
            (["run", "--budget-depth", "100000", parity, ones],
             ["result: false", "complete: yes", "steps: 60001"]),
            (["saturate", parity, ones, "--format", "records"],
             ["result: false"])):
        res = run_cli(["-m", "consfree.cli"] + argv)
        assert res.returncode == 0, (argv[0], res.stderr[-2000:])
        assert res.stderr == "", argv[0]
        assert res.stdout.splitlines()[:len(out)] == out, argv[0]


def test_long_lists_in_programs_and_inputs(tmp_path, capsys):
    # lists of 3000 cells as inputs, results, literal patterns and
    # right-hand sides: parsing, printing, matching and substitution walk
    # along a list without recursing on its length
    n = 3000
    ones, cells = "1" * n, "true::" * n

    def program(name, typ, rule):
        return write(tmp_path, name, PRELUDE + "fun start : %s\nrules:\n%s\n"
                     % (typ, rule))

    ident = program("id.cf", "list => list", "start cs -> cs")
    lit_pat = program("lit_pat.cf", "list => bool", 'start "%s" -> true' % ones)
    lit_rhs = program("lit_rhs.cf", "list => list", 'start cs -> "%s"' % ones)
    cons_pat = program("cons_pat.cf", "list => list",
                       "start (%sxs) -> xs" % cells)
    cons_rhs = program("cons_rhs.cf", "list => list",
                       "start cs -> %scs" % cells)
    cases = [
        (["saturate", ident, ones], 0, cells + "[]"),
        (["run", ident, ones], 0, cells + "[]"),
        (["run", ident, cells + "[]"], 0, cells + "[]"),
        (["check", lit_pat], 0, None),
        (["run", lit_pat, ones], 0, "true"),
        (["run", lit_rhs, "0"], 0, cells + "[]"),
        (["check", cons_pat], 0, None),
        (["run", cons_pat, ones + "01"], 0, "false::true::[]"),
        (["saturate", cons_pat, ones + "01"], 0, "false::true::[]"),
        (["run", cons_rhs, "0"], 0, cells + "false::[]"),
        (["saturate", cons_rhs, "0"], 1, None),
    ]
    for argv, code, result in cases:
        rc = main(argv + ["--format", "records"])
        out, err = capsys.readouterr()
        assert rc == code, (argv[:2], err[-500:])
        if result is not None:
            assert records(out)[0] == ("result", result), argv[:2]
        if argv[0] == "check":
            assert ("cons_free", "yes") in records(out), argv[:2]
    assert "not cons-free" in err


def test_deep_nesting_in_programs_and_inputs(tmp_path, capsys):
    # 3000 nested parentheses, a right-hand side of 3000 nested calls, two
    # overlapping 3000-cell patterns, and a closure nested 3000 deep: the
    # parser, the saturation engine's rule plans, the determinism check and
    # the value test use explicit stacks
    n = 3000
    nested = write(tmp_path, "nested.cf", PRELUDE + (
        "fun start : list => list\nfun id : list => list\nrules:\n"
        "id xs -> xs\nstart cs -> %scs%s\n" % ("id (" * n, ")" * n)))
    overlap = write(tmp_path, "overlap.cf", PRELUDE + (
        "fun start : list => bool\nrules:\n"
        'start "%s" -> true\nstart (%sxs) -> false\n' % ("1" * n, "true::" * n)))
    closures = write(tmp_path, "closures.cf", PRELUDE + (
        "fun start : list => bool\nfun id : bool => bool\n"
        "fun k : (bool => bool) => bool => bool\n"
        "fun build : list => (bool => bool) => bool => bool\nrules:\n"
        "id x -> x\nk f x -> f x\nbuild [] f -> f\n"
        "build (c::cs) f -> build cs (k f)\nstart cs -> build cs id true\n"))
    cases = [
        (["run", nested, "(" * n + "true::[]" + ")" * n], "true::[]"),
        (["check", nested], None),
        (["run", nested, "10", "--budget-depth", "5000"], "true::false::[]"),
        (["saturate", nested, "10"], "true::false::[]"),
        (["run", closures, "1" * n, "--budget-depth", "10000"], "true"),
        (["check", overlap], None),
    ]
    for argv, result in cases:
        rc = main(argv + ["--format", "records"])
        out, err = capsys.readouterr()
        assert rc == 0, (argv[:2], err[-500:])
        if result is not None:
            assert records(out)[0] == ("result", result), argv[:2]
    assert ("overlapping_rules", "0,1") in records(out)


def test_import_leaves_the_recursion_limit_alone():
    res = run_cli(["-c", "import sys\n"
                   "before = sys.getrecursionlimit()\n"
                   "import consfree, consfree.cli\n"
                   "print(before, sys.getrecursionlimit())\n"], timeout=60)
    assert res.returncode == 0, res.stderr
    before, after = res.stdout.split()
    assert before == after


def test_gen_count_check_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "nd1.cf")
    assert main(["gen-count", "nondet", "1", "-o", out]) == 0
    assert main(["check", out]) == 0
    capsys.readouterr()
    assert main(["gen-count", "poly"]) == 2  # missing parameters


def test_compile_tm_roundtrip(tmp_path, capsys):
    tm_path = write(tmp_path, "parity.tm", PARITY_TM)
    cf_path = str(tmp_path / "parity.cf")
    assert main(["compile-tm", tm_path, "-o", cf_path]) == 0
    assert main(["check", cf_path]) == 0
    capsys.readouterr()
    assert main(["saturate", cf_path, "11", "--format", "records"]) == 0
    rec = records(capsys.readouterr().out)
    assert ("result", "true") in rec
    assert ("result", "false") not in rec


def test_saturate_eager_mode(tmp_path, capsys):
    path = write(tmp_path, "choose.cf", CHOOSE)
    assert main(["saturate", path, "1", "--mode", "eager",
                 "--format", "records"]) == 0
    rec = records(capsys.readouterr().out)
    assert ("result", "true") in rec and ("result", "false") in rec
