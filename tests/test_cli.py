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
    # 8000 bits: building the base set and checking data-ness do not
    # recurse on the length of the list
    path = write(tmp_path, "parity.cf", dict(CORPUS)["parity"])
    bits = "110" * 2666 + "10"  # 5333 ones
    assert main(["saturate", path, bits, "--format", "records"]) == 0
    rec = records(capsys.readouterr().out)
    assert rec[0] == ("result", "true") and rec[1][0] != "result"


def test_bad_numbers_are_one_line_errors(tmp_path, capsys):
    choose = write(tmp_path, "choose.cf", CHOOSE)
    cases = [
        (["run", choose, "1", "--budget-depth", "0"], 2),
        (["run", choose, "1", "--budget-steps", "-1"], 2),
        (["saturate", choose, "1", "--domain-cap", "0"], 2),
        (["saturate", choose, "1", "--domain-cap", "-5"], 2),
    ]
    for i, bound in enumerate(("bin x 1 1", "bin 0 1 1", "poly 0 1")):
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


def test_deep_searches_exit_without_traceback(tmp_path):
    # a derivation depth bound of 100 000 and a 30 000-bit input: either
    # the command finishes or it reports a resource limit on one line
    loop = write(tmp_path, "loop.cf", dict(CORPUS)["loop_with_escape"])
    parity = write(tmp_path, "parity.cf", dict(CORPUS)["parity"])
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["run", "--budget-depth", "100000", loop, "1"],
                 ["saturate", parity, "1" * 30_000]):
        res = subprocess.run([sys.executable, "-m", "consfree.cli"] + argv,
                             capture_output=True, text=True, env=env,
                             timeout=300)
        assert res.returncode in (0, 3), (argv[0], res.stderr[-2000:])
        assert "Traceback" not in res.stdout + res.stderr, argv[0]
        assert len(res.stderr.splitlines()) <= 1, argv[0]


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
