"""Results, counters and traces must not depend on PYTHONHASHSEED.

Each check runs the same work in fresh interpreters under hash seeds 1, 2
and 3 and requires identical output.
"""

import os
import subprocess
import sys

from corpus import CORPUS

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SEEDS = (1, 2, 3)

# one parity saturation and one `nondet 2` chain walk at n=2, printing
# (keys, confirmed, evaluations) of each engine, then the same for a
# `bin 2 1 1` chain walk at n=2, then the same counters of eager engines on
# four corpus programs, then the rule applications of enumerations of the
# parity and contains_11 machines, and of one whose step cap binds
COUNTERS = """\
from consfree import counting
from consfree.interp import Budget, eval_all
from consfree.parser import parse_program
from consfree.saturate import SaturationEngine, abstract
from consfree.turing import compile_tm, tm_contains_11, tm_parity
from corpus import CORPUS

engines = []

class Recording(SaturationEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        engines.append(self)

p = compile_tm(tm_parity()).program
cs = counting.bits_term("111111")
parity = Recording(p, [cs])
parity.call("start", (abstract(cs),))
counting.SaturationEngine = Recording
steps = counting.chain_length_saturate(counting.gen_nondetcount(2), 2)
print(steps, [(e.stats.keys, e.stats.confirmed, e.stats.evaluations)
              for e in engines])
steps = counting.chain_length_saturate(counting.gen_bincount(2, 1, 1), 2)
stats = engines[-1].stats
print("bin", steps, (stats.keys, stats.confirmed, stats.evaluations))
for name, bits in [("parity", "110"), ("const_closure", "1"),
                   ("map_not_any", "01"), ("nested_closure", "1")]:
    cs = counting.bits_term(bits)
    eager = SaturationEngine(parse_program(dict(CORPUS)[name]), [cs],
                             mode="eager")
    eager.call("start", (abstract(cs),))
    print("eager", name, bits, (eager.stats.keys, eager.stats.confirmed,
                                eager.stats.evaluations))
res = eval_all(p, counting.mk_call(p, "start", [counting.bits_term("10110")]),
               Budget(max_depth=1 << 20, max_steps=10 ** 8))
print("eval_all steps", res.steps_used, res.complete)
c11 = compile_tm(tm_contains_11()).program
res = eval_all(c11, counting.mk_call(c11, "start", [counting.bits_term("10110")]),
               Budget(max_depth=1 << 20, max_steps=10 ** 8))
print("contains_11 eval_all steps", res.steps_used, res.complete)
seen = []
res = eval_all(p, counting.mk_call(p, "start", [counting.bits_term("10110")]),
               Budget(max_depth=1 << 20, max_steps=1000), trace=seen.append)
print("capped eval_all", res.steps_used, res.complete, len(res.results),
      len(seen))
"""


def run_under_seeds(argv):
    outs = []
    for seed in SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=SRC + os.pathsep + TESTS)
        res = subprocess.run([sys.executable] + argv, capture_output=True,
                             text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    return outs


def test_saturation_counters_do_not_depend_on_hash_seed():
    outs = run_under_seeds(["-c", COUNTERS])
    # the demand counters pin the algorithm: a change to the order of queries
    # or to what a key's evaluation reads moves them.  Parity's evaluations
    # equal its keys: each new key is solved where it is first queried, at
    # any depth, so no caller has to run again
    assert outs[0].startswith("7 [(2218, 2218, 2218), (615, 565, 679)]\n"
                              "bin 15 (3280, 3176, 3280)\n"), outs[0]
    # eager mode seeds every key when the engine is built
    for line in ("eager parity 110 (8, 8, 11)",
                 "eager const_closure 1 (38, 38, 40)",
                 "eager map_not_any 01 (57, 53, 86)",
                 "eager nested_closure 1 (20, 30, 21)"):
        assert "\n%s\n" % line in outs[0], outs[0]
    # one depth-bounded search: iterative deepening took 8993 steps here
    assert "\neval_all steps 1899 True\n" in outs[0], outs[0]
    # the enumerator's counters, as the rule walk gave them before the rule
    # plans; under a binding step cap, the steps run out before any result
    # and the trace holds the data values produced by then
    assert "\ncontains_11 eval_all steps 1435 True\n" in outs[0], outs[0]
    assert "\ncapped eval_all 1000 False 0 51\n" in outs[0], outs[0]
    assert outs == [outs[0]] * len(SEEDS)


def test_run_trace_does_not_depend_on_hash_seed(tmp_path):
    path = tmp_path / "pick_both.cf"
    path.write_text(dict(CORPUS)["pick_both"])
    outs = run_under_seeds(["-m", "consfree.cli", "run", str(path), "0110",
                            "--trace"])
    assert outs[0].count("trace: ") > 10, outs[0]
    assert outs == [outs[0]] * len(SEEDS)
