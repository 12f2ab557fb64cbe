"""Hand-written cons-free programs used across the test suite.

Every program declares `start` taking a single boolean list, so the same
inputs (bit strings) can be fed to all of them.
"""

PRELUDE = """\
sort bool
sort list
con true : bool
con false : bool
con nil : list
con cons : bool => list => list
"""


def _p(body):
    return PRELUDE + body


CORPUS = [
    ("choose", _p("""\
fun start : list => bool
rules:
start cs -> true
start cs -> false
""")),
    ("head_or_false", _p("""\
fun start : list => bool
rules:
start [] -> false
start (x::xs) -> x
""")),
    ("last", _p("""\
fun start : list => bool
fun last : list => bool
rules:
start [] -> false
start (x::xs) -> last (x::xs)
last (x::[]) -> x
last (x::y::ys) -> last (y::ys)
""")),
    ("any_true", _p("""\
fun start : list => bool
fun orb : bool => bool => bool
rules:
start [] -> false
start (x::xs) -> orb x (start xs)
orb true b -> true
orb false b -> b
""")),
    ("all_true", _p("""\
fun start : list => bool
fun andb : bool => bool => bool
rules:
start [] -> true
start (x::xs) -> andb x (start xs)
andb true b -> b
andb false b -> false
""")),
    ("parity", _p("""\
fun start : list => bool
fun xorb : bool => bool => bool
rules:
start [] -> false
start (x::xs) -> xorb x (start xs)
xorb true true -> false
xorb true false -> true
xorb false b -> b
""")),
    ("pick_element", _p("""\
fun start : list => bool
fun pick : list => bool
rules:
start cs -> pick cs
pick (x::xs) -> x
pick (x::xs) -> pick xs
""")),
    ("some_suffix_empty", _p("""\
fun start : list => bool
fun suff : list => list
fun isnil : list => bool
rules:
start cs -> isnil (suff cs)
suff xs -> xs
suff (x::xs) -> suff xs
isnil [] -> true
isnil (x::xs) -> false
""")),
    ("swap_pairs", _p("""\
fun start : list => bool
fun swap : (list * list) => list * list
fun second : (list * list) => list
fun isnil : list => bool
rules:
start cs -> isnil (second (swap (cs, [])))
swap (a, b) -> (b, a)
second (a, b) -> b
isnil [] -> true
isnil (x::xs) -> false
""")),
    ("map_not_any", _p("""\
fun start : list => bool
fun anyf : (bool => bool) => list => bool
fun notb : bool => bool
fun orb : bool => bool => bool
rules:
start cs -> anyf notb cs
anyf f [] -> false
anyf f (x::xs) -> orb (f x) (anyf f xs)
notb true -> false
notb false -> true
orb true b -> true
orb false b -> b
""")),
    ("const_closure", _p("""\
fun start : list => bool
fun konst : bool => bool => bool
fun appb : (bool => bool) => list => bool
rules:
start cs -> appb (konst true) cs
konst a b -> a
appb f [] -> false
appb f (x::xs) -> f x
""")),
    ("no_nil_rule", _p("""\
fun start : list => bool
rules:
start (x::xs) -> start xs
""")),
    ("loop_with_escape", _p("""\
fun start : list => bool
fun loop : list => bool
rules:
start cs -> loop cs
loop cs -> loop cs
loop cs -> true
""")),
    ("xor_two_coins", _p("""\
fun start : list => bool
fun coin : bool
fun xorb : bool => bool => bool
rules:
start cs -> xorb coin coin
coin -> true
coin -> false
xorb true true -> false
xorb true false -> true
xorb false b -> b
""")),
    ("self_equal", _p("""\
fun start : list => bool
fun eql : list => list => bool
rules:
start cs -> eql cs cs
eql [] [] -> true
eql [] (y::ys) -> false
eql (x::xs) [] -> false
eql (x::xs) (y::ys) -> eql xs ys
""")),
    ("ite_on_head", _p("""\
fun start : list => bool
fun ite : bool => bool => bool => bool
rules:
start [] -> false
start (x::xs) -> ite x true false
ite true a b -> a
ite false a b -> b
""")),
    ("pair_result", _p("""\
fun start : list => bool * bool
fun isnil : list => bool
rules:
start cs -> (isnil cs, true)
isnil [] -> true
isnil (x::xs) -> false
""")),
    ("counting_probe", _p("""\
fun start : list => bool
fun seed : list => list * list
fun pred : list => (list * list) => list * list
fun zero : list => (list * list) => bool
rules:
start cs -> zero cs (pred cs (seed cs))
seed cs -> (cs, cs)
pred cs (xs, y::ys) -> (xs, ys)
pred cs (x::xs, []) -> (xs, cs)
zero cs ([], []) -> true
zero cs (xs, y::ys) -> false
zero cs (x::xs, []) -> false
""")),
    ("deep_pattern", _p("""\
fun start : list => bool
rules:
start [] -> true
start (false::xs) -> false
start (true::[]) -> true
start (true::x::xs) -> x
""")),
    ("pair_consumer_var", _p("""\
fun start : list => bool
fun g : ((list * list) => bool) => list => bool
fun firstnil : (list * list) => bool
fun isnil : list => bool
rules:
start cs -> g firstnil cs
g f cs -> f (cs, cs)
firstnil (a, b) -> isnil a
isnil [] -> true
isnil (x::xs) -> false
""")),
    ("extra_sort", _p("""\
sort trio
con mk : bool => bool => trio
fun start : list => bool
fun left : trio => bool
fun right : trio => bool
rules:
start [] -> left (mk true false)
start (false::xs) -> left (mk false true)
start (true::xs) -> right (mk false true)
left (mk a b) -> a
right (mk a b) -> b
""")),
    ("suffix_tail_swap", _p("""\
fun start : list => bool
fun walk : list => list => bool
fun isnil : list => bool
rules:
start cs -> walk cs cs
walk [] ys -> isnil ys
walk (x::xs) ys -> walk xs ys
walk (x::xs) (y::ys) -> walk xs ys
isnil [] -> true
isnil (x::xs) -> false
""")),
    # two independent choices fed to one call: the order in which the
    # enumerator combines argument values shows in `run --trace`
    ("pick_both", _p("""\
fun start : list => bool * bool
fun pick : list => bool
fun both : bool => bool => bool * bool
rules:
start cs -> both (pick cs) (pick cs)
both x y -> (x, y)
pick (x::xs) -> x
pick (x::xs) -> pick xs
""")),
    # a closure two arguments short of its arity: its graph maps each
    # argument to a nested closure graph, not to a result
    ("nested_closure", _p("""\
sort unit
con u : unit
fun start : list => bool
fun pick3 : bool => unit => unit => bool
fun app : (unit => unit => bool) => bool
rules:
start [] -> false
start (x::xs) -> app (pick3 x)
pick3 a b c -> a
pick3 a b c -> false
app g -> g u u
""")),
]


def corpus_programs():
    """name -> parsed Program, cached."""
    from consfree.parser import parse_program
    return [(name, parse_program(src)) for name, src in CORPUS]


def counting_goal_program(cm, rhs, extra_decls=(), extra_rules=()):
    """Wrap a counting module with an entry `go cs -> rhs` for whole-program
    evaluation of goals over its seed/pred/zero symbols."""
    from consfree import counting
    from consfree.parser import parse_program
    src = "\n".join(
        counting.PRELUDE + cm.decls + list(extra_decls)
        + ["fun go : list => bool", "rules:"] + cm.rules + list(extra_rules)
        + ["go cs -> " + rhs]) + "\n"
    return parse_program(src)


def bitset_probe_programs():
    """Two probes into the level-1 non-deterministic counter: one reads a
    set bit of the all-ones number (always true), the other reads the
    lowest bit after one decrement (false for n >= 2).  Both exercise the
    non-terminating bit-read rules, so only the saturating evaluator can
    decide them."""
    from consfree.counting import gen_nondetcount
    cm = gen_nondetcount(1)
    top = counting_goal_program(cm, "bitset1 cs (seed1 cs) (seed0 cs)")
    low = counting_goal_program(
        cm, "bitset1 cs (pred1 cs (seed1 cs)) (one cs)",
        extra_decls=["fun one : list => list"],
        extra_rules=["one (x::[]) -> x::[]", "one (x::y::ys) -> one (y::ys)"])
    return [("bitset_top_bit", top, "true", (1, 2, 3, 4)),
            ("bitset_low_bit_cleared", low, "false", (2, 3, 4))]
