"""Differential test: hoisted WHERE and probe subexpressions vs. the
interpreter.

``plans.Hoisting`` evaluates a FROM block's charge-safe subexpressions at
most once per binding of the names they read and replays each one's charge
at every use.  It has to be invisible: over worlds whose blocks join one to
three terms with one or two residual conjuncts beside the access one
(``sqlpp_blocks``' ``hoisting`` focus), every path returns the rows,
charges the ``WorkMeter``s and raises as the interpreter does
(``test_sqlpp_paths.check``).
"""

from hypothesis import example, given, note, settings

from tests.properties.sqlpp_blocks import World, worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


def _row(key, **fields):
    return {"id": key, "k": "US", "n": 0, "name": "abc", "kind": "a", **fields}


def _tweet(key, word):
    return {"id": key, "k": "US", "lat": 1.0, "lon": 1.0, "r": 1.5, "word": word}


#: A Places upsert lands inside the generation, between a binding whose
#: join never reaches Places (no Ref row is named "xbc") and one whose join
#: reads it.  Every path must see Places as of the same moment: the memo
#: filing binding 0 under Places' version may not pin it earlier than the
#: interpreter does.
WRITE_BESIDE_AN_UNREACHED_JOIN = World(
    refs=[_row(key) for key in range(6)],
    places=[_row(key, name="xyz") for key in range(3)],
    block=(
        "SELECT VALUE r.name FROM Ref r, Places p "
        "WHERE r.n = r.n AND testlib#strip(t.word) = r.name"
    ),
    generations=[([_tweet(0, "xbc"), _tweet(1, "abc")], (1, "Places", _row(7)))],
    memo_bytes=1 << 20,
)


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("hoisting"))
@example(WRITE_BESIDE_AN_UNREACHED_JOIN)
def test_hoisted_blocks_match_the_interpreter(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)
