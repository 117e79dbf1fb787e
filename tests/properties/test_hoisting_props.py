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

from hypothesis import given, note, settings

from tests.properties.sqlpp_blocks import worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("hoisting"))
def test_hoisted_blocks_match_the_interpreter(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)
