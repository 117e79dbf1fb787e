"""Differential test: the spatial filter in a term's access step, and the
kernel's spatial join step, vs. the interpreter.

For a single-term block whose WHERE leads with the term's spatial access
conjunct, ``Evaluator._filtered_access`` tests the candidates against the
probe region itself.  It has to be invisible: over such blocks
(``sqlpp_blocks``' ``filter`` focus), with and without the R-tree and the
``no-index`` hint, plain and flipped argument order, whether the step ran
or declined, and with a write to Places landing before one of each
generation's bindings (the live R-tree sees it at once, the pinned scan
not until the next generation), every path returns the rows, charges the
``WorkMeter``s and raises as the interpreter does
(``test_sqlpp_paths.check``).  So does the kernel's join step over a
block that joins a second term to a Places term filtered by the
binding's region (the ``join`` focus: the filtered term written first or
second, the join an equality or a spatial test on its field, the
conjuncts in either order, a write to Ref or Places in each generation).
The corners generation rarely reaches are fixed examples in
``test_sqlpp_paths``.
"""

from hypothesis import given, note, settings

from tests.properties.sqlpp_blocks import worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("filter"))
def test_planned_spatial_blocks_match_the_interpreter(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("join"))
def test_spatial_join_blocks_match_the_interpreter(world):
    note(world)
    check(world)
