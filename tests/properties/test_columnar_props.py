"""Differential test: ``BlockKernel`` vs. the tree-walking interpreter.

The columnar layer has no expression semantics of its own, so for any
world ``sqlpp_blocks`` draws (a UDF body over every node kind
``plans.compile_expr`` handles, probe, broadcast and kernel-declined
subqueries, Java, registry and metered calls, a shadowed builtin, an
optional WHERE), one ``make_invoker`` call per generation stores the rows
and charges the ``WorkMeter``s as the interpreter does record by record
(``test_sqlpp_paths.check``, which runs the other paths too).
"""

from hypothesis import given, note, settings

from tests.properties.sqlpp_blocks import worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds())
def test_block_kernel_matches_the_interpreter(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)
