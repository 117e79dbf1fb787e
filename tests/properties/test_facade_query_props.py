"""Differential test: ``AsterixLite.query`` vs. the tree-walking interpreter.

The facade has one query executor, the planned one.  For a block that
reads no binding (``sqlpp_blocks``' ``facade`` focus), over rows loaded
by insert jobs on one to four nodes and upserted between generations,
``AsterixLite.query`` returns what the interpreter returns: the same list
under ORDER BY, the same multiset otherwise, the same error where the
block is ill-typed for the rows, and the same again when the query is
repeated (``test_sqlpp_paths.check``, which runs the UDF paths too).
"""

from hypothesis import given, note, settings

from tests.properties.sqlpp_blocks import worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("facade"))
def test_facade_queries_match_the_interpreter(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)
