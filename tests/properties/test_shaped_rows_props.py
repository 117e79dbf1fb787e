"""Differential test: shaped probe rows reused across generations.

The probe kernel shapes each build key once per reference snapshot and
serves later records, in the same batch or a later generation over the
same snapshot, from that snapshot's store.  Over worlds whose block is
the probe kernel's, two or three generations that may repeat the last
batch and upsert a reference row before one of their bindings or between
them (``sqlpp_blocks``' ``generations`` focus), the kernel's rows and ``WorkMeter`` totals equal
the interpreter's, and with the memo attached every probe is a probe or
a memo hit (``test_sqlpp_paths.check``).
"""

from hypothesis import given, note, settings

from tests.properties.sqlpp_blocks import worlds
from tests.properties.test_sqlpp_paths import EXAMPLES, check


@settings(deadline=None, max_examples=EXAMPLES)
@given(worlds("generations"))
def test_kernel_matches_the_interpreter_across_generations(world):
    note(world)  # the example itself prints as the bytes it was read from
    check(world)
