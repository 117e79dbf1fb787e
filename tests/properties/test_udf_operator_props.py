"""Differential test: the UDF operator's one frame path vs. per-record calls.

``UdfEvaluatorOperator`` runs a frame through the feed's function chain
once — a SQL++ body as a ``BlockKernel`` where it has one — and, when a
record raises, re-runs the frame record by record as batches of one.  For
any chain of one to three functions, each a kernel SQL++ body, a SQL++
body the kernel declines (a top-level FROM) or a Java function, with any
record of the frame raising, under a skip or a dead-letter policy, the
operator must emit the rows, write the dead letters and charge the
simulated seconds and shared / replicated ``WorkMeter`` counts that one
``FunctionRegistry.invoke`` / ``invoke_java`` call per record and
function does on the same batch generation.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import open_type
from repro.hyracks.cost import CostModel, WorkMeter
from repro.hyracks.frame import Frame, FrameWriter
from repro.hyracks.job import OperatorContext
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.policy import FeedPolicy, SoftErrorHandler
from repro.ingestion.udf_operator import UdfEvaluatorOperator, make_invoker
from repro.runtime.metrics import FaultMetrics, RunCounters
from repro.sqlpp import EvaluationContext
from repro.storage import Dataset
from repro.udf import FunctionRegistry, JavaUdf, JavaUdfDescriptor
from tests.udf import per_record_chain

MAX_CHAIN = 3


def _dataset(name, key):
    return Dataset(name, open_type(f"{name}T"), key, num_partitions=2, validate=False)


RATINGS = _dataset("SafetyRatings", "country_code")
for _code, _rating in (("US", "3"), ("FR", "5")):
    RATINGS.insert({"country_code": _code, "safety_rating": _rating})
RATINGS.flush_all()
CATALOG = {"SafetyRatings": RATINGS}
REGISTRY = FunctionRegistry(lambda: set(CATALOG))


class _Quotient(JavaUdf):
    """The Java step: adds ``10 / divisor`` under its own field name."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def evaluate(self, record):
        self.meter.java_ops += 1
        out = dict(record)
        out[self.field] = 10 / record["divisor"]
        return out


# Every step divides by ``divisor``, so a record whose divisor is 0 raises
# in whichever step it reaches first.
for _i in range(MAX_CHAIN):
    REGISTRY.register_sqlpp(
        f"""CREATE FUNCTION kernel{_i}(t) {{
            LET rating{_i} = (SELECT VALUE s.safety_rating FROM SafetyRatings s
                              WHERE s.country_code = t.country),
                q{_i} = 10 / t.divisor
            SELECT t.*, rating{_i}, q{_i}
        }}"""
    )
    REGISTRY.register_sqlpp(
        f"""CREATE FUNCTION declined{_i}(t) {{
            SELECT t.*, s.safety_rating AS rating{_i}, 10 / t.divisor AS q{_i}
            FROM SafetyRatings s WHERE s.country_code = t.country
        }}"""
    )
    REGISTRY.register_java(
        JavaUdfDescriptor(
            "proplib", f"java{_i}", lambda _i=_i: _Quotient(f"j{_i}"), 1, False
        )
    )


def _attached(kind, position):
    if kind == "java":
        return AttachedFunction(f"java{position}", language="java", library="proplib")
    return AttachedFunction(f"{kind}{position}")


def _handler(policy):
    dead_letters = Dataset(
        "DL", open_type("DLT", dl_id="string"), "dl_id", validate=False
    )
    faults = FaultMetrics()
    return SoftErrorHandler("F", policy, faults, dead_letters), faults


def _outcome(rows, handler, faults, ctx, busy_seconds):
    dead = sorted(handler.dead_letters.scan(), key=lambda row: row["dl_id"])
    meters = [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.shared_meter, ctx.replicated_meter)
    ]
    return rows, dead, faults.as_dict(), busy_seconds, meters


class _Collect(FrameWriter):
    def __init__(self):
        self.rows = []

    def next_frame(self, frame):
        self.rows.extend(frame.records)


def _through_operator(functions, records, policy):
    ctx = EvaluationContext(CATALOG, functions=REGISTRY)
    handler, faults = _handler(policy)
    counters = RunCounters()
    op_ctx = OperatorContext(0, 1, 0, SimpleNamespace(cost_model=CostModel()))
    operator = UdfEvaluatorOperator(
        op_ctx, ctx, make_invoker(functions, REGISTRY, counters), counters, handler
    )
    sink = _Collect()
    operator.set_output(sink)
    operator.next_frame(Frame(list(records)))
    return _outcome(sink.rows, handler, faults, ctx, op_ctx.busy_seconds)


def _per_record(functions, records, policy):
    ctx = EvaluationContext(CATALOG, functions=REGISTRY)
    handler, faults = _handler(policy)
    rows = []
    for record in records:
        try:
            rows += per_record_chain(functions, REGISTRY, [record], ctx)
        except ZeroDivisionError as exc:
            handler.handle("udf", record, exc)
        else:
            handler.note_success()
    cost = CostModel()
    busy = cost.udf_eval_base * len(records) + ctx.meter.charge(cost)
    return _outcome(rows, handler, faults, ctx, busy)


chains = st.lists(
    st.sampled_from(["kernel", "declined", "java"]), min_size=1, max_size=MAX_CHAIN
)
frames = st.lists(
    st.tuples(st.sampled_from(["US", "FR", "Atlantis"]), st.integers(1, 4)),
    min_size=1,
    max_size=8,
)


@settings(deadline=None)  # example count from the profile (tests/conftest.py)
@given(
    chains,
    frames,
    st.none() | st.integers(0, 7),
    st.sampled_from([FeedPolicy.discard(), FeedPolicy.spill()]),
)
def test_operator_matches_per_record_invocation(kinds, frame, raising, policy):
    functions = [_attached(kind, position) for position, kind in enumerate(kinds)]
    records = [
        {"id": i, "country": country, "divisor": divisor}
        for i, (country, divisor) in enumerate(frame)
    ]
    if raising is not None:
        records[raising % len(records)]["divisor"] = 0
    assert _through_operator(functions, records, policy) == _per_record(
        functions, records, policy
    )
