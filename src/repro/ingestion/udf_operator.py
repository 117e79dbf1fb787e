"""The UDF Evaluator operator (Fig. 23's computing-job core)."""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from ..hyracks.cost import WorkMeter
from ..hyracks.frame import Frame
from ..hyracks.job import Operator, OperatorContext
from ..sqlpp import columnar
from ..sqlpp.ast import SelectBlock
from ..sqlpp.evaluator import EvaluationContext, Evaluator


def make_invoker(functions, registry) -> Callable:
    """Build ``invoke(record, eval_ctx) -> list of enriched records``.

    Chains the feed's attached functions; a SQL++ UDF returning a
    collection is unnested (the ``SELECT VALUE f(t)`` of Figure 10).

    This is the scalar reference path — soft-error reruns, body shapes
    the batch invoker declines, Java chains — so each record resolves its
    function through :meth:`FunctionRegistry.invoke`, and a
    ``replace_sqlpp`` mid-feed takes effect on the very next record.
    """

    steps = []
    for fn in functions:
        if fn.is_java:
            library = fn.library or "udflib"

            def java_step(rec, eval_ctx, _library=library, _name=fn.name):
                return registry.invoke_java(_library, _name, [rec], eval_ctx)

            steps.append(java_step)
        else:
            def sqlpp_step(rec, eval_ctx, _name=fn.name):
                return registry.invoke(_name, [rec], eval_ctx)

            steps.append(sqlpp_step)

    def invoke(record: dict, eval_ctx: EvaluationContext) -> List[dict]:
        current = [record]
        for step in steps:
            produced: List[dict] = []
            for rec in current:
                result = step(rec, eval_ctx)
                if isinstance(result, list):
                    produced.extend(result)
                elif result is not None:
                    produced.append(result)
            current = produced
        return current

    return invoke


def make_batch_invoker(functions, registry, counters) -> Optional[Callable]:
    """Build ``invoke_batch(records, eval_ctx) -> rows or None``.

    The columnar counterpart of :func:`make_invoker`: each attached SQL++
    UDF whose body is a top-level FROM-less ``SelectBlock`` is compiled to
    a :class:`~repro.sqlpp.columnar.BlockKernel` and run one whole batch
    at a time.  Returns ``None`` at build time when any attached function
    is Java (instance lifecycle + metering are per record); the returned
    callable returns ``None`` at run time whenever the batch must take the
    scalar path (plans disabled, a non-unary or replaced function, an
    unsupported block shape) — the caller then falls back to the
    record-at-a-time :func:`make_invoker` loop.

    A SQL++ UDF returning a collection is unnested exactly as in
    :func:`make_invoker`: a kernel's output rows are the concatenation of
    the per-record result lists, so chaining feeds the flattened rows to
    the next function.

    ``counters`` is the run's :class:`~repro.runtime.metrics.RunCounters`:
    a batch that ran through kernels adds itself to ``vectorized_batches``
    / ``vectorized_records`` and one ``scalar_fallbacks`` per column whose
    subquery ran per record; a body the kernel declines adds one fallback.
    """
    if not functions or any(fn.is_java for fn in functions):
        return None
    names = tuple(fn.name for fn in functions)
    # Resolved once per registry version (the §5.2 predeployed analog);
    # a replace_sqlpp bumps the version so the next batch re-resolves.
    state = {"version": -1, "udfs": None}

    def invoke_batch(records: List[dict], eval_ctx: EvaluationContext):
        if not eval_ctx.use_plans:
            return None
        if state["version"] != registry.version:
            udfs = []
            for name in names:
                udf = registry.get(name)
                if udf.arity != 1 or not isinstance(
                    udf.definition.body, SelectBlock
                ):
                    udfs = None
                    break
                udfs.append(udf)
            state["udfs"] = udfs
            state["version"] = registry.version
        udfs = state["udfs"]
        if udfs is None:
            return None
        plan_cache = eval_ctx.plan_cache
        version = registry.version
        ev = Evaluator(eval_ctx)
        fallback_columns = 0
        current = records
        for udf in udfs:
            params = tuple(udf.definition.params)
            plan = plan_cache.plan_for(
                udf.definition.body, frozenset(params), eval_ctx.catalog
            )
            kernel = columnar.kernel_for(plan, params, eval_ctx, version)
            if kernel is columnar.UNSUPPORTED:
                counters.scalar_fallbacks += 1
                return None
            fallback_columns += kernel.fallback_lets
            current = kernel.run(ev, current)
        counters.vectorized_batches += 1
        counters.vectorized_records += len(records)
        counters.scalar_fallbacks += fallback_columns
        return current

    return invoke_batch


class UdfEvaluatorOperator(Operator):
    """Applies the attached UDF(s) to each record of each frame.

    The operator owns a per-partition :class:`WorkMeter`; before evaluating
    it installs that meter on the shared evaluation context so probe work
    is charged to this partition's node, while cache *builds* accumulate on
    the context's ``shared_meter`` (split across partitions by the feed
    driver).  ``counters`` is the run's
    :class:`~repro.runtime.metrics.RunCounters`, the one the batch invoker
    was built over: a frame rerun record-at-a-time after an exception
    adds one ``scalar_fallbacks`` there.
    """

    def __init__(
        self,
        ctx: OperatorContext,
        eval_ctx: EvaluationContext,
        invoker: Callable,
        counters,
        soft_errors=None,
        batch_invoker: Optional[Callable] = None,
    ):
        super().__init__(ctx)
        self.eval_ctx = eval_ctx
        self.invoker = invoker
        self.counters = counters
        self.soft_errors = soft_errors
        self.batch_invoker = batch_invoker
        self.records_in = 0
        self.records_out = 0

    def next_frame(self, frame: Frame) -> None:
        meter = WorkMeter(scale=self.eval_ctx.reference_work_scale)
        out = None
        if self.batch_invoker is not None and len(frame) > 0:
            out = self._batch_frame(frame, meter)
        if out is None:
            out = self._scalar_frame(frame, meter)
        cost = self.ctx.cost
        self.ctx.charge(cost.udf_eval_base * len(frame) + meter.charge(cost))
        if out:
            self.emit(Frame(out))

    def _batch_frame(self, frame: Frame, meter: WorkMeter):
        """One whole-batch columnar attempt; ``None`` means scalar rerun.

        Work is metered on a scratch meter and merged into ``meter`` only
        on success, so an aborted attempt charges nothing.  Builds the
        attempt installed in the batch cache survive the abort — they are
        idempotent within a generation, so the scalar rerun finds them
        already charged and totals stay byte-identical.
        """
        eval_ctx = self.eval_ctx
        scratch = WorkMeter(scale=eval_ctx.reference_work_scale)
        previous_meter = eval_ctx.meter
        eval_ctx.meter = scratch
        try:
            out = self.batch_invoker(list(frame), eval_ctx)
        except Exception:
            # Unsupported-at-runtime shapes and per-record soft errors
            # alike: the scalar loop re-runs the frame and applies the
            # soft-error policy with exact record attribution.
            self.counters.scalar_fallbacks += 1
            return None
        finally:
            eval_ctx.meter = previous_meter
        if out is None:
            return None
        meter.absorb(scratch)
        self.records_in += len(frame)
        self.records_out += len(out)
        if self.soft_errors is not None:
            # One batch-level success: note_success only resets the
            # consecutive-failure count, so it equals N per-record calls.
            self.soft_errors.note_success()
        return out

    def _scalar_frame(self, frame: Frame, meter: WorkMeter) -> List[dict]:
        previous_meter = self.eval_ctx.meter
        self.eval_ctx.meter = meter
        out: List[dict] = []
        try:
            for record in frame:
                self.records_in += 1
                if self.soft_errors is None:
                    enriched = self.invoker(record, self.eval_ctx)
                else:
                    # Per-record UDF evaluation failures are soft errors:
                    # the policy decides skip / dead-letter / escalate.
                    try:
                        enriched = self.invoker(record, self.eval_ctx)
                    except Exception as exc:
                        self.soft_errors.handle(
                            "udf",
                            json.dumps(record, default=str, sort_keys=True),
                            exc,
                        )
                        continue
                    self.soft_errors.note_success()
                out.extend(enriched)
                self.records_out += len(enriched)
        finally:
            self.eval_ctx.meter = previous_meter
        return out
