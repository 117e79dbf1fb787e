"""The UDF Evaluator operator (Fig. 23's computing-job core)."""

from __future__ import annotations

from typing import Callable, Iterable, List

from ..hyracks.cost import WorkMeter
from ..hyracks.frame import Frame
from ..hyracks.job import Operator, OperatorContext
from ..sqlpp import columnar
from ..sqlpp.ast import SelectBlock
from ..sqlpp.evaluator import EvaluationContext, Evaluator


def _unnested(results: Iterable) -> List:
    """Per-record results concatenated: a collection is unnested (the
    ``SELECT VALUE f(t)`` of Figure 10), a null result dropped."""
    out: List = []
    for result in results:
        if isinstance(result, list):
            out.extend(result)
        elif result is not None:
            out.append(result)
    return out


def make_invoker(functions, registry, counters) -> Callable:
    """Build ``invoke(records, eval_ctx) -> enriched rows`` for a feed's chain.

    One step per attached function, each mapping a list of records to
    their unnested result rows, so the next function sees the flattened
    rows of the one before.

    * A SQL++ step runs its body's
      :class:`~repro.sqlpp.columnar.BlockKernel` over the whole list.  It
      calls :meth:`FunctionRegistry.invoke` once per record instead when
      plans are off, when the body compiles to no kernel, or when the
      kernel raises :class:`~repro.sqlpp.columnar.KernelFallback` — whose
      partial charges are discarded first.
    * A Java step calls :meth:`FunctionRegistry.invoke_java` once per
      record: its instance lifecycle and metering are per record.

    Every call resolves the functions through ``registry``, so a
    ``replace_sqlpp`` mid-feed takes effect on the next batch.

    ``counters`` is the run's :class:`~repro.runtime.metrics.RunCounters`:
    a kernel run adds one ``vectorized_batches``, its records to
    ``vectorized_records`` and its fallen-back columns to
    ``scalar_fallbacks``; a body without a kernel and a ``KernelFallback``
    add one ``scalar_fallbacks`` each.
    """

    def java_step(library, name):
        def step(records, eval_ctx):
            return _unnested(
                registry.invoke_java(library, name, [record], eval_ctx)
                for record in records
            )

        return step

    def sqlpp_step(name):
        def per_record(records, eval_ctx):
            return _unnested(
                registry.invoke(name, [record], eval_ctx) for record in records
            )

        def step(records, eval_ctx):
            eval_ctx.snapshots.pin_all(registry.reads(name))
            definition = registry.get(name).definition
            params = tuple(definition.params)
            if (
                not eval_ctx.use_plans
                or len(params) != 1
                or not isinstance(definition.body, SelectBlock)
            ):
                return per_record(records, eval_ctx)
            plan = eval_ctx.plan_cache.plan_for(
                definition.body, frozenset(params), eval_ctx.catalog
            )
            kernel = columnar.kernel_for(plan, params, eval_ctx, registry.version)
            if kernel is columnar.UNSUPPORTED:
                counters.scalar_fallbacks += 1
                return per_record(records, eval_ctx)
            meter = eval_ctx.meter
            eval_ctx.meter = scratch = WorkMeter()
            try:
                rows = kernel.run(Evaluator(eval_ctx), records)
            except columnar.KernelFallback:
                scratch.reset()
                counters.scalar_fallbacks += 1
            else:
                counters.vectorized_batches += 1
                counters.vectorized_records += len(records)
                counters.scalar_fallbacks += kernel.fallback_lets
                return rows
            finally:
                # Any other exception keeps what the kernel charged, as a
                # record that raises record-at-a-time does.
                eval_ctx.meter = meter
                meter.absorb(scratch)
            return per_record(records, eval_ctx)

        return step

    steps = [
        java_step(fn.library or "udflib", fn.name)
        if fn.is_java
        else sqlpp_step(fn.name)
        for fn in functions
    ]

    def invoke(records: List[dict], eval_ctx: EvaluationContext) -> List[dict]:
        for step in steps:
            if not records:
                break
            records = step(records, eval_ctx)
        return records

    return invoke


class UdfEvaluatorOperator(Operator):
    """Applies the attached function chain to each frame.

    The operator owns a per-partition :class:`WorkMeter`; before evaluating
    it installs that meter on the shared evaluation context so probe work
    is charged to this partition's node, while cache *builds* accumulate on
    the context's ``shared_meter`` (split across partitions by the feed
    driver).  ``counters`` is the run's
    :class:`~repro.runtime.metrics.RunCounters`, the one ``invoker`` was
    built over: a frame rerun record by record after an exception adds one
    ``scalar_fallbacks`` there.
    """

    def __init__(
        self,
        ctx: OperatorContext,
        eval_ctx: EvaluationContext,
        invoker: Callable,
        counters,
        soft_errors,
    ):
        super().__init__(ctx)
        self.eval_ctx = eval_ctx
        self.invoker = invoker
        self.counters = counters
        self.soft_errors = soft_errors

    def next_frame(self, frame: Frame) -> None:
        """Run the frame through the chain once.  If that raises, discard
        the frame's charges and run each record alone, as a batch of one,
        so the soft-error policy sees exactly the record that failed.

        Builds the aborted attempt charged stay in the generation's
        ``SnapshotSet``: they are idempotent within a generation, so the
        rerun finds them already charged and totals equal a clean
        record-at-a-time run.
        """
        eval_ctx = self.eval_ctx
        records = frame.records
        previous_meter = eval_ctx.meter
        meter = eval_ctx.meter = WorkMeter(scale=eval_ctx.reference_work_scale)
        try:
            out = self.invoker(records, eval_ctx)
        except Exception:
            self.counters.scalar_fallbacks += 1
            meter = eval_ctx.meter = WorkMeter(scale=eval_ctx.reference_work_scale)
            out = []
            for record in records:
                try:
                    rows = self.invoker([record], eval_ctx)
                except Exception as exc:
                    # skip / dead-letter / escalate, per the policy
                    self.soft_errors.handle("udf", record, exc)
                    continue
                self.soft_errors.note_success()
                out.extend(rows)
        else:
            # One batch-level success: note_success only resets the
            # consecutive-failure count, so it equals N per-record calls.
            self.soft_errors.note_success()
        finally:
            eval_ctx.meter = previous_meter
        cost = self.ctx.cost
        self.ctx.charge(cost.udf_eval_base * len(frame) + meter.charge(cost))
        if out:
            self.emit(Frame(out))
