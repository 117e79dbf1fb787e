"""Function registry: registration, replacement, Java lifecycle."""

import pytest

from repro.errors import UdfError, UdfRegistrationError
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp.evaluator import EvaluationContext
from repro.udf import FunctionRegistry, JavaUdf, JavaUdfDescriptor


@pytest.fixture
def reg():
    return FunctionRegistry(lambda: {"SensitiveWords"})


class TestSqlppRegistration:
    def test_register_from_source(self, reg):
        udf = reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a + 1 }")
        assert udf.name == "f" and udf.arity == 1 and not udf.stateful

    def test_duplicate_rejected(self, reg):
        reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a }")
        with pytest.raises(UdfRegistrationError, match="already registered"):
            reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a }")

    def test_replace_is_upsert(self, reg):
        reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a + 1 }")
        reg.replace_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a + 2 }")
        ctx = EvaluationContext({}, functions=reg)
        assert reg.invoke("f", [1], ctx) == [3]

    def test_called_names_analyzed_once_per_registration(self, reg, monkeypatch):
        import repro.udf.registry as registry_module

        calls = {"count": 0}
        original = registry_module.uses_unsupported_builtin

        def counting(definition):
            calls["count"] += 1
            return original(definition)

        monkeypatch.setattr(
            registry_module, "uses_unsupported_builtin", counting
        )
        reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE lower(a) }")
        assert calls["count"] == 1

    def test_make_invoker_tracks_replacement(self, reg):
        reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a + 1 }")
        invoke = make_invoker([AttachedFunction("f")], reg, RunCounters())
        ctx = EvaluationContext({}, functions=reg)
        assert invoke([1], ctx) == [2]
        reg.replace_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE a + 10 }")
        assert invoke([1], ctx) == [11]  # the very next batch
        reg.replace_sqlpp("CREATE FUNCTION f(a, b) { SELECT VALUE a + b }")
        with pytest.raises(UdfError, match="expects 2 argument"):
            invoke([1], ctx)

    def test_stateful_classification(self, reg):
        udf = reg.register_sqlpp(
            "CREATE FUNCTION g(t) { SELECT VALUE s FROM SensitiveWords s }"
        )
        assert udf.stateful

    def test_unknown_function_call_rejected_at_registration(self, reg):
        with pytest.raises(UdfRegistrationError, match="unknown function"):
            reg.register_sqlpp("CREATE FUNCTION f(a) { SELECT VALUE frobnicate(a) }")

    def test_udf_calling_registered_udf_allowed(self, reg):
        reg.register_sqlpp("CREATE FUNCTION inner_fn(a) { SELECT VALUE a * 2 }")
        reg.register_sqlpp("CREATE FUNCTION outer_fn(a) { SELECT VALUE inner_fn(a)[0] }")
        ctx = EvaluationContext({}, functions=reg)
        assert reg.invoke("outer_fn", [3], ctx) == [6]

    def test_arity_enforced_at_invoke(self, reg):
        reg.register_sqlpp("CREATE FUNCTION f(a, b) { SELECT VALUE a + b }")
        ctx = EvaluationContext({}, functions=reg)
        with pytest.raises(UdfError, match="expects 2"):
            reg.invoke("f", [1], ctx)

    def test_unknown_invoke_raises(self, reg):
        ctx = EvaluationContext({}, functions=reg)
        with pytest.raises(UdfError, match="unknown function"):
            reg.invoke("ghost", [], ctx)

class _CountingUdf(JavaUdf):
    required_resources = ("data",)
    instances = 0

    def initialize(self, node_info):
        _CountingUdf.instances += 1
        self.lines = self.read_resource("data")
        super().initialize(node_info)

    def evaluate(self, x):
        return len(self.lines)


class TestJavaLifecycle:
    def make_descriptor(self, lines):
        return JavaUdfDescriptor(
            "lib", "counting", lambda: _CountingUdf({"data": lambda: list(lines)}),
            1, True,
        )

    def test_register_and_invoke(self, reg):
        _CountingUdf.instances = 0
        reg.register_java(self.make_descriptor(["a", "b"]))
        ctx = EvaluationContext({}, functions=reg)
        assert reg.invoke_java("lib", "counting", [None], ctx) == 2

    def test_instance_cached_per_generation(self, reg):
        _CountingUdf.instances = 0
        reg.register_java(self.make_descriptor(["a"]))
        ctx = EvaluationContext({}, functions=reg)
        for _ in range(5):
            reg.invoke_java("lib", "counting", [None], ctx)
        assert _CountingUdf.instances == 1

    def test_a_prewarmed_instance_is_the_one_invoke_java_uses(self, reg):
        _CountingUdf.instances = 0
        descriptor = self.make_descriptor(["a", "b"])
        reg.register_java(descriptor)
        ctx = EvaluationContext({}, functions=reg)
        # a static feed's prewarm
        instance = ctx.snapshots.java_instance(descriptor, ctx.replicated_meter)
        assert ctx.replicated_meter.records_scanned == 2
        assert reg.invoke_java("lib", "counting", [None], ctx) == 2
        assert _CountingUdf.instances == 1
        assert ctx.replicated_meter.records_scanned == 2  # read once
        assert instance.meter is ctx.meter

    def test_refresh_reinitializes(self, reg):
        _CountingUdf.instances = 0
        lines = ["a"]
        reg.register_java(self.make_descriptor(lines))
        ctx = EvaluationContext({}, functions=reg)
        assert reg.invoke_java("lib", "counting", [None], ctx) == 1
        lines.append("b")  # resource file updated
        assert reg.invoke_java("lib", "counting", [None], ctx) == 1  # stale
        ctx.refresh_batch()
        assert reg.invoke_java("lib", "counting", [None], ctx) == 2  # re-read

    def test_duplicate_java_rejected(self, reg):
        reg.register_java(self.make_descriptor([]))
        with pytest.raises(UdfRegistrationError):
            reg.register_java(self.make_descriptor([]))

    def test_java_arity_enforced(self, reg):
        reg.register_java(self.make_descriptor([]))
        ctx = EvaluationContext({}, functions=reg)
        with pytest.raises(UdfError, match="expects 1"):
            reg.invoke_java("lib", "counting", [1, 2], ctx)

    def test_unknown_java_raises(self, reg):
        ctx = EvaluationContext({}, functions=reg)
        with pytest.raises(UdfError, match="unknown java function"):
            reg.invoke_java("lib", "ghost", [], ctx)

    def test_missing_resource_rejected(self):
        with pytest.raises(UdfError, match="requires resource"):
            _CountingUdf({})

    def test_evaluate_before_initialize_rejected(self):
        udf = _CountingUdf({"data": lambda: []})
        with pytest.raises(UdfError, match="before initialize"):
            udf(None)

    def test_initialize_must_call_super(self, reg):
        class Broken(JavaUdf):
            def initialize(self, node_info):
                pass  # forgot super().initialize

            def evaluate(self, x):
                return x

        descriptor = JavaUdfDescriptor("lib", "broken", Broken, 1, False)
        with pytest.raises(UdfError, match="must call"):
            descriptor.instantiate()
