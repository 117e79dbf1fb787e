"""The function registry: SQL++ and Java UDFs, with statefulness analysis."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import UdfError, UdfRegistrationError
from ..sqlpp.analysis import is_stateful, uses_unsupported_builtin
from ..sqlpp.ast import FunctionDefinition
from ..sqlpp.parser import parse_function
from ..sqlpp.memo import EnrichmentMemo
from ..sqlpp.plans import PlanCache
from ..sqlpp.state_cache import StateCache


class SqlppUdf:
    """A registered SQL++ function."""

    def __init__(self, definition: FunctionDefinition, stateful: bool):
        self.definition = definition
        self.stateful = stateful

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def arity(self) -> int:
        return len(self.definition.params)


class FunctionRegistry:
    """Holds every registered UDF; consulted by the evaluator on calls.

    Java instances are cached in the evaluation context's batch cache, so
    their lifecycle follows the context generation: a dynamic computing job
    refreshes the context per batch (re-running ``initialize`` and hence
    re-reading resource files), while the static pipeline keeps one
    generation for the feed's lifetime.
    """

    def __init__(self, catalog_names_provider=None):
        self._sqlpp: Dict[str, SqlppUdf] = {}
        self._java: Dict[str, object] = {}  # "lib#name" -> JavaUdfDescriptor
        self._catalog_names_provider = catalog_names_provider or (lambda: set())
        # Compile-once plans for every UDF body (§5.2 analog); evaluation
        # contexts built over this registry share it, so plans survive
        # across batches and are invalidated centrally.
        self.plan_cache = PlanCache()
        # feed name -> that feed's cross-batch caches (:meth:`caches_for`)
        self._feed_caches: Dict[str, Tuple[StateCache, EnrichmentMemo]] = {}
        # Bumped on every registration change; batch kernels cached on a
        # plan recompile when it moves (§3.2 instant updates).
        self.version = 0

    # ---------------------------------------------------------------- sql++

    def register_sqlpp(self, definition_or_source) -> SqlppUdf:
        if isinstance(definition_or_source, str):
            definition = parse_function(definition_or_source)
        else:
            definition = definition_or_source
        if definition.name in self._sqlpp:
            raise UdfRegistrationError(
                f"function {definition.name!r} already registered"
            )
        called = uses_unsupported_builtin(definition)
        unknown = [
            name
            for name in called
            if name not in self._sqlpp and name != definition.name
        ]
        if unknown:
            raise UdfRegistrationError(
                f"function {definition.name!r} calls unknown function(s): {unknown}"
            )
        catalog_names = set(self._catalog_names_provider())
        stateful = is_stateful(definition, catalog_names) or any(
            self._sqlpp[name].stateful
            for name in called
            if name in self._sqlpp
        )
        udf = SqlppUdf(definition, stateful)
        self._sqlpp[definition.name] = udf
        self.version += 1
        return udf

    def replace_sqlpp(self, definition_or_source) -> SqlppUdf:
        """UPSERT-style function replacement (§3.2: instant updates)."""
        if isinstance(definition_or_source, str):
            definition = parse_function(definition_or_source)
        else:
            definition = definition_or_source
        self._sqlpp.pop(definition.name, None)
        udf = self.register_sqlpp(definition)
        # Old plans may close over the replaced body; drop them all so the
        # next batch replans against the new definition.  Cached build
        # state may have been produced by the old body's subqueries, so it
        # goes too, as do memoized per-key results it produced.
        self.plan_cache.invalidate()
        self._clear_feed_caches()
        return udf

    def invalidate_plans(self) -> None:
        """Drop all cached plans (called on DDL: dataset/index changes)."""
        self.plan_cache.invalidate()
        # DDL can change access paths and even dataset identity without
        # bumping any Dataset.version (create_index/drop_index), so the
        # version-keyed state cache must start cold as well — and so must
        # the per-key memo, whose entries are guarded by the same keys.
        self._clear_feed_caches()
        self.version += 1

    def caches_for(self, feed_name: str) -> Tuple[StateCache, EnrichmentMemo]:
        """The feed's own cross-batch state cache and key-level memo.

        One pair per feed name, created on first use with budget 0 (a run
        whose policy grants bytes — or the fabric's memory governor —
        sets the budget) and kept across that feed's runs, so a resumed
        run, a dead-letter replay or a backfill starts warm.  No other
        feed reads or resizes them; DDL and ``replace_sqlpp`` clear them.
        """
        pair = self._feed_caches.get(feed_name)
        if pair is None:
            pair = self._feed_caches[feed_name] = (
                StateCache(label=f"{feed_name}.state"),
                EnrichmentMemo(label=f"{feed_name}.memo"),
            )
        return pair

    def _clear_feed_caches(self) -> None:
        for pair in self._feed_caches.values():
            for cache in pair:
                cache.clear()

    # ----------------------------------------------------------------- java

    def register_java(self, descriptor) -> None:
        key = descriptor.qualified_name
        if key in self._java:
            raise UdfRegistrationError(f"java function {key!r} already registered")
        self._java[key] = descriptor
        self.version += 1

    # --------------------------------------------------------------- lookup

    def has(self, name: str) -> bool:
        return name in self._sqlpp

    def get(self, name: str) -> SqlppUdf:
        if name not in self._sqlpp:
            raise UdfError(f"unknown function: {name}")
        return self._sqlpp[name]

    def get_java(self, library: str, name: str):
        key = f"{library}#{name}"
        if key not in self._java:
            raise UdfError(f"unknown java function: {key}")
        return self._java[key]

    # ------------------------------------------------------------ invocation

    def invoke(self, name: str, args: List, ctx):
        """Invoke a SQL++ UDF: bind parameters and evaluate the body."""
        from ..sqlpp.evaluator import Env, Evaluator

        udf = self.get(name)
        if len(args) != udf.arity:
            raise UdfError(
                f"{name} expects {udf.arity} argument(s), got {len(args)}"
            )
        env = Env(dict(zip(udf.definition.params, args)))
        return Evaluator(ctx).evaluate(udf.definition.body, env)

    def invoke_java(self, library: str, name: str, args: List, ctx):
        """Invoke a Java UDF through its per-generation cached instance."""
        descriptor = self.get_java(library, name)
        if len(args) != descriptor.arity:
            raise UdfError(
                f"{descriptor.qualified_name} expects {descriptor.arity} "
                f"argument(s), got {len(args)}"
            )
        instance = self.java_instance(descriptor, ctx)
        # Expose the meter so expensive UDFs can count work units.
        instance.meter = ctx.meter
        return instance(*args)

    def java_instance(self, descriptor, ctx):
        """The context generation's instance of a Java UDF, created (and
        its resource files read) on first use."""
        key = ("java_instance", descriptor.qualified_name)
        instance = ctx.batch_cache.get(key)
        if instance is None:
            instance = descriptor.instantiate()
            ctx.batch_cache[key] = instance
            # Resource files are node-local: every node re-reads the whole
            # file when a new generation initializes the UDF.
            ctx.replicated_meter.records_scanned += instance.resource_lines_loaded
        return instance
