"""The function registry: SQL++ and Java UDFs, with statefulness analysis."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..errors import UdfError, UdfRegistrationError
from ..sqlpp.analysis import (
    called_reads,
    free_vars,
    is_stateful,
    uses_unsupported_builtin,
)
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

    Java instances are kept in the evaluation context's ``SnapshotSet``, so
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
        # Bumped on every registration change and DDL; batch kernels cached
        # on a plan recompile when it moves (§3.2 instant updates).
        self.version = 0
        #: function name -> (version, what an invocation of it may read)
        self._reads: Dict[str, Tuple[int, FrozenSet[str]]] = {}

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
        self._invalidate()
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
        # next batch replans against the new definition.
        self.plan_cache.invalidate()
        return udf

    def invalidate_plans(self) -> None:
        """Drop all cached plans (called on DDL: dataset/index changes)."""
        self.plan_cache.invalidate()
        # DDL can change access paths and even dataset identity without
        # moving any partition LSN (create_index/drop_index), so the
        # version-keyed caches must start cold as well.
        self._invalidate()

    def caches_for(self, feed_name: str) -> Tuple[StateCache, EnrichmentMemo]:
        """The feed's own cross-batch state cache and key-level memo.

        One pair per feed name, created on first use with budget 0 (a run
        whose policy grants bytes — or the fabric's memory governor —
        sets the budget) and kept across that feed's runs, so a resumed
        run, a dead-letter replay or a backfill starts warm.  No other
        feed reads or resizes them; DDL and every function registration
        clear them.
        """
        pair = self._feed_caches.get(feed_name)
        if pair is None:
            pair = self._feed_caches[feed_name] = (
                StateCache(label=f"{feed_name}.state"),
                EnrichmentMemo(label=f"{feed_name}.memo"),
            )
        return pair

    def _invalidate(self) -> None:
        """Recompile kernels and start every feed's caches cold: a new
        function may shadow a builtin a cached result called, and a
        recompiled kernel's store holds nothing an old booking vouches for."""
        for pair in self._feed_caches.values():
            for cache in pair:
                cache.clear()
        self.version += 1

    # ----------------------------------------------------------------- java

    def register_java(self, descriptor) -> None:
        key = descriptor.qualified_name
        if key in self._java:
            raise UdfRegistrationError(f"java function {key!r} already registered")
        self._java[key] = descriptor
        self._invalidate()

    # --------------------------------------------------------------- lookup

    def has(self, name: str) -> bool:
        return name in self._sqlpp

    def get(self, name: str) -> SqlppUdf:
        if name not in self._sqlpp:
            raise UdfError(f"unknown function: {name}")
        return self._sqlpp[name]

    def is_pure_java(self, library: str, name: str) -> bool:
        """Whether ``library#name`` is registered and declared pure."""
        descriptor = self._java.get(f"{library}#{name}")
        return descriptor is not None and descriptor.pure

    def get_java(self, library: str, name: str):
        key = f"{library}#{name}"
        if key not in self._java:
            raise UdfError(f"unknown java function: {key}")
        return self._java[key]

    # ------------------------------------------------------------ invocation

    def reads(self, name: str) -> FrozenSet[str]:
        """The names an invocation of SQL++ function ``name`` may read: its
        body's free names and those of every SQL++ function it calls."""
        cached = self._reads.get(name)
        if cached is None or cached[0] != self.version:
            definition = self.get(name).definition
            called, _pure = called_reads(definition.body, self)
            names = free_vars(definition.body, set(definition.params)) | called
            cached = self._reads[name] = (self.version, frozenset(names))
        return cached[1]

    def invoke(self, name: str, args: List, ctx):
        """Invoke a SQL++ UDF: bind parameters and evaluate the body, over
        snapshots of everything it may read (:meth:`reads`)."""
        from ..sqlpp.evaluator import Env, Evaluator

        udf = self.get(name)
        if len(args) != udf.arity:
            raise UdfError(
                f"{name} expects {udf.arity} argument(s), got {len(args)}"
            )
        ctx.snapshots.pin_all(self.reads(name))
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
        instance = ctx.snapshots.java_instance(descriptor, ctx.replicated_meter)
        # Expose the meter so expensive UDFs can count work units.
        instance.meter = ctx.meter
        return instance(*args)
