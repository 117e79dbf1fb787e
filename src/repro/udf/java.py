"""The "Java" UDF framework (Python stand-in with the same lifecycle).

AsterixDB Java UDFs implement ``initialize(functionHelper, nodeInfo)`` —
typically loading node-local resource files — and ``evaluate`` per record.
We mirror that lifecycle: a :class:`JavaUdf` subclass loads *resources*
(line-oriented, like the paper's ``keywordListPath`` file) in
``initialize`` and processes one input per ``evaluate`` call.

Lifecycle rules that drive the experiments:

* the **static** framework initializes a UDF instance once per feed, so
  resource updates are never observed (§7.2's "Static Enrichment w/ Java
  can only handle reference data without updates");
* the **dynamic** framework initializes per computing job (per batch), so
  resource updates become visible at batch boundaries.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import UdfError

ResourceProvider = Callable[[], Iterable[str]]


class JavaUdf:
    """Base class for compiled UDFs.

    ``resources`` maps resource names to providers returning the current
    line contents of that node-local file.  ``initialize`` is called once
    per instance generation; ``evaluate`` once per input.
    """

    #: subclasses list the resource names they require
    required_resources: tuple = ()
    #: a subclass sets this when what ``evaluate`` returns depends only on
    #: its arguments and what ``initialize`` loaded, and its one side
    #: effect is what it charges to ``self.meter``: no state kept between
    #: calls, no argument mutated.  The planned engine may then evaluate a
    #: call once per binding of the names its arguments read instead of
    #: once per candidate, replaying its charge at every use
    #: (``sqlpp.plans.Hoisting``).
    pure: bool = False

    def __init__(self, resources: Optional[Dict[str, ResourceProvider]] = None):
        self.resources = resources or {}
        for name in self.required_resources:
            if name not in self.resources:
                raise UdfError(
                    f"{type(self).__name__} requires resource {name!r}"
                )
        self.initialized = False
        self.resource_lines_loaded = 0

    def read_resource(self, name: str) -> List[str]:
        lines = list(self.resources[name]())
        self.resource_lines_loaded += len(lines)
        return lines

    def initialize(self, node_info: str) -> None:
        """Load resources; subclasses override and must call super()."""
        self.initialized = True

    def evaluate(self, *args):
        raise NotImplementedError

    def __call__(self, *args):
        if not self.initialized:
            raise UdfError(
                f"{type(self).__name__}.evaluate called before initialize()"
            )
        return self.evaluate(*args)


class JavaUdfDescriptor:
    """Registry entry: how to build and cost a Java UDF instance."""

    def __init__(
        self,
        library: str,
        name: str,
        factory: Callable[[], JavaUdf],
        arity: int,
        stateful: bool,
    ):
        self.library = library
        self.name = name
        self.factory = factory
        self.arity = arity
        self.stateful = stateful

    @property
    def qualified_name(self) -> str:
        return f"{self.library}#{self.name}"

    @property
    def pure(self) -> bool:
        """Whether the factory is a :class:`JavaUdf` class declaring
        ``pure``; any other factory is taken to be impure."""
        return getattr(self.factory, "pure", False) is True

    def instantiate(self, node_info: str = "nc0") -> JavaUdf:
        instance = self.factory()
        instance.initialize(node_info)
        if not instance.initialized:
            raise UdfError(
                f"{self.qualified_name}: initialize() must call super().initialize()"
            )
        return instance
