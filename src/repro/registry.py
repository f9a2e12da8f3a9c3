"""One generic name -> singleton registry.

Strategies, search algorithms, workloads and engines are all named
singletons that built-ins register at import and plugins register
later. :class:`Registry` is that pattern once: type and name checks, an
optional validation hook, duplicate detection, and an unknown-name error
that lists what is available. Each package binds its public functions
to one instance::

    STRATEGIES = Registry("strategy", ConsolidationStrategy,
                          error=TransformError, validate=_validate)
    register_strategy = STRATEGIES.register
    get_strategy = STRATEGIES.get
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, Optional, TypeVar, Union

T = TypeVar("T")


class Registry(Generic[T]):
    """Named items of one type, kept in registration order.

    ``kind`` names an item in error messages (``"strategy"``);
    ``unknown`` overrides that noun in the unknown-name error only.
    ``error`` is the exception type :meth:`get` raises for an unknown
    name, and ``validate`` (if given) checks an item before it is added
    and raises ``ValueError`` to refuse it.
    """

    def __init__(self, kind: str, item_type: type, *,
                 error: type = KeyError,
                 validate: Optional[Callable[[T], None]] = None,
                 unknown: Optional[str] = None):
        self.kind = kind
        self.item_type = item_type
        self.error = error
        self.validate = validate
        self.unknown = unknown if unknown is not None else kind
        self._items: dict[str, T] = {}

    def register(self, item: T, replace: bool = False) -> T:
        """Add an item (validated); returns it."""
        if not isinstance(item, self.item_type):
            raise TypeError(f"expected a {self.item_type.__name__} "
                            f"instance, got {item!r}")
        if not item.name:
            raise ValueError(f"{type(item).__name__} must define a name")
        if self.validate is not None:
            self.validate(item)
        if item.name in self._items and not replace:
            raise ValueError(
                f"{self.kind} {item.name!r} is already registered")
        self._items[item.name] = item
        return item

    def unregister(self, name: str) -> None:
        """Remove an item (test/plugin cleanup). Built-ins may be removed
        too; re-register them from their exported classes if needed."""
        if name not in self._items:
            raise KeyError(f"{self.kind} {name!r} is not registered")
        del self._items[name]

    def get(self, name: Union[str, T]) -> T:
        """Look up an item by name; instances pass through unchanged."""
        if isinstance(name, self.item_type):
            return name
        item = self._items.get(name)
        if item is None:
            raise self.error(f"unknown {self.unknown} {name!r}; "
                             f"available: {', '.join(self._items)}")
        return item

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._items)

    def __iter__(self) -> Iterator[T]:
        """The items, in registration order."""
        return iter(tuple(self._items.values()))
