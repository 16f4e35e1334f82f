"""Runtime plugin registry — NebulaStream's extension mechanism.

§2.3: "The framework also supports runtime operator definition through
dynamic registration, enabling the integration of domain-specific
operator logic, including calling MEOS functions." This module is that
mechanism: expression factories are registered under a name at runtime
and built by name; ``load_meos_plugin`` registers every MEOS-backed
expression. The eight queries construct their expression nodes directly
and do not resolve them here; only the registry's own tests use it.
"""
from __future__ import annotations

from collections.abc import Callable

from repro.nebula import expressions as E


class PluginRegistry:
    """Name → expression-factory registry with dynamic (de)registration."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable] = {}

    def register(self, name: str, factory: Callable, *, overwrite: bool = False) -> None:
        """Register ``factory`` under ``name``. Registering an existing
        name without ``overwrite`` is an error — accidental operator
        shadowing in a stream engine is a deployment bug."""
        if not name or not name.isidentifier():
            raise ValueError(f"invalid operator name {name!r}")
        if name in self._factories and not overwrite:
            raise ValueError(f"operator {name!r} already registered")
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        if name not in self._factories:
            raise KeyError(name)
        del self._factories[name]

    def get(self, name: str) -> Callable:
        if name not in self._factories:
            raise KeyError(
                f"operator {name!r} not registered — did you load the plugin?"
            )
        return self._factories[name]

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def names(self) -> list[str]:
        return sorted(self._factories)

    def build(self, name: str, *args, **kwargs) -> E.Expression:
        """Instantiate the registered expression — runtime operator
        definition in action."""
        expr = self.get(name)(*args, **kwargs)
        if not isinstance(expr, E.Expression):
            raise TypeError(f"factory {name!r} returned {type(expr).__name__}, not Expression")
        return expr


#: The MEOS expression set NebulaMEOS contributes.
MEOS_OPERATORS: dict[str, Callable] = {
    "edwithin": E.EdWithinExpression,
    "tpoint_at_stbox": E.TPointAtStboxExpression,
    "zone_id": E.ZoneIdExpression,
    "nearest_zone": E.NearestZoneExpression,
}


def load_meos_plugin(registry: PluginRegistry) -> list[str]:
    """Install the MEOS operator plugin into ``registry`` (the
    NebulaMEOS integration step). Returns the registered names."""
    for name, factory in MEOS_OPERATORS.items():
        registry.register(name, factory)
    return sorted(MEOS_OPERATORS)


def default_registry() -> PluginRegistry:
    """A registry with the MEOS plugin pre-loaded."""
    reg = PluginRegistry()
    load_meos_plugin(reg)
    return reg
