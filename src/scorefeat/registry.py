"""Feature-module and hook registries plus dependency-ordered resolution.

Custom feature modules plug in through :func:`register_feature_module` with
two optional callables: one run per part, one per score (the score one sees
every part's values). Hooks are score transforms run once after parsing,
before the cache write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

CORE_MODULE = "core"


class RegistryError(ValueError):
    """Unknown module name or a dependency cycle."""


@dataclass(frozen=True)
class FeatureModuleDescriptor:
    """One pluggable feature module.

    ``part_fn(part, score, upstream) -> dict`` runs per part; ``score_fn
    (score, part_values, upstream) -> dict`` runs once per score/window with
    all part values available. Either may be None.
    """

    name: str
    depends_on: tuple[str, ...] = ()
    part_fn: Optional[Callable] = None
    score_fn: Optional[Callable] = None


_FEATURE_MODULES: dict[str, FeatureModuleDescriptor] = {}
_HOOKS: dict[str, Callable] = {}


def register_feature_module(descriptor: FeatureModuleDescriptor) -> None:
    _FEATURE_MODULES[descriptor.name] = descriptor


def feature_modules() -> Mapping[str, FeatureModuleDescriptor]:
    return dict(_FEATURE_MODULES)


def register_hook(name: str, fn: Callable) -> None:
    """Register a Score -> Score transform runnable by name from configs."""
    _HOOKS[name] = fn


def get_hook(name: str) -> Callable:
    try:
        return _HOOKS[name]
    except KeyError:
        raise RegistryError(f"unknown hook {name!r}") from None


def resolve_feature_order(
    registry: Mapping[str, FeatureModuleDescriptor], requested: Sequence[str]
) -> list[str]:
    """Topological order over requested modules and their dependencies.

    "core" is always injected first; ties break by requested-list position,
    then name. Unknown names and cycles are errors.
    """
    for name in requested:
        if name not in registry:
            raise RegistryError(f"unknown feature module {name!r}")
    if CORE_MODULE not in registry:
        raise RegistryError(f"feature registry is missing the {CORE_MODULE!r} module")

    wanted: dict[str, None] = {CORE_MODULE: None}
    stack = list(requested)
    while stack:
        name = stack.pop(0)
        if name in wanted:
            continue
        if name not in registry:
            raise RegistryError(f"unknown feature module {name!r} (dependency)")
        wanted[name] = None
        stack.extend(registry[name].depends_on)

    req_rank: dict[str, int] = {}
    for i, name in enumerate(requested):
        req_rank.setdefault(name, i)

    def rank(name: str):
        return (name != CORE_MODULE, req_rank.get(name, len(req_rank)), name)

    placed: list[str] = []
    pending = sorted(wanted, key=rank)
    while pending:
        for name in pending:
            if all(d in placed or d not in wanted for d in registry[name].depends_on):
                break
        else:
            cycle = ", ".join(sorted(pending))
            raise RegistryError(f"dependency cycle among feature modules: {cycle}")
        placed.append(name)
        pending.remove(name)
    return placed
