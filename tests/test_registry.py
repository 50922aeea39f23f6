import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorefeat.registry import (
    CORE_MODULE,
    FeatureModuleDescriptor,
    RegistryError,
    feature_modules,
    resolve_feature_order,
)


def reference_resolve_feature_order(registry, requested):
    """The former resolver, a pending/satisfied/progressed loop, kept as the
    reference for ``resolve_feature_order``."""
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

    pending = dict.fromkeys(sorted(wanted, key=rank))
    ordered: list[str] = []
    satisfied: set[str] = set()
    while pending:
        progressed = False
        for name in list(pending):
            deps = [d for d in registry[name].depends_on if d in wanted]
            if all(d in satisfied for d in deps):
                ordered.append(name)
                satisfied.add(name)
                del pending[name]
                progressed = True
                break
        if not progressed:
            cycle = ", ".join(sorted(pending))
            raise RegistryError(f"dependency cycle among feature modules: {cycle}")
    return ordered


def _outcome(resolve, registry, requested):
    try:
        return resolve(registry, requested)
    except RegistryError as exc:
        return f"error: {exc}"


NAMES = ["core", "a", "b", "c", "d", "e"]


@st.composite
def registries(draw):
    """A registry over some of ``NAMES`` (core usually among them) plus a
    request; dependencies and requested names are registered ones, and in
    one case out of five may also be an unregistered name."""
    present = draw(st.sets(st.sampled_from(NAMES), min_size=1))
    if draw(st.integers(0, 9)):
        present.add(CORE_MODULE)
    known = sorted(present)
    pool = st.sampled_from(known + ["zz"] if draw(st.integers(0, 4)) == 0 else known)
    registry = {
        name: FeatureModuleDescriptor(name, depends_on=tuple(draw(st.lists(pool, max_size=3))))
        for name in sorted(present)
    }
    return registry, draw(st.lists(pool, max_size=5))


def mk_registry(**deps):
    registry = {"core": FeatureModuleDescriptor("core")}
    for name, depends in deps.items():
        registry[name] = FeatureModuleDescriptor(name, depends_on=tuple(depends))
    return registry


class TestResolveOrder:
    def test_dependency_injected(self):
        order = resolve_feature_order(mk_registry(density=["core"]), ["density"])
        assert order == ["core", "density"]

    def test_core_always_first(self):
        order = resolve_feature_order(mk_registry(texture=[]), ["texture", "core"])
        assert order == ["core", "texture"]

    def test_transitive_chain(self):
        registry = mk_registry(a=[], b=["a"], c=["b"])
        assert resolve_feature_order(registry, ["c"]) == ["core", "a", "b", "c"]

    def test_requested_order_breaks_ties(self):
        registry = mk_registry(x=[], y=[], z=[])
        assert resolve_feature_order(registry, ["z", "x", "y"]) == ["core", "z", "x", "y"]

    def test_name_breaks_remaining_ties(self):
        registry = mk_registry(b=[], a=[])
        order = resolve_feature_order(registry, ["stub"] if False else [])
        assert order == ["core"]
        order = resolve_feature_order(registry, ["a", "b"])
        assert order == ["core", "a", "b"]

    def test_unknown_name(self):
        with pytest.raises(RegistryError, match="nope"):
            resolve_feature_order(mk_registry(), ["nope"])

    def test_cycle_named(self):
        registry = mk_registry(a=["b"], b=["a"])
        with pytest.raises(RegistryError, match="a, b"):
            resolve_feature_order(registry, ["a"])

    @given(registries())
    def test_matches_reference(self, case):
        registry, requested = case
        assert _outcome(resolve_feature_order, registry, requested) == _outcome(
            reference_resolve_feature_order, registry, requested
        )

    def test_stock_registry_resolves_with_core_first(self):
        registry = feature_modules()
        order = resolve_feature_order(registry, list(registry))
        assert order[0] == "core"
        assert order.index("key") < order.index("scale")
        positions = {name: i for i, name in enumerate(order)}
        for name, desc in registry.items():
            for dep in desc.depends_on:
                assert positions[dep] < positions[name]
