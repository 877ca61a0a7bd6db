"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("ConcurrentVectorsError", "ConflictDetected",
                     "ProtocolError", "SessionError", "SimulationError",
                     "UnknownSiteError", "GraphError"):
            assert issubclass(getattr(errors, name), errors.ReproError), name

    def test_unknown_site_is_also_keyerror(self):
        assert issubclass(errors.UnknownSiteError, KeyError)

    def test_conflict_detected_carries_sites(self):
        exc = errors.ConflictDetected("boom", site_a="A", site_b="B")
        assert exc.site_a == "A"
        assert exc.site_b == "B"
        assert "boom" in str(exc)

    def test_catching_the_base_class_works(self):
        with pytest.raises(errors.ReproError):
            raise errors.ProtocolError("x")


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    #: Every subpackage that declares a public surface.
    SUBPACKAGES = ("analysis", "baselines", "core", "extensions", "graphs",
                   "net", "obs", "protocols", "replication", "store",
                   "workload")

    def test_subpackage_all_exports_resolve(self):
        import importlib
        for name in self.SUBPACKAGES:
            module = importlib.import_module(f"repro.{name}")
            listed = set(dir(module))
            star: dict = {}
            exec(f"from repro.{name} import *", star)
            for export in module.__all__:
                assert getattr(module, export, None) is not None, (
                    name, export)
                assert export in listed, (name, export)
                assert star[export] is getattr(module, export), (
                    name, export)

    def test_root_surface_is_listed_and_star_importable(self):
        star: dict = {}
        exec("from repro import *", star)
        for name in repro.__all__:
            assert name in dir(repro), name
            assert star[name] is getattr(repro, name), name

    def test_submodules_resolve_as_attributes(self):
        import repro.net
        assert repro.net.codec.Codec is repro.net.Codec
        assert repro.replication.hybrid.HybridOpSystem \
            is repro.replication.HybridOpSystem
        with pytest.raises(AttributeError, match="no_such_module"):
            repro.obs.no_such_module  # noqa: B018

    def test_protocol_registry_is_unchanged(self):
        from repro.protocols import registry
        assert registry.names() == ["brv", "crv", "srv"]

    def test_every_public_item_is_documented(self):
        """Deliverable check: doc comments on every public item, everywhere."""
        import importlib
        import inspect
        import pkgutil

        missing = []
        for modinfo in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(modinfo.name)
            if not module.__doc__:
                missing.append((modinfo.name, "<module>"))
            for name, obj in vars(module).items():
                if (name.startswith("_")
                        or getattr(obj, "__module__", None) != modinfo.name):
                    continue
                if inspect.isclass(obj):
                    if not obj.__doc__:
                        missing.append((modinfo.name, name))
                    for member_name, member in vars(obj).items():
                        if member_name.startswith("_") or not callable(member):
                            continue
                        if not getattr(member, "__doc__", None):
                            missing.append(
                                (modinfo.name, f"{name}.{member_name}"))
                elif inspect.isfunction(obj) and not obj.__doc__:
                    missing.append((modinfo.name, name))
        assert not missing, f"undocumented public items: {missing}"
