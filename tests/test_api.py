import importlib
import pkgutil

import anglekit


def test_every_exported_name_resolves():
    # a deleted function must not linger in a module's __all__
    names = ["anglekit"] + [
        f"anglekit.{info.name}" for info in pkgutil.iter_modules(anglekit.__path__)
    ]
    assert len(names) >= 10
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, (name, missing)
