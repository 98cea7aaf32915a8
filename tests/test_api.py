import importlib
import pkgutil
from pathlib import Path

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


def test_every_public_definition_is_exported():
    # a public function or class defined in a module with __all__ is listed there
    for info in pkgutil.iter_modules(anglekit.__path__):
        module = importlib.import_module(f"anglekit.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        unlisted = [
            name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and name not in module.__all__
        ]
        assert not unlisted, (info.name, unlisted)


def test_one_module_holds_the_kept_mass_rule():
    # every truncating route calls errors.warn_kept_mass; none reads the threshold itself
    readers = sorted(
        path.name for path in Path(anglekit.__file__).parent.glob("*.py")
        if "LEAK_TOL" in path.read_text(encoding="utf-8")
    )
    assert readers == ["errors.py"]
