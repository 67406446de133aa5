"""Install and remove call wrappers on ``repro`` code from the outside.

The benchmark never edits the program.  It replaces a class attribute or
a module-level function with a wrapper for the length of one run, and
puts the original object back afterwards.  A module-level function is
replaced in every loaded ``repro`` module that imported it by name, so
``from ..core.boot import boot_veil_system`` call sites are covered too.
"""

from __future__ import annotations

import sys

#: Attribute set on every wrapper, so a sweep can prove none is left.
MARKER = "__lens_wrapped__"
#: The package whose modules are patched and swept.
PACKAGE = "repro"


def _package_modules():
    """(name, module) for every loaded module of :data:`PACKAGE`."""
    prefix = PACKAGE + "."
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None and
            (name == PACKAGE or name.startswith(prefix))]


def _descriptor_parts(raw):
    """Split a class-dict entry into (function, rebuild-descriptor)."""
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    return raw, lambda fn: fn


class Patcher:
    """Records every replacement it makes and undoes them in reverse."""

    def __init__(self):
        #: (owner, attribute, original, owned) -- ``owned`` is False when
        #: the attribute was inherited and must be deleted on restore.
        self._undo: list[tuple[object, str, object, bool]] = []

    def wrap_method(self, cls: type, name: str, make_wrapper) -> None:
        """Replace ``cls.name`` with ``make_wrapper(original_function)``."""
        owned = name in cls.__dict__
        raw = next(klass.__dict__[name] for klass in cls.__mro__
                   if name in klass.__dict__)
        fn, rebuild = _descriptor_parts(raw)
        wrapper = make_wrapper(fn)
        setattr(wrapper, MARKER, True)
        setattr(cls, name, rebuild(wrapper))
        self._undo.append((cls, name, raw, owned))

    def wrap_function(self, fn, make_wrapper) -> None:
        """Replace ``fn`` wherever a loaded package module binds it."""
        wrapper = make_wrapper(fn)
        setattr(wrapper, MARKER, True)
        for _name, module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn, True))

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self._undo:
            owner, name, original, owned = self._undo.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def leftover_wrappers() -> list[str]:
    """Names of package functions or methods that are still wrappers."""
    found = []
    for mod_name, module in _package_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and \
                    value.__module__ == mod_name:
                for meth, raw in list(vars(value).items()):
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, MARKER, False):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return sorted(found)
