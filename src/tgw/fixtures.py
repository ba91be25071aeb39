"""Bundled fixtures and path resolution for the CLI and tests."""

from __future__ import annotations

from pathlib import Path

from .core import FiniteTernaryGammaSemiring, FixtureError, load_structure
from .modules import GammaModule, load_module

STRUCTURE_NAMES = ("B2", "Z3", "B2xB2")
MODULE_NAMES = ("B2-regular", "B2-T2", "B2-zero",
                "Z3-regular", "Z3-zero",
                "B2xB2-regular", "B2xB2-zero")

_STRUCTURE_FILES = {"B2": "b2.json", "Z3": "z3.json", "B2xB2": "b2xb2.json"}
_MODULE_FILES = {
    "B2-regular": ("b2_regular.json", "B2"),
    "B2-T2": ("b2_t2.json", "B2"),
    "B2-zero": ("b2_zero.json", "B2"),
    "Z3-regular": ("z3_regular.json", "Z3"),
    "Z3-zero": ("z3_zero.json", "Z3"),
    "B2xB2-regular": ("b2xb2_regular.json", "B2xB2"),
    "B2xB2-zero": ("b2xb2_zero.json", "B2xB2"),
}


def _data_text(filename: str) -> str:
    return (Path(__file__).with_name("data") / filename).read_text(encoding="utf-8")


def bundled_structure(name: str) -> FiniteTernaryGammaSemiring:
    if name not in _STRUCTURE_FILES:
        raise FixtureError(f"reference error: no bundled structure named {name!r}")
    return load_structure(_data_text(_STRUCTURE_FILES[name]))


def bundled_module(name: str) -> GammaModule:
    if name not in _MODULE_FILES:
        raise FixtureError(f"reference error: no bundled module named {name!r}")
    filename, base_name = _MODULE_FILES[name]
    return load_module(_data_text(filename), bundled_structure(base_name))


def modules_for(structure_name: str) -> list[GammaModule]:
    return [bundled_module(name) for name, (_, base) in _MODULE_FILES.items()
            if base == structure_name]


def resolve_structure(arg: str) -> FiniteTernaryGammaSemiring:
    """Accept a bundled name or a filesystem path to a fixture file."""
    if arg in _STRUCTURE_FILES:
        return bundled_structure(arg)
    path = Path(arg)
    if not path.exists():
        raise FixtureError(f"reference error: {arg!r} is neither a bundled "
                           f"structure nor an existing file")
    return load_structure(path.read_text(encoding="utf-8"))


def resolve_module(arg: str, base: FiniteTernaryGammaSemiring) -> GammaModule:
    if arg in _MODULE_FILES:
        module = bundled_module(arg)
        if module.base != base:
            raise FixtureError(f"reference error: module {arg!r} does not live "
                               f"over structure {base.name!r}")
        return module
    path = Path(arg)
    if not path.exists():
        raise FixtureError(f"reference error: {arg!r} is neither a bundled "
                           f"module nor an existing file")
    return load_module(path.read_text(encoding="utf-8"), base)
