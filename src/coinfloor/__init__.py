"""Exact toolkit for the two-coin representability problem and floor-sum
reciprocity: logarithmic floor-sum evaluation, exact counts of representable
numbers below a threshold, gap enumeration with Sylvester-type sums, and
Jacobi symbols computed from floor-sum parity, with every identity wired up
as a machine-checkable property.

The public names are those in the __all__ of the modules in _MODULES.
Importing the package loads none of them, so a CLI call pays only for the
modules its command uses.  The module __getattr__ (PEP 562) loads them on
first use: coinfloor.<name> and from coinfloor import <name> load the
modules in _MODULES order until one lists the name, and
from coinfloor import * and dir(coinfloor) load all of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# cheapest first: a name is looked up in the modules in this order
_MODULES = ("core", "floorsum", "coinproblem", "jacobi", "verify")


def _public_names() -> list[str]:
    return [name for module in _MODULES for name in import_module(f".{module}", __name__).__all__]


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):  # from coinfloor import <module> loads that one alone
        return import_module(f".{name}", __name__)
    if name == "__all__":
        return _public_names()
    for module_name in _MODULES:
        module = import_module(f".{module_name}", __name__)
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_public_names()})
