"""Private names cited in the docs and docstrings still exist.

A backticked dotted name with a private component, such as `_grow` or
`standard_form._check_loops`, in `README.md`, `docs/*.md` or a module of
`src/hallwin` must name an attribute of a `hallwin` module or of a class
defined in one.  A name whose head is a module or class is looked up from
it; a bare name from every module and class.  `ROADMAP.md` and
`CHANGES.md` are history, so they may cite names that are gone.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import hallwin

ROOT = pathlib.Path(__file__).resolve().parents[1]
# names of other packages that a comment cites
ALLOWED = {"_sort_gens"}  # sympy's, in a comment of hallwin.shuffle
NAME = re.compile(r"`((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)`")

MODULES = {info.name: importlib.import_module(f"hallwin.{info.name}")
           for info in pkgutil.iter_modules(hallwin.__path__)}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__.startswith("hallwin")}


def resolves(head, rest) -> bool:
    for part in rest:
        if not hasattr(head, part):
            return False
        head = getattr(head, part)
    return True


def exists(name: str) -> bool:
    parts = name.split(".")
    if parts[0] == "hallwin":
        parts = parts[1:]
    heads = [scope[parts[0]] for scope in (MODULES, CLASSES) if parts[0] in scope]
    if heads:
        return any(resolves(head, parts[1:]) for head in heads)
    return any(resolves(head, parts)
               for head in [hallwin, *MODULES.values(), *CLASSES.values()])


def cited_private_names():
    files = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
             *sorted((ROOT / "src" / "hallwin").glob("*.py"))]
    for path in files:
        for match in NAME.finditer(path.read_text()):
            name = match.group(1)
            if any(part.startswith("_") for part in name.split(".")):
                yield path.relative_to(ROOT), name


def test_every_cited_private_name_exists():
    cited = list(cited_private_names())
    assert len(cited) > 40
    missing = [(str(path), name) for path, name in cited
               if name not in ALLOWED and not exists(name)]
    assert missing == []


def test_a_name_that_is_gone_is_missing():
    assert exists("standard_form._decomposed") and exists("WPolytope._int_cuts")
    assert exists("_grow") and exists("hallwin._symbolic")
    assert not exists("_form_onto") and not exists("standard_form._slope_weight")
    assert not exists("index_sets._tree")
