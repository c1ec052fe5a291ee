"""What nothing uses leaves ``src/``: two AST checks, no allowlist.

**Defs are reached through imports, not spellings.**  A top-level def or
class of a ``src/`` module counts as reached only when a module under
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``

* imports it (``from pkg.mod import name``), directly or through a package
  re-export (``from pkg import name`` where ``pkg/__init__`` imports it);
* loads it as an attribute of its module (``mod.name``, ``pkg.name`` for a
  re-export, ``getattr(mod, "name")``);
* uses it as a bare name inside its own module, outside its own body;
* names it in a ``"pkg.mod:name"`` string, or in a ``(module, "name")``
  pair as perfbench's patch tables write it.

An ``__init__`` import is a re-export, not a use, and a word that only
happens to be spelled like the def (a channel string, another class's
attribute) does not count.

**Every settable value is set, every member is used -- and tests are not
callers.**  Every defaulted parameter of a top-level function or of a
method, and every defaulted ``init`` field of a dataclass (or NamedTuple),
in ``src/`` must be set by at least one call in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` (the same users as above): by keyword, or by
enough positional arguments.  An option only a test sets is a constant; a
member only a test calls is test code.  Calls are
matched by the callee's spelling (``f(...)``, ``x.f(...)``; a class's
constructor is ``C(...)``, and ``super().__init__(...)`` inside a class is
a call to its bases), so a call to any callable spelled alike counts.  The
check is conservative -- each of these counts as setting every parameter:

* a call with ``*`` or ``**`` arguments, for every callable so spelled;
* a callable passed as a value (an argument, an element, an assignment, a
  return value; not an annotation, an ``isinstance`` type or the owner of
  an ``(owner, "name")`` pair), for every callable so spelled;
* ``cls(...)`` or ``type(self)(...)`` inside a class, for that class;
* a constructed subclass, for every class it derives from;
* ``replace(self, **kw)`` inside a dataclass, for that dataclass;
* a dunder method, for itself (the language calls it).

A keyword of ``replace(obj, name=...)`` sets ``name`` on every dataclass,
and the call-through helpers ``stack.callback(f, *a, **kw)`` and
``benchmark.pedantic(f, args=(...), kwargs={...})`` count as the call of
``f`` they make.  Every method or property (dunders aside) must be loaded
as an attribute, or named in a ``getattr`` / ``(owner, "name")`` pair,
somewhere outside its own body by one of those users.

``make loc`` prints ``len(settable())``, the options count.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "benchmarks", "examples", "perfbench")


def modules(dirs=USERS) -> dict:
    """``{dotted module name: (path, tree)}`` for every file under ``dirs``."""
    out = {}
    for d in dirs:
        base = ROOT / "src" if d == "src" else ROOT
        for path in sorted((ROOT / d).rglob("*.py")):
            parts = path.relative_to(base).with_suffix("").parts
            out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = (
                path, ast.parse(path.read_text()))
    return out


def _parents(tree) -> dict:
    return {id(c): p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}


# ---------------------------------------------------------------------------
# check 1: defs reached through imports
# ---------------------------------------------------------------------------


def _bindings(tree, package: str) -> dict:
    """Local name -> dotted target, for every import in ``tree``."""
    bind = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bind[a.asname or a.name.partition(".")[0]] = (
                    a.name if a.asname else a.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = package
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            source = ".".join(filter(None, [base if node.level else "", node.module]))
            for a in node.names:
                bind[a.asname or a.name] = f"{source}.{a.name}"
    return bind


def unreached() -> list[str]:
    mods = modules()
    packages = {m: m if p.name == "__init__.py" else m.rpartition(".")[0]
                for m, (p, _) in mods.items()}
    binds = {m: _bindings(t, packages[m]) for m, (_, t) in mods.items()}
    tops = {m: {n.name for n in t.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for m, (_, t) in mods.items()}

    def resolve(dotted, seen=()):
        """The ``(module, def)`` a dotted target names, or the module, or None."""
        if dotted in mods or dotted in seen:
            return dotted if dotted in mods else None
        mod, _, name = dotted.rpartition(".")
        if name in tops.get(mod, ()):
            return (mod, name)
        if name in binds.get(mod, {}):
            return resolve(binds[mod][name], (*seen, dotted))
        return None

    reached = set()
    for m, (path, tree) in mods.items():
        bind = binds[m]
        owner = {id(sub): top.name for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 for sub in ast.walk(top)}

        def dotted(node):
            if isinstance(node, ast.Name):
                return bind.get(node.id)
            if isinstance(node, ast.Attribute):
                head = dotted(node.value)
                return head and f"{head}.{node.attr}"
            return None

        def module_of(node):
            d = dotted(node)
            return d if d and isinstance(resolve(d), str) else None

        for node in ast.walk(tree):
            hits = []
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                hits = _bindings(ast.Module([node], []), packages[m]).values()
            elif isinstance(node, (ast.Name, ast.Attribute)):
                hits = [dotted(node)]
                if isinstance(node, ast.Name) and node.id in tops[m] \
                        and owner.get(id(node)) != node.id:
                    hits.append(f"{m}.{node.id}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.count(":") == 1 and " " not in node.value:
                hits = [node.value.replace(":", ".")]
            elif isinstance(node, (ast.Tuple, ast.Call)):
                args = node.elts if isinstance(node, ast.Tuple) else (
                    node.args if getattr(node.func, "id", "") == "getattr" else [])
                if len(args) >= 2 and isinstance(args[1], ast.Constant) \
                        and isinstance(args[1].value, str) and module_of(args[0]):
                    hits = [f"{module_of(args[0])}.{args[1].value}"]
            reached.update(r for h in hits if h and isinstance(r := resolve(h), tuple))
    return sorted(f"{mods[m][0].relative_to(ROOT)}::{name}"
                  for m in mods if m.startswith("repro")
                  for name in tops[m] if (m, name) not in reached)


def test_every_src_def_is_reached_outside_tests():
    assert unreached() == []


# ---------------------------------------------------------------------------
# check 2: settable values are set, members are used
# ---------------------------------------------------------------------------


def _spelling(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(cls) -> bool:
    return any(_spelling(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list) \
        or any(_spelling(b) == "NamedTuple" for b in cls.bases)


def _fields(cls) -> list[tuple[str, bool]]:
    """``(field, has a default)`` for a dataclass's own ``init`` fields, in order."""
    out = []
    for st in cls.body:
        if not isinstance(st, ast.AnnAssign) or "ClassVar" in ast.dump(st.annotation):
            continue
        kws = {k.arg: k.value for k in getattr(st.value, "keywords", ())} \
            if _spelling(getattr(st.value, "func", None)) == "field" else None
        if kws is not None and getattr(kws.get("init"), "value", True) is False:
            continue
        default = st.value is not None and (
            kws is None or bool({"default", "default_factory"} & kws.keys()))
        out.append((st.target.id, default))
    return out


def _signature(fn, method: bool) -> tuple[list[str], list[str]]:
    """(positional parameters, defaulted parameters) of a def."""
    a = fn.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    if method and "staticmethod" not in map(_spelling, fn.decorator_list):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, defaulted


def callables(mods=None) -> list[tuple]:
    """``(qualname, spelling, class, positional, defaulted)`` for every
    top-level function, method and constructor in ``src/``; a dunder
    method is called by the language, so none of its parameters is listed."""
    mods = mods or modules(("src",))
    out = []
    for m, (_, tree) in mods.items():
        classes = {t.name: t for t in tree.body if isinstance(t, ast.ClassDef)}
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                out.append((f"{m}.{top.name}", top.name, None, *_signature(top, False)))
            if not isinstance(top, ast.ClassDef):
                continue
            methods = {f.name: f for f in top.body if isinstance(f, ast.FunctionDef)}
            for name, fn in methods.items():
                if not name.startswith("__"):
                    out.append((f"{m}.{top.name}.{name}", name, top.name,
                                *_signature(fn, True)))
            if "__init__" in methods:
                out.append((f"{m}.{top.name}", top.name, top.name,
                            *_signature(methods["__init__"], True)))
            elif _is_dataclass(top):
                inherited = [f for b in top.bases if _spelling(b) in classes
                             for f, _ in _fields(classes[_spelling(b)])]
                own = _fields(top)
                out.append((f"{m}.{top.name}", top.name, top.name,
                            inherited + [f for f, _ in own], [f for f, d in own if d]))
    return out


def settable() -> list[str]:
    """Every defaulted parameter and defaulted ``init`` field in ``src/``."""
    return [f"{q}({p})" for q, *_, defaulted in callables() for p in defaulted]


#: parents in which a loaded callable is passed on as a value
_VALUE = (ast.Call, ast.keyword, ast.List, ast.Tuple, ast.Set, ast.Dict, ast.Assign,
          ast.AnnAssign, ast.Return, ast.Lambda, ast.IfExp, ast.BoolOp, ast.Starred)
#: helpers that call their first argument with the rest: f(*args, **kwargs)
_CALL_THROUGH = ("callback", "pedantic")


def _through(call):
    """The call ``f(...)`` a call-through helper makes, as an ``ast.Call``."""
    kw = {k.arg: k.value for k in call.keywords}
    if _spelling(call.func) == "pedantic":
        args = getattr(kw.get("args"), "elts", [])
        keywords = [ast.keyword(k.value, v) for k, v in zip(
            getattr(kw.get("kwargs"), "keys", []), getattr(kw.get("kwargs"), "values", []))]
        return ast.Call(call.args[0], args, keywords)
    return ast.Call(call.args[0], call.args[1:], call.keywords)


def _uses(tree, calls, everything, replaced, loads, bases) -> None:
    """Record one module's calls, callables passed as values and member loads."""
    parent = _parents(tree)
    bound = set(_bindings(tree, "")) | {
        t.name for t in tree.body if isinstance(t, (ast.FunctionDef, ast.ClassDef))}
    scope = {}  # id(node) -> (enclosing class, id of the enclosing method or function)
    for top in tree.body:
        for sub in ast.walk(top):
            scope[id(sub)] = (top.name if isinstance(top, ast.ClassDef) else None, id(top))
        for fn in top.body if isinstance(top, ast.ClassDef) else ():
            for sub in ast.walk(fn):
                scope[id(sub)] = (top.name, id(fn))
        for b in top.bases if isinstance(top, ast.ClassDef) else ():
            bases[top.name].add(_spelling(b))
    hidden = {id(n) for a in ast.walk(tree)  # annotations name types, not values
              for x in (getattr(a, "annotation", None), getattr(a, "returns", None)) if x
              for n in ast.walk(x)}
    for node in ast.walk(tree):
        cls, fn = scope.get(id(node), (None, None))
        up = parent.get(id(node))
        if isinstance(node, ast.Call):
            spelled = _spelling(node.func)
            if spelled in _CALL_THROUGH and node.args:
                hidden.add(id(node.args[0]))
                node = _through(node)
                spelled = _spelling(node.func)
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            if spelled == "replace" and node.args:
                replaced.update(k.arg for k in node.keywords if k.arg)
                if starred and _spelling(node.args[0]) == "self":
                    everything.add(cls)
            elif spelled == "cls" or _spelling(getattr(node.func, "func", None)) == "type":
                everything.add(cls)
            else:
                receiver = getattr(node.func, "value", None)
                if spelled == "__init__" and _spelling(getattr(receiver, "func", None)) \
                        == "super":
                    spelled = bases[cls]
                for s in spelled if isinstance(spelled, set) else [spelled]:
                    (everything.add(s) if starred else calls[s].append(node))
            if spelled in ("getattr", "hasattr", "setattr") and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant):
                loads[node.args[1].value].add(fn)
        elif isinstance(node, ast.Tuple) and len(node.elts) > 1 \
                and isinstance(node.elts[1], ast.Constant):  # an (owner, "name") pair
            loads[node.elts[1].value].add(fn)
            hidden.add(id(node.elts[0]))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads[node.attr].add(fn)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and id(node) not in hidden and isinstance(up, _VALUE) \
                and getattr(up, "func", None) is not node \
                and _spelling(getattr(up, "func", None)) not in ("isinstance", "issubclass") \
                and (isinstance(node, ast.Attribute) or node.id in bound):
            everything.add(_spelling(node))


def unset_and_unused() -> list[str]:
    mods = modules()
    src = {m: v for m, v in mods.items() if m.startswith("repro")}
    calls = defaultdict(list)  # spelling -> every call so spelled
    everything = set()  # spellings whose every parameter counts as set
    replaced = set()  # field names some replace(obj, name=...) sets
    loads = defaultdict(set)  # member spelling -> ids of the defs loading it
    bases = defaultdict(set)  # class spelling -> its bases' spellings
    for _, tree in mods.values():
        _uses(tree, calls, everything, replaced, loads, bases)
    built = {c for c in bases if calls.get(c) or c in everything}
    subclassed = set()  # classes some constructed subclass derives from
    while built:
        built = {b for c in built for b in bases[c]} - subclassed
        subclassed |= built

    def is_set(spelling, cls, positional, p):
        if spelling in everything or (spelling == cls and (
                p in replaced or cls in subclassed)):
            return True
        pos = positional.index(p) if p in positional else len(positional)
        return any(len(call.args) > pos or p in [k.arg for k in call.keywords]
                   for call in calls.get(spelling, ()))

    found = [f"{q}({p})" for q, spelling, cls, positional, defaulted in callables(src)
             for p in defaulted if not is_set(spelling, cls, positional, p)]
    for m, (_, tree) in src.items():
        for cls in (t for t in tree.body if isinstance(t, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__") \
                        and not loads.get(fn.name, set()) - {id(fn)}:
                    found.append(f"{m}.{cls.name}.{fn.name}")
    return sorted(found)


def test_every_settable_value_is_set_and_every_member_is_used():
    assert unset_and_unused() == []
