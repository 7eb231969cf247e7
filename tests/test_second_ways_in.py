"""No second ways in: every function, method and defaulted parameter of the
package has a caller in `src/`, or a named reason to stay.

A way into `src/journeynet` that only tests take is code the pipeline does
not run: a wrapper of a method `src/` calls, an alias, a parameter no caller
sets.  The scan below reads the package's syntax trees and lists each of
these that no code under `src/journeynet` references; docstrings, comments
and the re-exports of `__init__.py` are not references.  The list must be
exactly the named allowlist plus the attributes `bench/spans.py` hooks.

What counts, by name, since the scan knows no types:
- a module-level function or alias `f` is referenced by a read of the name
  `f` or of an attribute `.f`; a method or property `m` by a read of an
  attribute `.m` or a ``getattr(obj, "m")``.  A read inside a function of
  the same name (a recursion, or a wrapper delegating to another object's
  `m`) does not count.  Dunder methods are left out: the language calls
  them, not a name.
- a defaulted parameter `p` of `f` is referenced by a call of `f` (for
  `__init__`, of its class) that passes `p` by keyword or by position, or
  that unpacks `*args` or `**kwargs`, and by any use of `f` other than a
  call (a callable handed on may be called with anything).

Nor does a name outside `journeynet.__all__` keep a default that every call
in `src/` overrides: such a default decides nothing, and only a test that
leaves the parameter out takes it.  A call sets a parameter for sure when it
passes it by keyword, or by position before any `*args`.  Exported names
and their methods keep their public defaults.
"""

import ast
import importlib
from pathlib import Path

from test_bench_hooks import load_spans

import journeynet

SRC = Path(__file__).resolve().parents[1] / "src" / "journeynet"

# name -> why it stays with no caller in src/
ALLOWED = {
    "textenc.CnnEncoder.embed": "bench/spans.py hooks it for the textenc.embed spans",
    "rng.stream_at": "bench/spans.py hooks it, and the tests check rng.restart against it",
    "journeydata.replicate_dwell(unit_seconds)": "tests/test_acceptance.py sets it",
    "journeydata.replicate_dwell(cap)": "tests/test_acceptance.py sets it",
    "seqmodel.SequenceModel.forward_session": "tests/test_acceptance.py reads it",
    "seqmodel.SequenceModel.session_nll": "tests/test_acceptance.py grad-checks it",
    "seqmodel.load_model": "tests/test_acceptance.py reads it",
    "seqmodel.session_loss": "tests/test_acceptance.py reads it",
    "training.ensemble_predict": "tests/test_acceptance.py reads it",
    "numerics.grad_check": "tests/test_acceptance.py's gradient oracle",
    "numerics.grad_check(h)": "tests/test_acceptance.py sets it",
    "simulator.exact_conversion": "tests/test_acceptance.py's conversion oracle",
    "simulator.PathMass.total": "tests/test_acceptance.py checks an enumeration's mass with it",
    "simulator.conversion_path_mass(prune_tol)": "bench/run.py and tests/test_acceptance.py prune with it",
    "simulator.conversion_path_mass(max_nodes)": "tests/test_acceptance.py sets it",
    "simulator.estimate_conversion(prefix_index)": "the README's determinism contract: "
    "a standalone estimate with a cell's index is bit-equal to that score_batch cell",
    "simulator.step_distribution": "the one way to the page distribution t steps ahead, "
    "a query of the README that no other entry point answers",
    "journeydata.MarkovSpec.save": "tools/artifact_digests.py writes its chain with it",
    "cli.main(argv)": "tools/artifact_digests.py runs the CLI in-process through it; "
    "the console script passes none",
}


def _bench_hooks() -> set[str]:
    """The `module.Class.attr` or `module.attr` name of every ENTRY_POINTS hook of bench/spans.py."""
    names = set()
    for owner, attr, *_ in load_spans().ENTRY_POINTS:
        if isinstance(owner, type):
            names.add(f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}")
        else:
            names.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
    return names


def _definitions(trees):
    """(qualified name, name a reference uses, def node or None, is method) of every
    module-level function and alias and every class method (no dunder but `__init__`,
    which a reference to its class reaches) of the package."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node, False
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield f"{module}.{target.id}", target.id, None, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield f"{module}.{node.name}", node.name, item, True
                    elif not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of `fn` with a default; the position
    counts the arguments a call passes, so a method's first parameter has none."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _walk(tree):
    """Every node of `tree`, with the names of the functions it lies in."""
    stack = [(tree, ())]
    while stack:
        node, within = stack.pop()
        yield node, within
        if isinstance(node, ast.FunctionDef):
            within = (*within, node.name)
        stack.extend((child, within) for child in ast.iter_child_nodes(node))


def _read(node):
    """("name" or "attr", the name) that `node` reads, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return "name", node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return "attr", node.attr
    if (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
    ):
        return "attr", node.args[1].value
    return None


def _scan():
    """(syntax trees by module, names read by kind, the calls by the name they call,
    the names read other than as a call) of the package."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reads = {"name": set(), "attr": set()}
    calls, handed_on = {}, set()
    for tree in trees.values():
        nodes = list(_walk(tree))
        call_of = {id(node.func): node for node, _ in nodes if isinstance(node, ast.Call)}
        for node, within in nodes:
            read = _read(node)
            if read is None or read[1] in within:
                continue
            reads[read[0]].add(read[1])
            if id(node) in call_of:
                calls.setdefault(read[1], []).append(call_of[id(node)])
            else:
                handed_on.add(read[1])
    return trees, reads, calls, handed_on


def unreferenced() -> set[str]:
    """Every function, alias, method and defaulted parameter of the package that no code in it references."""
    trees, reads, calls, handed_on = _scan()
    found = set()
    for qualified, name, fn, method in _definitions(trees):
        attr_only = method and fn.name != "__init__"
        if name not in reads["attr"] and (attr_only or name not in reads["name"]):
            found.add(qualified)
        if fn is None or name in handed_on:
            continue
        for param, position in _defaulted(fn, method):
            if not any(_passes(call, param, position) for call in calls.get(name, [])):
                found.add(f"{qualified}({param})")
    return found


def overridden_defaults() -> set[str]:
    """Every defaulted parameter of a name outside `journeynet.__all__` that each of
    its calls in the package sets, when there is a call and no other use."""
    trees, _, calls, handed_on = _scan()
    found = set()
    for qualified, name, fn, method in _definitions(trees):
        module, top = qualified.split(".")[:2]
        if fn is None or name in handed_on or not calls.get(name) or _exported(module, top):
            continue
        for param, position in _defaulted(fn, method):
            if all(_sets(call, param, position) for call in calls[name]):
                found.add(f"{qualified}({param})")
    return found


def _exported(module: str, top: str) -> bool:
    """Whether the module-level `top` of `journeynet.<module>` is one of `journeynet.__all__`."""
    obj = getattr(importlib.import_module(f"journeynet.{module}"), top)
    return top in journeynet.__all__ and getattr(journeynet, top) is obj


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` surely sets `param`: by keyword, or at argument `position` before any `*args`."""
    if any(k.arg == param for k in call.keywords):
        return True
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position is not None and position < min(starred, default=len(call.args))


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` may set `param` (at argument `position`, None for keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_way_in_has_a_caller_in_src_or_a_named_reason():
    found = unreferenced()
    unexplained = sorted(found - set(ALLOWED) - _bench_hooks())
    assert not unexplained, f"no src/ caller and no reason to stay: {unexplained}"
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"allowed without need, src/ now references them: {stale}"


def test_no_default_outside_the_api_that_every_src_call_overrides():
    found = sorted(overridden_defaults())
    assert not found, f"every src/ call sets these, so their defaults decide nothing: {found}"


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
