"""The static checks that CI runs beside the tests.

- No unused module-level import in src/ or tests/ (``__init__.py`` and
  ``conftest.py`` import names to re-export them).
- A module-level ``_helper`` in src/ is read somewhere in src/, and an
  undecorated public function or class somewhere in src/ or perfbench/;
  tests do not count.
- A parameter with a default, on a function in src/ or a field of a
  dataclass there, is passed by some call in src/ or perfbench/, and some
  call there leaves it out, or the default is never used.

``python tests/lint.py`` runs them from any directory, prints one line per
finding, with its path relative to the repository root, and exits 1 when it
finds any.  pytest does not collect this file: its name does not match
test_*.py.
"""

import ast
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports():
    """A module-level import none of the file's names reads."""
    out = []
    for path in sorted(p for d in ("src", "tests") for p in pathlib.Path(d).rglob("*.py")):
        if path.name in ("__init__.py", "conftest.py"):
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append("%s:%d: unused import %s" % (path, node.lineno, name))
    return out


def reads(paths):
    """The names the files read: a name, an attribute, or a name imported
    from hecke_bose."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                out.add(getattr(node, "id", getattr(node, "attr", None)))
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("hecke_bose")):
                out.update(alias.name for alias in node.names)
    return out


def dead_code(src, bench):
    """A private helper src/ never reads, and an undecorated public function or
    class neither src/ nor perfbench/ reads."""
    out = []
    in_src = reads(src)
    in_bench = in_src | reads(bench)
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("__")):
                continue
            if node.name.startswith("_") and node.name not in in_src:
                out.append("%s:%d: private helper %s is never read in src/"
                           % (path, node.lineno, node.name))
            elif (not node.name.startswith("_") and not node.decorator_list
                    and node.name not in in_bench):
                out.append("%s:%d: %s is never read in src/ or perfbench/"
                           % (path, node.lineno, node.name))
    return out


def unused_defaults(src, bench):
    """A default that no call in src/ or perfbench/ overrides, or that every
    call there overrides.  A call passes a parameter by keyword, or by
    position at or past its slot, and a call with *args or **kwargs passes
    every slot; an __init__ or a dataclass is called by its class name, and a
    method slot skips self or cls."""
    out = []
    calls = {}
    for path in src + bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    for path in src:
        tree = ast.parse(path.read_text())
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                fields = [f for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                name = node.name
                knobs = [(slot, f.target.id) for slot, f in enumerate(fields) if f.value]
            elif isinstance(node, ast.FunctionDef):
                name = node.name
                if node.name == "__init__" and id(node) in owner:
                    name = owner[id(node)]
                args = node.args.posonlyargs + node.args.args
                decorators = [getattr(d, "id", None) for d in node.decorator_list]
                if id(node) in owner and "staticmethod" not in decorators:
                    args = args[1:]
                knobs = [(slot, a.arg) for slot, a in enumerate(args)]
                knobs = knobs[len(args) - len(node.args.defaults):]
                knobs += [(None, a.arg)
                          for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
            else:
                continue
            for slot, arg in knobs:
                sites = calls.get(name, [])
                passed = [arg in [kw.arg for kw in call.keywords]
                          or slot is not None and len(call.args) > slot
                          for call in sites]
                spread = [any(isinstance(a, ast.Starred) for a in call.args)
                          or None in [kw.arg for kw in call.keywords]
                          for call in sites]
                if not any(passed):
                    out.append("%s:%d: %s(%s=...) is never passed in src/ or perfbench/"
                               % (path, node.lineno, name, arg))
                elif all(p or s for p, s in zip(passed, spread)):
                    out.append("%s:%d: %s(%s=...) is passed by every call in src/ or "
                               "perfbench/, so its default is never used"
                               % (path, node.lineno, name, arg))
    return out


def main():
    os.chdir(ROOT)
    src = sorted(pathlib.Path("src").rglob("*.py"))
    bench = sorted(pathlib.Path("perfbench").rglob("*.py"))
    found = unused_imports() + dead_code(src, bench) + unused_defaults(src, bench)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
