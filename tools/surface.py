"""Count the size of one checkout's public surface, to compare two checkouts.

Usage: python3 tools/surface.py SRC

SRC is a checkout of this repository. The script imports the package from
SRC/src, exits 2 if SRC holds none or the import finds another, and prints
one JSON object:

- "lines": source lines (newlines, as `wc -l` counts them) per module of
  SRC/src/ewa_agg, and their "total";
- "code_lines": the same count without blank lines, comment lines and
  docstrings (of the module, its classes and its functions), so that trimmed
  prose does not read as deleted code;
- "imports": the top-level modules that SRC/src/ewa_agg imports from outside
  the package (standard library included), sorted;
- "private_imports": per module, the private names (`_`-prefixed) and
  UPPER-case constants it takes from each other module of the package, by
  `from .x import _y` or as `x._y` / `x.CONST` on a module `from . import x`
  binds, sorted; a module that takes none is left out;
- "exports": len(ewa_agg.__all__);
- "extension_keys": the CLI's config keys beyond the experiment's own;
- "environment": the environment variables the package reads, found in its
  source as os.environ.get / os.getenv / os.environ[...] arguments (a name
  bound to a string constant at module level is resolved);
- "keyword_defaults": the parameters with a default value, summed over the
  exported callables and the public methods of the exported classes (a
  function reached through several classes counts once);
- "family_methods": per family tag of ewa_agg.noise.FAMILIES, the methods its
  class body defines itself (functions, static methods, class methods and
  properties), so the size of each family's contract can be compared.
"""

import ast
import inspect
import io
import json
import sys
import tokenize
from pathlib import Path


_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_lines(source):
    """The lines a token of code touches, less the lines of every docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs)


def _imports(source):
    """The top-level modules an absolute import in source names, less the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - {"ewa_agg"}


def _package_module(node):
    """The package module an ImportFrom takes from, "" for the package itself, None for a
    module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "ewa_agg" or node.module.startswith("ewa_agg."):
        return node.module.partition(".")[2]
    return None


def _private(name):
    return name.startswith("_") or name.isupper()


def _private_imports(source):
    """Per package module, the sorted private names and UPPER-case constants source takes
    from it, by name in an import or as an attribute of the module an import binds."""
    taken, modules = {}, {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (module := _package_module(node)) is None:
            continue
        for alias in node.names:
            if not module:  # from . import x: x is a module of the package
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                taken.setdefault(module, set()).add(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ):
            taken.setdefault(modules[node.value.id], set()).add(node.attr)
    return {module: sorted(names) for module, names in sorted(taken.items())}


def _env_reads(path):
    tree = ast.parse(path.read_text())
    consts = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and isinstance(node.value.value, str)
    }
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            name = ast.unparse(node.func)
            if name in ("os.environ.get", "os.getenv"):
                keys.append(node.args[0])
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
            keys.append(node.slice)
    out = []
    for key in keys:
        if isinstance(key, ast.Constant):
            out.append(key.value)
        elif isinstance(key, ast.Name):
            out.append(consts.get(key.id, key.id))
    return out


def _defaults(fn):
    params = inspect.signature(fn).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def _keyword_defaults(package):
    seen, total = set(), 0
    for name in package.__all__:
        obj = getattr(package, name)
        if not callable(obj):
            continue
        members = [obj]
        if inspect.isclass(obj):
            for klass in obj.__mro__[:-1]:  # not object
                for attr, raw in vars(klass).items():
                    if attr.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        members.append(fn)
        for fn in members:
            if fn not in seen:
                seen.add(fn)
                total += _defaults(fn)
    return total


def _own_methods(cls):
    kinds = (staticmethod, classmethod, property)
    return sum(inspect.isfunction(raw) or isinstance(raw, kinds) for raw in vars(cls).values())


def main(argv):
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    init = src / "ewa_agg" / "__init__.py"
    if not init.is_file():
        print(f"{init} is missing: {argv[1]} is not a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ewa_agg
    from ewa_agg import cli
    from ewa_agg.noise import FAMILIES

    if Path(ewa_agg.__file__).resolve().parent != src / "ewa_agg":
        print(f"ewa_agg was imported from {ewa_agg.__file__}, not from {src}", file=sys.stderr)
        return 2

    modules = sorted((src / "ewa_agg").glob("*.py"))
    lines = {path.stem: path.read_bytes().count(b"\n") for path in modules}
    lines["total"] = sum(lines.values())
    code_lines = {path.stem: _code_lines(path.read_text()) for path in modules}
    code_lines["total"] = sum(code_lines.values())
    environment = sorted({key for path in modules for key in _env_reads(path)})
    doc = {
        "lines": lines,
        "code_lines": code_lines,
        "imports": sorted(set().union(*(_imports(path.read_text()) for path in modules))),
        "private_imports": {
            path.stem: taken for path in modules if (taken := _private_imports(path.read_text()))
        },
        "exports": len(ewa_agg.__all__),
        "extension_keys": list(cli._EXTENSION_KEYS),
        "environment": environment,
        "keyword_defaults": _keyword_defaults(ewa_agg),
        "family_methods": {family: _own_methods(cls) for family, cls in FAMILIES.items()},
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
