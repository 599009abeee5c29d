"""The parsed project every analysis in ``repro check`` shares.

One :class:`Project` per run: every ``*.py`` file under the requested
paths is read and ``ast.parse``-d exactly once, then indexed into

* :class:`ModuleInfo` — one parsed module with its import alias map
  (``np`` → ``numpy``, ``resolve_rng`` →
  ``repro.devtools.seeding.resolve_rng``, relative imports resolved
  against the module's package),
* :class:`FunctionInfo` / :class:`ClassInfo` — every top-level
  function, method and class with its parameter list, and
* name resolution across modules, chasing re-export hubs
  (``from .single import SingleChannelEngine`` in an ``__init__.py``)
  to the defining module and methods up a class's base chain.

The per-line rules and every interprocedural family read the same
trees.  Nothing is imported or executed: the model is purely syntactic,
so fixture corpora with deliberate bugs are safe to analyze.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .findings import file_allowed_rules

__all__ = [
    "FunctionNode",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Project",
    "build_project",
    "build_project_from_sources",
    "in_package",
    "module_name_for",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain; ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def in_package(module_name: str, packages: Sequence[str]) -> bool:
    """True when ``module_name`` is one of ``packages`` or inside one."""
    return any(
        module_name == package or module_name.startswith(package + ".")
        for package in packages
    )


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: fully qualified, e.g. ``repro.analysis.sweep.run_sweep``
    module: str
    name: str
    node: FunctionNode
    params: Tuple[str, ...]  #: positional + keyword params, ``self`` stripped
    is_method: bool = False
    class_name: Optional[str] = None

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition with its locally-spelled base names."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Rule IDs silenced for the whole file by ``# repro: allow-file[...]``.
    file_allowed: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self.file_allowed = file_allowed_rules(self.source)

    @property
    def package(self) -> str:
        """The package a relative import resolves against."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rpartition(".")[0]

    def line(self, line_no: int) -> str:
        """Source text of 1-based ``line_no`` (``""`` when out of range)."""
        return self.lines[line_no - 1] if 0 < line_no <= len(self.lines) else ""


def _params_of(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names)


def module_name_for(path: Path, root: Optional[Path] = None) -> str:
    """Dotted module name: under a ``repro`` package root when present,
    otherwise relative to the analysis root (fixture corpora), otherwise
    the bare file stem."""
    parts = list(path.parts)
    if "repro" in parts:
        names = parts[parts.index("repro"):]
    elif root is not None:
        try:
            names = list(path.relative_to(root).parts)
        except ValueError:
            names = [path.name]
    else:
        names = [path.name]
    names[-1] = Path(names[-1]).stem
    if names[-1] == "__init__" and len(names) > 1:
        names = names[:-1]
    return ".".join(names)


def _collect_imports(package: str, tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: climb ``level`` packages up.
                base_parts = package.split(".") if package else []
                climb = node.level - 1
                base_parts = base_parts[: len(base_parts) - climb] if climb else base_parts
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            if node.level and node.module:
                base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _index_module(info: ModuleInfo) -> None:
    """Populate imports, ``functions`` and ``classes`` (top level + bodies)."""
    info.imports = _collect_imports(info.package, info.tree)
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                qualname=f"{info.name}.{node.name}",
                module=info.name,
                name=node.name,
                node=node,
                params=_params_of(node),
            )
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{info.name}.{node.name}",
                module=info.name,
                name=node.name,
                node=node,
                bases=tuple(b for b in (_dotted(base) for base in node.bases) if b),
            )
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = _params_of(sub)
                    if params and params[0] in ("self", "cls"):
                        params = params[1:]
                    cls.methods[sub.name] = FunctionInfo(
                        qualname=f"{info.name}.{node.name}.{sub.name}",
                        module=info.name,
                        name=sub.name,
                        node=sub,
                        params=params,
                        is_method=True,
                        class_name=node.name,
                    )
            info.classes[node.name] = cls


@dataclass
class Project:
    """All parsed modules plus cross-module name resolution."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Every parsed file in discovery order (module names may collide
    #: across roots; the per-line rules still see each file).
    files: List[ModuleInfo] = field(default_factory=list)
    #: ``path: message (line N)`` for files that failed to parse.
    errors: List[str] = field(default_factory=list)

    def add(self, info: ModuleInfo) -> None:
        _index_module(info)
        self.files.append(info)
        self.modules[info.name] = info
        for fn in info.functions.values():
            self.functions[fn.qualname] = fn
        for cls in info.classes.values():
            self.classes[cls.qualname] = cls
            for meth in cls.methods.values():
                self.functions[meth.qualname] = meth

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, module: ModuleInfo, name: str) -> str:
        """Fully-qualify a local dotted name (``np.zeros`` → ``numpy.zeros``).

        Returns the input unchanged when the head is not a module-level
        binding (a local variable, builtin, …).
        """
        head, _, rest = name.partition(".")
        if head in module.functions or head in module.classes:
            base = f"{module.name}.{head}"
        elif head in module.imports:
            base = module.imports[head]
        else:
            return name
        return f"{base}.{rest}" if rest else base

    def _chase(self, qualified: str, table: Mapping[str, object]) -> Optional[str]:
        seen: Set[str] = set()
        while qualified not in table:
            if qualified in seen:
                return None
            seen.add(qualified)
            # ``pkg.attr`` where pkg is a module whose __init__ re-exports attr.
            mod_name, _, attr = qualified.rpartition(".")
            module = self.modules.get(mod_name)
            if module is None or attr not in module.imports:
                return None
            qualified = module.imports[attr]
        return qualified

    def lookup_function(self, qualified: str) -> Optional[FunctionInfo]:
        found = self._chase(qualified, self.functions)
        return self.functions[found] if found else None

    def lookup_class(self, qualified: str) -> Optional[ClassInfo]:
        found = self._chase(qualified, self.classes)
        return self.classes[found] if found else None

    def base_chain(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """``cls`` and its statically resolvable ancestors, breadth first."""
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            module = self.modules.get(current.module)
            for base in current.bases:
                parent = self.lookup_class(self.resolve(module, base) if module else base)
                if parent is not None:
                    queue.append(parent)

    def method_on(self, cls: ClassInfo, method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on a class or its statically-known base chain."""
        for current in self.base_chain(cls):
            if method in current.methods:
                return current.methods[method]
        return None

    def inherits(self, cls: ClassInfo, base_name: str) -> bool:
        """True when some ancestor of ``cls`` is spelled ``base_name``."""
        for current in self.base_chain(cls):
            module = self.modules.get(current.module)
            for base in current.bases:
                resolved = self.resolve(module, base) if module else base
                if resolved.rsplit(".", 1)[-1] == base_name:
                    return True
        return False


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Tuple[Path, Optional[Path]]]:
    """``(file, directory root)`` for every ``*.py`` under ``paths``."""
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                yield file, path
        elif path.suffix == ".py":
            yield path, None


def build_project(
    paths: Sequence[Union[str, Path]], root: Optional[Path] = None
) -> Project:
    """Parse every ``*.py`` under ``paths`` once; failures land in ``errors``."""
    base = root if root is not None else Path.cwd()
    project = Project()
    for file_path, dir_root in _iter_python_files(Path(p) for p in paths):
        try:
            display = str(file_path.relative_to(base))
        except ValueError:
            display = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            project.errors.append(f"{display}: {exc.msg} (line {exc.lineno})")
            continue
        project.add(
            ModuleInfo(
                name=module_name_for(file_path, dir_root),
                path=display,
                tree=tree,
                source=source,
            )
        )
    return project


def build_project_from_sources(sources: Mapping[str, str]) -> Project:
    """Build a project from ``{module_name: source}`` blobs (tests)."""
    project = Project()
    for name, source in sources.items():
        project.add(
            ModuleInfo(
                name=name,
                path=f"{name.replace('.', '/')}.py",
                tree=ast.parse(source, filename=f"<{name}>"),
                source=source,
            )
        )
    return project
