"""The static prong of the determinism sanitizer: AST lints over the runtime.

Every load-bearing subsystem of the reproduction rests on the invariant
that seeded event streams are byte-identical.  This module checks the
*runtime source itself* for the hazards that silently break it:

========  =========================================================
code      meaning
========  =========================================================
REP101    process-global / unseeded randomness
REP102    wall-clock read outside whitelisted bench/CLI modules
REP103    unordered set/dict iteration reaching an ordering-
          sensitive sink (taint walk)
REP104    ``id()``/``hash()`` in comparisons or sort keys
REP105    mutable default argument
REP106    ``os.environ`` read in a hot runtime path
========  =========================================================

The REP103 *taint walk* is intraprocedural and statement-ordered: set
expressions (literals, ``set()``/``frozenset()`` calls, comprehensions,
set operators) are unordered *sources*; taint propagates through
assignments, ``list()``/``tuple()``/``iter()`` wrappers, comprehensions
and dict views over tainted receivers; ``sorted()``/``min()``/``max()``
and order-insensitive reductions (``sum``, ``len``, ``any``, ``all``)
*sanitize*.  A finding fires when a tainted value is passed to an
ordering-sensitive *sink* (``heapq.heappush``, ``.push()``,
``.schedule()``, ``env.process()``, ``.emit()``, ``.send()``, …) or when
a sink is called inside a ``for`` loop over a tainted iterable.  Plain
dict iteration is **not** a source — CPython dicts are insertion-ordered
— but dicts built from tainted data (``DictComp`` over a set,
``dict.fromkeys(a_set)``) carry the taint into their views.

Justified hazards are acknowledged inline (``# analyze: ignore[REP102]
why``), the one suppression path; see docs/analyze.md.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding, filter_suppressed, scan_suppressions

__all__ = [
    "WALLCLOCK_OK",
    "ENVIRON_HOT",
    "analyze_source",
    "analyze_file",
    "analyze_tree",
    "source_root",
    "wallclock_allowed",
    "environ_is_hot",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: functions of the process-global ``random`` module (REP101) — using any
#: of them couples the run to interpreter-global state
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes", "seed",
})

#: constructors of the seedable numpy generator API — fine when seeded
_NUMPY_SEEDABLE = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator", "RandomState",
})

#: wall-clock reads (REP102), by resolved dotted name
_WALLCLOCK_FUNCS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: fully-qualified sinks (REP103)
_QUALIFIED_SINKS = frozenset({
    "heapq.heappush", "heapq.heappushpop", "heapq.heapify",
})

#: method-name sinks (REP103): calls that schedule, enqueue or publish in
#: argument order, including the engine's own queue entry points and an
#: endpoint's receiver ``arm``
_METHOD_SINKS = frozenset({
    "push", "send", "emit", "schedule", "process", "dispatch",
    "broadcast", "put", "succeed", "submit",
    "_schedule", "_schedule_front", "arm",
})

#: sanitizers: order-insensitive consumers / explicit ordering
_SANITIZERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "frozenset.issubset",
})

#: taint-propagating wrappers: preserve the (nondeterministic) order
_ORDER_PRESERVING = frozenset({
    "list", "tuple", "iter", "reversed", "enumerate", "zip", "map", "filter",
})

#: mutable-default constructors (REP105)
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "bytearray",
})


# Whitelists are :mod:`fnmatch` globs over *dotted module names*
# (``repro.sweep.cli``).  A source with no known module name (a standalone
# file or snippet) is treated as hot and non-whitelisted, so every rule
# applies — that is what the golden tests rely on.

#: modules allowed to read the wall clock (REP102): the CLI entry points
#: and the bench records, which genuinely report host time
WALLCLOCK_OK: Tuple[str, ...] = (
    "repro.__main__",
    "repro.*.cli",
    "repro.*.bench",
    "benchmarks.*",
)
#: modules whose ``os.environ`` reads are hot-path hazards (REP106);
#: everything else (CLIs, the sweep cache resolving its default dir) may
#: read ambient configuration
ENVIRON_HOT: Tuple[str, ...] = (
    "repro.sim.*", "repro.satin.*", "repro.core.*",
    "repro.devices.*", "repro.cluster.*", "repro.serve.*",
    "repro.obs.*", "repro.apps.*",
)


def _matches(module: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch.fnmatchcase(module, pat) for pat in patterns)


def wallclock_allowed(module: Optional[str]) -> bool:
    """Whether ``module`` may read the wall clock (REP102 whitelist)."""
    return module is not None and _matches(module, WALLCLOCK_OK)


def environ_is_hot(module: Optional[str]) -> bool:
    """Whether an ``os.environ`` read in ``module`` is a REP106 hazard."""
    return module is None or _matches(module, ENVIRON_HOT)


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chain as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Scope:
    """Per-function (or module) taint state for the REP103 walk."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.tainted: Set[str] = set(parent.tainted) if parent else set()
        #: lines of ``for`` loops over tainted iterables we are inside of
        self.loop_stack: List[int] = []


class _Analyzer(ast.NodeVisitor):
    def __init__(self, module: Optional[str]):
        self.module = module
        self.findings: List[Finding] = []
        #: alias -> canonical dotted module/class path ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: name -> canonical dotted function path ("shuffle" -> "random.shuffle")
        self.functions: Dict[str, str] = {}
        self.scope = _Scope()

    # -- bookkeeping -------------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str,
                hint: Optional[str] = None) -> None:
        self.findings.append(Finding(
            code=code, line=getattr(node, "lineno", 1), message=message,
            hint=hint, origin=self.module))

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a call target, through import aliases."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        if not rest and head in self.functions:
            return self.functions[head]
        return dotted

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0])
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                bound = alias.asname or alias.name
                # ``from datetime import datetime`` binds a class usable
                # like a module prefix; track both maps.
                self.modules.setdefault(bound, target)
                self.functions[bound] = target
        self.generic_visit(node)

    # -- function definitions (REP105 + new taint scope) --------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if self._is_mutable_literal(default):
                self._report(
                    "REP105", default,
                    "mutable default argument "
                    f"({ast.unparse(default)}) is shared across calls",
                    hint="default to None and create the object inside")

    def _is_mutable_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = self._resolve(node.func) or ""
            return name.rpartition(".")[2] in _MUTABLE_CTORS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _handle_function(self, node) -> None:
        self._check_defaults(node)
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]:
            self.visit(default)
        outer, self.scope = self.scope, _Scope(self.scope)
        # set-annotated parameters enter the function tainted
        for arg in list(node.args.args) + list(node.args.kwonlyargs) \
                + list(node.args.posonlyargs):
            if arg.annotation is not None and \
                    self._annotation_is_set(arg.annotation):
                self.scope.tainted.add(arg.arg)
        for stmt in node.body:
            self.visit(stmt)
        self.scope = outer

    @staticmethod
    def _annotation_is_set(node: ast.AST) -> bool:
        base = node.value if isinstance(node, ast.Subscript) else node
        dotted = _dotted(base) or ""
        return dotted.rpartition(".")[2] in ("set", "Set", "frozenset",
                                             "FrozenSet", "AbstractSet",
                                             "MutableSet")

    # -- taint: sources and propagation --------------------------------------
    def _is_unordered(self, node: ast.AST) -> bool:
        """Does ``node`` evaluate to an unordered (or taint-carrying) value?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.scope.tainted
        if isinstance(node, ast.IfExp):
            return self._is_unordered(node.body) or \
                self._is_unordered(node.orelse)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self._is_unordered(node.left) or \
                self._is_unordered(node.right)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return any(self._is_unordered(gen.iter)
                       for gen in node.generators)
        if isinstance(node, ast.Starred):
            return self._is_unordered(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            name = self._resolve(func)
            tail = (name or "").rpartition(".")[2]
            if tail in ("set", "frozenset"):
                return True
            if name in _SANITIZERS or tail in _SANITIZERS:
                return False
            if tail in _ORDER_PRESERVING:
                return any(self._is_unordered(a) for a in node.args)
            if isinstance(func, ast.Attribute):
                recv = func.value
                method = func.attr
                if self._is_unordered(recv):
                    # views, copies and set algebra over tainted receivers
                    if method in ("keys", "values", "items", "copy", "pop",
                                  "union", "difference", "intersection",
                                  "symmetric_difference"):
                        return True
                if method == "fromkeys" and node.args and \
                        self._is_unordered(node.args[0]):
                    return True
            return False
        return False

    # -- taint: sinks --------------------------------------------------------
    def _sink_name(self, node: ast.Call) -> Optional[str]:
        name = self._resolve(node.func)
        if name in _QUALIFIED_SINKS:
            return name
        tail = (name or "").rpartition(".")[2]
        if tail in ("heappush", "heappushpop", "heapify"):
            return tail
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _METHOD_SINKS:
            return node.func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng(node)
        self._check_wallclock(node)
        self._check_environ_call(node)
        self._check_sort_keys(node)
        sink = self._sink_name(node)
        if sink is not None:
            tainted_arg = next(
                (a for a in node.args if self._is_unordered(a)), None)
            if tainted_arg is not None:
                self._report(
                    "REP103", node,
                    f"unordered value ({ast.unparse(tainted_arg)}) reaches "
                    f"ordering-sensitive sink {sink}()",
                    hint="impose an order first, e.g. sorted(...)")
            elif self.scope.loop_stack:
                self._report(
                    "REP103", node,
                    f"ordering-sensitive sink {sink}() called inside "
                    f"iteration over an unordered set/dict "
                    f"(loop at line {self.scope.loop_stack[-1]})",
                    hint="iterate a sorted(...) copy instead")
        # track list mutations inside unordered loops: the list inherits
        # the nondeterministic order
        if self.scope.loop_stack and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("append", "add", "extend", "insert") \
                and isinstance(node.func.value, ast.Name):
            self.scope.tainted.add(node.func.value.id)
        self.generic_visit(node)

    # -- statements driving the taint state ----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        tainted = self._is_unordered(node.value)
        for target in node.targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    if tainted:
                        self.scope.tainted.add(name_node.id)
                    else:
                        self.scope.tainted.discard(name_node.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if (node.value is not None and self._is_unordered(node.value)) \
                    or (node.value is None
                        and self._annotation_is_set(node.annotation)):
                self.scope.tainted.add(node.target.id)
            else:
                self.scope.tainted.discard(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and \
                self._is_unordered(node.value):
            self.scope.tainted.add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        iter_tainted = self._is_unordered(node.iter)
        self.visit(node.iter)
        if iter_tainted:
            self.scope.loop_stack.append(node.lineno)
        for stmt in node.body:
            self.visit(stmt)
        if iter_tainted:
            self.scope.loop_stack.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # comprehensions over tainted iterables are handled as expressions
        # (_is_unordered); nothing statement-level to do here
        self.generic_visit(node)

    # -- REP101: process-global randomness -----------------------------------
    def _check_rng(self, node: ast.Call) -> None:
        name = self._resolve(node.func)
        if name is None:
            return
        if name.startswith("random."):
            tail = name[len("random."):]
            if tail in _GLOBAL_RANDOM_FUNCS:
                self._report(
                    "REP101", node,
                    f"call to the process-global RNG: random.{tail}()",
                    hint="use a seeded random.Random(seed) instance")
                return
            if tail == "SystemRandom":
                self._report("REP101", node,
                             "random.SystemRandom() is entropy-backed and "
                             "never reproducible",
                             hint="use a seeded random.Random(seed)")
                return
            if tail == "Random" and not node.args and not node.keywords:
                self._report("REP101", node,
                             "random.Random() without a seed draws from "
                             "OS entropy",
                             hint="pass an explicit seed")
                return
        if name.startswith("numpy.random.") or name.startswith("np.random."):
            tail = name.rpartition(".")[2]
            if tail not in _NUMPY_SEEDABLE:
                self._report(
                    "REP101", node,
                    f"legacy global numpy RNG: numpy.random.{tail}()",
                    hint="use numpy.random.default_rng(seed)")
                return
            if tail == "default_rng" and not node.args and not node.keywords:
                self._report("REP101", node,
                             "numpy.random.default_rng() without a seed "
                             "draws from OS entropy",
                             hint="pass an explicit seed")

    # -- REP102: wall clock ---------------------------------------------------
    def _check_wallclock(self, node: ast.Call) -> None:
        if wallclock_allowed(self.module):
            return
        name = self._resolve(node.func)
        if name in _WALLCLOCK_FUNCS:
            self._report(
                "REP102", node,
                f"wall-clock read: {name}()",
                hint="use the simulation clock (env.now) or accept an "
                     "injected clock callable")

    # -- REP106: os.environ ---------------------------------------------------
    def _check_environ_call(self, node: ast.Call) -> None:
        if not environ_is_hot(self.module):
            return
        name = self._resolve(node.func)
        if name == "os.getenv":
            self._report("REP106", node,
                         "os.getenv() read in a hot runtime path",
                         hint="thread configuration through the config "
                              "object instead of ambient process state")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if environ_is_hot(self.module):
            name = self._resolve(node)
            if name == "os.environ" or (
                    name is not None and name.startswith("os.environ.")):
                self._report("REP106", node,
                             "os.environ read in a hot runtime path",
                             hint="thread configuration through the config "
                                  "object instead of ambient process state")
                return  # do not descend: one finding per access
        self.generic_visit(node)

    # -- REP104: identity-based ordering --------------------------------------
    def _contains_identity_call(self, node: ast.AST) -> Optional[ast.Call]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id in ("id", "hash") \
                    and sub.func.id not in self.functions:
                return sub
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(not isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot,
                                   ast.In, ast.NotIn))
               for op in node.ops):
            for operand in [node.left] + list(node.comparators):
                call = self._contains_identity_call(operand)
                if call is not None:
                    self._report(
                        "REP104", call,
                        f"{call.func.id}() used in an ordering comparison: "
                        "CPython object identity varies across runs",
                        hint="compare a stable attribute (ids you assign, "
                             "names, sequence numbers)")
                    break
        self.generic_visit(node)

    def _check_sort_keys(self, node: ast.Call) -> None:
        name = self._resolve(node.func) or ""
        tail = name.rpartition(".")[2]
        if tail not in ("sorted", "sort", "min", "max"):
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            call = self._contains_identity_call(value)
            if call is None and isinstance(value, ast.Name) and \
                    value.id in ("id", "hash"):
                call = node
            if call is not None:
                self._report(
                    "REP104", kw.value,
                    f"{tail}() key uses object identity "
                    "(id()/hash()): ordering varies across runs",
                    hint="key on a stable attribute instead")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def source_root() -> pathlib.Path:
    """The installed ``repro`` package directory (default analysis root)."""
    return pathlib.Path(__file__).resolve().parents[1]


def analyze_source(source: str, *, module: Optional[str] = None,
                   filename: str = "<source>") -> List[Finding]:
    """All REP1xx findings for one Python source, suppression-filtered.

    ``module`` is the dotted module name used for whitelist decisions and
    finding origins; ``None`` (a standalone snippet) applies every rule.
    Raises :class:`SyntaxError` for source that does not parse.
    """
    tree = ast.parse(source, filename=filename)
    analyzer = _Analyzer(module=module)
    analyzer.visit(tree)
    findings = filter_suppressed(analyzer.findings,
                                 scan_suppressions(source))
    return sorted(findings, key=Finding.sort_key)


def _module_name(path: pathlib.Path, root: pathlib.Path) -> Optional[str]:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = (root.name,) + rel.parts[:-1]
    stem = rel.parts[-1][:-3] if rel.parts[-1].endswith(".py") \
        else rel.parts[-1]
    if stem != "__init__":
        parts = parts + (stem,)
    return ".".join(parts)


def analyze_file(path: pathlib.Path, *,
                 root: Optional[pathlib.Path] = None) -> List[Finding]:
    """Findings for one file; the module name is derived relative to
    ``root`` (default: the installed ``repro`` package)."""
    root = root if root is not None else source_root()
    module = _module_name(path, root)
    return analyze_source(path.read_text(), module=module,
                          filename=str(path))


def analyze_tree(root: Optional[pathlib.Path] = None) -> List[Finding]:
    """Findings for every ``*.py`` under ``root``, suppression-filtered.

    Files are visited in sorted order so output is stable.
    """
    root = root if root is not None else source_root()
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(analyze_file(path, root=root))
    return sorted(findings, key=Finding.sort_key)
