"""AST node definitions for MCPL kernels, and their one traversal.

Nodes carry the source line for diagnostics.  Array types record their
dimension *expressions* (``float[n,m]``), because MCPL arrays keep track of
their sizes (Sec. II-B) — the compiler uses these both to check index arity
and to derive work-group configurations and transfer sizes.

:func:`walk` enumerates a subtree from one table of each node class's
children.  Analyses that only visit nodes or collect names filter it (or
:func:`names`) instead of recursing themselves; evaluators, printers and
interpreters keep their per-node dispatch.  :func:`conjuncts` splits a
loop condition into the operands of its ``&&`` chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Union

__all__ = [
    "Type", "Param", "Kernel",
    "Expr", "IntLit", "FloatLit", "Var", "Index", "Binary", "Unary", "Call",
    "Stmt", "Block", "VarDecl", "Assign", "Foreach", "For", "If", "While",
    "Return", "Break", "Continue", "ExprStmt",
    "Node", "walk", "names", "conjuncts",
]


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------

@dataclass
class Type:
    """``int``, ``float``, ``void``, or an array thereof with dim exprs."""

    base: str                       #: 'int' | 'float' | 'void'
    dims: List["Expr"] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def element_bytes(self) -> int:
        return 4  # both int and float are 32-bit in MCPL/OpenCL

    def __str__(self) -> str:
        if not self.dims:
            return self.base
        return f"{self.base}[{','.join(str(d) for d in self.dims)}]"


@dataclass
class Param:
    type: Type
    name: str


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class FloatLit(Expr):
    value: float = 0.0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class Var(Expr):
    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class Index(Expr):
    """Multi-dimensional array access ``a[i,k]``."""

    array: str = ""
    indices: List[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.array}[{','.join(str(i) for i in self.indices)}]"


@dataclass
class Binary(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = field(default=0, compare=False)


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Local declaration, optionally with a memory-space qualifier.

    Optimized GPU kernels declare staging tiles as
    ``local float[TS,TS] tile;`` — the qualifier names a memory space of the
    target hardware description.
    """

    type: Optional[Type] = None
    name: str = ""
    qualifier: Optional[str] = None   #: 'local' | 'private' | 'const' | None
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: Optional[Union[Var, Index]] = None
    op: str = "="                     #: '=', '+=', '-=', '*=', '/=', '%='
    value: Optional[Expr] = None


@dataclass
class Foreach(Stmt):
    """``foreach (int i in count unit) body`` — MCPL's parallel loop.

    ``unit`` names a parallelism abstraction of the kernel's hardware
    description (``threads`` on level perfect, ``blocks``/``threads``/
    ``vectors`` deeper down).
    """

    var: str = ""
    count: Optional[Expr] = None
    unit: str = ""
    body: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None       #: VarDecl or Assign
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None       #: Assign
    body: Optional[Stmt] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


# --------------------------------------------------------------------------
# traversal
# --------------------------------------------------------------------------

Node = Union[Expr, Stmt]

#: node class -> its child nodes in source order (``None`` for an absent
#: one); classes not listed have no children
_CHILDREN: Dict[type, Callable[[Any], Sequence[Optional[Node]]]] = {
    Index: lambda n: n.indices,
    Binary: lambda n: (n.left, n.right),
    Unary: lambda n: (n.operand,),
    Call: lambda n: n.args,
    Block: lambda n: n.stmts,
    VarDecl: lambda n: (*(n.type.dims if n.type is not None else ()), n.init),
    Assign: lambda n: (n.target, n.value),
    Foreach: lambda n: (n.count, n.body),
    For: lambda n: (n.init, n.cond, n.step, n.body),
    If: lambda n: (n.cond, n.then, n.orelse),
    While: lambda n: (n.cond, n.body),
    Return: lambda n: (n.value,),
    ExprStmt: lambda n: (n.expr,),
}


def walk(node: Optional[Node]) -> Iterator[Node]:
    """Every expression and statement of ``node``'s subtree, in pre-order.

    Children come in source order: a declaration's dims, then its init; an
    assignment's target, then its value; a ``for``'s init, cond and step,
    then its body.  Absent children are skipped, so ``walk(None)`` yields
    nothing.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        yield current
        children = _CHILDREN.get(type(current))
        if children is not None:
            stack.extend(reversed(children(current)))


def names(node: Optional[Node]) -> Set[str]:
    """Every variable and every indexed array that ``node``'s subtree names."""
    out: Set[str] = set()
    for n in walk(node):
        if isinstance(n, Var):
            out.add(n.name)
        elif isinstance(n, Index):
            out.add(n.array)
    return out


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """The operands of ``expr``'s top-level ``&&`` chain, left to right:
    ``[expr]`` when it is no conjunction, and nothing for ``None``."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "&&":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

@dataclass
class Kernel:
    """A complete MCPL kernel: ``<level> <type> <name>(<params>) { ... }``."""

    level: str
    return_type: Type
    name: str
    params: List[Param]
    body: Block

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    @property
    def array_params(self) -> List[Param]:
        return [p for p in self.params if p.type.is_array]

    @property
    def scalar_params(self) -> List[Param]:
        return [p for p in self.params if not p.type.is_array]
