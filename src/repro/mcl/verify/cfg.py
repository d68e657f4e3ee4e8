"""Control-flow graphs and the dataflow core of the MCPL verifier.

A :class:`CFG` is built from a kernel's structured statement tree:

* one node per *atomic* statement (declaration, assignment, expression
  statement, return) plus one node per loop/branch *condition*,
* edges follow the structured control flow, including ``break`` /
  ``continue`` / ``return`` and loop back edges,
* ``foreach`` is modeled as a loop whose header defines the loop variable
  (its iterations may also execute zero times, so the header has an exit
  edge) — the *parallel* interpretation is handled separately by the race
  detector; for scalar dataflow the sequential reference semantics of the
  interpreter is the right model.

On top of the CFG this module provides the classic forward may-analysis of
**reaching definitions** via a worklist solver, and **def-use chains**
derived from it.  Both operate on *scalar* variables: MCPL array elements
are not tracked individually (array declarations count as initializing
definitions, array stores are never dead).

Scoping note: MCPL permits shadowing in nested blocks; like the semantic
analyzer's flat symbol table, the dataflow here identifies variables by
name.  Shadowed names (rare in kernels) merge conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo

__all__ = ["CFG", "CFGNode", "Definition", "build_cfg",
           "reaching_definitions", "def_use_chains"]


@dataclass
class Definition:
    """One definition site of a scalar variable."""

    def_id: int
    var: str
    node: int                 #: CFG node index (-1 for parameter pseudo-defs)
    line: int
    kind: str                 #: 'param' | 'decl' | 'assign' | 'loop'
    initialized: bool = True  #: False for `int x;` with no initializer
    stmt: Optional[ast.Stmt] = None


@dataclass
class CFGNode:
    """One CFG node: an atomic statement or a branch/loop condition."""

    index: int
    line: int = 0
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: scalar variables read at this node
    uses: Set[str] = field(default_factory=set)
    #: definitions generated at this node
    defs: List[Definition] = field(default_factory=list)


class CFG:
    """Control-flow graph of one kernel body."""

    def __init__(self, info: KernelInfo):
        self.info = info
        self.nodes: List[CFGNode] = []
        self.definitions: List[Definition] = []
        self.entry = self._new_node()
        self.exit = self._new_node()

    # -- construction helpers ----------------------------------------------
    def _new_node(self, line: int = 0) -> int:
        node = CFGNode(index=len(self.nodes), line=line)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def _add_def(self, node: int, var: str, line: int, kind: str,
                 initialized: bool = True,
                 stmt: Optional[ast.Stmt] = None) -> Definition:
        d = Definition(def_id=len(self.definitions), var=var, node=node,
                       line=line, kind=kind, initialized=initialized,
                       stmt=stmt)
        self.definitions.append(d)
        if node >= 0:
            self.nodes[node].defs.append(d)
        return d

    def is_scalar(self, name: str) -> bool:
        typ = self.info.symbols.get(name)
        return typ is not None and not typ.is_array


def _scalar_uses(expr: Optional[ast.Expr], cfg: CFG, out: Set[str]) -> None:
    """Collect scalar variable reads in an expression."""
    out.update(e.name for e in ast.walk(expr)
               if isinstance(e, ast.Var) and cfg.is_scalar(e.name))


class _Builder:
    """Threads the structured statement tree into CFG nodes and edges."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: (break-target, continue-target) stack for enclosing loops
        self.loop_stack: List[Tuple[int, int]] = []

    def build(self, body: ast.Stmt) -> None:
        tail = self._stmt(body, self.cfg.entry)
        if tail is not None:
            self.cfg._edge(tail, self.cfg.exit)

    # Returns the "fallthrough" node index, or None if control never falls
    # through (return/break/continue on every path).
    def _stmt(self, stmt: ast.Stmt, pred: Optional[int]) -> Optional[int]:
        cfg = self.cfg
        if pred is None:
            return None  # unreachable code: skip (semantics permits it)
        if isinstance(stmt, ast.Block):
            cur: Optional[int] = pred
            for s in stmt.stmts:
                cur = self._stmt(s, cur)
            return cur
        if isinstance(stmt, ast.VarDecl):
            node = cfg._new_node(stmt.line)
            cfg._edge(pred, node)
            assert stmt.type is not None
            for dim in stmt.type.dims:
                _scalar_uses(dim, cfg, cfg.nodes[node].uses)
            if stmt.type.is_array:
                cfg._add_def(node, stmt.name, stmt.line, "decl", True, stmt)
            else:
                _scalar_uses(stmt.init, cfg, cfg.nodes[node].uses)
                cfg._add_def(node, stmt.name, stmt.line, "decl",
                             stmt.init is not None, stmt)
            return node
        if isinstance(stmt, ast.Assign):
            node = cfg._new_node(stmt.line)
            cfg._edge(pred, node)
            uses = cfg.nodes[node].uses
            _scalar_uses(stmt.value, cfg, uses)
            target = stmt.target
            if isinstance(target, ast.Var):
                if stmt.op != "=":
                    uses.add(target.name)
                if cfg.is_scalar(target.name):
                    cfg._add_def(node, target.name, stmt.line, "assign",
                                 True, stmt)
            elif isinstance(target, ast.Index):
                for i in target.indices:
                    _scalar_uses(i, cfg, uses)
            return node
        if isinstance(stmt, ast.ExprStmt):
            node = cfg._new_node(stmt.line)
            cfg._edge(pred, node)
            _scalar_uses(stmt.expr, cfg, cfg.nodes[node].uses)
            return node
        if isinstance(stmt, ast.Return):
            node = cfg._new_node(stmt.line)
            cfg._edge(pred, node)
            _scalar_uses(stmt.value, cfg, cfg.nodes[node].uses)
            cfg._edge(node, cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                cfg._edge(pred, self.loop_stack[-1][0])
            return None
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                cfg._edge(pred, self.loop_stack[-1][1])
            return None
        if isinstance(stmt, ast.If):
            cond = cfg._new_node(stmt.line)
            cfg._edge(pred, cond)
            _scalar_uses(stmt.cond, cfg, cfg.nodes[cond].uses)
            join = cfg._new_node(stmt.line)  # empty join node
            assert stmt.then is not None
            then_tail = self._stmt(stmt.then, cond)
            if then_tail is not None:
                cfg._edge(then_tail, join)
            if stmt.orelse is not None:
                else_tail = self._stmt(stmt.orelse, cond)
                if else_tail is not None:
                    cfg._edge(else_tail, join)
            else:
                cfg._edge(cond, join)
            return join if cfg.nodes[join].preds else None
        if isinstance(stmt, ast.While):
            cond = cfg._new_node(stmt.line)
            cfg._edge(pred, cond)
            _scalar_uses(stmt.cond, cfg, cfg.nodes[cond].uses)
            after = cfg._new_node(stmt.line)
            cfg._edge(cond, after)
            self.loop_stack.append((after, cond))
            assert stmt.body is not None
            body_tail = self._stmt(stmt.body, cond)
            self.loop_stack.pop()
            if body_tail is not None:
                cfg._edge(body_tail, cond)
            return after
        if isinstance(stmt, ast.For):
            init_tail = pred
            if stmt.init is not None:
                init_tail = self._stmt(stmt.init, pred)
            cond = cfg._new_node(stmt.line)
            if init_tail is not None:
                cfg._edge(init_tail, cond)
            _scalar_uses(stmt.cond, cfg, cfg.nodes[cond].uses)
            after = cfg._new_node(stmt.line)
            cfg._edge(cond, after)
            # continue jumps to the step, which loops back to the condition.
            step_entry = cfg._new_node(stmt.line)  # pre-step join
            self.loop_stack.append((after, step_entry))
            assert stmt.body is not None
            body_tail = self._stmt(stmt.body, cond)
            self.loop_stack.pop()
            if body_tail is not None:
                cfg._edge(body_tail, step_entry)
            if cfg.nodes[step_entry].preds:
                step_tail = self._stmt(stmt.step, step_entry) \
                    if stmt.step is not None else step_entry
                if step_tail is not None:
                    cfg._edge(step_tail, cond)
            return after
        if isinstance(stmt, ast.Foreach):
            header = cfg._new_node(stmt.line)
            cfg._edge(pred, header)
            _scalar_uses(stmt.count, cfg, cfg.nodes[header].uses)
            cfg._add_def(header, stmt.var, stmt.line, "loop", True, stmt)
            after = cfg._new_node(stmt.line)
            cfg._edge(header, after)
            self.loop_stack.append((after, header))
            assert stmt.body is not None
            body_tail = self._stmt(stmt.body, header)
            self.loop_stack.pop()
            if body_tail is not None:
                cfg._edge(body_tail, header)
            return after
        raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover


def build_cfg(info: KernelInfo) -> CFG:
    """Build the CFG of a checked kernel, with parameter pseudo-definitions."""
    cfg = CFG(info)
    for p in info.kernel.params:
        cfg._add_def(-1, p.name, 0, "param", True, None)
    _Builder(cfg).build(info.kernel.body)
    return cfg


def reaching_definitions(cfg: CFG) -> List[Set[int]]:
    """IN sets of the classic reaching-definitions analysis, per node.

    ``result[n]`` is the set of definition ids that may reach the *entry* of
    node ``n``.  Parameter pseudo-definitions reach the CFG entry.
    """
    n_nodes = len(cfg.nodes)
    gen: List[Set[int]] = [set() for _ in range(n_nodes)]
    kill_vars: List[Set[str]] = [set() for _ in range(n_nodes)]
    defs_by_var: Dict[str, Set[int]] = {}
    for d in cfg.definitions:
        defs_by_var.setdefault(d.var, set()).add(d.def_id)
    for node in cfg.nodes:
        for d in node.defs:
            gen[node.index].add(d.def_id)
            kill_vars[node.index].add(d.var)

    entry_in: Set[int] = {d.def_id for d in cfg.definitions if d.node == -1}
    in_sets: List[Set[int]] = [set() for _ in range(n_nodes)]
    in_sets[cfg.entry] = set(entry_in)
    out_sets: List[Set[int]] = [set() for _ in range(n_nodes)]

    worklist = list(range(n_nodes))
    while worklist:
        n = worklist.pop()
        node = cfg.nodes[n]
        new_in: Set[int] = set(entry_in) if n == cfg.entry else set()
        for p in node.preds:
            new_in |= out_sets[p]
        in_sets[n] = new_in
        new_out = set(new_in)
        for var in kill_vars[n]:
            new_out -= defs_by_var[var]
        new_out |= gen[n]
        if new_out != out_sets[n]:
            out_sets[n] = new_out
            worklist.extend(node.succs)
    return in_sets


def def_use_chains(cfg: CFG, in_sets: List[Set[int]]
                   ) -> Dict[int, List[Tuple[int, str]]]:
    """Map each definition id to its uses ``(node index, variable)``.

    A node "uses" a definition ``d`` of variable ``v`` when it reads ``v``
    and ``d`` reaches the node's entry (``in_sets`` from
    :func:`reaching_definitions`).
    """
    chains: Dict[int, List[Tuple[int, str]]] = {
        d.def_id: [] for d in cfg.definitions}
    by_id = {d.def_id: d for d in cfg.definitions}
    for node in cfg.nodes:
        if not node.uses:
            continue
        for def_id in in_sets[node.index]:
            d = by_id[def_id]
            if d.var in node.uses:
                chains[def_id].append((node.index, d.var))
    return chains
