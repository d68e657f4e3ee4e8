"""Symbolic polynomials over kernel variables — the verifier's little algebra.

Subscript analysis (race detection) and bounds analysis (interval lints) both
need to compare expressions like ``(w + 1) * chunk`` and ``w * chunk + chunk``
for equality, extract the coefficient of a loop variable, or prove that a
difference is non-negative.  MCPL index expressions are built from integer
arithmetic on loop variables and scalar parameters, so a *polynomial with
rational coefficients over named symbols* is exactly the right normal form.

Operations the verifier cannot express polynomially (division, modulo,
builtin calls, array loads) are folded into *opaque atoms*: a fresh symbol
named by the printed source expression.  Two occurrences of the same
expression — e.g. the ``(np + 239) / 240`` chunk size inlined at its
definition and at its use — normalize to the same atom, which is what lets
the dependence test prove that Xeon-Phi-style chunked loops partition their
index range.

Symbols are assumed to denote *non-negative integers* (loop variables and
size parameters), which justifies the sufficient non-negativity test
"every coefficient is >= 0".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from ..mcpl import ast

__all__ = ["Poly", "expr_to_poly", "ATOM_PREFIX"]

#: prefix marking opaque atoms (non-polynomial subexpressions)
ATOM_PREFIX = "@"

#: a monomial is a sorted tuple of symbol names (with repetition for powers)
Monomial = Tuple[str, ...]


class Poly:
    """An immutable polynomial: ``{monomial: coefficient}``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    clean[mono] = Fraction(coeff)
        self.terms = clean

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(value: object) -> "Poly":
        return Poly({(): Fraction(value)})  # type: ignore[arg-type]

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({(name,): Fraction(1)})

    # -- queries ------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Optional[Fraction]:
        """The value if constant, else ``None``."""
        if self.is_constant:
            return self.terms.get((), Fraction(0))
        return None

    def symbols(self) -> Iterable[str]:
        for mono in self.terms:
            yield from mono

    def mentions(self, name: str) -> bool:
        return any(name in mono for mono in self.terms)

    def coefficient_of(self, name: str) -> "Poly":
        """Coefficient polynomial of ``name`` — only for degree <= 1 in it.

        ``coefficient_of('w')`` on ``w * chunk + chunk`` is ``chunk``.
        Raises :class:`ValueError` if ``name`` appears with degree >= 2.
        """
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            k = mono.count(name)
            if k == 0:
                continue
            if k > 1:
                raise ValueError(f"degree of {name!r} exceeds 1 in {self}")
            rest = tuple(s for s in mono if s != name)
            out[rest] = out.get(rest, Fraction(0)) + coeff
        return Poly(out)

    def is_nonnegative(self) -> bool:
        """Sufficient test: every coefficient >= 0 (symbols are >= 0)."""
        return all(coeff >= 0 for coeff in self.terms.values())

    def is_nonpositive(self) -> bool:
        return all(coeff <= 0 for coeff in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - coeff
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    def scale(self, factor: object) -> "Poly":
        f = Fraction(factor)  # type: ignore[arg-type]
        return Poly({m: c * f for m, c in self.terms.items()})

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``name`` (any degree) by a polynomial."""
        out = Poly()
        for mono, coeff in self.terms.items():
            term = Poly({tuple(s for s in mono if s != name): coeff})
            for _ in range(mono.count(name)):
                term = term * replacement
            out = out + term
        return out

    # -- structural equality ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            sym = "*".join(mono) if mono else ""
            if sym and coeff == 1:
                parts.append(sym)
            elif sym:
                parts.append(f"{coeff}*{sym}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts)


def _atom(expr: ast.Expr) -> Poly:
    """Fold a non-polynomial expression into an opaque (but stable) symbol."""
    return Poly.var(ATOM_PREFIX + str(expr))


def expr_to_poly(expr: ast.Expr,
                 substitutions: Optional[Dict[str, Poly]] = None) -> Poly:
    """Normalize an MCPL expression into a :class:`Poly`.

    ``substitutions`` maps variable names to the polynomial of their (single
    reaching) definition — used to inline recovered indices such as
    ``int i = b * 256 + t;`` before subscripts are compared.

    The function is total: anything non-polynomial (division, modulo, calls,
    array loads) becomes an opaque atom keyed by its printed form, so equal
    source expressions stay comparable.
    """
    subs = substitutions or {}
    if isinstance(expr, ast.IntLit):
        return Poly.const(expr.value)
    if isinstance(expr, ast.FloatLit):
        return Poly.const(Fraction(expr.value).limit_denominator(10**9))
    if isinstance(expr, ast.Var):
        if expr.name in subs:
            return subs[expr.name]
        return Poly.var(expr.name)
    if isinstance(expr, ast.Unary):
        if expr.op == "-" and expr.operand is not None:
            return -expr_to_poly(expr.operand, subs)
        return _atom(expr)
    if isinstance(expr, ast.Binary):
        assert expr.left is not None and expr.right is not None
        if expr.op in ("+", "-", "*"):
            left = expr_to_poly(expr.left, subs)
            right = expr_to_poly(expr.right, subs)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right
        if expr.op == "/":
            # Exact constant division stays polynomial; `x / c` with a
            # constant divisor divides every coefficient only when the
            # result is provably exact (single-term multiples). Otherwise
            # the whole (floor) division is an opaque atom.
            left = expr_to_poly(expr.left, subs)
            right = expr_to_poly(expr.right, subs)
            rc = right.constant_value()
            lc = left.constant_value()
            if rc is not None and rc != 0 and lc is not None:
                q = lc / rc
                if q.denominator == 1:
                    return Poly.const(q)
        return _atom(expr)
    # Index loads, calls: opaque.
    return _atom(expr)
