"""Distance/direction vectors: the affine dependence tests proper.

Given two key expressions of one node variable — a *source* access
(conventionally the write) and a *destination* access — and the loop
variable being analyzed, :func:`dependence_between` decides whether
iterations ``i_src`` and ``i_dst`` can touch the same dictionary entry,
and if so, *which* iteration pairs. The answer is a
:class:`DependenceVector`:

* ``None`` — **provably independent**: no iteration pair aliases. This
  is where the engine beats syntactic key equality: ``X[(i+1)-1]``
  against ``X[i]`` solves to distance 0; ``X[2*i]`` against ``X[2*i+1]``
  fails the GCD test; a coupled pair ``X[i+1, i]`` vs ``X[i, i]`` pins
  two *conflicting* distances and is therefore infeasible.
* distance ``0`` (direction ``=``) — the accesses can only alias within
  one iteration: loop-independent.
* an exact nonzero distance ``d`` (direction ``<`` for ``d > 0``, ``>``
  for ``d < 0``) — every aliasing pair satisfies
  ``i_dst = i_src + d``. The wavefront read ``bottom[r-1]`` against the
  write ``bottom[r]`` is ``+1``: a *forward* carried dependence, which
  is exactly what lets pipelining add a handshake (the carrier for ``r``
  waits on the entry ``r-1`` published one pipeline stage earlier).
* direction ``*`` — a dependence may exist at unknown distances: the
  conservative fallback for non-affine keys, mismatched arities, or
  feasible-but-unpinned equations (``X[2*i]`` read at ``X[i]``).

Per key dimension the aliasing condition is the Diophantine equation

    ``a*i_src - b*i_dst + (uncancelled symbol terms) = c_dst - c_src``

Symbols other than the loop variable fall into two classes: values
**fixed across iterations** (program parameters, enclosing-loop
variables — their terms cancel when the coefficients agree) and values
**free within an iteration** (inner-loop variables, locally assigned
agent variables — each side's occurrence is an independent unknown).
An equation with no unknowns and a nonzero right-hand side is
infeasible (the dimension proves independence); equal loop-variable
coefficients with no other unknowns pin the distance; everything else
gets the GCD feasibility test. A constant loop trip count enables the
Banerjee-style range check that discards out-of-range distances.

One deliberate extension beyond the textbook fragment: a dimension of
the form ``affine % m`` with a constant modulus — the shape of every
staggered tour schedule, e.g. ``C[mi, (N-1-mi+mj) % N]`` — yields a
*congruence* constraint ``d ≡ d0 (mod m/gcd(a, m))`` instead of a pin.
Against a trip count ``<= m`` that still proves the schedule hits each
entry at most once per tour, which is what legalizes phase shifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..navp import ir
from .affine import affine_of

__all__ = ["DependenceVector", "dependence_between", "keys_never_equal"]

# beyond this trip count, congruence candidate sets are not enumerated
# (IR loops here are block counts — a handful — so this never binds)
_ENUM_CAP = 4096


@dataclass(frozen=True)
class DependenceVector:
    """Iteration distance of one dependence over one loop variable.

    ``distance`` is ``i_dst - i_src`` when pinned, else None;
    ``direction`` is ``'<'``/``'='``/``'>'``/``'*'``; ``exact`` is True
    when the affine solve constrained every aliasing pair (False for
    the conservative fallbacks).
    """

    var: str
    distance: int | None
    direction: str
    exact: bool
    reason: str = ""

    @property
    def carried(self) -> bool:
        return self.direction != "="

    def describe(self) -> str:
        if self.distance is not None:
            return f"distance {self.distance:+d} over {self.var!r}"
        return f"unknown distance over {self.var!r} ({self.reason})"


def _mod_split(expr: ir.Expr):
    """Split ``inner % m`` (constant positive modulus) off a key expr."""
    if (isinstance(expr, ir.Bin) and expr.op == "%"
            and isinstance(expr.right, ir.Const)
            and isinstance(expr.right.value, int)
            and not isinstance(expr.right.value, bool)
            and expr.right.value > 0):
        return expr.left, expr.right.value
    return expr, None


# -- per-dimension constraints ---------------------------------------------
# ("indep",)            the dimension proves independence
# ("none",)             no constraint
# ("pin", d)            aliasing requires i_dst - i_src == d
# ("cong", d0, M)       aliasing requires i_dst - i_src ≡ d0 (mod M)
# ("star", reason)      feasible but unconstrained (conservative)

def _dim_constraint(src: ir.Expr, dst: ir.Expr, loop_var: str,
                    free_vars: frozenset) -> tuple:
    src_inner, src_mod = _mod_split(src)
    dst_inner, dst_mod = _mod_split(dst)
    if src_mod != dst_mod:
        return ("star", "mixed moduli")
    modulus = src_mod  # None, or the common constant modulus

    fa, fb = affine_of(src_inner), affine_of(dst_inner)
    if fa is None or fb is None:
        return ("star", "key not affine in the loop variable")
    a, b = fa.coeff(loop_var), fb.coeff(loop_var)
    others: list = []
    for name in (fa.vars | fb.vars) - {loop_var}:
        ca, cb = fa.coeff(name), fb.coeff(name)
        if name in free_vars:
            # independent value on each side: two unknowns
            others.extend(c for c in (ca, -cb) if c)
        elif ca != cb:
            # fixed but unknown value: one unknown, net coefficient
            others.append(ca - cb)
    rhs = fb.const - fa.const

    if a == b and not others:
        if a == 0:
            hit = rhs % modulus == 0 if modulus else rhs == 0
            return ("none",) if hit else ("indep",)
        if modulus is None:
            if rhs % a != 0:
                return ("indep",)
            # a*(i_src - i_dst) = rhs  =>  i_dst - i_src = -rhs/a
            return ("pin", -(rhs // a))
        # a*d ≡ -rhs (mod m), d = i_dst - i_src
        g = gcd(a, modulus)
        if rhs % g != 0:
            return ("indep",)
        m = modulus // g
        if m == 1:
            return ("none",)
        d0 = ((-rhs // g) * pow(a // g, -1, m)) % m
        return ("cong", d0, m)

    coeffs = [c for c in (a, -b, *others) if c]
    if modulus is not None:
        coeffs.append(modulus)
    if not coeffs:
        return ("none",) if rhs == 0 else ("indep",)
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    if rhs % g != 0:
        return ("indep",)  # GCD test: no integer solution at all
    return ("star", "aliasing feasible at more than one distance")


def _merge_congruences(congs: list) -> tuple | None:
    """CRT-intersect ``(d0, M)`` pairs; None when incompatible."""
    d0, m = congs[0]
    for d1, m1 in congs[1:]:
        g = gcd(m, m1)
        if (d1 - d0) % g != 0:
            return None
        lcm = m // g * m1
        # solve d ≡ d0 (mod m), d ≡ d1 (mod m1)
        t = ((d1 - d0) // g * pow(m // g, -1, m1 // g)) % (m1 // g)
        d0 = (d0 + m * t) % lcm
        m = lcm
    return d0, m


def dependence_between(src_key, dst_key, loop_var: str,
                       bound: int | None = None,
                       free_vars: frozenset = frozenset()
                       ) -> DependenceVector | None:
    """The dependence test over one loop variable (see module docstring).

    ``src_key``/``dst_key`` are raw key-expression tuples; ``bound`` is
    the loop trip count when constant (enables the range check);
    ``free_vars`` names symbols whose values differ freely between the
    two accesses (inner-loop variables, locally assigned agents).
    """
    if len(src_key) != len(dst_key):
        return DependenceVector(loop_var, None, "*", False,
                                "key arity mismatch")

    pins: set = set()
    congs: list = []
    stars: list = []
    for src, dst in zip(src_key, dst_key):
        cons = _dim_constraint(src, dst, loop_var, free_vars)
        if cons[0] == "indep":
            return None
        if cons[0] == "pin":
            pins.add(cons[1])
        elif cons[0] == "cong":
            congs.append(cons[1:])
        elif cons[0] == "star":
            stars.append(cons[1])

    def vector(d: int) -> DependenceVector | None:
        if bound is not None and abs(d) >= bound:
            return None  # distance exceeds the iteration space
        direction = "=" if d == 0 else ("<" if d > 0 else ">")
        return DependenceVector(loop_var, d, direction, exact=True)

    if pins:
        if len(pins) > 1:
            return None  # coupled subscripts: conflicting distances
        d = pins.pop()
        if any((d - d0) % m != 0 for d0, m in congs):
            return None
        return vector(d)

    if congs:
        merged = _merge_congruences(congs)
        if merged is None:
            return None
        d0, m = merged
        if bound is not None and bound <= _ENUM_CAP:
            candidates = [d for d in range(-(bound - 1), bound)
                          if (d - d0) % m == 0]
            if not candidates:
                return None
            if len(candidates) == 1:
                return vector(candidates[0])
        return DependenceVector(
            loop_var, None, "*", False,
            f"distance only known modulo {m} (≡ {d0})")

    if stars:
        return DependenceVector(loop_var, None, "*", False, stars[0])

    # every dimension reduced to 0 = 0: the same entry every iteration
    return DependenceVector(loop_var, None, "*", True,
                            "same entry in every iteration")


def keys_never_equal(key_a, key_b) -> bool:
    """Can two key tuples *never* name the same entry, for any values of
    their variables?

    Unlike :func:`dependence_between` this treats every variable as an
    independent unknown on each side — sound across threads and
    messenger instances, where ``Var("k")`` on one side need not equal
    ``Var("k")`` on the other. Proof of disjointness therefore needs a
    dimension whose value *sets* cannot intersect: differing constants,
    or a GCD obstruction (``X[2*i]`` never meets ``X[2*j+1]``).
    """
    if len(key_a) != len(key_b):
        return False  # arity mismatch: stay conservative
    for ea, eb in zip(key_a, key_b):
        fa, fb = affine_of(ea), affine_of(eb)
        if fa is None or fb is None:
            continue
        coeffs = [c for _v, c in fa.coeffs] + [c for _v, c in fb.coeffs]
        rhs = fb.const - fa.const
        if not coeffs:
            if rhs != 0:
                return True
            continue
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        if rhs % g != 0:
            return True
    return False
