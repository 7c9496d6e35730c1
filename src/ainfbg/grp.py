"""Algebraic models for the classifying space of Z/p^n semidirect Z/q.

The group is G = Z/p^n x| Z/q with q dividing p - 1 and the cyclic part
generated by g; the complement generator acts by g -> g^gamma for a unit
gamma of multiplicative order q.  Over a field of characteristic p the
group algebra of the cyclic part is k[U]/(U^{p^n}) for a filtered
generator U on which the action is diagonal: U -> gamma U.  Such a U
exists because the action preserves the radical filtration and has order
invertible in k; the character average of g - 1 over the action realizes
it explicitly.  That single presentation drives everything here:

  * build_group_algebra   -- k[Z/p^n] with U, verified numerically;
  * build_resolution      -- the 2-periodic resolution of k over k[U]/(U^m)
                             with its equivariance weights;
  * build_end_dga         -- the invariant, weight >= 0 part of the
                             endomorphism algebra of the truncated
                             resolution: a finite DGA whose cohomology in
                             the trusted range is H*(BG; k);
  * expected_minimal_model / expected_loop_model -- the closed-form
    answers the computed structures are compared against.

Internal degrees are stored in units of 1/q: the resolution stage 2j has
weight j*p^n, stage 2j+1 has weight j*p^n + 1, and a basis map is
invariant exactly when its weight is divisible by q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ainf import (
    AInfinityAlgebra,
    HypothesisParams,
    MultiOp,
    epsilon_sign,
    monomial_label,
)
from .dga import DGAlgebra
from .glin import Bidegree, GradedVectorSpace, TruncationExceeded, is_prime

__all__ = [
    "GroupParams",
    "multiplicative_order",
    "default_gamma",
    "GroupAlgebra",
    "build_group_algebra",
    "Resolution",
    "build_resolution",
    "build_end_dga",
    "expected_minimal_model",
    "expected_loop_model",
    "LOOP_GENERATORS",
]

# loop-space generator names: tau is polynomial, xi is exterior
LOOP_GENERATORS = ("tau", "xi")


def multiplicative_order(x: int, m: int) -> int:
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    k, y = 1, x % m
    while y != 1:
        y = y * x % m
        k += 1
    return k


def default_gamma(p: int, n: int, q: int) -> int:
    """Smallest unit of multiplicative order exactly q mod p^n."""
    if q == 1:
        return 1
    m = p ** n
    for g in range(2, m):
        if math.gcd(g, m) == 1 and multiplicative_order(g, m) == q:
            return g
    raise ValueError(f"no element of order {q} mod {m}")


@dataclass(frozen=True)
class GroupParams:
    """The group Z/p^n x| Z/q with action g -> g^gamma.

    p must be an odd prime and q must divide p - 1 (so q is invertible in
    characteristic p and the order-q subgroup of units exists).  gamma
    defaults to the smallest unit of exact order q mod p^n.
    """

    p: int
    n: int
    q: int
    gamma: int | None = None

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.q < 1 or (self.p - 1) % self.q:
            raise ValueError(f"q must divide p - 1 = {self.p - 1}, got {self.q}")
        gamma = self.gamma
        if gamma is None:
            gamma = default_gamma(self.p, self.n, self.q)
            object.__setattr__(self, "gamma", gamma)
        if multiplicative_order(gamma, self.pn) != self.q:
            raise ValueError(
                f"gamma={gamma} has order {multiplicative_order(gamma, self.pn)}"
                f" mod {self.pn}, need exactly q={self.q}")

    @property
    def pn(self) -> int:
        return self.p ** self.n

    @property
    def h(self) -> int:
        # the unique h with h*q - p^n*(q-1) = 1 (integral since p = 1 mod q)
        return (1 + self.pn * (self.q - 1)) // self.q

    @property
    def hp(self) -> HypothesisParams:
        return HypothesisParams(a=self.q, b=self.q - 1, h=self.h, ell=self.pn)

    @property
    def internal_scale(self) -> int:
        return self.q

    def label(self) -> str:
        return f"p{self.p}n{self.n}q{self.q}g{self.gamma}"

    # -- degree bookkeeping ------------------------------------------------

    def default_window(self) -> tuple[int, int]:
        """Window on homological degree for the cochain-side computation.

        Deep enough for the arity-(ell+1) identity sweep and for every
        staircase term of the ell-fold Massey power, plus slack so the
        retraction stays clear of the window floor.
        """
        need = -(2 * self.q * self.h + 2 * self.q + 2)
        return (need - 4, 1)

    def model_window(self) -> tuple[int, int]:
        lo, hi = self.default_window()
        return (lo + 1, hi - 1)

    def resolution_length(self, window: tuple[int, int] | None = None) -> int:
        lo, _ = window or self.default_window()
        return -lo + 6

    def default_arity_bound(self) -> int:
        return self.pn + 1

    def cochain_window(self, arity_bound: int) -> tuple[int, int]:
        """Chain-level window of the cochain pipeline: model_window() with
        arity_bound - 1 degrees of slack below and one above."""
        lo, hi = self.model_window()
        return (lo - (arity_bound - 1), hi + 1)

    def loop_window_hi(self) -> int:
        """Word-degree ceiling for the loop-side cobar computation.

        The published ceiling (this minus arity slack) must contain the
        top of the ell-fold staircase of xi plus one homotopy application
        ((2q-2)p^n + 1, which also covers tau^(p^n) and the full-xi
        identity sweep at arity h+1); two more letters of margin widen
        the verified family table.
        """
        pub = (2 * self.q - 2) * self.pn + 2 * (2 * self.q - 1) + 1
        return pub + self.loop_arity_bound() - 1

    def loop_window(self) -> tuple[int, int]:
        """Word-degree window of the loop pipeline's cobar algebra."""
        return (0, self.loop_window_hi())

    def loop_model_window(self) -> tuple[int, int]:
        return (0, self.loop_window_hi() - 1)

    def loop_arity_bound(self) -> int:
        # one past the family arity h on the dual side; the exceptional
        # h = 2 ring has no family, so the sweep instead certifies that
        # every higher operation the window can support vanishes
        if self.h == 2:
            return 6
        return self.h + 1


# ---------------------------------------------------------------------------
# the group algebra and its filtered generator
# ---------------------------------------------------------------------------

@dataclass
class GroupAlgebra:
    """k[Z/p^n] in the group basis g^0..g^{m-1}, with the generator U.

    Elements are integer vectors mod p indexed by the exponent of g;
    multiplication is cyclic convolution.  Construction verifies that U is
    nilpotent of index exactly m, that its powers are a basis, and that
    the order-q action is diagonal on them: sigma(U^a) = gamma^a U^a.
    """

    params: GroupParams
    U: np.ndarray = field(init=False)
    power_basis: np.ndarray = field(init=False)  # column a = U^a

    def __post_init__(self) -> None:
        p, m, q = self.params.p, self.params.pn, self.params.q
        gamma = self.params.gamma
        # project g - 1 onto the gamma-eigenspace of the action: the
        # character average (1/q) sum_r gamma^{-r} sigma^r (g - 1) is an
        # eigenvector and still generates the radical (mod J^2 it is g - 1)
        v = np.zeros(m, dtype=np.int64)
        v[0], v[1] = p - 1, 1
        U = np.zeros(m, dtype=np.int64)
        acc = v.copy()
        for r in range(q):
            U = (U + pow(pow(gamma, r, p), -1, p) * acc) % p
            acc = self.act(acc)
        U = U * pow(q, -1, p) % p
        self.U = U

        powers = [np.zeros(m, dtype=np.int64)]
        powers[0][0] = 1
        for _ in range(m):
            powers.append(self.convolve(powers[-1], U))
        if np.any(powers[m]):
            raise AssertionError("U^m != 0")
        if not np.any(powers[m - 1]):
            raise AssertionError("U^(m-1) == 0")
        self.power_basis = np.stack(powers[:m], axis=1)

        from .glin import row_reduce
        if row_reduce(self.power_basis, p).rank != m:
            raise AssertionError("powers of U are not a basis")

        gamma = self.params.gamma
        sU = self.act(U)
        if not np.array_equal(sU, gamma * U % p):
            raise AssertionError("sigma(U) != gamma U")
        for a in range(m):
            lhs = self.act(powers[a])
            rhs = pow(gamma, a, p) * powers[a] % p
            if not np.array_equal(lhs, rhs):
                raise AssertionError(f"sigma(U^{a}) != gamma^{a} U^{a}")

    def convolve(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        p, m = self.params.p, self.params.pn
        out = np.zeros(m, dtype=np.int64)
        for i in range(m):
            if u[i]:
                out = (out + u[i] * np.roll(v, i)) % p
        return out

    def act(self, u: np.ndarray) -> np.ndarray:
        """The order-q automorphism g -> g^gamma on coefficient vectors."""
        m = self.params.pn
        out = np.zeros(m, dtype=np.int64)
        for i in range(m):
            out[i * self.params.gamma % m] = (out[i * self.params.gamma % m]
                                              + u[i]) % self.params.p
        return out


def build_group_algebra(params: GroupParams) -> GroupAlgebra:
    return GroupAlgebra(params)


# ---------------------------------------------------------------------------
# the periodic resolution
# ---------------------------------------------------------------------------

def stage_weight(i: int, pn: int) -> int:
    """Internal weight (units of 1/q) of the stage-i module generator."""
    j, r = divmod(i, 2)
    return j * pn + r


def diff_exponent(i: int, pn: int) -> int:
    """The differential into stage i-1 is multiplication by U^this."""
    if i < 1:
        raise ValueError("no differential out of stage 0")
    return 1 if i % 2 else pn - 1


@dataclass
class Resolution:
    """Free 2-periodic resolution of k over k[U]/(U^m), stages 0..length.

    d_i : P_i -> P_{i-1} is multiplication by U (i odd) or U^{m-1}
    (i even); the stage generator e_i carries the character gamma^{w_i}
    so that the differential is equivariant (w_i = w_{i-1} + exponent).
    """

    params: GroupParams
    length: int

    @cached_property
    def weights(self) -> list[int]:
        return [stage_weight(i, self.params.pn) for i in range(self.length + 1)]

    @cached_property
    def characters(self) -> list[int]:
        return [w % self.params.q for w in self.weights]

    def exponent(self, i: int) -> int:
        return diff_exponent(i, self.params.pn)

    def d_matrix(self, i: int) -> np.ndarray:
        """Multiplication by U^{exponent(i)} in the U-power basis."""
        m = self.params.pn
        k = self.exponent(i)
        M = np.zeros((m, m), dtype=np.int64)
        for a in range(m - k):
            M[a + k, a] = 1
        return M


def build_resolution(params: GroupParams, length: int | None = None) -> Resolution:
    if length is None:
        length = params.resolution_length()
    return Resolution(params=params, length=length)


# ---------------------------------------------------------------------------
# the endomorphism DGA
# ---------------------------------------------------------------------------

def build_end_dga(params: GroupParams, *, window: tuple[int, int] | None = None,
                  length: int | None = None) -> DGAlgebra:
    """Invariant non-negative-weight endomorphisms of the truncated resolution.

    Basis label "i:d:a" is the map P_{i+d} -> P_i, e_{i+d} -> U^a e_i, of
    bidegree (-d, w_{i+d} - w_i - a); it is kept when the weight is
    non-negative and divisible by q.  Composition is the product (weights
    add, so this part is a unital subalgebra) and the differential is the
    endomorphism-complex one: D(f) = d o f - (-1)^{deg f} f o d, the
    second term cut off by the truncation at the top stage.

    Cohomology of the result equals H*(B(Z/p^n x| Z/q); k) in bidegrees
    far enough from the window floor; the retraction pipeline checks that
    pattern explicitly before using it.
    """
    pn, q, p = params.pn, params.q, params.p
    if window is None:
        window = params.default_window()
    lo, hi = window
    if length is None:
        length = params.resolution_length(window)
    L = length

    triples: dict[str, tuple[int, int, int]] = {}
    blocks: dict[Bidegree, list[str]] = {}
    for i in range(L + 1):          # target stage
        for src in range(L + 1):    # source stage
            d = src - i
            s = -d
            if not lo <= s <= hi:
                continue
            wdiff = stage_weight(src, pn) - stage_weight(i, pn)
            for a in range(pn):
                w = wdiff - a
                if w < 0 or w % q:
                    continue
                lab = f"{i}:{d}:{a}"
                triples[lab] = (i, d, a)
                blocks.setdefault(Bidegree(s, w), []).append(lab)

    space = GradedVectorSpace(prime=p, window=window, blocks=blocks)

    def products(la: str, lb: str) -> dict[str, int]:
        i1, d1, a1 = triples[la]
        i2, d2, a2 = triples[lb]
        if i2 != i1 + d1:
            return {}
        if a1 + a2 >= pn:
            return {}
        s = -(d1 + d2)
        if not lo <= s <= hi:
            raise TruncationExceeded(
                f"product {la} * {lb} in degree {s} leaves window {window}")
        return {f"{i1}:{d1 + d2}:{a1 + a2}": 1}

    def diff(lab: str) -> dict[str, int]:
        i, d, a = triples[lab]
        if -(d + 1) < lo:
            raise TruncationExceeded(
                f"differential of {lab} leaves window {window}")
        out: dict[str, int] = {}
        if i >= 1:
            anew = a + diff_exponent(i, pn)
            if anew < pn:
                out[f"{i - 1}:{d + 1}:{anew}"] = 1
        src = i + d
        if src + 1 <= L:
            anew = a + diff_exponent(src + 1, pn)
            if anew < pn:
                lab2 = f"{i}:{d + 1}:{anew}"
                out[lab2] = (out.get(lab2, 0) - (-1) ** (d % 2)) % p
        return {k: v for k, v in out.items() if v}

    unit = {f"{i}:0:0": 1 for i in range(L + 1)}
    dga = DGAlgebra(space=space, unit=unit, products=products, diff=diff,
                    name=f"End({params.label()},L={L})")
    return dga


# ---------------------------------------------------------------------------
# the expected answers
# ---------------------------------------------------------------------------

def _monomials_in_window(hp: HypothesisParams, scale: int,
                         window: tuple[int, int]):
    lo, hi = window
    out = []
    j = 0
    while True:
        fresh = False
        for eps in (0, 1):
            bd = hp.monomial_bidegree(j, eps, scale)
            if lo <= bd.s <= hi:
                out.append((j, eps, bd))
                fresh = True
        if not fresh and j > 0:
            break
        j += 1
    return out


def _monomial_model(hp: HypothesisParams, scale: int, prime: int,
                    window: tuple[int, int], arity_bound: int,
                    names: tuple[str, str], family_arity: int,
                    family_target_shift: int, family_sign: int,
                    squares: int | None) -> AInfinityAlgebra:
    """Free-commutative monomial model with one distinguished family.

    m_2 is the monomial ring (with E^2 = squares * P^family_target_shift
    when squares is not None, the exotic ring case); the family sends
    (E P^{j_1}, ..., E P^{j_k}) to family_sign * P^{shift + sum j}.
    """
    monos = _monomials_in_window(hp, scale, window)
    in_win = {(j, e) for j, e, _ in monos}
    blocks: dict[Bidegree, list[str]] = {}
    for j, e, bd in monos:
        blocks.setdefault(bd, []).append(monomial_label(j, e, names))
    space = GradedVectorSpace(prime=prime, window=window, blocks=blocks)

    m2: MultiOp = {}
    for (j1, e1) in in_win:
        for (j2, e2) in in_win:
            key = (monomial_label(j1, e1, names), monomial_label(j2, e2, names))
            if e1 and e2:
                if squares is not None:
                    j = j1 + j2 + family_target_shift
                    if (j, 0) in in_win:
                        m2[key] = {monomial_label(j, 0, names): squares % prime}
                continue
            j, e = j1 + j2, e1 + e2
            if (j, e) in in_win:
                m2[key] = {monomial_label(j, e, names): 1}

    ops: dict[int, MultiOp] = {2: m2}
    if family_arity > 2:
        fam: MultiOp = {}
        for powers in _power_tuples(family_arity, in_win, family_target_shift):
            target = family_target_shift + sum(powers)
            word = tuple(monomial_label(j, 1, names) for j in powers)
            fam[word] = {monomial_label(target, 0, names): family_sign % prime}
        if fam:
            ops[family_arity] = fam
    return AInfinityAlgebra(space=space, ops=ops, arity_bound=arity_bound,
                            unit=monomial_label(0, 0, names),
                            internal_scale=scale)


def _power_tuples(arity: int, in_win, target_shift: int):
    """Power tuples whose family target P^(shift + sum) stays in-window."""
    exterior = sorted(j for j, e in in_win if e == 1)
    if not exterior:
        return
    jmax = max(j for j, e in in_win if e == 0)
    budget = jmax - target_shift
    if budget < 0:
        return

    def rec(prefix, total):
        if len(prefix) == arity:
            if (target_shift + total, 0) in in_win:
                yield tuple(prefix)
            return
        for j in exterior:
            if total + j <= budget:
                yield from rec(prefix + [j], total + j)

    yield from rec([], 0)


def expected_minimal_model(params: GroupParams,
                           window: tuple[int, int] | None = None,
                           arity_bound: int | None = None) -> AInfinityAlgebra:
    """The closed-form minimal structure on H*(BG; k).

    The ring is k[x] tensor Lambda(t) with |x| = (-2q, q p^n) and
    |t| = (-(2q-1), q h); the only higher operations form the arity-p^n
    family m(x^{j_1} t, ..., x^{j_{p^n}} t) = epsilon(p^n) x^{h + sum j}.
    """
    if window is None:
        window = params.model_window()
    if arity_bound is None:
        arity_bound = params.default_arity_bound()
    return _monomial_model(
        params.hp, params.internal_scale, params.p, window, arity_bound,
        ("x", "t"), family_arity=params.pn, family_target_shift=params.h,
        family_sign=epsilon_sign(params.pn), squares=None)


def expected_loop_model(params: GroupParams,
                        window: tuple[int, int] | None = None,
                        arity_bound: int | None = None) -> AInfinityAlgebra:
    """The closed-form minimal structure on loop-space homology.

    Generically k[tau] tensor Lambda(xi) with tau = (2q-2, q h) and
    xi = (2q-1, q p^n), carrying the arity-h family
    m(xi tau^{j_1}, ..., xi tau^{j_h}) = epsilon(h) tau^{p^n + sum j}.
    In the single exceptional case p^n = 3, q = 2 the family has arity
    h = 2 and lands in the product: the ring is k[tau, xi]/(xi^2 + tau^3)
    with no higher operations.
    """
    if params.q == 1:
        raise ValueError("loop model needs q >= 2 (words of bounded degree)")
    if window is None:
        window = params.loop_model_window()
    if arity_bound is None:
        arity_bound = params.loop_arity_bound()
    dual = params.hp.loop_dual()
    exceptional = dual.ell == 2
    return _monomial_model(
        dual, params.internal_scale, params.p, window, arity_bound,
        LOOP_GENERATORS, family_arity=dual.ell if not exceptional else 0,
        family_target_shift=dual.h,
        family_sign=epsilon_sign(dual.ell),
        squares=epsilon_sign(2) if exceptional else None)
