"""Algebraic models for the classifying space of Z/p^n semidirect Z/q.

The group is G = Z/p^n x| Z/q with q dividing p - 1 and the cyclic part
generated by g; the complement generator acts by g -> g^gamma for a unit
gamma of multiplicative order q.  The units mod p^n form a cyclic group,
so they have one subgroup of order q, and every such gamma gives an
isomorphic group; gamma is therefore derived from (p, n, q), and the
models below depend on it only through its order q.  Over a field of
characteristic p the group algebra of the cyclic part is k[U]/(U^{p^n})
for a filtered generator U on which the action is diagonal:
U -> gamma U.  Such a U exists because the action preserves the radical
filtration and has order invertible in k.  Then k has a 2-periodic free
resolution over k[U]/(U^m) whose differentials are multiplications by
powers of U, and that single presentation drives everything here:

  * stage_weight -- the equivariance weight of each stage generator; the
    differential into stage i-1 multiplies by U^e(i) for the weight step
    e(i) = w_i - w_{i-1}, which is 1 out of an odd stage and p^n - 1 out
    of an even one;
  * build_end_dga -- the invariant, weight >= 0 part of the endomorphism
    algebra of the truncated resolution, built from those weights: a
    finite DGA whose cohomology on the published window is H*(BG; k);
  * expected_minimal_model / expected_loop_model -- the closed-form
    answers the computed structures are compared against.

Internal degrees are stored in units of 1/q: the resolution stage 2j has
weight j*p^n, stage 2j+1 has weight j*p^n + 1, and a basis map is
invariant exactly when its weight is divisible by q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .ainf import (
    AInfinityAlgebra,
    HypothesisParams,
    MultiOp,
    enumerate_words,
    epsilon_sign,
    monomial_label,
    monomials,
)
from .dga import DGAlgebra
from .glin import (GradedVectorSpace, ParameterError, TruncationExceeded,
                   is_prime)

__all__ = [
    "GroupParams",
    "default_gamma",
    "stage_weight",
    "build_end_dga",
    "expected_minimal_model",
    "expected_loop_model",
    "LOOP_GENERATORS",
]

# loop-space generator names: tau is polynomial, xi is exterior
LOOP_GENERATORS = ("tau", "xi")


def default_gamma(p: int, n: int, q: int) -> int:
    """Smallest unit of multiplicative order exactly q mod p^n: the first
    g >= 1 with g^q = 1 (so g is a unit) and g^(q/r) != 1 for every
    prime r dividing q."""
    m = p ** n
    primes = [r for r in range(2, q + 1) if q % r == 0 and is_prime(r)]
    for g in range(1, m):
        if pow(g, q, m) == 1 and all(pow(g, q // r, m) != 1 for r in primes):
            return g
    raise ValueError(f"no element of order {q} mod {m}")


@dataclass(frozen=True)
class GroupParams:
    """The group Z/p^n x| Z/q with action g -> g^gamma.

    p must be an odd prime and q must divide p - 1 (so q is invertible in
    characteristic p and the order-q subgroup of units exists).  gamma is
    derived, not given: it is the smallest unit of exact order q mod p^n,
    since every unit of that order gives an isomorphic group and the same
    model.  Invalid parameters, here or in a run's window and arity, raise
    ParameterError; a run window that cannot state the family raises
    TruncationExceeded.
    """

    p: int
    n: int
    q: int
    gamma: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p == 2:
            raise ParameterError(f"p must be an odd prime, got {self.p}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.q < 1 or (self.p - 1) % self.q:
            raise ParameterError(f"q must divide p - 1 = {self.p - 1}, got {self.q}")
        object.__setattr__(self, "gamma",
                           default_gamma(self.p, self.n, self.q))

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

    def model_window(self) -> tuple[int, int]:
        """Published window of a default cochain run.

        Deep enough for the arity-(ell+1) identity sweep and for every
        staircase term of the ell-fold Massey power, plus slack so the
        retraction stays clear of the window floor.
        """
        return (-(2 * self.q * self.h + 2 * self.q + 2) - 3, 0)

    def default_arity_bound(self) -> int:
        return self.pn + 1

    def cochain_run(self, window: tuple[int, int] | None = None,
                    arity: int | None = None) -> tuple[tuple, tuple, int]:
        """(chain window, published window, arity) of a cochain run, with
        defaults default_arity_bound() and model_window() widened by
        arity - 1 degrees below and one above, so that the published
        window sits that far inside the chain window."""
        if arity is None:
            arity = self.default_arity_bound()
        if window is None:
            lo, hi = self.model_window()
            window = (lo - (arity - 1), hi + 1)
        pub = _published(window, (window[0] + arity - 1, window[1] - 1),
                         arity, self.hp, ("x", "t"))
        return window, pub, arity

    def loop_window_hi(self) -> int:
        """Word-degree ceiling of the loop-side cobar: the published
        ceiling plus one, whose pivots split the ceiling block.

        The published ceiling must contain the top of the ell-fold
        staircase of xi plus one homotopy application ((2q-2)p^n + 1,
        which also covers tau^(p^n) and the full-xi identity sweep at
        arity h+1); two more letters of margin widen the verified family
        table.  Loop classes sit in degrees >= 0, so no inner evaluation
        of a published word climbs above its output degree.
        """
        pub = (2 * self.q - 2) * self.pn + 2 * (2 * self.q - 1) + 1
        return pub + 1

    def loop_run(self, window: tuple[int, int] | None = None,
                 arity: int | None = None) -> tuple[tuple, tuple, int]:
        """(word window, published window, arity) of a loop run, with
        defaults (0, loop_window_hi()) and loop_arity_bound(); the
        published window (0, s_hi - 1) sits one degree below the
        word-degree ceiling s_hi, whatever the arity."""
        if self.q == 1:
            raise ParameterError(
                "the loop pipeline needs q >= 2: with q = 1 the cochain model "
                "has a class one degree below the unit, so cobar words of "
                "bounded degree would be arbitrarily long")
        if arity is None:
            arity = self.loop_arity_bound()
        if window is None:
            window = (0, self.loop_window_hi())
        if window[0] != 0:
            raise ParameterError(f"loop window {window} does not start at 0")
        return window, _published(window, (0, window[1] - 1), arity,
                                  self.hp.loop_dual(), LOOP_GENERATORS), arity

    def loop_arity_bound(self) -> int:
        # one past the family arity h on the dual side; the exceptional
        # h = 2 ring has no family, so the sweep instead certifies that
        # every higher operation the window can support vanishes
        if self.h == 2:
            return 6
        return self.h + 1


def _published(window: tuple[int, int], pub: tuple[int, int], arity: int,
               hp: HypothesisParams, names: tuple[str, str]) -> tuple[int, int]:
    """pub, once the arity reaches the family arity hp.ell and pub holds
    1, x, t and x^h of shape hp (named by `names`), without which no table
    states the family: read from degrees, before any algebra is built."""
    if arity < hp.ell:
        raise ParameterError(f"arity bound {arity} is below the family "
                             f"arity {hp.ell}")
    if pub[0] > pub[1]:
        raise ParameterError(f"window {window} too small for arity {arity}")
    # x^h is x itself when h = 1
    missing = [monomial_label(j, e, names)
               for j, e in dict.fromkeys([(0, 0), (1, 0), (0, 1), (hp.h, 0)])
               if not pub[0] <= hp.monomial_bidegree(j, e).s <= pub[1]]
    if missing:
        raise TruncationExceeded(
            f"window {window} publishes {pub}, which misses "
            f"{', '.join(missing)}; enlarge the window")
    return pub


# ---------------------------------------------------------------------------
# the periodic resolution
# ---------------------------------------------------------------------------

def stage_weight(i: int, pn: int) -> int:
    """Internal weight (units of 1/q) of the stage-i module generator."""
    j, r = divmod(i, 2)
    return j * pn + r


# ---------------------------------------------------------------------------
# the endomorphism DGA
# ---------------------------------------------------------------------------

def build_end_dga(params: GroupParams, *,
                  window: tuple[int, int]) -> DGAlgebra:
    """Invariant non-negative-weight endomorphisms of the truncated resolution.

    Basis label (i, d, a) is the map P_{i+d} -> P_i, e_{i+d} -> U^a e_i, of
    bidegree (-d, w_{i+d} - w_i - a); it is kept when the weight is
    non-negative and divisible by q.  The `model` document spells it
    "i:d:a".  Composition is the product (weights add, so this part is a
    unital subalgebra) and the differential is the endomorphism-complex
    one: D(f) = d o f - (-1)^{deg f} f o d, the second term cut off by the
    truncation at the top stage.

    Cohomology of the result equals H*(B(Z/p^n x| Z/q); k) in bidegrees
    far enough from the window floor; the retraction pipeline checks that
    pattern explicitly before using it.  A window that misses degree 0,
    where the unit sits, is a ParameterError.
    """
    pn, q, p = params.pn, params.q, params.p
    lo, hi = window
    if not lo <= 0 <= hi:
        raise ParameterError(f"window ({lo}, {hi}) misses degree 0, where "
                             f"the unit sits")
    L = -lo + 6  # top stage: six past the longest map the window holds

    # keyed by (s, w): the space makes each key a Bidegree once
    blocks: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for i in range(L + 1):          # target stage
        # source stages whose degree s = i - src lies in the window
        for src in range(max(0, i - hi), min(L, i - lo) + 1):
            d = src - i
            wdiff = stage_weight(src, pn) - stage_weight(i, pn)
            # the powers that leave a weight w = wdiff - a >= 0 in q Z
            for a in range(wdiff % q, min(pn, wdiff + 1), q):
                blocks.setdefault((-d, wdiff - a), []).append((i, d, a))

    space = GradedVectorSpace(prime=p, window=window, blocks=blocks)

    def products(la: tuple, lb: tuple) -> dict[tuple, int]:
        (i1, d1, a1), (i2, d2, a2) = la, lb
        if i2 != i1 + d1:
            return {}
        if a1 + a2 >= pn:
            return {}
        s = -(d1 + d2)
        if not lo <= s <= hi:
            raise TruncationExceeded(
                f"product {la} * {lb} in degree {s} leaves window {window}")
        return {(i1, d1 + d2, a1 + a2): 1}

    # D(i, d, a) = (i-1, d+1, a+e(i)) - (-1)^d (i, d+1, a+e(i+d+1)), each
    # term dropped where its power reaches p^n or its stage leaves 0..L:
    # the two labels differ in i and both coefficients are units, so the
    # terms never cancel or merge
    def diff(lab: tuple) -> dict[tuple, int]:
        i, d, a = lab
        if d + 1 > -lo:
            raise TruncationExceeded(
                f"differential of {lab} leaves window {window}")
        out: dict[tuple, int] = {}
        if i and (b := a + (1 if i % 2 else pn - 1)) < pn:
            out[i - 1, d + 1, b] = 1
        if i + d < L and (b := a + (pn - 1 if (i + d) % 2 else 1)) < pn:
            out[i, d + 1, b] = 1 if d % 2 else p - 1
        return out

    # (i, d, a) maps P_{i+d} -> P_i, so (i, d, a) * (j, e, b) needs j = i + d
    unit = {(i, 0, 0): 1 for i in range(L + 1)}
    return DGAlgebra(space=space, unit=unit, products=products, diff=diff,
                     name=f"End({params.label()},L={L})",
                     source=lambda lab: lab[0] + lab[1],
                     target=itemgetter(0))


# ---------------------------------------------------------------------------
# the expected answers
# ---------------------------------------------------------------------------

def _monomial_model(hp: HypothesisParams, scale: int, prime: int,
                    window: tuple[int, int], arity_bound: int,
                    names: tuple[str, str]) -> AInfinityAlgebra:
    """Free-commutative monomial model of shape hp with its one family.

    The space holds the window's monomials(hp), one label per block, and
    m_2 is the monomial ring.  The family sends each all-E word
    (E P^{j_1}, ..., E P^{j_ell}) of arity ell = hp.ell to
    epsilon(ell) * P^{h + sum j}: by a*h - b*ell = 1 such a word lands
    exactly on that power's bidegree, so the words are those that
    enumerate_words lists over the E-monomials with the P-monomials'
    bidegrees as targets.  At ell = 2 (the exceptional loop ring) the
    family is the part E^2 = epsilon(2) * P^h of m_2.
    """
    monos = monomials(hp, scale, window)
    label = {(j, e): monomial_label(j, e, names) for j, e, _ in monos}
    space = GradedVectorSpace(prime=prime, window=window, blocks={
        bd: [label[j, e]] for j, e, bd in monos})
    m2: MultiOp = {}
    for j1, e1 in label:
        for j2, e2 in label:
            prod = label.get((j1 + j2, e1 + e2))
            if prod:
                m2[label[j1, e1], label[j2, e2]] = {prod: 1}
    ops: dict[int, MultiOp] = {2: m2}

    skeleton = AInfinityAlgebra(space=space, ops={}, arity_bound=arity_bound,
                                unit=monomial_label(0, 0, names))
    power = {lab: j for (j, _), lab in label.items()}
    sign = epsilon_sign(hp.ell) % prime
    family = {word: {label[hp.h + sum(map(power.get, word)), 0]: sign}
              for word in enumerate_words(
                  skeleton, hp.ell, level="operation",
                  exclude={lab for (_, e), lab in label.items() if e == 0},
                  targets=[bd for _, e, bd in monos if e == 0])}
    if family:
        ops.setdefault(hp.ell, {}).update(family)
    return AInfinityAlgebra(space=space, ops=ops, arity_bound=arity_bound,
                            unit=monomial_label(0, 0, names),
                            internal_scale=scale)


def expected_minimal_model(params: GroupParams,
                           window: tuple[int, int] | None = None,
                           arity_bound: int | None = None) -> AInfinityAlgebra:
    """The closed-form minimal structure on H*(BG; k).

    The ring is k[x] tensor Lambda(t) with |x| = (-2q, q p^n) and
    |t| = (-(2q-1), q h); the only higher operations form the arity-p^n
    family m(x^{j_1} t, ..., x^{j_{p^n}} t) = epsilon(p^n) x^{h + sum j}.
    """
    _, pub, arity = params.cochain_run()
    window = pub if window is None else window
    arity_bound = arity if arity_bound is None else arity_bound
    return _monomial_model(params.hp, params.internal_scale, params.p,
                           window, arity_bound, ("x", "t"))


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
    _, pub, arity = params.loop_run()
    window = pub if window is None else window
    arity_bound = arity if arity_bound is None else arity_bound
    return _monomial_model(params.hp.loop_dual(), params.internal_scale,
                           params.p, window, arity_bound, LOOP_GENERATORS)
