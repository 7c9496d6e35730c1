"""A-infinity structures on bigraded F_p spaces with monomial bases.

An A-infinity algebra here is a space with multilinear operations m_n of
bidegree (n-2, 0) subject to the sign rule

    sum over r+s+t=n of (-1)^(r+st) m_(r+1+t) (id^r (x) m_s (x) id^t) = 0,

where tensor slots are evaluated with the Koszul convention: moving an
operator of degree d past an input of degree e costs (-1)^(d*e), applied
left to right.  Homological degrees are used for all parities (an element
of classical cohomological degree i sits in homological degree -i).

Operations are stored as sparse tables over basis-label words.  Every
bigraded piece of the models in this package is at most one-dimensional,
which keeps the tables small and makes generator normalization a matter
of rescaling two generators.

The tables hold only the in-window part of a structure, so an identity
on a word whose contiguous subword has its operation output outside the
window is truncated, never read as zero.  The sweeps decide this by one
rule on the letter degrees (_q_leaves_window), where they evaluate a
word and where one pass counts every arity's words without listing them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .glin import Bidegree, GradedVectorSpace, TruncationExceeded

__all__ = [
    "epsilon_sign",
    "MultiOp",
    "AInfinityAlgebra",
    "stasheff_defect",
    "stasheff_sweep",
    "strict_unitality_defects",
    "DefectReport",
    "HypothesisParams",
    "monomials",
    "AdmissibleOp",
    "AdmissibleShape",
    "admissible_shapes",
    "classify_admissible",
    "normalize_generators",
    "monomial_label",
]

# arity -> {word of basis labels -> sparse output vector {label: coeff}}
MultiOp = dict[tuple[str, ...], dict[str, int]]


def epsilon_sign(s: int) -> int:
    """+1 if s is congruent to 0 or 1 mod 4, else -1.

    This is the sign attached to the single nonvanishing family of higher
    operations; it satisfies epsilon(s) * epsilon(s+2) == -1.
    """
    return 1 if s % 4 in (0, 1) else -1


def monomial_label(j: int, eps: int, names: tuple[str, str] = ("x", "t")) -> str:
    """Canonical label for P^j E^eps, P the polynomial and E the exterior
    generator (named x, t by default)."""
    if j < 0 or eps not in (0, 1):
        raise ValueError(f"bad monomial exponents ({j}, {eps})")
    pname, ename = names
    xs = "" if j == 0 else (pname if j == 1 else f"{pname}^{j}")
    ts = ename if eps else ""
    if xs and ts:
        return f"{xs}*{ts}"
    return xs or ts or "1"


# ---------------------------------------------------------------------------
# the algebra container
# ---------------------------------------------------------------------------

@dataclass
class AInfinityAlgebra:
    """Sparse A-infinity structure on a bigraded space.

    ops[n] is the arity-n table; words absent from a table are zero when
    their forced output bidegree lies in the window, and unknown otherwise.
    internal_scale records how many stored internal-degree units make one
    abstract unit (the group models store units of 1/q).
    """

    space: GradedVectorSpace
    ops: dict[int, MultiOp]
    arity_bound: int
    unit: str
    internal_scale: int = 1

    def __post_init__(self) -> None:
        if self.arity_bound < 2:
            raise ValueError("arity bound must be at least 2")
        p = self.space.prime
        for n, table in self.ops.items():
            if n < 1:
                raise ValueError(f"bad arity {n}")
            for word, vec in list(table.items()):
                if len(word) != n:
                    raise ValueError(f"arity {n} word of length {len(word)}")
                out = self.word_output_bidegree(n, word)
                clean = {}
                for lab, c in vec.items():
                    if self.space.bidegree_of(lab) != out:
                        raise ValueError(
                            f"m_{n}{word} hits {lab!r} outside bidegree {out}")
                    c %= p
                    if c:
                        clean[lab] = c
                if clean:
                    table[word] = clean
                else:
                    del table[word]
        if not self.space.has_label(self.unit):
            raise ValueError(f"unit label {self.unit!r} not in the space")

    @property
    def prime(self) -> int:
        return self.space.prime

    def word_output_bidegree(self, n: int, word: tuple[str, ...]) -> Bidegree:
        s = sum(self.space.bidegree_of(l).s for l in word) + (n - 2)
        w = sum(self.space.bidegree_of(l).w for l in word)
        return Bidegree(s, w)

    def op_value(self, n: int, word: tuple[str, ...]) -> dict[str, int]:
        """m_n on a basis word; zero only when the target is in-window."""
        if n > self.arity_bound:
            raise ValueError(f"arity {n} beyond bound {self.arity_bound}")
        out = self.word_output_bidegree(n, word)
        self.space.require_in_window(out.s)
        return self.ops.get(n, {}).get(tuple(word), {})


# ---------------------------------------------------------------------------
# Koszul evaluation and the structure identities
# ---------------------------------------------------------------------------

@dataclass
class DefectReport:
    """Result of a Stasheff-identity sweep at one arity."""

    arity: int
    checked: int
    truncated: int
    nonzero: dict[tuple[str, ...], dict[str, int]]

    def ok(self) -> bool:
        return not self.nonzero


def _q_leaves_window(window: tuple[int, int], q: int, qmin: int,
                     qmax: int) -> bool:
    """Whether a word's last letter closes a subword whose operation
    output leaves the window.

    With Q_k = (degree sum of the first k letters) + k, m on letters
    i+1..j lands at Q_j - Q_i - 2, which is in the window exactly when
    Q_j - Q_i lies in [lo + 2, hi + 2]; q is Q_j and qmin, qmax are the
    extremes of the Q_i with i < j.
    """
    lo, hi = window
    return q - qmax < lo + 2 or q - qmin > hi + 2


def stasheff_word_defect(model: AInfinityAlgebra, word: tuple[str, ...]) -> dict[str, int]:
    """Left-hand side of the arity-n identity on one word.

    The term (r, s, t) is m_(r+1+t) (id^r (x) m_s (x) id^t), signed
    (-1)^(r + st + s*|first r letters|): the Stasheff prefactor times the
    Koszul sign of m_s (degree s - 2) passing the first r inputs.  The
    word is truncated (TruncationExceeded) when m on a contiguous subword
    leaves the window, the _q_leaves_window rule that stasheff_sweep's
    counted pass uses; past it, inner operations are table reads.
    Every term lands in the identity output bidegree (Q_n - 3, the sum of
    the letters' w), where Q_n is the truncation rule's running sum: in
    the window without a block that gives zero by grading, and outside it
    an unknown value is read, so the word is truncated, only when some
    inner operation is nonzero.  Each letter's (s, w) is read once off the
    space's label index; most swept words stop at the block test.
    """
    n = len(word)
    if n > model.arity_bound:
        raise ValueError(
            f"identity at arity {n} needs operations beyond bound "
            f"{model.arity_bound}")
    space = model.space
    window = space.window
    degrees = [space._index[lab][0] for lab in word]
    q = qmin = qmax = w = 0
    for s, dw in degrees:
        q += s + 1
        w += dw
        if _q_leaves_window(window, q, qmin, qmax):
            raise TruncationExceeded(
                f"an operation on a subword of {word} leaves the window "
                f"{window}")
        if q < qmin:
            qmin = q
        elif q > qmax:
            qmax = q
    in_window = window[0] <= q - 3 <= window[1]
    if in_window and (q - 3, w) not in space.blocks:
        return {}
    passed = list(itertools.accumulate((s for s, _ in degrees), initial=0))
    p = model.prime
    total: dict[str, int] = {}
    for s in range(1, n + 1):
        inner_table = model.ops.get(s, {})
        for r in range(0, n - s + 1):
            inner = inner_table.get(word[r:r + s])
            if not inner:
                continue
            if not in_window:
                raise TruncationExceeded(
                    f"identity output degree {q - 3} of {word} outside "
                    f"window {window}")
            t = n - s - r
            sign = -1 if (r + s * t + s * passed[r]) % 2 else 1
            outer_table = model.ops.get(r + 1 + t, {})
            for lab, c in inner.items():
                outer = outer_table.get(word[:r] + (lab,) + word[r + s:], {})
                for out_lab, d in outer.items():
                    total[out_lab] = (total.get(out_lab, 0) + sign * c * d) % p
    return {k: v for k, v in total.items() if v}


def enumerate_words(model: AInfinityAlgebra, n: int,
                    exclude: Iterable[str] = (),
                    level: str = "identity",
                    targets: Iterable[tuple[int, int]] | None = None
                    ) -> Iterator[tuple[str, ...]]:
    """All length-n basis words whose output bidegree is a target.

    With level="identity" the output bidegree is (sum of inputs) shifted
    by n - 3 in s, where the arity-n identity's terms live; with
    level="operation" the shift is n - 2, where m_n itself lands.  The
    targets are (s, w) output bidegrees; those outside the window are
    ignored, and None means every in-window output bidegree.  Words come
    in lexicographic order of the letters sorted by (-s, label), so a
    target set only filters the default list.

    A prefix is extended only while some completion of the remaining
    letters lands on a target, decided on both coordinates by the (s, w)
    sums that prefixes of each length can reach, so the work scales with
    the words yielded, not with the full tuple count.  Those sums are
    kept only inside the box that the remaining letters can still carry
    into the goal's bounding box, so their sets do not grow with n.
    """
    shift = {"identity": n - 3, "operation": n - 2}[level]
    lo, hi = model.space.window
    letters = []
    for bd in model.space.bidegrees():
        for lab in model.space.labels(bd):
            if lab not in exclude:
                letters.append((lab, bd.s, bd.w))
    letters.sort(key=lambda ls: (-ls[1], ls[0]))
    if not letters:
        return
    steps = {(s, w) for _, s, w in letters}
    ds_lo, ds_hi = min(s for s, _ in steps), max(s for s, _ in steps)
    dw_lo, dw_hi = min(w for _, w in steps), max(w for _, w in steps)

    # the input (s, w) sums that land on a goal lie in s_box x w_box; with
    # no targets w_box holds every sum of n letters
    if targets is None:
        goal = None
        s_box, w_box = (lo - shift, hi - shift), (n * dw_lo, n * dw_hi)
    else:
        goal = {(s - shift, w) for s, w in targets if lo <= s <= hi}
        if not goal:
            return
        s_box = (min(s for s, _ in goal), max(s for s, _ in goal))
        w_box = (min(w for _, w in goal), max(w for _, w in goal))
    # reach[k]: the input (s, w) sums of length-k prefixes from which the
    # other n - k letters can still end in the box
    reach = [{(0, 0)}]
    for k in range(1, n + 1):
        r = n - k
        s_min, s_max = s_box[0] - r * ds_hi, s_box[1] - r * ds_lo
        w_min, w_max = w_box[0] - r * dw_hi, w_box[1] - r * dw_lo
        reach.append({(s + ds, w + dw) for s, w in reach[-1]
                      for ds, dw in steps
                      if s_min <= s + ds <= s_max
                      and w_min <= w + dw <= w_max})
    # live[k]: the length-k prefix sums that some completion takes to a goal
    live = [set() for _ in range(n + 1)]
    live[n] = reach[n] if goal is None else reach[n] & goal
    for k in range(n - 1, -1, -1):
        live[k] = reach[k] & {(s - ds, w - dw) for s, w in live[k + 1]
                              for ds, dw in steps}

    # the letters come in decreasing s, so a scan stops at the first one
    # that takes the prefix below every live sum of the next length
    floor = [min((s for s, _ in sums), default=0) for sums in live]

    def rec(prefix: list[str], s0: int, w0: int) -> Iterator[tuple[str, ...]]:
        k = len(prefix)
        if k == n:
            yield tuple(prefix)
            return
        ahead = live[k + 1]
        for lab, s, w in letters:
            if s0 + s < floor[k + 1]:
                break
            if (s0 + s, w0 + w) in ahead:
                yield from rec(prefix + [lab], s0 + s, w0 + w)

    if (0, 0) in live[0]:
        yield from rec([], 0, 0)


def _count_sweep(model: AInfinityAlgebra, bound: int,
                 exclude: Iterable[str]) -> dict[int, tuple[int, int]]:
    """Arity n -> (checked, truncated) over the words of
    enumerate_words(model, n, exclude), for every n up to bound, counted
    without listing them.

    That word set and the truncation rule of _q_leaves_window both depend
    on the letter degrees s alone, so a dynamic program over
    (Q, min Q, max Q) of the prefixes that stay inside, plus Q of those
    that already left, counts both; letters of one degree are one step
    with a multiplicity.  The arity-n identity output sits at Q_n - 3
    whatever n is, so the states after n steps hold the arity-n counts
    and one pass of bound steps counts every arity.
    """
    lo, hi = window = model.space.window
    steps = Counter(bd.s + 1 for bd in model.space.bidegrees()
                    for lab in model.space.labels(bd) if lab not in exclude)
    step_lo, step_hi = min(steps, default=0), max(steps, default=0)
    inside: Counter = Counter({(0, 0, 0): 1})
    left: Counter = Counter()
    counts: dict[int, tuple[int, int]] = {}
    for n in range(1, bound + 1):
        nxt_inside, nxt_left = Counter(), Counter()
        for q, c in left.items():
            for step, k in steps.items():
                nxt_left[q + step] += c * k
        for (q, qmin, qmax), c in inside.items():
            for step, k in steps.items():
                q2 = q + step
                if _q_leaves_window(window, q2, qmin, qmax):
                    nxt_left[q2] += c * k
                else:
                    nxt_inside[q2, min(qmin, q2), max(qmax, q2)] += c * k
        counts[n] = (
            sum(c for (q, _, _), c in nxt_inside.items() if lo <= q - 3 <= hi),
            sum(c for q, c in nxt_left.items() if lo <= q - 3 <= hi))
        # drop a state no remaining steps bring back into the window: Q
        # after r more steps lies in [Q + r step_lo, Q + r step_hi]
        live = {q for q in {key[0] for key in nxt_inside} | set(nxt_left)
                if any(q + r * step_lo <= hi + 3 and q + r * step_hi >= lo + 3
                       for r in range(1, bound - n + 1))}
        inside = Counter({key: c for key, c in nxt_inside.items()
                          if key[0] in live})
        left = Counter({q: c for q, c in nxt_left.items() if q in live})
    return counts


def stasheff_defect(model: AInfinityAlgebra, n: int,
                    words: Iterable[tuple[str, ...]]) -> DefectReport:
    """The arity-n Stasheff identity evaluated on each given word; a word
    with a subword whose operation leaves the window counts as truncated,
    not as zero, and a word beyond the arity bound is refused."""
    checked = truncated = 0
    bad: dict[tuple[str, ...], dict[str, int]] = {}
    for word in words:
        try:
            defect = stasheff_word_defect(model, word)
        except TruncationExceeded:
            truncated += 1
            continue
        checked += 1
        if defect:
            bad[word] = defect
    return DefectReport(arity=n, checked=checked, truncated=truncated,
                        nonzero=bad)


def stasheff_sweep(model: AInfinityAlgebra, *,
                   exclude: Iterable[str] = ()) -> dict[int, DefectReport]:
    """Sweep the Stasheff identity at every arity 3 .. arity_bound.

    The arity-n sweep covers enumerate_words(model, n, exclude), the words
    over the labels not in `exclude` whose identity output is in the
    window.  One pass of _count_sweep counts its checked and truncated
    words without listing them; only the words whose identity output
    bidegree carries a block are evaluated, since every other word has
    zero defect by grading.  stasheff_word_defect truncates a word by the
    rule that _count_sweep counts with, so the counts and the evaluated
    words agree, and a truncated word is never read as zero.
    """
    exclude = frozenset(exclude)
    counts = _count_sweep(model, model.arity_bound, exclude)
    sweep: dict[int, DefectReport] = {}
    for n in range(3, model.arity_bound + 1):
        rep = stasheff_defect(model, n, enumerate_words(
            model, n, exclude=exclude, targets=model.space.blocks))
        rep.checked, rep.truncated = counts[n]
        sweep[n] = rep
    return sweep


def strict_unitality_defects(model: AInfinityAlgebra) -> list[str]:
    """Violations of strict unitality in the operation tables.

    A strictly unital model has m_2(1, a) = m_2(a, 1) = a for every basis
    label a and no nonzero higher operation with a unit input.  When this
    list is empty, the Stasheff identity on any word containing the unit
    reduces term by term to unitality relations and lower-arity
    identities, so a sweep may exclude the unit from its alphabet; that
    keeps the word count polynomial when the window is much deeper than
    the smallest generator degree.
    """
    unit = model.unit
    p = model.space.prime
    bad: list[str] = []
    for bd in sorted(model.space.bidegrees()):
        for lab in model.space.labels(bd):
            for word in ((unit, lab), (lab, unit)):
                got = {k: v % p for k, v in model.op_value(2, word).items()
                       if v % p}
                if got != {lab: 1 % p}:
                    bad.append(f"m_2{word} = {got}, expected {lab}")
    for n in sorted(model.ops):
        if n < 3:
            continue
        for word in sorted(model.ops[n]):
            if unit in word and any(c % p for c in model.ops[n][word].values()):
                bad.append(f"m_{n}{word} is nonzero despite a unit input")
    return bad


# ---------------------------------------------------------------------------
# bidegree classification of admissible higher operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisParams:
    """Bigraded shape k[x] (x) Lambda(t), |x| = (-2a, ell), |t| = (-2b-1, h).

    The integers satisfy h*a - ell*b == 1; a and b may be negative (the
    loop-side models realize the same shape with the homological grading
    reflected).  Internal degrees here are in abstract (absolute) units.
    """

    a: int
    b: int
    h: int
    ell: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.ell < 1:
            raise ValueError("h and ell must be positive")
        if self.h * self.a - self.ell * self.b != 1:
            raise ValueError(
                f"h*a - ell*b = {self.h * self.a - self.ell * self.b}, need 1")

    def monomial_bidegree(self, j: int, eps: int, scale: int = 1) -> Bidegree:
        return Bidegree(-2 * self.a * j - (2 * self.b + 1) * eps,
                        (j * self.ell + eps * self.h) * scale)

    def loop_dual(self) -> "HypothesisParams":
        """Same shape on the Koszul-dual side: a,b negated and swapped,
        h and ell exchanged."""
        return HypothesisParams(a=-self.b, b=-self.a, h=self.ell, ell=self.h)


def monomials(hp: HypothesisParams, scale: int,
              window: tuple[int, int]) -> list[tuple[int, int, Bidegree]]:
    """(j, eps, bidegree) of each monomial P^j E^eps of shape hp whose
    homological degree lies in the window, ordered by j and then eps;
    internal degrees are stored in units of 1/scale.

    Two monomials never share a homological degree, since
    2a(j - j') = +-(2b + 1) has no integer solution, so each bidegree
    holds at most one.  The scan climbs j from 0 and stops at the first
    j >= 1 with no monomial in the window, which therefore has to reach
    degree 0, as every model window does.
    """
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
            return out
        j += 1


@dataclass(frozen=True)
class AdmissibleOp:
    """One tuple on which the bidegree equations allow a nonzero m_arity."""

    arity: int
    powers: tuple[int, ...]      # x-exponents of the inputs
    exponents: tuple[int, ...]   # t-exponents of the inputs (0 or 1)
    target_power: int
    target_exponent: int


@dataclass(frozen=True)
class AdmissibleShape:
    """The bidegree equations of one arity and t-exponent pattern.

    power_excess is alpha, the input x-exponent sum minus the target's.
    """

    arity: int
    exponents: tuple[int, ...]
    target_exponent: int
    power_excess: int


def admissible_shapes(hp: HypothesisParams, max_arity: int) -> list[AdmissibleShape]:
    """The (arity > 2, t-exponent pattern, target t-exponent) shapes that
    can support a nonzero operation, sorted by arity and pattern.

    For inputs x^{j_r} t^{e_r} and candidate target x^j t^e, write
    alpha = sum(j_r) - j and beta = sum(e_r) - e.  An operation of arity i
    preserves internal degree and shifts homological degree by i-2, which
    forces

        alpha*ell + beta*h = 0        (internal)
        2*a*alpha + (2*b+1)*beta = i - 2   (homological).

    Since gcd(h, ell) = 1 (from h*a - ell*b = 1), the first equation pins
    beta to a multiple of ell.  With ell > 2, beta = -1 is no multiple, so
    beta >= 0 and alpha <= 0: every power tuple of a shape has a target
    x-exponent j >= 0.  A pattern fixes beta up to the one target
    exponent, so it has at most one shape.
    """
    if hp.ell <= 2:
        raise ValueError("classification needs ell > 2")
    out: list[AdmissibleShape] = []
    for i in range(3, max_arity + 1):
        for beta in range(0, i + 1, hp.ell):
            alpha = -(beta // hp.ell) * hp.h
            if 2 * hp.a * alpha + (2 * hp.b + 1) * beta != i - 2:
                continue
            for eps_t in (0, 1):
                bsum = beta + eps_t
                for positions in itertools.combinations(range(i), bsum):
                    chosen = set(positions)
                    eps = tuple(1 if k in chosen else 0 for k in range(i))
                    out.append(AdmissibleShape(
                        arity=i, exponents=eps, target_exponent=eps_t,
                        power_excess=alpha))
    out.sort(key=lambda sh: (sh.arity, sh.exponents))
    return out


def classify_admissible(hp: HypothesisParams, max_arity: int,
                        max_power: int) -> list[AdmissibleOp]:
    """All monomial tuples (arity > 2) that can support a nonzero operation:
    each shape of admissible_shapes with every power tuple of exponents
    up to max_power, sorted by (arity, exponents, powers,
    target_exponent).  The shapes come sorted by (arity, exponents) and
    one pattern has one shape, so expanding them in order keeps that
    sort."""
    out: list[AdmissibleOp] = []
    for sh in admissible_shapes(hp, max_arity):
        for powers in itertools.product(range(max_power + 1), repeat=sh.arity):
            out.append(AdmissibleOp(
                arity=sh.arity, powers=powers, exponents=sh.exponents,
                target_power=sum(powers) - sh.power_excess,
                target_exponent=sh.target_exponent))
    return out


# ---------------------------------------------------------------------------
# generator normalization
# ---------------------------------------------------------------------------

class ShapeMismatch(Exception):
    """The model does not have the k[x] (x) Lambda(t) monomial shape."""


def _unique_label(model: AInfinityAlgebra, bd: Bidegree, what: str) -> str:
    labels = model.space.labels(bd)
    if len(labels) != 1:
        raise ShapeMismatch(
            f"expected one basis element for {what} at {tuple(bd)}, "
            f"found {len(labels)}")
    return labels[0]


def _single(vec: dict[str, int], what: str) -> tuple[str, int]:
    if len(vec) != 1:
        raise ShapeMismatch(f"{what} is not a nonzero multiple of one label")
    ((lab, c),) = vec.items()
    return lab, c


def normalize_generators(model: AInfinityAlgebra,
                         hp: HypothesisParams) -> "NormalizedModel":
    """Rescale x and t so the arity-ell family has coefficient epsilon(ell).

    The monomials of the window are rebuilt as literal m_2-products of the
    generators, x^j = x * x^(j-1) and x^j t = x^j * t for j >= 1, and every
    basis label must be hit by exactly one of them.  The raw coefficient
    is read from the input: m_ell(t, ..., t) = c * (label of x^h), and x^h
    is C_h times that label in the rebuilt basis, so raw = c * C_h^-1.
    That word lands on x^h's bidegree, so a window that misses x^h raises
    TruncationExceeded rather than reading zero.  Every table is then
    conjugated once into the monomial basis, with x and t rescaled to put
    the family in normal form, or unscaled and flagged formal when the
    family vanishes.  Each new basis vector is a multiple of the one label
    at its bidegree, so the labels and the space are kept: only the tables
    change.
    """
    p = model.prime
    scale = model.internal_scale
    if hp.a == 0:
        raise ValueError("normalization needs a nonzero polynomial degree")
    ell = hp.ell

    monos = monomials(hp, scale, model.space.window)
    x_lab = _unique_label(model, hp.monomial_bidegree(1, 0, scale), "x")
    t_lab = _unique_label(model, hp.monomial_bidegree(0, 1, scale), "t")

    # nu[(j, eps)] = (old label, coefficient): the m_2-monomial basis
    nu: dict[tuple[int, int], tuple[str, int]] = {}
    for j, eps, bd in monos:
        if j == 0:
            nu[(0, eps)] = (t_lab, 1) if eps else (model.unit, 1)
            continue
        base, c_base = nu[(j, 0) if eps else (j - 1, 0)]
        what = monomial_label(j, eps)
        word = (base, t_lab) if eps else (x_lab, base)
        lab, c = _single(model.op_value(2, word), what)
        if model.space.bidegree_of(lab) != bd:
            raise ShapeMismatch(f"{what} landed in the wrong bidegree")
        nu[(j, eps)] = (lab, c_base * c % p)

    labels = [lab for bd in model.space.bidegrees()
              for lab in model.space.labels(bd)]
    if sorted(lab for lab, _ in nu.values()) != sorted(labels):
        raise ShapeMismatch(f"the {len(nu)} monomials do not hit the "
                            f"{len(labels)} basis labels once each")
    inv = {a: pow(a, p - 2, p) for a in range(1, p)}

    # m_ell(t, ..., t) lands on x^h's bidegree, whose one label is h_lab
    family = model.op_value(ell, (t_lab,) * ell)
    h_lab, c_h = nu[(hp.h, 0)]
    raw_coeff = family.get(h_lab, 0) * inv[c_h] % p

    lam = mu = 1
    if raw_coeff:
        want = epsilon_sign(ell) % p
        scales = [(l, m) for l in range(1, p) for m in range(1, p)
                  if raw_coeff * pow(m, ell, p) * inv[pow(l, hp.h, p)] % p
                  == want]
        if not scales:
            raise ShapeMismatch(
                f"cannot rescale coefficient {raw_coeff} to {want} mod {p}")
        lam, mu = scales[0]

    # generator rescale x -> lam*x, t -> mu*t carries nu(j,eps) to
    # lam^j mu^eps nu(j,eps), a factor times its label; conjugate every
    # table by that diagonal
    factor = {lab: c * pow(lam, j, p) * pow(mu, eps, p) % p
              for (j, eps), (lab, c) in nu.items()}
    ops: dict[int, MultiOp] = {}
    for n, table in model.ops.items():
        new_table: MultiOp = {}
        for word, vec in table.items():
            out_lab, coeff = _single(vec, f"m_{n}{word}")
            for lab in word:
                coeff = coeff * factor[lab] % p
            new_table[word] = {out_lab: coeff * inv[factor[out_lab]] % p}
        if new_table:
            ops[n] = new_table
    return NormalizedModel(model=replace(model, ops=ops),
                           raw_coefficient=raw_coeff, x_scale=lam, t_scale=mu)


@dataclass
class NormalizedModel:
    """A minimal model in the canonical monomial basis.

    raw_coefficient is the arity-ell coefficient before rescaling; the
    normalized table carries epsilon(ell) instead, but the raw value is
    kept because the rescaling that removes it is a change of basis, not
    new information.  The model is formal when it is zero.
    """

    model: AInfinityAlgebra
    raw_coefficient: int
    x_scale: int
    t_scale: int

    @property
    def formal(self) -> bool:
        return not self.raw_coefficient
