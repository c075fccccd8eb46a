"""Shared helpers: window iteration, random exact scalars, oracles (among
them the affine roots, the affine Weyl group as elements with their product,
inverse and action on points and functions, the element of a word, the Laurent
polynomial ring with the affine Weyl action on exponents, the undeformed
Hamiltonian, d_i^-, the Bethe residual/Jacobian/elimination as loops, and
the symmetrized sums of h_p and R_lambda term by term, a Q-word engine
layer chain that records the layers its reads cut, and one engine read as
Fractions)."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from hecke_bose import hamiltonian, laurent, weyl
from hecke_bose.bethe import POLE_TOL, BetheSolverError
from hecke_bose.verify import random_distinct_fractions as rand_distinct_fractions
from hecke_bose.verify import random_fraction as rand_fraction
from hecke_bose.verify import window_points as window


def rand_params_pair(rng):
    """A generic (alpha, beta) pair with beta nonzero; alpha is drawn first."""
    alpha = rand_fraction(rng)
    beta = rand_fraction(rng)
    while not beta:
        beta = rand_fraction(rng)
    return alpha, beta


@dataclass(frozen=True)
class AffineRoot:
    """The affine root alpha_{ij} + m*L*delta, with 1-based indices i != j."""

    i: int
    j: int
    m: int = 0

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("affine root requires i != j")


def simple_root(i, k):
    """The simple affine root a_i, 0 <= i < k (a_0 = -alpha_{1k} + L*delta)."""
    if i == 0:
        return AffineRoot(k, 1, 1)
    return AffineRoot(i, i + 1, 0)


def eval_root(a, x, L):
    """Evaluate the affine root a at the point x: x_i - x_j + m*L."""
    return x[a.i - 1] - x[a.j - 1] + a.m * L


def reflect(a, x, L):
    """Orthogonal reflection of x in the hyperplane where a vanishes."""
    c = eval_root(a, x, L)
    y = list(x)
    y[a.i - 1] -= c
    y[a.j - 1] += c
    return tuple(y)


@dataclass(frozen=True)
class AffineWeylElement:
    """Element of the extended affine Weyl group, acting by x -> perm(x) + trans.

    ``perm`` is 0-based: basis vector v_{i+1} is sent to v_{perm[i]+1}.
    ``trans`` is the raw translation vector (already including any L factor).
    """

    perm: tuple
    trans: tuple


def simple_reflection_element(i, k, L):
    """The generator s_i as a group element, 0 <= i < k."""
    perm = list(range(k))
    trans = [0] * k
    if i == 0:
        perm[0], perm[k - 1] = perm[k - 1], perm[0]
        trans[0], trans[k - 1] = L, -L
    else:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return AffineWeylElement(tuple(perm), tuple(trans))


def pi_element(k, L):
    """The diagram rotation pi = t_{L v_1} s_1 ... s_{k-1}, which sends x to
    (x_k + L, x_1, ..., x_{k-1})."""
    return AffineWeylElement(tuple(range(1, k)) + (0,), (L,) + (0,) * (k - 1))


def act(w, x):
    """Apply the group element w to the lattice point x."""
    out = list(w.trans)
    for i, p in enumerate(w.perm):
        out[p] += x[i]
    return tuple(out)


def identity_element(k):
    return AffineWeylElement(tuple(range(k)), (0,) * k)


def translation_element(vec):
    k = len(vec)
    return AffineWeylElement(tuple(range(k)), tuple(vec))


def _apply_perm(perm, vec):
    out = [0] * len(vec)
    for i, p in enumerate(perm):
        out[p] = vec[i]
    return tuple(out)


def compose(u, w):
    """The product u*w, acting as u after w."""
    perm = tuple(u.perm[p] for p in w.perm)
    shifted = _apply_perm(u.perm, w.trans)
    trans = tuple(s + t for s, t in zip(shifted, u.trans))
    return AffineWeylElement(perm, trans)


def inverse(w):
    k = len(w.perm)
    pinv = [0] * k
    for i, p in enumerate(w.perm):
        pinv[p] = i
    pinv = tuple(pinv)
    trans = tuple(-t for t in _apply_perm(pinv, w.trans))
    return AffineWeylElement(pinv, trans)


def act_on_function(w, f):
    """The action on functions: (w f)(x) = f(w^{-1} x)."""
    winv = inverse(w)
    return cache(lambda x: f(act(winv, x)))


def from_word(word, k, L):
    """The element s_{word[0]} s_{word[1]} ... (left factor acts last)."""
    w = identity_element(k)
    for letter in word:
        w = compose(w, simple_reflection_element(letter, k, L))
    return w


class LaurentPolynomial(laurent.LaurentPolynomial):
    """The ring on top of the package's term holder: sums, products, scaling
    and equality, for the ring-axiom and relation tests."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls, k):
        return cls.monomial((0,) * k)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            c = out.get(exp, 0) + coeff
            if c == 0:
                out.pop(exp, None)
            else:
                out[exp] = c
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = out
        return p

    def __neg__(self):
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = {exp: -c for exp, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(exp, 0) + c1 * c2
                if c == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = c
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        if scalar == 0:
            return LaurentPolynomial.zero()
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = {exp: scalar * c for exp, c in self.terms.items()}
        return p

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(0)"
        bits = ["%s*e%s" % (c, list(exp)) for exp, c in sorted(self.terms.items())]
        return "LaurentPolynomial(%s)" % " + ".join(bits)


def weyl_act_poly(w, p):
    """Action of a (extended) affine Weyl element on exponents: w(e^x) = e^{w x}."""
    out = {}
    for exp, coeff in p.terms.items():
        moved = act(w, exp)
        out[moved] = out.get(moved, 0) + coeff
    return LaurentPolynomial(out)


def d_minus(i, x, params):
    """Count p in 1..k-1 with a_{i-p}(x) + ... + a_{i-1}(x) a non-positive multiple of L."""
    return hamiltonian._d_counts(x, params)[1][(i - 1) % params.k]


def apply_H_tilde(f, x, params):
    """The undeformed periodic Hamiltonian: discrete Laplacian plus pair coincidences.

    (H~ f)(x) = sum_i ( f(x - v_i) - f(x) ) + #{i < j : x_i = x_j mod L} f(x).
    Counted directly, independent of the d_i^{+-} functions.
    """
    k, L = params.k, params.L
    fx = f(x)
    total = 0
    for i in range(k):
        shifted = list(x)
        shifted[i] -= 1
        total += f(tuple(shifted)) - fx
    pairs = sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if (x[i] - x[j]) % L == 0
    )
    return total + pairs * fx


def monomial_symmetric(lam, z):
    """Brute-force monomial symmetric polynomial m_lambda(z)."""
    lam = tuple(lam) + (0,) * (len(z) - len(lam))
    total = 0
    for perm in set(itertools.permutations(lam)):
        term = 1
        for e, zz in zip(perm, z):
            term *= zz ** e
        total += term
    return total


def schur(lam, z):
    """Schur polynomial via the bialternant ratio, exact arithmetic."""
    k = len(z)
    lam = tuple(lam) + (0,) * (k - len(lam))

    def alternant(exps):
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = _parity(perm)
            term = 1
            for row, col in enumerate(perm):
                term *= z[col] ** exps[row]
            total += sign * term
        return total

    num = alternant([lam[i] + k - 1 - i for i in range(k)])
    den = alternant([k - 1 - i for i in range(k)])
    return num / den


def _parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


# -- the Bethe kernel as loops ------------------------------------------------
#
# bethe.py compiles one straight-line residual/Jacobian/elimination kernel per
# particle number; these loops do the same arithmetic in the same order and
# are the oracle that the compiled kernels must equal bit for bit.


def loop_scattering_row(p, i, alpha, beta):
    """The factors S_ij = (beta p_i - p_j - alpha)/(p_i - beta p_j + alpha)
    of row i as numerators, denominators and ratios (None at j = i), and
    their product over j != i.  Raises at a vanishing denominator."""
    k = len(p)
    nums = [None] * k
    dens = [None] * k
    ratios = [None] * k
    prod = 1
    for j in range(k):
        if j == i:
            continue
        nums[j] = beta * p[i] - p[j] - alpha
        dens[j] = p[i] - beta * p[j] + alpha
        if abs(complex(dens[j])) < POLE_TOL:
            raise BetheSolverError(
                "Bethe equation denominator vanishes at (i, j) = (%d, %d)" % (i + 1, j + 1), s=None
            )
        ratios[j] = nums[j] / dens[j]
        prod *= ratios[j]
    return nums, dens, ratios, prod


def loop_bethe_system(p, L, alpha, beta):
    """Residuals r_i = p_i^L - prod_{j != i} S_ij and the Jacobian
    dr_i/dp_j as a list of rows.

    Plain arithmetic on the elements of p, so rational p gives exact
    residuals.  The Jacobian uses the partial products over l != i, j rather
    than dividing by S_ij, which may vanish.
    """
    k = len(p)
    res = []
    jac = []
    for i in range(k):
        nums, dens, ratios, prod = loop_scattering_row(p, i, alpha, beta)
        res.append(p[i] ** L - prod)
        row = [0] * k
        row[i] = L * p[i] ** (L - 1)
        for j in range(k):
            if j == i:
                continue
            partial = 1
            for l in range(k):
                if l != i and l != j:
                    partial *= ratios[l]
            den2 = dens[j] ** 2
            row[i] -= partial * ((beta * dens[j] - nums[j]) / den2)
            row[j] = -partial * ((-dens[j] + beta * nums[j]) / den2)
        jac.append(row)
    return res, jac


def loop_solve(jac, res):
    """The x with jac x = res, by Gaussian elimination with partial pivoting.
    Plain arithmetic on the entries; a zero pivot raises ZeroDivisionError."""
    k = len(res)
    rows = [list(row) + [r] for row, r in zip(jac, res)]
    for c in range(k):
        pivot = max(range(c, k), key=lambda i: abs(rows[i][c]))
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        for row in rows[c + 1 :]:
            factor = row[c] / top[c]
            for j in range(c + 1, k + 1):
                row[j] -= factor * top[j]
    x = [0] * k
    for i in reversed(range(k)):
        row = rows[i]
        x[i] = (row[k] - sum(row[j] * x[j] for j in range(i + 1, k))) / row[i]
    return x


# -- the symmetrized sums term by term ----------------------------------------
#
# bethe.py sums a rational symmetrization in ints over one common denominator;
# these are the sums as it made them before, each term in the inputs' own
# arithmetic (Fractions at rational inputs).  They are the oracle that the int
# sums must equal exactly and the complex sums bit for bit.


def symmetrized_terms(pair):
    """The k! pairs (sigma, prod_{i<j} pair[sigma(i)][sigma(j)]) of a k x k
    table of pair factors, sigma in lexicographic order."""
    k = len(pair)
    ij = list(itertools.combinations(range(k), 2))
    sigmas = itertools.permutations(range(k))
    return [(s, math.prod(pair[s[i]][s[j]] for i, j in ij)) for s in sigmas]


def sum_terms(terms, z, exps):
    """sum over (sigma, coef) in terms of coef * prod_i z_{sigma(i)}^{exps_i},
    from one k x k table of powers."""
    powers = [[v ** e for v in z] for e in exps]
    total = 0
    for sigma, coef in terms:
        mono = 1
        for row, s in zip(powers, sigma):
            mono *= row[s]
        total += coef * mono
    return total


def symmetrized_sum(pair, z, exps):
    """sum_sigma prod_{i<j} pair[sigma(i)][sigma(j)] prod_i z_{sigma(i)}^{exps_i}."""
    return sum_terms(symmetrized_terms(pair), z, exps)


def hl_pairs(z, t):
    """R_lambda's pair factors (z_a - t z_b)/(z_a - z_b), None on the diagonal."""
    k = len(z)
    return [[None if a == b else (z[a] - t * z[b]) / (z[a] - z[b]) for b in range(k)]
            for a in range(k)]


def seeded(name):
    return random.Random(name)


def descents(points, params):
    """{x: weyl.shortest_element(x)}: what ``propagate_many`` reads G at."""
    return {x: weyl.shortest_element(x, params) for x in points}


def word_values(engine, word, points):
    """(Q_word f)(x) at the given points as Fractions, from one ``walk`` of a
    Q-word engine for f: a fresh one for a reference read."""
    scale, (column,) = engine.walk([(word, points)])
    return [Fraction(v, scale) for v in column]


def layer_sizes(layer):
    """A Q-word engine layer's memo size and the summed length of its line sums."""
    return len(layer.memo), sum(len(sums) for sides in layer.lines.values() for sums in sides)


def chain_word(engine):
    """The word whose layers a Q-word engine's chain holds, read off the
    layers' letters, outermost first."""
    return tuple(layer.letter for layer in reversed(engine._chain))


class LayerChain(list):
    """A Q-word engine's chain of layers that records each layer a read cuts:
    set as ``engine._chain`` on a fresh engine, it keeps the work of the
    layers the engine has cut, by word suffix."""

    def __init__(self):
        super().__init__()
        self.cut = []  # (suffix, memo size, line-sum length) per layer cut

    def _suffix(self, d):
        # the letters of layer d and of the layers it is built on, outermost first
        return tuple(layer.letter for layer in reversed(self[: d + 1]))

    def __delitem__(self, cut):
        for d in range(len(self))[cut]:
            self.cut.append((self._suffix(d), *layer_sizes(self[d])))
        super().__delitem__(cut)

    def work(self):
        """(suffix, memo size, line-sum length) per layer cut so far and per
        layer still held."""
        return self.cut + [(self._suffix(d), *layer_sizes(layer)) for d, layer in enumerate(self)]
