"""Gram matrices and sums of hermitian squares.

A homogeneous p of degree d1 + d2 has a unique (d1, d2)-Gram matrix A over
the word bases W_{d1} (rows) and W_{d2} (columns):

    p = sum_{u in W_{d1}, v in W_{d2}}  A[u][v] * (u)^* v

Uniqueness holds because in the free algebra the products (u)^* v are
pairwise distinct words.  For d1 = d2 = d, p is a sum of hermitian squares
sum_k r_k^* r_k iff p = p^* and the (d, d)-Gram matrix is positive
semidefinite.  The test runs on the rows that p's support touches, the
words (w[:d])^* of its terms; every other row and column is zero, and for
symmetric p the touched columns are the same words.  An exact LDL^T
factorization of that block yields the squares, and a rational witness
vector, zero-padded onto W_d, certifies the negative case.
"""

from fractions import Fraction

from .algebra import Poly, checked_order, word_star, words_of_degree
from .exactla import ldl_squares, psd_check_exact


class SosCertificate:
    """Weighted sum of hermitian squares: sum_k weights[k] * polys[k]^* polys[k]."""

    def __init__(self, weights, polys):
        self.weights = list(weights)
        self.polys = list(polys)

    def expand(self, g):
        return sum((w * (r.star() * r) for w, r in zip(self.weights, self.polys)), Poly.zero(g))


class SosCheckResult:
    def __init__(self, is_sos, certificate=None, witness=None, reason=""):
        self.is_sos = is_sos
        self.certificate = certificate
        self.witness = witness  # rational v with v^T A v < 0, over words_of_degree(g, d)
        self.reason = reason

    def __bool__(self):
        return self.is_sos


def is_sos_homogeneous(p, order=None):
    """Decide whether a homogeneous symmetric p is a sum of hermitian squares.

    Returns an SosCheckResult; .certificate satisfies certificate.expand(p.g) == p
    when the answer is yes, .witness refutes PSD-ness of the Gram matrix when
    the answer is no.
    """
    order = checked_order(p.g, order)
    if not p:
        return SosCheckResult(True, SosCertificate([], []))
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous (or zero)")
    d = p.degree()
    if d % 2:
        return SosCheckResult(False, reason="odd degree")
    if not p.is_symmetric():
        return SosCheckResult(False, reason="not symmetric")
    h = d // 2
    words = sorted({word_star(w[:h]) for w in p.terms}, key=order.key)
    index = {u: i for i, u in enumerate(words)}
    block = [[Fraction(0)] * len(words) for _ in words]
    for w, c in p.terms.items():
        block[index[word_star(w[:h])]][index[w[h:]]] = c
    res = psd_check_exact(block)
    if not res.is_psd:
        by_word = dict(zip(words, res.witness))
        witness = [by_word.get(u, Fraction(0)) for u in words_of_degree(p.g, h, order)]
        return SosCheckResult(False, witness=witness, reason="gram matrix not psd")
    weights, rows = ldl_squares(res, words)
    cert = SosCertificate(weights, [Poly(p.g, dict(r)) for r in rows])
    if cert.expand(p.g) != p:
        raise AssertionError("internal error: SOS certificate does not expand to the input")
    return SosCheckResult(True, cert)


def pm_sos_kind(p, order=None):
    """Classify a symmetric homogeneous p as zero / +SOS / -SOS / neither.

    Returns (kind, certificate) with kind in {"zero", "plus", "minus",
    "neither"}; the certificate (for plus/minus) expands to p resp. -p.
    """
    if not p:
        return "zero", None
    if not p.is_symmetric():
        raise ValueError("input must be symmetric")
    plus = is_sos_homogeneous(p, order)
    if plus:
        return "plus", plus.certificate
    minus = is_sos_homogeneous(-p, order)
    if minus:
        return "minus", minus.certificate
    return "neither", None


# -- univariate quadratics ---------------------------------------------------
#
# For g = 1 write a symmetric quadratic as
#   s = b0 + b1 (x + x^*) + b2 (x^2 + x^*^2) + b3 x x^* + b4 x^* x .
# With G = [[b4, b2], [b2, b3]], sigma = 2 b2 + b3 + b4, mu = b1 / sigma (0
# when sigma = 0) and r = (x + mu, x^* + mu),
#   s = b0 - mu b1 + sum_ij G_ij r_i^* r_j    when sigma != 0 or b1 = 0,
# so s is a sum of hermitian squares iff G is PSD, b1 = 0 when sigma = 0,
# and b0 - mu b1 >= 0.


def quad_poly(b0, b1, b2, b3, b4):
    """Build b0 + b1(x+x*) + b2(x^2+x*^2) + b3 xx* + b4 x*x over g=1
    (Poly takes each coefficient to a Fraction and drops the zeros)."""
    return Poly(1, {(): b0, (0,): b1, (1,): b1, (0, 0): b2, (1, 1): b2, (0, 1): b3, (1, 0): b4})


def quad_coeffs(p):
    """Inverse of quad_poly; raises if p is not symmetric of that shape."""
    if p.g != 1 or (p and p.degree() is not None and p.degree() > 2):
        raise ValueError("expected a univariate polynomial of degree <= 2")
    b0 = p.coefficient(())
    b1 = p.coefficient((0,))
    b2 = p.coefficient((0, 0))
    b3 = p.coefficient((0, 1))
    b4 = p.coefficient((1, 0))
    if quad_poly(b0, b1, b2, b3, b4) != p:
        raise ValueError("polynomial is not symmetric")
    return b0, b1, b2, b3, b4


def sos_quadratic_univariate(b0, b1, b2, b3, b4):
    """Closed-form SOS test for b0 + b1(x+x*) + b2(x^2+x*^2) + b3 xx* + b4 x*x:
    whether decompose_quadratic_univariate finds a certificate."""
    return decompose_quadratic_univariate(b0, b1, b2, b3, b4) is not None


def decompose_quadratic_univariate(b0, b1, b2, b3, b4):
    """Constructive SOS decomposition of a univariate symmetric quadratic.

    Returns an SosCertificate with expand(1) == quad_poly(b0,...,b4), or None
    when there is none: when the 2x2 Gram matrix [[b4, b2], [b2, b3]] of the
    homogeneous part over the basis (x, x^*) is not PSD, when
    sigma = 2 b2 + b3 + b4 is 0 and b1 is not, or when the constant left by
    shifting x by mu = b1 / sigma is negative.  Otherwise the squares are
    that constant's and those of the block's LDL^T, over (x + mu, x^* + mu).
    """
    b0, b1, b2, b3, b4 = (Fraction(b) for b in (b0, b1, b2, b3, b4))
    hom = psd_check_exact([[b4, b2], [b2, b3]])
    sigma = 2 * b2 + b3 + b4
    if not hom.is_psd or not sigma and b1:
        return None
    mu = b1 / sigma if sigma else Fraction(0)
    const = b0 - mu * b1
    if const < 0:
        return None
    x = Poly.gen(1, 1)
    shifted = [x + mu, x.star() + mu]  # rows (x, x^*) of the homogeneous Gram matrix
    weights, rows = ldl_squares(hom, shifted)
    polys = [sum((c * s for s, c in r), Poly.zero(1)) for r in rows]
    if const:
        weights.insert(0, const)
        polys.insert(0, Poly.one(1))
    cert = SosCertificate(weights, polys)
    if cert.expand(1) != quad_poly(b0, b1, b2, b3, b4):
        raise AssertionError("internal error: quadratic decomposition mismatch")
    return cert
