"""Known answers derived from the mathematics alone.

Nothing here imports ulrich_kit: every expected verdict, table entry,
class and charge is recomputed from closed forms, so the benchmark can
tell a fast wrong answer from a fast right one.

Plain data model shared with the input generator:

* a variety is a tuple: ("pn", n), ("quadric", n), ("prod",) for
  P^1 x P^1 with O(1,1), ("elliptic", d), ("surface", d, i, chi0);
* an atom is ("O", k), ("O2", a, b), ("S", sign) with sign "+", "-" or
  None, ("ss", rank, degree, trivial) or ("abs", rank) for an abstract
  Ulrich sheaf on a surface;
* a sheaf is a tuple of (atom, multiplicity) pairs;
* a complex is a dict degree -> sheaf, plus a glue flag kept by callers.

Sources: Bott's binomial counts on P^n; the hypersurface sequence and
Serre duality on quadrics; h0(S(k)) = (2/3)(k+1)(k+2)(k+3) and
h3(S(k)) = h0(S(-k-4)) for the spinor bundle on Q^3; Kuenneth on
P^1 x P^1 (Q^2 is P^1 x P^1 with S+ = O(1,0), S- = O(0,1)); degree
counting with the degree-zero dichotomy on genus-one curves; the
solved Ulrich class e1 = r(i+3)/2, e2*d = -r*chi0 + (r*d/4)(i^2+3i+4);
and the defining charge Z = -[e2*d - (s+it)*e1*d + (s+it)^2*d*r/2].
The displayed closed form of the charge is never used as a reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import atan2, comb, pi


# ----------------------------------------------------------------- varieties


def dim(var) -> int:
    kind = var[0]
    if kind in ("pn", "quadric"):
        return var[1]
    if kind in ("prod", "surface"):
        return 2
    return 1  # elliptic


def variety_spec(var) -> str:
    kind = var[0]
    if kind == "prod":
        return "prod:1x1"
    if kind == "surface":
        return f"surface:d={var[1]},i={var[2]},chi={var[3]}"
    return f"{kind}:{var[1]}"


def default_window(var) -> tuple[int, int]:
    n = dim(var)
    return (-(2 * n + 5), n + 2)


# --------------------------------------------------------------- descriptors


def atom_text(atom) -> str:
    tag = atom[0]
    if tag == "O":
        return f"O({atom[1]})"
    if tag == "O2":
        return f"O({atom[1]},{atom[2]})"
    if tag == "S":
        return "S" + (atom[1] or "")
    if tag == "ss":
        word = "trivial" if atom[3] else "nontrivial"
        return f"ss({atom[1]},{atom[2]},{word})"
    raise ValueError(f"atom {atom!r} has no descriptor text")


def sheaf_text(sheaf) -> str:
    return "+".join(
        (f"{mult}*" if mult != 1 else "") + atom_text(atom) for atom, mult in sheaf
    )


# ------------------------------------------------------------ cohomology


def _c(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def bott(n: int, m: int) -> dict[int, int]:
    """h^i(O(m)) on P^n: binomial counts at the two ends only."""
    out = {}
    if m >= 0:
        out[0] = _c(m + n, n)
    if m <= -n - 1:
        out[n] = _c(-m - 1, n)
    return out


def _quadric_h0(n: int, m: int) -> int:
    # sections of O_Q(m) are degree-m forms modulo the quadric
    return _c(m + n + 1, n + 1) - _c(m - 1 + n, n + 1) if m >= 0 else 0


def quadric_line(n: int, m: int) -> dict[int, int]:
    out = {}
    h0 = _quadric_h0(n, m)
    top = _quadric_h0(n, -m - n)  # Serre duality, K = O(-n)
    if h0:
        out[0] = h0
    if top:
        out[n] = top
    return out


def spinor3_h0(k: int) -> int:
    return 2 * (k + 1) * (k + 2) * (k + 3) // 3 if k >= 0 else 0


def spinor3(k: int) -> dict[int, int]:
    out = {}
    h0, h3 = spinor3_h0(k), spinor3_h0(-k - 4)
    if h0:
        out[0] = h0
    if h3:
        out[3] = h3
    return out


def _kuenneth(a: int, b: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p, x in bott(1, a).items():
        for q, y in bott(1, b).items():
            out[p + q] = out.get(p + q, 0) + x * y
    return out


def _elliptic(deg: int, trivial: bool) -> dict[int, int]:
    if deg > 0:
        return {0: deg}
    if deg < 0:
        return {1: -deg}
    return {0: 1, 1: 1} if trivial else {}


def atom_column(var, atom, t: int) -> dict[int, int]:
    """Nonzero h^i of the atom twisted by O(t)."""
    kind, tag = var[0], atom[0]
    if kind == "pn" and tag == "O":
        return bott(var[1], atom[1] + t)
    if kind == "quadric" and tag == "O":
        if var[1] == 2:
            return _kuenneth(atom[1] + t, atom[1] + t)
        return quadric_line(var[1], atom[1] + t)
    if kind == "quadric" and tag == "S":
        if var[1] == 2:
            return _kuenneth(1 + t, t) if atom[1] == "+" else _kuenneth(t, 1 + t)
        return spinor3(t)
    if kind == "prod" and tag == "O2":
        return _kuenneth(atom[1] + t, atom[2] + t)
    if kind == "elliptic" and tag == "O":
        return _elliptic((atom[1] + t) * var[1], True)
    if kind == "elliptic" and tag == "ss":
        return _elliptic(atom[2] + atom[1] * t * var[1], atom[3])
    if kind == "surface" and tag == "abs":
        chi = solved_euler(var, atom[1], t)
        if not chi:
            return {}
        return {0 if t >= 0 else 2: chi}
    raise ValueError(f"no known answer for {atom!r} on {var!r}")


def column(var, sheaf, t: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for atom, mult in sheaf:
        for i, h in atom_column(var, atom, t).items():
            out[i] = out.get(i, 0) + mult * h
    return {i: h for i, h in out.items() if h}


def euler(col: dict[int, int]) -> int:
    return sum((-1) ** i * h for i, h in col.items())


def table_rows(var, sheaf, window) -> list[tuple[int, int, int]]:
    """Nonzero (i, t, h) sorted by twist then degree, as a CLI table lists them."""
    lo, hi = window
    return [
        (i, t, h)
        for t in range(lo, hi + 1)
        for i, h in sorted(column(var, sheaf, t).items())
    ]


def hyper_column(var, cx, t: int) -> dict[int, int]:
    """E2 sums h^k = sum_q h^(k-q)(E^q(t)), exact for split complexes."""
    out: dict[int, int] = {}
    for q, sheaf in cx.items():
        for i, h in column(var, sheaf, t).items():
            out[i + q] = out.get(i + q, 0) + h
    return {k: h for k, h in out.items() if h}


# ---------------------------------------------------------- Ulrich verdicts


def ulrich_twists(var) -> range:
    return range(-1, -dim(var) - 1, -1)


def first_nonzero(col_at, twists):
    for t in twists:
        for i, h in sorted(col_at(t).items()):
            if h:
                return (i, t, h)
    return None


def atom_is_ulrich(var, atom) -> bool:
    """The classification: shifts of O on P^n, O(1,0) and O(0,1) on
    P^1 x P^1, the spinors on Q^2 and Q^3, ss(r, r*d, nontrivial) on a
    genus-one curve, and the solved abstract sheaves on surfaces."""
    kind, tag = var[0], atom[0]
    if kind == "pn":
        return atom == ("O", 0)
    if kind == "quadric":
        return tag == "S"
    if kind == "prod":
        return atom in (("O2", 1, 0), ("O2", 0, 1))
    if kind == "elliptic":
        return tag == "ss" and atom[2] == atom[1] * var[1] and not atom[3]
    return tag == "abs"


def sheaf_is_ulrich(var, sheaf) -> bool:
    return all(atom_is_ulrich(var, atom) for atom, _ in sheaf)


def sheaf_verdict(var, sheaf):
    """(passed, witness) of the sheaf-level check.  For every atom the
    benchmark generates, twisted vanishing already decides the verdict,
    so the witness is the first nonzero entry at the Ulrich twists."""
    passed = sheaf_is_ulrich(var, sheaf)
    hit = first_nonzero(lambda t: column(var, sheaf, t), ulrich_twists(var))
    if passed != (hit is None):
        raise AssertionError(f"classification and vanishing disagree for {sheaf!r}")
    return passed, hit


def object_verdict(var, cx, mode: str):
    """(passed, witness) of is_ulrich_object in the given mode."""
    passed = all(sheaf_is_ulrich(var, sheaf) for sheaf in cx.values())
    if mode == "sheafwise":
        for q in sorted(cx):
            ok, hit = sheaf_verdict(var, cx[q])
            if not ok:
                return False, hit
        return True, None
    hit = first_nonzero(lambda t: hyper_column(var, cx, t), ulrich_twists(var))
    if passed != (hit is None):
        raise AssertionError(f"classification and vanishing disagree for {cx!r}")
    return passed, hit


def pn_multiplicities(cx) -> dict[int, int]:
    return {q: sum(m for _, m in cx[q]) for q in sorted(cx)}


def spinor_multiplicities(var, cx):
    """Decomposition of an Ulrich object on a quadric (or P^1 x P^1)."""
    if var == ("quadric", 3):
        return {q: sum(m for _, m in cx[q]) for q in sorted(cx)}
    out = {}
    for q in sorted(cx):
        counts = {"+": 0, "-": 0}
        for atom, m in cx[q]:
            plus = atom in (("S", "+"), ("O2", 1, 0))
            counts["+" if plus else "-"] += m
        out[q] = counts
    return out


def membership(var, cx, members):
    """(member_of_orthogonal, witness) for line-bundle members O(j)."""
    for j in members:
        col = hyper_column(var, cx, -j)
        for i in sorted(col):
            return False, (f"O({j})", i, -j, col[i])
    return True, None


# ------------------------------------------------------------- Ext and K0


def _q2_as_prod(atom):
    """Q^2 = P^1 x P^1 with O(1) = O(1,1), S+ = O(1,0), S- = O(0,1)."""
    if atom[0] == "S":
        return ("O2", 1, 0) if atom[1] == "+" else ("O2", 0, 1)
    return ("O2", atom[1], atom[1])


def ext(var, f_atom, g_sheaf, k: int) -> int:
    """dim Ext^k(F, G) for a line-like F: h^k of F-dual tensor G."""
    kind = var[0]
    if kind == "quadric" and var[1] == 2:
        g_prod = tuple((_q2_as_prod(atom), m) for atom, m in g_sheaf)
        return ext(("prod",), _q2_as_prod(f_atom), g_prod, k)
    if kind == "prod":
        _, a, b = f_atom
        shifted = tuple((("O2", g[1] - a, g[2] - b), m) for g, m in g_sheaf)
        return column(var, shifted, 0).get(k, 0)
    if kind == "elliptic":
        d = var[1]
        f = ("ss", 1, f_atom[1] * d, True) if f_atom[0] == "O" else f_atom
        total = 0
        for g, m in g_sheaf:
            g = ("ss", 1, g[1] * d, True) if g[0] == "O" else g
            delta = g[2] - g[1] * f[2]
            if delta:
                col = _elliptic(delta, False)
            else:
                # equal rank-one data is the same sheaf, whose Hom and Ext^1
                # are one-dimensional; distinct ones of equal degree have none
                col = {0: 1, 1: 1} if g == f else {}
            total += m * col.get(k, 0)
        return total
    return column(var, g_sheaf, -f_atom[1]).get(k, 0)


def _pn_coords(n: int, sheaf) -> list[Fraction]:
    return [Fraction(euler(column(("pn", n), sheaf, j))) for j in range(n + 1)]


def k0_coords(var, sheaf) -> list[Fraction]:
    kind = var[0]
    if kind == "pn":
        return _pn_coords(var[1], sheaf)
    if kind == "prod":
        return [
            Fraction(euler(column(var, tuple((("O2", g[1] + a, g[2] + b), m) for g, m in sheaf), 0)))
            for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
    if kind == "elliptic":
        # (rank, degree); O(k) is rank one of degree k*d
        r = sum(m * (atom[1] if atom[0] == "ss" else 1) for atom, m in sheaf)
        deg = sum(m * (atom[2] if atom[0] == "ss" else atom[1] * var[1]) for atom, m in sheaf)
        return [Fraction(r), Fraction(deg)]
    raise ValueError(f"no K0 coordinates for {var!r}")


def k0_rank(var) -> int:
    kind = var[0]
    if kind == "pn":
        return var[1] + 1
    return 4 if kind == "prod" else 2


def span_rank(vectors) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [list(v) for v in vectors]
    rk = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                factor = rows[r][col] / rows[rk][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def gate(var, sheaves):
    """(passed, rank, needed) of the K-lattice rank gate."""
    rk = span_rank([k0_coords(var, sheaf) for sheaf in sheaves])
    return rk == k0_rank(var), rk, k0_rank(var)


# -------------------------------------------------- structural transforms


def restrict(var, cx):
    """Hyperplane restriction degreewise: P^n -> P^(n-1), Q^3 -> Q^2 with
    S -> S+ + S-.  Returns (target, {degree: {atom: mult}})."""
    target = ("pn", var[1] - 1) if var[0] == "pn" else ("quadric", var[1] - 1)
    out = {}
    for q, sheaf in cx.items():
        atoms: dict = {}
        for atom, m in sheaf:
            images = [("S", "+"), ("S", "-")] if atom[0] == "S" else [atom]
            for image in images:
                atoms[image] = atoms.get(image, 0) + m
        out[q] = atoms
    return target, out


def external_product(left, right, twist_right: bool):
    """Box product of two split complexes on P^1: {degree: {atom: mult}}."""
    out: dict = {}
    for p, lsheaf in left.items():
        for q, rsheaf in right.items():
            atoms = out.setdefault(p + q, {})
            for (la, lm) in lsheaf:
                for (ra, rm) in rsheaf:
                    a = la[1] + (0 if twist_right else 1)
                    b = ra[1] + (1 if twist_right else 0)
                    key = ("O2", a, b)
                    atoms[key] = atoms.get(key, 0) + lm * rm
    return out


def pushforward(var, cx):
    """(trivialized, multiplicities, witness, reconstruction_ok) of the
    finite projection onto P^dim over the default window."""
    n = dim(var)
    hit = first_nonzero(lambda t: hyper_column(var, cx, t), ulrich_twists(var))
    if hit is not None:
        return False, None, hit, None
    mults = dict(sorted(hyper_column(var, cx, 0).items()))
    lo, hi = default_window(var)
    same = True
    for t in range(lo, hi + 1):
        rebuilt: dict[int, int] = {}
        for q, m in mults.items():
            for i, h in bott(n, t).items():
                rebuilt[i + q] = rebuilt.get(i + q, 0) + m * h
        if rebuilt != hyper_column(var, cx, t):
            same = False
    return True, mults, None, same


def triangle(var, e_sheaf, g_sheaf):
    """Split triangle E -> E+G -> G with the middle vertex missing:
    (certified, witness, implied Euler columns)."""
    witness = None
    for role, sheaf in (("E", e_sheaf), ("G", g_sheaf)):
        hit = first_nonzero(lambda t: column(var, sheaf, t), ulrich_twists(var))
        if hit is not None:
            witness = (role,) + hit
            break
    lo, hi = default_window(var)
    implied = {
        t: Fraction(euler(column(var, e_sheaf, t)) + euler(column(var, g_sheaf, t)))
        for t in range(lo, hi + 1)
    }
    return witness is None, witness, implied


# ------------------------------------------------------- surfaces, charges


def solved_class(var, r: int):
    """(r, e1, e2) of the unique class with chi(E(-1)) = chi(E(-2)) = 0."""
    _, d, i, chi0 = var
    i = Fraction(i)
    e1 = Fraction(r) * (i + 3) / 2
    e2 = (-r * chi0 + Fraction(r * d, 4) * (i * i + 3 * i + 4)) / d
    return (r, e1, e2)


def solved_euler(var, r: int, t: int) -> int:
    """chi(E(t)) of the solved class factors as (r*d/2)(t+1)(t+2)."""
    return r * var[1] * (t + 1) * (t + 2) // 2


def atom_class(var, atom):
    if atom[0] == "abs":
        return solved_class(var, atom[1])
    k = atom[1]
    return (1, Fraction(k), Fraction(k * k, 2))


def sheaf_class(var, sheaf):
    r, e1, e2 = 0, Fraction(0), Fraction(0)
    for atom, m in sheaf:
        ar, a1, a2 = atom_class(var, atom)
        r, e1, e2 = r + m * ar, e1 + m * a1, e2 + m * a2
    return (r, e1, e2)


def complex_class(var, cx):
    r, e1, e2 = 0, Fraction(0), Fraction(0)
    for q, sheaf in cx.items():
        sign = -1 if q % 2 else 1
        sr, s1, s2 = sheaf_class(var, sheaf)
        r, e1, e2 = r + sign * sr, e1 + sign * s1, e2 + sign * s2
    return (r, e1, e2)


def charge(d: int, cls, s: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    """Z = -[e2*d - (s+it)*e1*d + (s+it)^2*d*r/2], expanded by hand."""
    r, e1, e2 = cls
    re = -e2 * d + s * e1 * d - (s * s - t * t) * d * r / 2
    im = t * d * (e1 - s * r)
    return re, im


def _sector(re: Fraction, im: Fraction) -> str:
    if im:
        return "upper-half" if im > 0 else "lower-half"
    if re:
        return "negative-real" if re < 0 else "positive-real"
    return "zero"


def heart(var, cx, s: Fraction, convention: str):
    """(status, reason, best_shift) of the tilted-heart obstruction.

    The heart is two-term: the degree -1 sheaf must have slope at most
    the threshold (F side) and the degree 0 sheaf slope above it (T
    side); equal slopes never split; a lone sheaf always fits after a
    shift.  The threshold is s*d (paper-literal) or s (normalized).
    """
    d = var[1]
    threshold = s * d if convention == "paper-literal" else s
    degrees = sorted(cx)
    lo, hi = degrees[0], degrees[-1]
    if hi - lo >= 2:
        return "NotInHeart", "amplitude", None

    def slope(q):
        r, e1, _ = sheaf_class(var, cx[q])
        return e1 / r

    if hi - lo == 1:
        low, high = slope(lo), slope(hi)
        if low == high:
            return "NotInHeart", "equal-slope", hi
        if low <= threshold < high:
            return "MaybeInHeart", None, hi
        return "NotInHeart", "torsion-pair", hi
    return "MaybeInHeart", None, lo if slope(lo) > threshold else lo + 1


def scan_rows(var, cx, grid, convention: str):
    """Expected question_scan rows as plain tuples, sorted by (s, t)."""
    d = var[1]
    cls = complex_class(var, cx)
    rows = []
    gates = {}
    for s, t in sorted(grid):
        if s not in gates:
            gates[s] = heart(var, cx, s, convention)
        status, reason, shift = gates[s]
        re, im = charge(d, cls, s, t)
        phase = 0.0 if re == 0 and im == 0 else atan2(float(im), float(re)) / pi
        rows.append((s, t, shift, status, reason, re, im, im == 0, _sector(re, im), phase))
    return rows
