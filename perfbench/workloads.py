"""Seeded inputs for the four workloads, each op paired with its known answer.

An in-process op calls public ulrich_kit functions through the package
namespace at call time, so the tracer's wrappers see every call.  Its
expected answer comes from ``oracle`` and is computed only when the
output is checked, never inside the timed region.

Why each workload exists (recorded in LAYERS.md as well):

* wide-window: few inputs, wide twist windows; the table core
  (tables, complexes, cohomology) dominates and its growth with the
  window shows as a curve over the half-width ladder.
* default-sweep: thousands of distinct small inputs at default windows,
  mixed as in the acceptance tests; oracle dispatch, chern and parsing
  dominate, tables stay tiny.
* scan-grid: question_scan over dense rational grids; Fraction
  arithmetic in bridgeland dominates, the table core is not touched.
* cli-process: one `python -m ulrich_kit.cli` child per op; only this
  workload pays interpreter start, import, argparse and JSON emit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle as K

WORKLOADS = ("wide-window", "default-sweep", "scan-grid", "cli-process")
# Twist-window half-widths, a 16x ladder.  The top rung stays well below
# the half-width (between 500 and 600) where the cold spinor recursion on
# Q^3 overflows the stack; a warm cache only makes the recursion shallower.
# Ops stay short (tens of ms), so each is timed in many passes per run.
RUNGS = (15, 60, 240)
# Ulrich and non-Ulrich complexes per family and rung.  The op latencies
# cluster by rung, so the median op sits between clusters; more inputs
# per rung keep it from moving with the seed.
WIDE_INPUTS = 2
WORK_DIR = Path(".perfbench_work")

_MISSING = object()


class Op:
    """One operation: ``run()`` does the work, ``answer(out)`` reads the
    output into plain data, ``expect()`` derives the known answer.
    ``fields`` names the entries of each row when the answer is a list
    of rows, so a wrong answer can say which fields differ.  ``known``
    names the fields a known defect of the kit makes wrong; only probes
    carry it."""

    __slots__ = ("op_id", "kind", "tag", "run", "answer", "expect", "fields", "known", "_expected")

    def __init__(self, op_id, kind, run, answer, expect, tag=None, fields=None, known=()):
        self.op_id, self.kind, self.tag = op_id, kind, tag
        self.run, self.answer, self.expect = run, answer, expect
        self.fields, self.known = fields, known
        self._expected = _MISSING

    def expected(self):
        if self._expected is _MISSING:
            self._expected = self.expect()
        return self._expected

    def mismatch(self, output):
        """None when the output is right, else the names of the fields
        that differ: ("rows",) when the row counts differ, ("answer",)
        for an op without named fields."""
        got, want = self.answer(output), self.expected()
        if got == want:
            return None
        if self.fields is None:
            return ("answer",)
        if len(got) != len(want):
            return ("rows",)
        return tuple(name for j, name in enumerate(self.fields)
                     if any(g[j] != w[j] for g, w in zip(got, want)))

    def check(self, output) -> bool:
        return self.mismatch(output) is None


# ------------------------------------------------------ reading kit output


def atoms_of(uk, desc, mult=1, out=None) -> dict:
    """Flatten a kit descriptor into {oracle atom: multiplicity}."""
    out = {} if out is None else out
    if isinstance(desc, uk.DirectSum):
        for part, m in desc.parts:
            atoms_of(uk, part, mult * m, out)
        return out
    if isinstance(desc, uk.LineBundle):
        atom = ("O",) + desc.twists if len(desc.twists) == 1 else ("O2",) + desc.twists
    elif isinstance(desc, uk.Spinor):
        atom = ("S", desc.sign)
    elif isinstance(desc, uk.SemistableEC):
        atom = ("ss", desc.rank, desc.degree, desc.trivial_type)
    else:
        raise TypeError(f"unexpected descriptor {desc!r}")
    out[atom] = out.get(atom, 0) + mult
    return out


def complex_atoms(uk, E) -> dict:
    return {q: atoms_of(uk, desc) for q, desc in E.sheaves}


def var_of(model):
    if model.kind == "prod":
        return ("prod",)
    if model.kind == "elliptic":
        return ("elliptic", model.deg)
    return (model.kind, model.dim)


def verdict_answer(v):
    witness = next((c.witness for c in v.criteria if not c.passed), None)
    return (v.passed, witness)


# ------------------------------------------------------------ kit objects


def kit_complex(uk, model, cx, glue):
    sheaves = {q: uk.parse_sheaf(K.sheaf_text(sheaf), model) for q, sheaf in cx.items()}
    witnesses = (uk.GlueWitness(0, -1),) if glue else ()
    return uk.formal_complex(model, sheaves, witnesses)


# ------------------------------------------------------- random generators


def _merge(atoms) -> tuple:
    merged: dict = {}
    for atom, m in atoms:
        merged[atom] = merged.get(atom, 0) + m
    return tuple(merged.items())


def random_atom(rng, var, ulrich: bool):
    kind = var[0]
    if kind == "pn":
        return ("O", 0) if ulrich else ("O", rng.choice([-3, -2, -1, 1, 2, 3]))
    if kind == "quadric":
        if ulrich:
            return ("S", None) if var[1] == 3 else ("S", rng.choice("+-"))
        return ("O", rng.randint(-3, 3))
    if kind == "prod":
        if ulrich:
            return rng.choice([("O2", 1, 0), ("O2", 0, 1)])
        while True:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if (a, b) not in ((1, 0), (0, 1)):
                return ("O2", a, b)
    d = var[1]  # elliptic
    r = rng.randint(1, 3)
    if ulrich:
        return ("ss", r, r * d, False)
    roll = rng.random()
    if roll < 0.3:
        return ("O", rng.randint(-2, 2))
    if roll < 0.5:
        return ("ss", r, r * d, True)  # right degree, trivial type: not Ulrich
    return ("ss", r, rng.randint(-2 * d, 3 * d), rng.random() < 0.5)


def random_sheaf(rng, var, ulrich: bool, atoms=None) -> tuple:
    """A sum of 1-3 atoms; a non-Ulrich sum has at least one bad atom."""
    count = atoms or rng.randint(1, 3)
    picks = [random_atom(rng, var, ulrich) for _ in range(count)]
    if not ulrich and all(K.atom_is_ulrich(var, a) for a in picks):
        picks[0] = random_atom(rng, var, False)
    return _merge((a, rng.randint(1, 3)) for a in picks)


def random_complex(rng, var, ulrich: bool, degrees, glue: bool, atoms: int):
    cx = {q: random_sheaf(rng, var, ulrich, atoms) for q in degrees}
    if not ulrich and all(K.sheaf_is_ulrich(var, s) for s in cx.values()):
        cx[degrees[0]] = random_sheaf(rng, var, False, atoms)
    return cx, glue


def random_surface(rng):
    d = rng.randint(1, 9)
    i = rng.choice([Fraction(-3), Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
                    Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)])
    return ("surface", d, i, rng.randint(0, 4))


DEFAULT_FAMILIES = (
    ("pn", 1), ("pn", 2), ("pn", 3), ("pn", 4),
    ("quadric", 2), ("quadric", 3), ("prod",),
    ("elliptic", 3), ("elliptic", 4), ("elliptic", 5),
)


# ------------------------------------------------------------ wide-window


# Non-Ulrich line bundles O(a,b) on P^1 x P^1 with and without
# intermediate cohomology (present exactly when |a - b| >= 2).  The
# sheafwise check's window scan stops at the first such entry, so which
# kind a rung gets is fixed, whatever the seed.
PROD_SKEWED = tuple(("O2", a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a - b) >= 2)
PROD_BALANCED = tuple(("O2", a, b) for a in range(-2, 3) for b in range(-2, 3)
                      if abs(a - b) <= 1 and (a, b) not in ((1, 0), (0, 1)))


def wide_window(uk, rng):
    ops = []

    def add(kind, run, answer, expect, tag):
        ops.append(Op(f"ww{len(ops):03d}", kind, run, answer, expect, tag))

    for rung, w in enumerate(RUNGS):
        window = (-w, w)
        for var in (("pn", 4), ("prod",), ("elliptic", rng.randint(3, 6)), ("quadric", 3)):
            model = uk.parse_variety(K.variety_spec(var))
            pn = var[0] == "pn"
            for ulrich in (True, False) * WIDE_INPUTS:
                # pn:4 gets three degrees glued across 0 -> -1, the others
                # split two-term sums; two atoms a degree throughout
                cx, glue = random_complex(rng, var, ulrich, (-1, 0, 1) if pn else (-1, 0), pn, 2)
                if var == ("prod",) and not ulrich:
                    pool = PROD_BALANCED if rung % 2 else PROD_SKEWED
                    cx = {q: _merge((rng.choice(pool), rng.randint(1, 3)) for _ in range(2))
                          for q in cx}
                E = kit_complex(uk, model, cx, glue)
                for mode in ("both", "direct", "sheafwise"):
                    add("verdict",
                        lambda E=E, mode=mode, window=window: uk.is_ulrich_object(E, mode, window),
                        verdict_answer,
                        lambda var=var, cx=cx, mode=mode: K.object_verdict(var, cx, mode),
                        (var, w, mode))
                if ulrich and pn:
                    add("decompose", lambda E=E, window=window: uk.pn_decompose(E, window),
                        dict, lambda cx=cx: K.pn_multiplicities(cx), (var, w, "decompose"))
                elif ulrich and var[0] != "elliptic":
                    add("decompose", lambda E=E, window=window: uk.quadric_decompose(E, window),
                        dict, lambda var=var, cx=cx: K.spinor_multiplicities(var, cx),
                        (var, w, "decompose"))
                if pn:
                    members = sorted(rng.sample(range(-2, 6), 3))
                    add("membership",
                        lambda E=E, members=members, window=window: uk.orthogonal_membership(
                            E, [uk.line_bundle(j) for j in members], E.model, window),
                        lambda m: (m.member_of_orthogonal, m.witness),
                        lambda var=var, cx=cx, members=members: K.membership(var, cx, members),
                        (var, w, "membership"))
    return ops


def wide_window_probes(uk):
    """Cold spinor tables past the recursion depth: RecursionError today."""
    q3 = uk.parse_variety("quadric:3")
    cx = {0: ((("S", None), 2),)}
    E = kit_complex(uk, q3, cx, False)
    ops = []
    for w in (800, 1600):
        window = (-w, w)
        ops.append(Op(
            f"probe-q3-S-table-w{w}", "table",
            lambda window=window: uk.sheaf_table(uk.Spinor(None), q3, window),
            lambda t: sorted((i, tt, h) for (i, tt), h in t.entries.items()),
            lambda window=window: sorted(
                K.table_rows(("quadric", 3), ((("S", None), 1),), window)),
        ))
        ops.append(Op(
            f"probe-q3-2S-direct-w{w}", "verdict",
            lambda window=window: uk.is_ulrich_object(E, "direct", window),
            verdict_answer,
            lambda: K.object_verdict(("quadric", 3), cx, "direct"),
        ))
    return ops


# ---------------------------------------------------------- default-sweep


def _parse_complex(uk, spec, texts, glue):
    model = uk.parse_variety(spec)
    sheaves = {q: uk.parse_sheaf(text, model) for q, text in texts.items()}
    return uk.formal_complex(model, sheaves, (uk.GlueWitness(0, -1),) if glue else ())


DEGREE_SETS = ((0,), (-1, 0), (0, 1), (-1, 0, 1))


def _sweep_op(uk, shape, rng, n: int, kind: str) -> Op:
    """One default-sweep op.  ``shape`` draws what sets the cost (family,
    Ulrich or not, degrees, atom counts, mode) and replays in every pass;
    ``rng`` draws the values (twists, degrees of curves, multiplicities),
    which differ from pass to pass so no input repeats within a run."""
    op_id = f"ds{n:05d}"

    def sheaf_of(var, ulrich=None, atoms=None):
        ulrich = shape.random() < 0.4 if ulrich is None else ulrich
        return random_sheaf(rng, var, ulrich, atoms or shape.randint(1, 3))

    def complex_of(var, glue_ok=True):
        degrees = shape.choice(DEGREE_SETS)
        glue = glue_ok and 0 in degrees and -1 in degrees and shape.random() < 0.5
        return random_complex(rng, var, shape.random() < 0.4, degrees, glue, shape.randint(1, 3))

    if kind == "sheaf":
        var = shape.choice(DEFAULT_FAMILIES)
        sheaf = sheaf_of(var)
        spec, text = K.variety_spec(var), K.sheaf_text(sheaf)

        def run():
            model = uk.parse_variety(spec)
            return uk.is_ulrich_sheaf(uk.parse_sheaf(text, model), model)

        return Op(op_id, kind, run, verdict_answer, lambda: K.sheaf_verdict(var, sheaf))
    if kind == "object":
        var = shape.choice(DEFAULT_FAMILIES)
        cx, glue = complex_of(var)
        mode = shape.choice(("both", "direct", "sheafwise"))
        spec, texts = K.variety_spec(var), {q: K.sheaf_text(s) for q, s in cx.items()}
        return Op(
            op_id, kind,
            lambda: uk.is_ulrich_object(_parse_complex(uk, spec, texts, glue), mode),
            verdict_answer, lambda: K.object_verdict(var, cx, mode),
        )
    if kind == "abstract":
        var, r = random_surface(rng), shape.randint(1, 4)
        spec = K.variety_spec(var)

        def run():
            model = uk.parse_variety(spec)
            return uk.is_ulrich_sheaf(uk.abstract_ulrich_sheaf(model, r), model)

        return Op(op_id, kind, run, verdict_answer, lambda: (True, None))
    if kind == "chern":
        var, r = random_surface(rng), shape.randint(1, 6)
        spec = K.variety_spec(var)
        return Op(
            op_id, kind, lambda: uk.ulrich_chern_solve(uk.parse_variety(spec), r),
            lambda c: (c.r, c.e1, c.e2), lambda: K.solved_class(var, r),
        )
    if kind == "gate":
        var = shape.choice([("pn", 1), ("pn", 2), ("pn", 3), ("prod",), ("elliptic", 3), ("elliptic", 4)])
        count = shape.randint(1, K.k0_rank(var) + 1)
        sheaves = [sheaf_of(var, shape.random() < 0.3, shape.randint(1, 2)) for _ in range(count)]
        spec, texts = K.variety_spec(var), [K.sheaf_text(s) for s in sheaves]

        def run():
            model = uk.parse_variety(spec)
            return uk.generator_gate([uk.parse_sheaf(t, model) for t in texts], model)

        return Op(op_id, kind, run, lambda g: (g.passed, g.rank, g.needed),
                  lambda: K.gate(var, sheaves))
    if kind == "ext":
        var = shape.choice([("pn", 2), ("pn", 3), ("quadric", 3), ("quadric", 2), ("prod",), ("elliptic", 3)])
        if var[0] == "prod":
            f = ("O2", rng.randint(-2, 2), rng.randint(-2, 2))
        elif var == ("quadric", 2):
            f = rng.choice([("S", "+"), ("S", "-"), ("O", rng.randint(-2, 2))])
        elif var[0] == "elliptic":
            f = rng.choice([("O", rng.randint(-1, 1)), ("ss", 1, rng.randint(-4, 4), rng.random() < 0.5)])
        else:
            f = ("O", rng.randint(-3, 3))
        ulrich, atoms = shape.random() < 0.4, shape.randint(1, 3)
        while True:
            g = sheaf_of(var, ulrich, atoms)
            if var[0] != "elliptic" or _elliptic_ext_decided(var, f, g):
                break
        k = shape.randint(0, K.dim(var))
        spec, ftext, gtext = K.variety_spec(var), K.atom_text(f), K.sheaf_text(g)

        def run():
            model = uk.parse_variety(spec)
            return uk.ext_dimension(uk.parse_sheaf(ftext, model), uk.parse_sheaf(gtext, model), k, model)

        return Op(op_id, kind, run, int, lambda: K.ext(var, f, g, k))
    if kind == "collection":
        var = shape.choice([("pn", 1), ("pn", 2), ("pn", 3), ("pn", 4), ("quadric", 2), ("quadric", 3)])
        spec = K.variety_spec(var)
        if var[0] == "pn":
            a = rng.randint(-3, 3)
            members = [("O", a + j) for j in range(var[1] + 1)]
            texts = [K.atom_text(m) for m in members]

            def run():
                model = uk.parse_variety(spec)
                coll = uk.Collection(model, tuple(uk.parse_sheaf(t, model) for t in texts), "Beilinson")
                return uk.register_collection(coll)
        else:
            members = ([("O", 0), ("S", "+"), ("S", "-"), ("O", 1)] if var[1] == 2
                       else [("O", 0), ("S", None), ("O", 1), ("O", 2)])

            def run():
                return uk.kapranov_collection(uk.parse_variety(spec))

        return Op(
            op_id, kind, run,
            lambda c: [atoms_of(uk, m) for m in c.members],
            lambda: [{m: 1} for m in members],
        )
    if kind == "triangle":
        var = shape.choice([("pn", 2), ("pn", 3), ("quadric", 3), ("prod",), ("elliptic", 3)])
        e, g = sheaf_of(var), sheaf_of(var)
        spec = K.variety_spec(var)
        etext, gtext, ftext = K.sheaf_text(e), K.sheaf_text(g), K.sheaf_text(e + g)

        def run():
            model = uk.parse_variety(spec)
            tables = {role: uk.sheaf_table(uk.parse_sheaf(text, model), model)
                      for role, text in (("E", etext), ("G", gtext), ("F", ftext))}
            third = tables.pop("F")
            return uk.triangle_2of3(model, tables, third)

        def expect():
            certified, witness, implied = K.triangle(var, e, g)
            return (certified, witness, implied, True)

        return Op(op_id, kind, run,
                  lambda v: (v.certified, v.witness, v.implied_euler, v.chi_additive), expect)
    if kind == "extprod":
        line = ("pn", 1)
        (left, _), (right, _) = complex_of(line, False), complex_of(line, False)
        twist_right = shape.random() < 0.5
        ltexts = {q: K.sheaf_text(s) for q, s in left.items()}
        rtexts = {q: K.sheaf_text(s) for q, s in right.items()}
        side = "twist-right" if twist_right else "twist-left"
        return Op(
            op_id, kind,
            lambda: uk.external_product(_parse_complex(uk, "pn:1", ltexts, False),
                                        _parse_complex(uk, "pn:1", rtexts, False), side),
            lambda E: (var_of(E.model), complex_atoms(uk, E)),
            lambda: (("prod",), K.external_product(left, right, twist_right)),
        )
    if kind == "restrict":
        var = shape.choice([("pn", 2), ("pn", 3), ("pn", 4), ("quadric", 3)])
        cx, glue = complex_of(var)
        spec, texts = K.variety_spec(var), {q: K.sheaf_text(s) for q, s in cx.items()}
        return Op(
            op_id, kind,
            lambda: uk.restrict_hyperplane(_parse_complex(uk, spec, texts, glue)),
            lambda E: (var_of(E.model), complex_atoms(uk, E), bool(E.glue)),
            lambda: K.restrict(var, cx) + (glue,),
        )
    if kind == "push":
        var = shape.choice([("prod",), ("quadric", 2), ("quadric", 3), ("elliptic", 3), ("elliptic", 5), ("pn", 2)])
        cx, _ = complex_of(var, False)
        spec, texts = K.variety_spec(var), {q: K.sheaf_text(s) for q, s in cx.items()}
        return Op(
            op_id, kind,
            lambda: uk.pushforward_finite(_parse_complex(uk, spec, texts, False)),
            lambda p: (p.trivialized, p.multiplicities, p.witness, p.reconstruction_ok),
            lambda: K.pushforward(var, cx),
        )
    raise ValueError(kind)


def _elliptic_ext_decided(var, f, g) -> bool:
    """Ext against a rank > 1 atom of the same slope needs data the
    descriptors do not carry; the kit refuses it, so skip such pairs."""
    d = var[1]
    fdeg = f[1] * d if f[0] == "O" else f[2]
    for atom, _ in g:
        r, deg = (1, atom[1] * d) if atom[0] == "O" else (atom[1], atom[2])
        if r > 1 and deg == r * fdeg:
            return False
    return True


# Ops per pass by kind; the counts are fixed so every seed runs the same
# mix.  They are the sizes of the acceptance criteria in
# tests/test_acceptance.py that make calls of that kind, with a floor of
# SWEEP_FLOOR ops.  The floor is an assumption: it gives every kind
# enough samples for a per-op median, including the kinds no criterion
# calls (abstract, ext, collection, restrict).
SWEEP_FLOOR = 50
SWEEP_KINDS = (
    ("object", 65 + 520),  # criterion 03 (15 sums, 50 twists), criterion 06
    ("extprod", 14 * 14 * 2),  # criterion 05: 14 x 14 patterns, two sides
    ("chern", 100 + 200),  # ulrich_chern_solve in criteria 01 and 02
    ("triangle", 100),  # criterion 07
    ("sheaf", 49 + 1 + 8),  # criterion 04 (49 on P1xP1, the spinor), 08 (witnesses)
    ("gate", max(8, SWEEP_FLOOR)),  # criterion 08
    ("push", max(1, SWEEP_FLOOR)),  # criterion 09
    ("abstract", SWEEP_FLOOR), ("ext", SWEEP_FLOOR), ("collection", SWEEP_FLOOR),
    ("restrict", SWEEP_FLOOR),
)


def default_sweep(uk, seed: int, pass_no: int):
    """The ops of one pass: same kinds and shapes in every pass, new values,
    so a cache in the kit sees only misses across passes."""
    kinds = [kind for kind, count in SWEEP_KINDS for _ in range(count)]
    random.Random(f"default-sweep:{seed}").shuffle(kinds)
    return [
        _sweep_op(uk, random.Random(f"default-sweep:{seed}:{n}"),
                  random.Random(f"default-sweep:{seed}:{n}:{pass_no}"), n, kind)
        for n, kind in enumerate(kinds)
    ]


# -------------------------------------------------------------- scan-grid

SCAN_OPS = 48
SCAN_S_POINTS = 20
SCAN_T_POINTS = 15
# Surfaces (d, i) and grid step denominators cycle over the ops instead
# of being drawn: the size of the Fractions sets the cost per point, and
# cycling keeps that mix the same for every seed.
SCAN_SURFACES = ((1, Fraction(-3)), (4, Fraction(0)), (9, Fraction(-1, 2)),
                 (2, Fraction(-1)), (5, Fraction(1, 2)), (3, Fraction(-2)))
SCAN_DENOMINATORS = ((2, 7), (3, 5), (4, 3), (5, 2), (6, 4), (7, 6))
SCAN_FIELDS = ("s", "t", "best_shift", "heart_status", "heart_reason", "re", "im",
               "im_zero", "phase_sector", "phase_display")
# chern.class_of takes the sign of a degree q as (-1) ** q, a float when
# q < 0, so a complex with a sheaf in a negative degree gets a float
# class and question_scan rounded re/im (and phase_display from them).
# The timed ops sit in degrees 0 and 1, where the class is exact and the
# heart gate does the same work as in degrees -1 and 0 (best shift 1
# instead of 0); SCAN_PROBES keep the negative degrees and show the defect.
SCAN_FLOAT_FIELDS = ("re", "im", "phase_display")


def _scan_op(uk, op_id, var, E, cx, grid, convention, known=()):
    return Op(
        op_id, "scan",
        lambda: uk.question_scan(E, grid, convention),
        lambda rows: [
            (r.s, r.t, r.best_shift, r.heart_status, r.heart_reason, r.re, r.im,
             r.im_zero, r.phase_sector, r.phase_display) for r in rows
        ],
        lambda: K.scan_rows(var, cx, grid, convention),
        tag=len(grid), fields=SCAN_FIELDS, known=known,
    )


def _glued_scan_complex(uk, model, r1, r2, low: int):
    """Yoneda complex of two solved abstract Ulrich sheaves, the first in
    degree low + 1 and the second in degree low, glued across them."""
    first = uk.abstract_ulrich_sheaf(model, r1, "first")
    second = uk.abstract_ulrich_sheaf(model, r2, "second")
    E = uk.shift(uk.yoneda_build(first, second, 2, model, witness="asserted"), -1 - low)
    return E, {low + 1: ((("abs", r1), 1),), low: ((("abs", r2), 1),)}


def scan_grid(uk, rng):
    ops = []
    for n in range(SCAN_OPS):
        d, i = SCAN_SURFACES[(n // 2) % len(SCAN_SURFACES)]
        var = ("surface", d, i, rng.randint(0, 4))
        model = uk.parse_variety(K.variety_spec(var))
        if n % 2 == 0:
            E, cx = _glued_scan_complex(uk, model, rng.randint(1, 3), rng.randint(1, 3), 0)
        else:
            # split two-term complex with unequal slopes a < b
            a = rng.randint(-3, 1)
            b = a + rng.randint(1, 4)
            cx = {0: ((("O", a), rng.randint(1, 3)),), 1: ((("O", b), rng.randint(1, 3)),)}
            E = kit_complex(uk, model, cx, False)
        s_den, t_den = SCAN_DENOMINATORS[n % len(SCAN_DENOMINATORS)]
        s0 = Fraction(rng.randint(-6 * s_den, 0), s_den)
        s_vals = [s0 + Fraction(j, s_den) for j in range(SCAN_S_POINTS)]
        t_vals = [Fraction(j + 1, t_den) for j in range(SCAN_T_POINTS)]
        grid = [(s, t) for s in s_vals for t in t_vals]
        rng.shuffle(grid)
        convention = ("paper-literal", "normalized")[(n // 2) % 2]
        ops.append(_scan_op(uk, f"sg{n:03d}", var, E, cx, grid, convention))
    return ops


def scan_grid_probes(uk):
    """The same complexes in degrees -1 and 0: float re/im today."""
    var = ("surface", 9, Fraction(-1, 2), 3)
    model = uk.parse_variety(K.variety_spec(var))
    grid = [(Fraction(j, 3) - 2, Fraction(k, 7)) for j in range(12) for k in range(1, 8)]
    glued, glued_cx = _glued_scan_complex(uk, model, 2, 1, -1)
    split_cx = {-1: ((("O", -1), 2),), 0: ((("O", 2), 1),)}
    split = kit_complex(uk, model, split_cx, False)
    return [
        _scan_op(uk, f"probe-scan-{name}-{convention}", var, E, cx, grid, convention,
                 known=SCAN_FLOAT_FIELDS)
        for name, E, cx in (("glued", glued, glued_cx), ("split", split, split_cx))
        for convention in ("paper-literal", "normalized")
    ]


# ------------------------------------------------------------ cli-process


class CliOp:
    """One CLI invocation and the checks on what it printed."""

    __slots__ = ("op_id", "argv", "expect_code", "check_report")
    known = ()  # no CLI op has a known wrong answer

    def __init__(self, op_id, argv, expect_code, check_report):
        self.op_id, self.argv = op_id, argv
        self.expect_code, self.check_report = expect_code, check_report


def _rows_json(rows):
    return [{"i": i, "t": t, "h": h} for i, t, h in rows]


def _objects():
    """Object files the pool reads; name -> (variety, complex, glue)."""
    surface = ("surface", 4, Fraction(0), 2)
    return {
        "p2-glued": (("pn", 2), {0: ((("O", 0), 2),), -1: ((("O", 0), 1),)}, True),
        "p3-bad": (("pn", 3), {0: ((("O", 0), 1), (("O", 1), 1)), 1: ((("O", 0), 1),)}, False),
        "q3-spinors": (("quadric", 3), {0: ((("S", None), 1),), -1: ((("S", None), 2),)}, True),
        "prod-rulings": (("prod",), {0: ((("O2", 1, 0), 1), (("O2", 0, 1), 2))}, False),
        "ec-bad": (("elliptic", 4), {0: ((("ss", 2, 8, True), 1),)}, False),
        "surface-split": (surface, {-1: ((("O", -1), 1),), 0: ((("O", 1), 2),)}, False),
        "surface-amplitude": (surface, {-1: ((("O", 0), 1),), 1: ((("O", 2), 1),)}, False),
    }


def write_objects() -> None:
    root = WORK_DIR / "objects"
    root.mkdir(parents=True, exist_ok=True)
    for name, (var, cx, glue) in _objects().items():
        data = {
            "variety": K.variety_spec(var),
            "sheaves": {str(q): K.sheaf_text(s) for q, s in sorted(cx.items())},
            "glue": [{"from": 0, "to": -1}] if glue else [],
        }
        (root / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")


def _object_path(name: str) -> str:
    return str(WORK_DIR / "objects" / f"{name}.json")


def _expect_table(var, sheaf, window):
    rows = _rows_json(K.table_rows(var, sheaf, window))
    return lambda rep: rep["payload"]["rows"] == rows and rep["payload"]["window"] == list(window)


def _expect_verdict(passed, witness):
    def check(rep):
        criteria = rep["payload"]["criteria"]
        first = next((c["witness"] for c in criteria if not c["passed"]), None)
        return (rep["verdict"] == ("pass" if passed else "fail")
                and first == (list(witness) if witness else None))
    return check


def _frac(value) -> str:
    return str(Fraction(value))


def _expect_error(rep) -> bool:
    return rep["error"] is not None and rep["payload"] is None


def cli_pool():
    """The fixed CLI op pool; seeds choose which ops run and in what order,
    so the checked-in stdout digests cover every seed."""
    pool = []

    def add(argv, code, check):
        pool.append(CliOp(f"cli{len(pool):03d}", argv, code, check))

    for spec_var, sheaf, window in [
        (("pn", 2), ((("O", 1), 1),), None),
        (("pn", 3), ((("O", -2), 1), (("O", 1), 1)), (-6, 4)),
        (("pn", 4), ((("O", 0), 1),), (-40, 40)),
        (("quadric", 3), ((("S", None), 1),), (-12, 6)),
        (("quadric", 3), ((("S", None), 2), (("O", -1), 1)), None),
        (("quadric", 2), ((("S", "+"), 1), (("S", "-"), 1)), None),
        (("prod",), ((("O2", 1, 0), 1), (("O2", 0, 1), 2)), None),
        (("elliptic", 4), ((("ss", 2, 8, False), 1), (("O", 1), 1)), None),
    ]:
        argv = ["table", "--variety", K.variety_spec(spec_var), "--sheaf", K.sheaf_text(sheaf)]
        if window:
            argv.append(f"--window={window[0]}:{window[1]}")
        add(argv, 0, _expect_table(spec_var, sheaf, window or K.default_window(spec_var)))
    for spec_var, sheaf, mode in [
        (("pn", 2), ((("O", 0), 3),), "both"),
        (("pn", 2), ((("O", 1), 1),), "direct"),
        (("pn", 4), ((("O", 0), 1), (("O", -1), 1)), "sheafwise"),
        (("quadric", 3), ((("S", None), 1),), "both"),
        (("quadric", 3), ((("O", 1), 1),), "sheafwise"),
        (("quadric", 2), ((("S", "+"), 2),), "both"),
        (("prod",), ((("O2", 1, 0), 1),), "direct"),
        (("prod",), ((("O2", 1, 1), 1),), "both"),
        (("elliptic", 3), ((("ss", 1, 3, False), 1),), "both"),
        (("elliptic", 5), ((("ss", 2, 10, True), 1),), "sheafwise"),
    ]:
        passed, witness = K.object_verdict(spec_var, {0: sheaf}, mode)
        add(["check", "--variety", K.variety_spec(spec_var), "--sheaf", K.sheaf_text(sheaf),
             "--mode", mode], 0 if passed else 1, _expect_verdict(passed, witness))
    for name, (var, cx, _glue) in _objects().items():
        if var[0] == "surface":
            continue
        for mode in ("both", "direct"):
            passed, witness = K.object_verdict(var, cx, mode)
            add(["check", "--object", _object_path(name), "--mode", mode],
                0 if passed else 1, _expect_verdict(passed, witness))
    for surface, r in [("d=4,i=0,chi=2", 2), ("d=1,i=-3,chi=1", 1), ("d=9,i=-1/2,chi=3", 3),
                       ("d=5,i=1,chi=0", 4)]:
        d, i, chi = (part.split("=")[1] for part in surface.split(","))
        var = ("surface", int(d), Fraction(i), int(chi))
        rr, e1, e2 = K.solved_class(var, r)
        add(["chern-solve", "--surface", surface, "--rank", str(r)], 0,
            lambda rep, want=(rr, _frac(e1), _frac(e2)):
                (rep["payload"]["r"], rep["payload"]["e1"], rep["payload"]["e2"]) == want)
        for s, t in [("1/2", "1"), ("-2", "3/2")]:
            re, im = K.charge(var[1], K.solved_class(var, r), Fraction(s), Fraction(t))
            add(["charge", "--surface", surface, "--rank", str(r), "--s", s, "--t", t], 0,
                lambda rep, want=(_frac(re), _frac(im)):
                    (rep["payload"]["central"]["re"], rep["payload"]["central"]["im"]) == want)
    for var, sheaves in [
        (("pn", 2), [((("O", 0), 1),), ((("O", 1), 1),), ((("O", 2), 1),)]),
        (("pn", 3), [((("O", 0), 1),), ((("O", 0), 2),)]),
        (("elliptic", 3), [((("O", 1), 1),)]),
        (("prod",), [((("O2", 0, 0), 1),), ((("O2", 1, 0), 1),), ((("O2", 0, 1), 1),), ((("O2", 1, 1), 1),)]),
    ]:
        passed, rk, needed = K.gate(var, sheaves)
        add(["gate", "--variety", K.variety_spec(var), "--bundles",
             ";".join(K.sheaf_text(s) for s in sheaves)], 0 if passed else 1,
            lambda rep, want=(rk, needed): (rep["payload"]["rank"], rep["payload"]["needed"]) == want)
    for name in ("surface-split", "surface-amplitude"):
        var, cx, _ = _objects()[name]
        for convention in ("paper-literal", "normalized"):
            grid = "s=-2..2:1/2,t=1/2..2:1/2"
            points = [(Fraction(j, 2) - 2, Fraction(k, 2)) for j in range(9) for k in range(1, 5)]
            want = [
                [_frac(s), _frac(t), shift, status, reason, _frac(re), _frac(im), im0, sector, phase]
                for s, t, shift, status, reason, re, im, im0, sector, phase
                in K.scan_rows(var, cx, points, convention)
            ]
            keys = ("s", "t", "best_shift", "heart", "reason", "re", "im", "im_zero",
                    "phase_sector", "phase")
            add(["scan", "--object", _object_path(name), "--grid", grid, "--convention", convention], 0,
                lambda rep, want=want, keys=keys:
                    [[row[k] for k in keys] for row in rep["payload"]["rows"]] == want)
    add(["demo"], 0, lambda rep: rep["verdict"] == "pass"
        and all(case["passed"] for case in rep["payload"]["cases"]))
    # plain-text output: checked against text built from the known answer
    tsv_sheaf = ((("O", 1), 1),)
    tsv = "i\tt\th\n" + "".join(
        f"{i}\t{t}\t{h}\n" for i, t, h in K.table_rows(("pn", 2), tsv_sheaf, K.default_window(("pn", 2)))
    ) + "verdict\tNone\n"
    add(["table", "--variety", "pn:2", "--sheaf", "O(1)", "--format", "tsv"], 0,
        lambda text, want=tsv: text == want)
    # malformed or unsupported requests: a JSON error envelope, exit 2 or 3
    for argv, code in [
        (["table", "--variety", "pn:0", "--sheaf", "O(0)"], 2),
        (["table", "--variety", "foo:3", "--sheaf", "O(0)"], 2),
        (["check", "--variety", "pn:2", "--sheaf", "O(1"], 2),
        (["check", "--variety", "pn:2"], 2),
        (["table", "--variety", "quadric:4", "--sheaf", "S"], 3),
        (["table", "--variety", "surface:d=4,i=0,chi=2", "--sheaf", "O(0)"], 3),
        (["gate", "--variety", "quadric:3", "--bundles", "O(0)"], 2),
        (["charge", "--surface", "d=4,i=0,chi=2", "--rank", "1", "--s", "0", "--t", "0"], 2),
        (["table", "--variety", "pn:2", "--sheaf", "S"], 2),
    ]:
        add(argv, code, _expect_error)
    return pool


# Ops per pass, by kind: the seed picks which ops of each kind run, so the
# cost mix of a pass is the same for every seed.  The mix is an assumption,
# not a measured traffic: nothing in the repo records how often shell users
# run each subcommand, so every kind runs once a pass and table and
# check --sheaf, the first two commands in the README's usage, run twice.
CLI_PASS_MIX = {"table": 2, "check-sheaf": 2, "check-object": 1, "chern-solve": 1,
                "charge": 1, "gate": 1, "scan": 1, "demo": 1, "tsv": 1, "error": 1}
# Known crash: the cold spinor recursion overflows the interpreter stack.
CLI_PROBES = (
    CliOp("cli-probe-q3-S-w2000",
          ["table", "--variety", "quadric:3", "--sheaf", "S", "--window=-2000:2"], 0,
          lambda rep: rep["payload"]["rows"] == _rows_json(
              K.table_rows(("quadric", 3), ((("S", None), 1),), (-2000, 2)))),
)


def cli_kind(op) -> str:
    if op.expect_code in (2, 3):
        return "error"
    if "--format" in op.argv:
        return "tsv"
    if op.argv[0] == "check":
        return "check-object" if "--object" in op.argv else "check-sheaf"
    return op.argv[0]


def cli_process(rng):
    pool = cli_pool()
    ops = []
    for kind, count in CLI_PASS_MIX.items():
        ops += rng.sample([op for op in pool if cli_kind(op) == kind], count)
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, uk):
    """A function from pass number to that pass's ops.
    Pass 0 is made here, so set-up time covers input generation."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "default-sweep":
        first = default_sweep(uk, seed, 0)
        return lambda k: first if k == 0 else default_sweep(uk, seed, k)
    if workload == "wide-window":
        ops = wide_window(uk, rng)
    elif workload == "scan-grid":
        ops = scan_grid(uk, rng)
    elif workload == "cli-process":
        write_objects()
        ops = cli_process(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return lambda k: ops


def probes(workload: str, uk):
    """The workload's known-defect probes; they do not depend on the seed."""
    if workload == "wide-window":
        return wide_window_probes(uk)
    if workload == "scan-grid":
        return scan_grid_probes(uk)
    if workload == "cli-process":
        return list(CLI_PROBES)
    return []
