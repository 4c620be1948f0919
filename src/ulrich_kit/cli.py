"""Command-line surface.

Every invocation emits one report envelope: tool identity, command
echo, model spec, convention, payload, verdict, error.  Reports are
deterministic (no timestamps, stable field order) and rationals are
serialized as "p/q" strings, so identical invocations produce
byte-identical output.

Exit codes: 0 pass/true or informational success, 1 fail/false
verdict, 2 usage or malformed input, 3 unsupported model or missing
oracle, 4 internal error (a defect in the kit, reported in the envelope).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

from ._version import __version__
from .bridgeland import (
    CONVENTIONS,
    central_charge,
    heart_gate,
    question_scan,
    slope,
    ulrich_charge_closed_form,
)
from .chern import class_or_none, ulrich_chern_solve
from .complexes import FormalComplex, GlueWitness, formal_complex, pushforward_finite
from .cohomology import sheaf_table
from .errors import MalformedDescriptor, ModelMismatch, ParseError, UlrichKitError
from .generators import elliptic_witness, generator_gate
from .rational import format_rational, parse_int, parse_rational
from .sheaves import LineBundle, Spinor, parse_sheaf
from .ulrich import MODES, abstract_ulrich_sheaf, is_ulrich_object, yoneda_build
from .variety import (
    MAX_TWISTS,
    elliptic_curve,
    format_variety,
    parse_variety,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
)

TOOL_NAME = "ulrich-kit"
INTERNAL_ERROR_EXIT = 4
# Work bound, checked before anything is allocated: the most points a
# scan grid may hold (the twist bound MAX_TWISTS is the library's).
MAX_GRID_POINTS = 10_000


def to_jsonable(value):
    """Recursive conversion to JSON-safe data; exact rationals become
    "p/q" strings so nothing round-trips through floats."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _report(command, model_spec, convention, payload, verdict, error=None):
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "model": model_spec,
        "convention": convention,
        "payload": to_jsonable(payload),
        "verdict": verdict,
        "error": error,
    }


def _tsv_text(report) -> str:
    lines = []
    payload = report["payload"]
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = list(rows[0])
        lines.append("\t".join(header))
        for row in rows:
            lines.append("\t".join(str(row.get(col, "")) for col in header))
    else:
        for key, value in (payload or {}).items() if isinstance(payload, dict) else []:
            lines.append(f"{key}\t{json.dumps(value, sort_keys=True)}")
    lines.append(f"verdict\t{report['verdict']}")
    if report["error"]:
        lines.append(f"error\t{report['error']}")
    return "\n".join(lines) + "\n"


def _render(report, fmt: str) -> str:
    if fmt == "tsv":
        return _tsv_text(report)
    return json.dumps(report, indent=2) + "\n"


def _parse_window(text: str) -> tuple[int, int]:
    lo_txt, sep, hi_txt = text.partition(":")
    try:
        lo, hi = parse_int(lo_txt), parse_int(hi_txt)
    except ValueError as exc:
        raise ParseError(f"window must look like a:b, got {text!r}") from exc
    if not sep or lo > hi:
        raise ParseError(f"window must look like a:b with a <= b, got {text!r}")
    if hi - lo + 1 > MAX_TWISTS:
        raise ParseError(f"window {text!r} spans more than {MAX_TWISTS} twists")
    return (lo, hi)


def _rank(text: str) -> int:
    """--rank, read by the input layer's integer rule; argparse puts the
    refusal in the error envelope."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _window(args) -> tuple[int, int] | None:
    """--window, parsed here rather than by argparse so a malformed one
    gets the error envelope."""
    return None if args.window is None else _parse_window(args.window)


def _parse_grid(text: str) -> list[tuple[Fraction, Fraction]]:
    ranges: dict[str, tuple[Fraction, Fraction, int]] = {}  # lo, step, count
    for part in text.split(","):
        name, sep, rest = part.partition("=")
        name = name.strip()
        if not sep or name not in ("s", "t"):
            raise ParseError(f"grid needs s=lo..hi:step,t=lo..hi:step, got {text!r}")
        span, _, step_txt = rest.partition(":")
        lo_txt, span_sep, hi_txt = span.partition("..")
        if not span_sep:
            raise ParseError(f"grid range needs lo..hi, got {rest!r}")
        lo = parse_rational(lo_txt)
        hi = parse_rational(hi_txt)
        step = parse_rational(step_txt) if step_txt else Fraction(1)
        if step <= 0:
            raise ParseError(f"grid step must be positive, got {step_txt!r}")
        ranges[name] = (lo, step, max(0, (hi - lo) // step + 1))
    if "s" not in ranges or "t" not in ranges:
        raise ParseError("grid needs both an s range and a t range")
    (s_lo, s_step, s_count), (t_lo, t_step, t_count) = ranges["s"], ranges["t"]
    # each axis on its own too: beside an empty axis the other still loops
    if max(s_count, t_count, s_count * t_count) > MAX_GRID_POINTS:
        raise ParseError(f"grid {text!r} holds more than {MAX_GRID_POINTS} points")
    s_axis = [s_lo + i * s_step for i in range(s_count)]
    t_axis = [t_lo + j * t_step for j in range(t_count)]
    return [(s, t) for s in s_axis for t in t_axis]


def _load_complex(path: str, model=None) -> tuple[FormalComplex, str]:
    try:
        raw = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not text
        raise ParseError(f"cannot read object file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"object file {path} is not valid JSON: {exc}") from exc
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(f"object file {path} holds an integer too long to read") from None
    if not isinstance(data, dict):
        raise ParseError("object file must hold a JSON object")
    variety = data.get("variety")
    if variety is not None and not isinstance(variety, str):
        raise ParseError(f"object file variety must be a string, got {variety!r}")
    file_model = parse_variety(variety) if variety else None
    if model is not None and file_model is not None and model != file_model:
        raise ModelMismatch(
            f"--variety {format_variety(model)} disagrees with the object file's"
            f" {format_variety(file_model)}"
        )
    use = model if model is not None else file_model
    if use is None:
        raise ParseError("no variety given: pass --variety or put one in the file")
    sheaf_texts = data.get("sheaves") or {}
    if not isinstance(sheaf_texts, dict):
        raise ParseError("object file sheaves must map degrees to descriptors")
    sheaves, keys = {}, {}
    for key, desc_txt in sheaf_texts.items():
        try:
            degree = parse_int(key)
        except ValueError as exc:
            raise ParseError(f"sheaf degrees must be integers, got {key!r}") from exc
        if degree in keys:
            raise ParseError(
                f"sheaf degree {degree} is given twice, as {keys[degree]!r} and {key!r}"
            )
        keys[degree] = key
        if not isinstance(desc_txt, str):
            raise ParseError(f"sheaf descriptors must be strings, got {desc_txt!r}")
        sheaves[degree] = parse_sheaf(desc_txt, use)
    glue_items = data.get("glue") or []
    if not isinstance(glue_items, list):
        raise ParseError("object file glue must be a list of entries")
    glue = []
    for item in glue_items:
        try:
            ends = (item["from"], item["to"])
            ext_degree = item.get("ext_degree", 2)
            nonzero = item.get("nonzero", True)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed glue entry {item!r}") from exc
        if not all(type(end) is int for end in ends):  # bools are not degrees
            raise ParseError(f"glue degrees must be integers, got {item!r}")
        if type(nonzero) is not bool:  # the string "false" would read as glued
            raise ParseError(f"glue nonzero must be true or false, got {item!r}")
        if ext_degree != 2:
            raise MalformedDescriptor("glue witnesses carry degree-two extensions")
        glue.append(GlueWitness(ends[0], ends[1], nonzero))
    return formal_complex(use, sheaves, tuple(glue)), format_variety(use)


def _cmd_table(args):
    model = parse_variety(args.variety)
    desc = parse_sheaf(args.sheaf, model)
    window = _window(args)
    table = sheaf_table(desc, model, window)
    num_class = class_or_none(desc, model)
    payload = {
        "variety": format_variety(model),
        "sheaf": args.sheaf,
        "window": table.window,
        "rows": [{"i": i, "t": t, "h": h} for i, t, h in table.rows()],
        "num_class": None
        if num_class is None
        else {"r": num_class.r, "e1": num_class.e1, "e2": num_class.e2},
    }
    return payload, None, format_variety(model), None, 0


def _cmd_check(args):
    model = parse_variety(args.variety) if args.variety else None
    if args.object:
        E, model_spec = _load_complex(args.object, model)
    else:
        if model is None:
            raise ParseError("check needs --variety when --sheaf is used")
        if not args.sheaf:
            raise ParseError("check needs --object or --sheaf")
        E = formal_complex(model, {0: parse_sheaf(args.sheaf, model)})
        model_spec = format_variety(model)
    window = _window(args)
    verdict = is_ulrich_object(E, args.mode, window)
    payload = verdict.as_dict()
    payload["object"] = args.object or args.sheaf
    return payload, "pass" if verdict.passed else "fail", model_spec, None, (
        0 if verdict.passed else 1
    )


def _cmd_chern_solve(args):
    model = parse_variety(f"surface:{args.surface}")
    c = ulrich_chern_solve(model, args.rank)
    payload = {"r": c.r, "e1": c.e1, "e2": c.e2}
    return payload, None, format_variety(model), None, 0


def _cmd_charge(args):
    model = parse_variety(f"surface:{args.surface}")
    s = parse_rational(args.s)
    t = parse_rational(args.t)
    c = ulrich_chern_solve(model, args.rank)
    central = central_charge(c, s, t)
    closed = ulrich_charge_closed_form(model, args.rank, s, t)
    payload = {
        "class": {"r": c.r, "e1": c.e1, "e2": c.e2},
        "slope": slope(c),
        "s": s,
        "t": t,
        "central": {"re": central.re, "im": central.im},
        "closed_form": {"re": closed.re, "im": closed.im},
        "agree": central == closed,
    }
    return payload, None, format_variety(model), None, 0


def _cmd_gate(args):
    model = parse_variety(args.variety)
    descs = [
        parse_sheaf(piece.strip(), model)
        for piece in args.bundles.split(";")
        if piece.strip()
    ]
    if not descs:
        raise ParseError("gate needs at least one bundle descriptor")
    result = generator_gate(descs, model)
    verdict = "FullRank" if result.passed else "DeficientRank"
    payload = {"verdict": verdict, "rank": result.rank, "needed": result.needed}
    return payload, verdict, format_variety(model), None, 0 if result.passed else 1


def _cmd_scan(args):
    model = parse_variety(args.variety) if args.variety else None
    E, model_spec = _load_complex(args.object, model)
    grid = _parse_grid(args.grid)
    rows = question_scan(E, grid, args.convention)
    payload = {
        "grid": args.grid,
        "rows": [
            {
                "s": row.s,
                "t": row.t,
                "best_shift": row.best_shift,
                "heart": row.heart_status,
                "reason": row.heart_reason,
                "re": row.re,
                "im": row.im,
                "im_zero": row.im_zero,
                "phase_sector": row.phase_sector,
                "phase": row.phase_display,
            }
            for row in rows
        ],
    }
    return payload, None, model_spec, args.convention, 0


def _demo_cases() -> list[tuple[str, bool]]:
    cases: list[tuple[str, bool]] = []

    p2 = proj_space(2)
    sums = formal_complex(p2, {0: LineBundle((0,)), -1: LineBundle((0,))})
    cases.append(("structure-sheaf-sum-p2", is_ulrich_object(sums, "both").passed))
    twist = formal_complex(p2, {0: LineBundle((1,))})
    cases.append(("twist-fails-p2", not is_ulrich_object(twist, "both").passed))

    prod = product_proj(1, 1)
    ruling = formal_complex(prod, {0: LineBundle((1, 0))})
    cases.append(("ruling-line-product", is_ulrich_object(ruling, "both").passed))
    diagonal = formal_complex(prod, {0: LineBundle((1, 1))})
    cases.append(("diagonal-fails-product", not is_ulrich_object(diagonal, "both").passed))

    q3 = quadric(3)
    spinor = formal_complex(q3, {0: Spinor(None)})
    spinor_table = sheaf_table(Spinor(None), q3)
    cases.append(
        (
            "spinor-q3",
            is_ulrich_object(spinor, "both").passed and spinor_table.h(0, 0) == 4,
        )
    )

    k3 = rank1_surface(4, 0, 2)
    solved = ulrich_chern_solve(k3, 2)
    cases.append(("chern-solve-k3", solved.e1 == 3 and solved.e2 == 1))

    ec = elliptic_curve(3)
    witness = elliptic_witness(ec)
    cases.append(("elliptic-witness", witness.verdict.passed))
    gate = generator_gate([LineBundle((1,))], ec)
    cases.append(("elliptic-gate-deficient", not gate.passed and gate.rank == 1))

    push = pushforward_finite(formal_complex(prod, {0: LineBundle((0, 1))}))
    cases.append(
        (
            "pushforward-ruling",
            push.multiplicities == {0: 2} and push.reconstruction_ok,
        )
    )

    a = abstract_ulrich_sheaf(k3, 2, "first")
    b = abstract_ulrich_sheaf(k3, 2, "second")
    glued = yoneda_build(a, b, 2, k3, witness="asserted")
    not_in_heart = all(
        heart_gate(glued, Fraction(0), convention).status == "NotInHeart"
        for convention in CONVENTIONS
    )
    cases.append(("yoneda-not-in-heart", not_in_heart))

    return cases


def _cmd_demo(args):
    cases = _demo_cases()
    payload = {
        "cases": [{"name": name, "passed": passed} for name, passed in cases]
    }
    all_pass = all(passed for _, passed in cases)
    return payload, "pass" if all_pass else "fail", None, None, 0 if all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they get the error envelope like
    any other malformed input; subcommand parsers inherit the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Exact verification toolkit for twisted-vanishing objects",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--out", help="also write the report to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_table = sub.add_parser(
        "table", parents=[common], help="cohomology table of a descriptor"
    )
    p_table.add_argument("--variety", required=True)
    p_table.add_argument("--sheaf", required=True)
    p_table.add_argument("--window")
    p_table.set_defaults(handler=_cmd_table)

    p_check = sub.add_parser("check", parents=[common], help="Ulrich verdict for an object")
    p_check.add_argument("--variety")
    p_check.add_argument("--object", help="formal-complex JSON file")
    p_check.add_argument("--sheaf", help="inline descriptor placed in degree 0")
    p_check.add_argument("--mode", choices=MODES, default="both")
    p_check.add_argument("--window")
    p_check.set_defaults(handler=_cmd_check)

    p_solve = sub.add_parser("chern-solve", parents=[common], help="solve the twisted-vanishing class")
    p_solve.add_argument("--surface", required=True, help="d=..,i=..,chi=..")
    p_solve.add_argument("--rank", type=_rank, required=True)
    p_solve.set_defaults(handler=_cmd_chern_solve)

    p_charge = sub.add_parser("charge", parents=[common], help="central charge of the solved class")
    p_charge.add_argument("--surface", required=True, help="d=..,i=..,chi=..")
    p_charge.add_argument("--rank", type=_rank, required=True)
    p_charge.add_argument("--s", required=True)
    p_charge.add_argument("--t", required=True)
    p_charge.set_defaults(handler=_cmd_charge)

    p_gate = sub.add_parser("gate", parents=[common], help="K-lattice rank gate for generation")
    p_gate.add_argument("--variety", required=True)
    p_gate.add_argument("--bundles", required=True, help="descriptors joined by ';'")
    p_gate.set_defaults(handler=_cmd_gate)

    p_scan = sub.add_parser("scan", parents=[common], help="heart/charge evidence over an (s,t) grid")
    p_scan.add_argument("--variety")
    p_scan.add_argument("--object", required=True)
    p_scan.add_argument("--grid", required=True, help="s=lo..hi:step,t=lo..hi:step")
    p_scan.add_argument("--convention", choices=CONVENTIONS, default="paper-literal")
    p_scan.set_defaults(handler=_cmd_scan)

    p_demo = sub.add_parser("demo", parents=[common], help="run the curated example verifications")
    p_demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command_echo = shlex.join([str(a) for a in argv]) or TOOL_NAME
    fmt, out = "json", None  # until the arguments parse

    def error_text(error: str) -> str:
        return _render(_report(command_echo, None, None, None, None, error=error), fmt)

    try:
        args = build_parser().parse_args(argv)
        fmt, out = args.format, args.out
        payload, verdict, model_spec, convention, code = args.handler(args)
        try:
            report = _report(command_echo, model_spec, convention, payload, verdict)
            text = _render(report, fmt)
        except ValueError:  # str() of an integer past the interpreter's digit limit
            raise ParseError("the report holds an integer too long to print") from None
    except UlrichKitError as exc:
        text = error_text(str(exc))
        code = exc.exit_code
    except Exception as exc:  # a defect in the kit: keep it apart from exit 1
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame, where it was raised
            tb = tb.tb_next
        func = tb.tb_frame.f_code
        where = f"{Path(func.co_filename).name}:{tb.tb_lineno} in {func.co_name}"
        error = f"internal error: {type(exc).__name__}: {exc} (at {where})"
        text = error_text(error)
        code = INTERNAL_ERROR_EXIT
    if out:
        try:  # before printing, so a failed write prints only its own envelope
            Path(out).write_text(text)
        except OSError as exc:
            text = error_text(f"cannot write the report to {out}: {exc}")
            code = ParseError.exit_code
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
