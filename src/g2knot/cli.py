"""Command-line interface: algebra queries, loop fixtures, verification
suites, and report digests.

Vector syntax: basis combinations like "e1", "e1+2.5e4" or "1e-05*e3", or a
comma separated 7-tuple.  Form syntax: signed multi-index terms with 1-based
indices, e.g. "+123 -257" for a 3-form or "+12 -47" for a 2-form.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

import numpy as np

from . import verify
from .algebra import (Octonion, is_associative, octonion_mul, standard_g2,
                      cross, two_form_decompose)
from .errors import G2KnotError
from .forms import AltForm, multi_indices
from .loops import (circle_loop, loop_from_json, loop_to_json, require_resolved,
                    unit_speed_reparam)

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)"
_STARRED = rf"{_NUMBER}(?:[eE][+-]?\d+)?\*"  # "1e-05*": '*' closes a coefficient with an exponent
_BASIS_TERM = re.compile(rf"([+-]?)({_STARRED}|{_NUMBER})?\s*e([1-7])")
# A coefficient within DISPLAY_TOL of 0 is left out; one within it of +-1 prints bare.
DISPLAY_TOL = 1e-12


def parse_vector(text: str) -> np.ndarray:
    """Parse 'e1', 'e1+2.5e4', '-1e-05*e3', or a comma-separated 7-tuple."""
    text = text.strip()
    if "," in text:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 7:
            raise ValueError(f"expected 7 components, got {len(parts)}")
        return _finite(np.asarray(parts), text)
    vec = np.zeros(7)
    pos = 0
    matched = False
    for m in _BASIS_TERM.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"could not parse vector segment {text[pos:m.start()]!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2).rstrip("*")) if m.group(2) else 1.0
        vec[int(m.group(3)) - 1] += sign * coeff
        pos = m.end()
        matched = True
    if not matched or text[pos:].strip():
        raise ValueError(f"could not parse vector {text!r}")
    return _finite(vec, text)


def _finite(value, text: str):
    """Pass a parsed number or vector through; reject inf and nan."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"non-finite value in {text!r}")
    return value


def format_vector(vec: np.ndarray) -> str:
    """Inverse of parse_vector, e.g. 'e3' or '1.5*e1-2.0*e4': a coefficient
    prints in full (repr) unless it is within DISPLAY_TOL of 1."""
    parts = []
    for i, c in enumerate(np.asarray(vec, dtype=float)):
        if abs(c) <= DISPLAY_TOL:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        coeff = "" if abs(mag - 1.0) <= DISPLAY_TOL else f"{float(mag)!r}*"
        parts.append(f"{sign}{coeff}e{i + 1}")
    return "".join(parts) if parts else "0"


def parse_form(text: str) -> AltForm:
    """Parse signed multi-index terms like '+123 -257' or '-2.5*12 +1e-05*47'
    (1-based indices); a coefficient may carry an exponent, since '*' ends it."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty form expression")
    terms = {}
    degree = None
    for tok in tokens:
        m = re.fullmatch(rf"([+-]?)({_STARRED})?([1-7]+)", tok)
        if m is None:
            raise ValueError(f"could not parse form term {tok!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)[:-1]) if m.group(2) else 1.0
        idx = tuple(int(ch) - 1 for ch in m.group(3))
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated index in form term {tok!r}")
        if degree is None:
            degree = len(idx)
        elif len(idx) != degree:
            raise ValueError("form terms have mixed degrees")
        terms[idx] = terms.get(idx, 0.0) + sign * coeff
    return AltForm.from_terms(degree, terms)


def format_form(form: AltForm) -> str:
    parts = []
    for pos, idx in enumerate(multi_indices(form.degree)):
        c = form.coeffs[pos]
        if abs(c) <= DISPLAY_TOL:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if abs(mag - 1.0) <= DISPLAY_TOL else f"{mag:g}*"
        parts.append(f"{sign}{coeff}{''.join(str(i + 1) for i in idx)}")
    return " ".join(parts) if parts else "0"


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2knot",
        description="Numerical checks of the Kaehler structure on the knot space of flat R^7.")
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = sub.add_parser("algebra", help="one-shot algebra queries")
    alg_sub = algebra.add_subparsers(dest="algebra_command", required=True)

    p = alg_sub.add_parser("cross", help="vector product x * y")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = alg_sub.add_parser("octonion", help="octonion product (x, xr)(y, yr)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--xr", type=float, default=0.0, help="real part of the first factor")
    p.add_argument("--yr", type=float, default=0.0, help="real part of the second factor")

    p = alg_sub.add_parser("decompose", help="split a 2-form into its 7 and 14 parts")
    p.add_argument("--form", required=True)

    p = alg_sub.add_parser("associative", help="test a 3-plane for associativity")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)

    loop = sub.add_parser("loop", help="loop fixtures")
    loop_sub = loop.add_subparsers(dest="loop_command", required=True)

    p = loop_sub.add_parser("gen", help="generate a loop and write it as JSON")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k", type=int, default=5, help="maximum Fourier mode")
    p.add_argument("--circle", action="store_true", help="emit the unit-circle fixture")
    p.add_argument("-o", "--out", default="-")

    p = loop_sub.add_parser("reparam", help="constant-speed reparametrization")
    p.add_argument("-i", "--input", default="-")
    p.add_argument("-o", "--out", default="-")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("suites", choices=sorted(verify.SUITES) + ["all"])
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--n", type=int, default=512)
    ver.add_argument("--h", type=float, default=1e-4)
    ver.add_argument("--loops", type=int, default=20)
    ver.add_argument("--fields", type=int, default=10)
    ver.add_argument("--ensemble", type=int, default=50,
                     help="instanton battery sample count")
    ver.add_argument("-o", "--out", default=None)
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    for key, default in verify.DEFAULT_TOLERANCES.items():
        # --tol-d-omega-fd and --tol-d_omega_fd; a key without "_" has one spelling
        flags = dict.fromkeys([f"--tol-{key.replace('_', '-')}", f"--tol-{key}"])
        ver.add_argument(*flags, dest=f"tol_{key}", type=float, metavar="TOL",
                         help=f"default {default:g}")

    rep = sub.add_parser("report", help="report utilities")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)
    p = rep_sub.add_parser("summarize", help="human-readable digest of a report file")
    p.add_argument("-i", "--input", default="-")
    return parser


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_algebra(args) -> int:
    g2 = standard_g2()
    if args.algebra_command == "cross":
        out = cross(g2, parse_vector(args.x), parse_vector(args.y))
        print(format_vector(out))
    elif args.algebra_command == "octonion":
        xr, yr = _finite(args.xr, f"--xr {args.xr}"), _finite(args.yr, f"--yr {args.yr}")
        prod = octonion_mul(Octonion(parse_vector(args.x), xr),
                            Octonion(parse_vector(args.y), yr), g2)
        print(f"imag: {format_vector(prod.imag)}")
        print(f"real: {prod.real:.12g}")
    elif args.algebra_command == "decompose":
        beta7, beta14 = two_form_decompose(g2, parse_form(args.form))
        print(f"beta7:  {format_form(beta7)}  (norm {beta7.norm():.12g})")
        print(f"beta14: {format_form(beta14)}  (norm {beta14.norm():.12g})")
    elif args.algebra_command == "associative":
        flag, calib = is_associative(g2, parse_vector(args.u),
                                     parse_vector(args.v), parse_vector(args.w))
        print(f"associative: {flag}")
        print(f"calibration: {calib:.12g}")
    return 0


def _cmd_loop(args) -> int:
    if args.loop_command == "gen":
        if args.circle:
            loop = circle_loop(args.n)
            spec = None
        else:
            loop, spec = verify.random_fourier_loop(np.random.default_rng(args.seed),
                                                    args.n, args.k)
        _write_output(args.out, loop_to_json(loop, spec))
    elif args.loop_command == "reparam":
        loop = loop_from_json(_read_input(args.input))
        require_resolved(loop)
        _write_output(args.out, loop_to_json(unit_speed_reparam(loop)))
    return 0


def _cmd_verify(args) -> int:
    tolerances = {key: value for key in verify.DEFAULT_TOLERANCES
                  if (value := getattr(args, f"tol_{key}")) is not None}
    config = verify.VerifyConfig(
        seed=args.seed, n=args.n, h=args.h, loops=args.loops,
        fields=args.fields, instanton_samples=args.ensemble,
        tolerances=tolerances)
    reports = verify.run_suites(args.suites, config)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"suite {report.suite}: {status}")
        for case in report.cases:
            mark = "skip" if case["skipped"] else ("pass" if case["pass"] else "FAIL")
            print(f"  [{mark}] {case['name']}: residual {case['residual']:.3e}"
                  f" (tolerance {case['tolerance']:.3g})")
    if args.out is not None:
        if args.format == "json":
            _write_output(args.out, verify.reports_to_json(reports))
        else:
            _write_output(args.out, "".join(r.convergence_csv() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _check_report(rep) -> None:
    """Reject a report that lacks the fields the digest reads."""
    if not isinstance(rep, dict):
        raise ValueError("a report must be a JSON object or a list of objects")
    if not (isinstance(rep.get("suite"), str) and isinstance(rep.get("pass"), bool)
            and isinstance(rep.get("cases"), list)):
        raise ValueError("a report needs a string 'suite', a boolean 'pass' and a list 'cases'")
    for case in rep["cases"]:
        if not (isinstance(case, dict) and isinstance(case.get("name"), str)
                and isinstance(case.get("pass"), bool)):
            raise ValueError("each report case needs a string 'name' and a boolean 'pass'")


def _cmd_report(args) -> int:
    doc = json.loads(_read_input(args.input))
    reports = doc if isinstance(doc, list) else [doc]
    for rep in reports:
        _check_report(rep)
    for rep in reports:
        status = "PASS" if rep["pass"] else "FAIL"
        failing = [c["name"] for c in rep["cases"] if not c["pass"]]
        print(f"{rep['suite']}: {status} ({len(rep['cases'])} cases"
              + (f", failing: {', '.join(failing)}" if failing else "") + ")")
    return 0


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "algebra":
            return _cmd_algebra(args)
        if args.command == "loop":
            return _cmd_loop(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "report":
            return _cmd_report(args)
    except (G2KnotError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
