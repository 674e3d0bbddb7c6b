"""Command-line entry points: polynomial listings, corpus sweeps, and
table regeneration with machine-readable reports.

Human-readable tables go to stdout.  A structured report (json or csv) goes
to --out, or replaces the table on stdout when --format json/csv is given
without --out.  Reports are deterministic for fixed inputs and precision
(items sorted by canonical graph key; the wall-clock field is the only part
that varies between runs).

Rationals and T(d) are printed as decimals, and decimal options are checked,
at an explicit 53 bits (_REPORT_PREC) through libmp (the Remez reports print
the fits' own values), so mpmath's global precision changes no report.

Exit codes: 0 when every item verdict is HOLDS (or the command is purely
generative), 1 when any item FAILS or is INCONCLUSIVE, 2 on malformed input,
3 on an internal error (a crash, which must never read as a verdict).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import libmp

from . import __version__
from .certified import DEFAULT_BITS, MAX_BITS, Enclosure, Verdict
from .errors import DomainError, Graph6ParseError, NoGraphsError, RegmatchError
from .graphs import (
    Graph,
    canonical_key,
    complete,
    cycle,
    diamond,
    diamond_necklace,
    generate_connected_regular,
    necklace_cover,
    parse_graph6,
    petersen,
    prism,
)
from .matchpoly import matching_counts, matching_gen_poly, q_complete
from .minimax import (
    BASE_CAP,
    COVER_TARGET,
    DEFAULT_LADDER,
    _DPS,
    _from_fraction,
    ladder_verify,
    lambda_interval,
    remez_best_approx,
)
from .necklace import critical_constant, necklace_partition_via_trace, transfer_matrix
from .polytope import edmonds_check, even_d_threshold, matching_lower_bound_check
from .series_bounds import verify_inequality
from .walks import graph_power_sums, infinite_tree_power_sums, power_sums_newton

_REPORT_PREC = 53  # bits of the reports' decimals (mpmath's default precision)

_BUILTIN_GRAPHS = {
    "k2": lambda: complete(2),
    "c3": lambda: cycle(3),
    "k4": lambda: complete(4),
    "diamond": diamond,
    "petersen": petersen,
    "prism": prism,
}


_RATIONAL_BITS = 4096  # `cd --width 1e-1233` (4096 bits, default --dmax) takes about 3 s


def _rational(text: str) -> Fraction:
    """Accept 'p/q' or a decimal literal, exactly, when its numerator and
    denominator have at most _RATIONAL_BITS bits."""
    too_long = argparse.ArgumentTypeError(
        f"numerator or denominator above {_RATIONAL_BITS} bits: {text!r}")
    if len(text.lower().partition("e")[2]) > 6:  # Fraction would build 10**exponent
        raise too_long
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > _RATIONAL_BITS:
        raise too_long
    return value


def _positive(parse):
    """argparse type: parse the text, then require a value above zero."""
    def positive(text: str):
        value = parse(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
        return value
    positive.__name__ = parse.__name__  # argparse names it in its messages
    return positive


def _bounded(lo: int, hi: int):
    """argparse type: an integer in lo..hi, so no option asks for unbounded
    work (each hi is set where a run takes about 10 s, or at a library limit)."""
    def bounded(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}: {text!r}")
        return value
    bounded.__name__ = "int"  # argparse names it in its messages
    return bounded


# lambda_interval needs c_3 and c_4; degree 10 converges, `remez --a 0.2`
# in about 0.2 s and `ladder` in about 0.8 s
_DEGREE = _bounded(4, 10)


_REAL_MAX = 1000  # far past the ladder's 2.87; Remez turns singular near 1e20


def _real(text: str) -> str:
    """argparse type: a decimal of magnitude at most _REAL_MAX, kept as the
    text itself (the reports echo it as given)."""
    try:
        value = libmp.from_str(text, _REPORT_PREC, libmp.round_nearest)
        ok = value not in (libmp.finf, libmp.fninf, libmp.fnan)
    except (ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"not a finite decimal: {text!r}")
    if libmp.mpf_gt(libmp.mpf_abs(value), libmp.from_int(_REAL_MAX)):
        raise argparse.ArgumentTypeError(f"magnitude above {_REAL_MAX}: {text!r}")
    return text


def _decimal(q: Fraction, digits: int = 12) -> str:
    return libmp.to_str(_from_fraction(q, _REPORT_PREC), digits)


def _enclosure_fields(e: Enclosure) -> dict:
    width = e.width
    return {
        "lo": str(e.lo),
        "hi": str(e.hi),
        "decimal": _decimal(e.midpoint),
        "radius": _decimal(width / 2, 3) if width else "0",
    }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (str, int)):  # the common leaves first; bool is an int
        return obj
    if isinstance(obj, (Fraction, Verdict)):
        return str(obj)
    if isinstance(obj, mpmath.mpf):
        return mpmath.nstr(obj, 17)
    if isinstance(obj, Enclosure):
        return _enclosure_fields(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _flatten(item: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in item.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            flat[key] = " ".join(str(x) for x in v)
        else:
            flat[key] = v
    return flat


def _corpus_checksum(keys: list[str]) -> str:
    digest = hashlib.sha256("\n".join(keys).encode("ascii"))
    return digest.hexdigest()


class _Command:
    """Collects items and table lines, then emits the report."""

    def __init__(self, name: str, args, parameters: dict):
        self.name = name
        self.args = args
        self.parameters = parameters
        self.items: list[dict] = []
        self.lines: list[str] = []
        self.checksums: dict[str, str] = {}
        self.started = time.monotonic()
        self.failed = False

    def add(self, item: dict, verdict: Verdict | None = None) -> None:
        self.items.append(item)
        if verdict is not None and verdict is not Verdict.HOLDS:
            self.failed = True

    def say(self, line: str = "") -> None:
        self.lines.append(line)

    def emit(self) -> int:
        fmt = self.args.format
        out = self.args.out
        if fmt == "table" or out:
            for line in self.lines:
                print(line)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                self._write_structured(fh, "json" if fmt == "table" else fmt)
        elif fmt != "table":
            self._write_structured(sys.stdout, fmt)
        return 1 if self.failed else 0

    def _write_structured(self, fh, fmt: str) -> None:
        items = _jsonify(self.items)
        if fmt == "json":
            fh.write(json.dumps({
                "command": self.name,
                "parameters": _jsonify(self.parameters),
                "items": items,
                "item_count": len(items),
                "corpus_checksums": self.checksums,
                "toolkit_version": __version__,
                "wall_clock_seconds": round(time.monotonic() - self.started, 3),
            }, indent=2) + "\n")
            return
        rows = [_flatten(item) for item in items]
        if rows:
            # items may differ in their keys: the header is their union, in
            # first-seen order, and a row leaves the keys it lacks empty
            writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(
                key for row in rows for key in row)))
            writer.writeheader()
            writer.writerows(rows)


def _read_graph_inputs(paths: list[str]) -> list[tuple[str, str, int, Graph]]:
    """Parse graph6 inputs: (source, raw line, line number, graph)."""
    out = []
    sources = paths or ["-"]
    for path in sources:
        # bytes are read as ASCII with surrogateescape, whatever the locale,
        # so parse_graph6 names a non-ASCII byte's line and offset
        if path == "-":
            buffer = getattr(sys.stdin, "buffer", None)  # io.StringIO has none
            name, text = "stdin", (sys.stdin.read() if buffer is None else
                                   buffer.read().decode("ascii", "surrogateescape"))
        else:
            name = path
            with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
                text = fh.read()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line, line=lineno)
            except Graph6ParseError as exc:
                exc.source = name
                raise
            out.append((name, line, lineno, g))
    return out


def _corpus(d: int, nmax: int) -> list[Graph]:
    # K_{d+1} is the only connected d-regular graph for d = 0 and 1, so no
    # larger n is tried; sizes run downward, so the generator refuses one
    # past its cap (or a degree without one) before any size is generated
    if d in (0, 1):
        nmax = min(nmax, d + 1)
    graphs = []
    for n in range(nmax, d, -1):
        try:
            graphs.extend(generate_connected_regular(n, d))
        except NoGraphsError:
            continue
    return graphs


def _keyed(cmd: _Command, graphs: list[Graph]) -> list[tuple[str, Graph]]:
    """The graphs with their canonical keys, sorted by key; the keys'
    checksum goes into the report."""
    entries = sorted(((canonical_key(g), g) for g in graphs), key=lambda kv: kv[0])
    cmd.checksums["corpus"] = _corpus_checksum([key for key, _ in entries])
    return entries


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_poly(args) -> int:
    cmd = _Command("poly", args, {"inputs": args.inputs or ["-"]})
    parsed = _read_graph_inputs(args.inputs)
    for name, line, lineno, g in parsed:
        counts = matching_counts(g)
        cmd.say(" ".join(str(c) for c in counts))
        cmd.add({
            "source": name,
            "line": lineno,
            "graph6": line,
            "canonical_key": canonical_key(g),
            "n": g.n,
            "coefficients": list(counts),
        })
    cmd.items.sort(key=lambda item: item["canonical_key"])
    cmd.checksums["input"] = _corpus_checksum([it["canonical_key"] for it in cmd.items])
    return cmd.emit()


def _ak_rows(d: int, kmax: int):
    rows = [
        (f"K{d + 1}", power_sums_newton(q_complete(d + 1), d + 1, kmax)),
        (f"T{d}", infinite_tree_power_sums(d, kmax)),
    ]
    if d == 3:
        rows.append(("DN3", graph_power_sums(diamond_necklace(3), kmax)))
        rows.append(("DN2", graph_power_sums(diamond_necklace(2), kmax)))
    return rows


def _cmd_ak_table(args) -> int:
    cmd = _Command("ak-table", args, {"d": args.d, "kmax": args.kmax})
    rows = _ak_rows(args.d, args.kmax)
    width = max(len(label) for label, _ in rows)
    cmd.say(f"2a_k tables, d = {args.d}, k = 1..{args.kmax}")
    for label, sums in rows:
        vals = [sums.doubled(k) for k in range(1, args.kmax + 1)]
        cmd.say(f"{label:<{width}}  " + " ".join(str(v) for v in vals))
        cmd.add({"row": label, "doubled_power_sums": [str(v) for v in vals]})
    return cmd.emit()


_GRID_POINTS = 500  # `verify --d 3 --nmax 12` on 500 grid points takes about 10 s


def _verify_lambdas(args) -> list[Fraction]:
    if args.lam:
        return sorted(set(args.lam))
    step = args.grid_step
    count = args.grid_max // step
    if count > _GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"lambda grid of {count} points, above {_GRID_POINTS}")
    grid = [step * j for j in range(1, count + 1)]
    if not grid:
        raise argparse.ArgumentTypeError("empty lambda grid")
    return grid


def _cmd_verify(args) -> int:
    lams = _verify_lambdas(args)
    cmd = _Command("verify", args, {
        "d": args.d,
        "nmax": args.nmax,
        "lambdas": [str(q) for q in lams],
        "precision_bits": args.precision_bits,
        "include_necklaces": args.include_necklaces,
    })
    if args.include_necklaces and args.d != 3:
        raise argparse.ArgumentTypeError("necklace rows require --d 3")
    graphs = _corpus(args.d, args.nmax)
    if args.include_necklaces:
        graphs.extend(diamond_necklace(k) for k in range(2, args.include_necklaces + 1))
    entries = _keyed(cmd, graphs)
    counts = {Verdict.HOLDS: 0, Verdict.FAILS: 0, Verdict.INCONCLUSIVE: 0}
    for key, g in entries:
        worst = None
        for lam in lams:
            rep = verify_inequality(g, args.d, lam, bits=args.precision_bits)
            counts[rep.verdict] += 1
            if worst is None or rep.margin.lo < worst[1].margin.lo:
                worst = (lam, rep)
            cmd.add({
                "canonical_key": key,
                "n": g.n,
                "lambda": str(lam),
                "verdict": rep.verdict,
                "equality": rep.equality,
                "margin": rep.margin,
                "bits": rep.bits,
            }, rep.verdict)
        lam, rep = worst
        cmd.say(f"{key:<24} n={g.n:<3} min margin {_decimal(rep.margin.midpoint, 6):>12}"
                f" at lambda={lam}  {rep.verdict}" + (" (equality)" if rep.equality else ""))
    cmd.say()
    cmd.say(f"graphs={len(entries)} points={len(lams)} "
            f"HOLDS={counts[Verdict.HOLDS]} FAILS={counts[Verdict.FAILS]} "
            f"INCONCLUSIVE={counts[Verdict.INCONCLUSIVE]}")
    return cmd.emit()


def _cmd_ladder(args) -> int:
    ladder = DEFAULT_LADDER
    if args.config:
        ladder = []
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    text = line.split("#", 1)[0].strip()
                    if text:
                        try:
                            ladder.append(_real(text))
                        except argparse.ArgumentTypeError as exc:
                            raise argparse.ArgumentTypeError(
                                f"{args.config}: line {lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise argparse.ArgumentTypeError(f"{args.config}: not UTF-8 text") from None
    cmd = _Command("ladder", args, {
        "ladder": list(ladder),
        "degree": args.degree,
        "dps": args.dps,
        "base_cap": str(args.base_cap),
        "target": args.target,
    })
    report = ladder_verify(ladder, base_cap=args.base_cap, target=args.target,
                           degree=args.degree, dps=args.dps)
    cmd.say(f"{'A':>6} {'epsilon':>14} {'lam_min':>14} {'lam_max':>14} connects")
    for row in report.rows:
        iv = row.interval
        lam_min, lam_max = (None, None) if iv is None else (iv.lam_min, iv.lam_max)
        lo, hi = ("-" if x is None else mpmath.nstr(x, 10) for x in (lam_min, lam_max))
        cmd.say(f"{mpmath.nstr(row.A, 4):>6} {mpmath.nstr(row.result.epsilon, 8):>14}"
                f" {lo:>14} {hi:>14} {'yes' if row.connects else 'NO'}")
        verdict = Verdict.HOLDS if row.connects else Verdict.FAILS
        cmd.add({
            "A": row.A,
            "epsilon": row.result.epsilon,
            "lam_min": lam_min,
            "lam_max": lam_max,
            "connects": row.connects,
            "verdict": verdict,
        }, verdict)
    if report.covered:
        cmd.say(f"COVERED (0, {args.target}]")
    else:
        cmd.failed = True
        for lo, hi in report.gaps:
            cmd.say(f"GAP ({mpmath.nstr(lo, 10)}, {mpmath.nstr(hi, 10)})")
        cmd.say(f"frontier {mpmath.nstr(report.frontier, 10)} "
                f"target {args.target}: NOT COVERED")
    return cmd.emit()


def _cmd_remez(args) -> int:
    cmd = _Command("remez", args, {"A": args.a, "degree": args.degree, "dps": args.dps})
    res = remez_best_approx(args.a, degree=args.degree, dps=args.dps)
    try:
        iv = lambda_interval(res)
        lam_min, lam_max = iv.lam_min, iv.lam_max
    except DomainError:  # the fit's error admits no interval, as on a ladder rung
        lam_min = lam_max = None
        cmd.failed = True
    digits = 10
    cmd.say(f"best degree-{args.degree} approximation of log(1+x) on [0, {args.a}]")
    for i, c in enumerate(res.coeffs):
        cmd.say(f"  c_{i} = {mpmath.nstr(c, digits)}")
    cmd.say(f"  epsilon = {mpmath.nstr(res.epsilon, digits)}")
    for name, x in (("lam_min", lam_min), ("lam_max", lam_max)):
        cmd.say(f"  {name} = {'-' if x is None else mpmath.nstr(x, digits)}")
    cmd.say(f"  iterations = {res.iterations}")
    cmd.add({
        "A": res.A,
        "degree": res.degree,
        "coefficients": res.coeffs,
        "epsilon": res.epsilon,
        "lam_min": lam_min,
        "lam_max": lam_max,
        "iterations": res.iterations,
    })
    return cmd.emit()


_CD_WORK = 3e12  # `cd --dmax 17 --width 1e-975` (2.93e12) takes about 9 s


def _check_cd_work(dmax: int, width: Fraction) -> None:
    """Refuse a `cd` run whose time, which grows like dmax^3 * bits^2.5 with
    `bits` the bits of 1/width, is past _CD_WORK."""
    bits = (width.denominator // width.numerator).bit_length()
    if dmax ** 3 * bits ** 2.5 > _CD_WORK:
        raise argparse.ArgumentTypeError(
            f"--dmax {dmax} with a {bits}-bit --width: dmax^3 * bits^2.5 above {_CD_WORK:.0e}")


def _cmd_cd(args) -> int:
    _check_cd_work(args.dmax, args.width)
    cmd = _Command("cd", args, {"dmax": args.dmax, "width": str(args.width)})
    cmd.say(f"{'d':>3} {'c_d':>14} width")
    for d in range(3, args.dmax + 1, 2):
        cc = critical_constant(d, width=args.width)
        mid = "1 (exact)" if cc.exact and cc.midpoint == 1 else _decimal(cc.midpoint, 10)
        cmd.say(f"{d:>3} {mid:>14} {_decimal(cc.width, 3) if not cc.exact else '0'}")
        cmd.add({
            "d": d,
            "lo": cc.lo,
            "hi": cc.hi,
            "midpoint_decimal": _decimal(cc.midpoint, 12),
            "exact": cc.exact,
        })
    return cmd.emit()


def _necklace_base(args) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    return _BUILTIN_GRAPHS[args.builtin]()


def _cmd_necklace(args) -> int:
    base = _necklace_base(args)
    u, v = args.edge
    tm = transfer_matrix(base, u, v)  # rejects a non-edge before the canonical search
    cmd = _Command("necklace", args, {
        "base": canonical_key(base),
        "edge": [u, v],
        "kmax": args.kmax,
    })
    cmd.say(f"base {canonical_key(base)} edge ({u},{v})")
    cmd.say("trace(B) coefficients: " + " ".join(str(c) for c in tm.trace_poly().coeffs))
    cmd.say("det(B) coefficients:   " + " ".join(str(c) for c in tm.det_poly().coeffs))
    for k in range(2, args.kmax + 1):
        via_trace = necklace_partition_via_trace(tm, k)
        direct = matching_gen_poly(necklace_cover(base, (u, v), k))
        verdict = Verdict.HOLDS if via_trace == direct else Verdict.FAILS
        cmd.say(f"k={k}: trace(B^k) {'==' if verdict is Verdict.HOLDS else '!='} "
                f"M(cover): " + " ".join(str(c) for c in via_trace.coeffs))
        cmd.add({
            "k": k,
            "trace_coefficients": list(via_trace.coeffs),
            "direct_coefficients": list(direct.coeffs),
            "verdict": verdict,
        }, verdict)
    return cmd.emit()


def _cmd_polytope(args) -> int:
    cmd = _Command("polytope", args, {
        "d": args.d,
        "nmax": args.nmax,
        "include_complete": args.include_complete,
    })
    d = args.d
    thr = even_d_threshold(d)  # rejects an odd d before any generation
    graphs = _corpus(d, args.nmax)
    if not args.include_complete:
        graphs = [g for g in graphs if g.n != d + 1]
    entries = _keyed(cmd, graphs)
    rnd = libmp.round_nearest
    value = libmp.mpf_mul_int(libmp.mpf_log(libmp.from_int(d + 1), _REPORT_PREC, rnd),
                              thr.units, _REPORT_PREC, rnd)
    cmd.say(f"T({d}) = {thr.units} ln({d + 1}) = {libmp.to_str(value, 8)}, "
            f"coefficient gap {thr.gap}")
    for key, g in entries:
        bound = matching_lower_bound_check(g, d)
        item = {
            "canonical_key": key,
            "n": g.n,
            "nu": bound.nu,
            "bound": bound.bound,
            "bound_holds": bound.holds,
        }
        if g.n == d + 1:
            item["edmonds"] = "skipped (complete graph)"
            edmonds_ok = True
        else:
            witness = edmonds_check(g, d)
            item["edmonds"] = witness.mode
            item["odd_sets_checked"] = witness.subsets_checked
            edmonds_ok = witness.ok
        verdict = Verdict.HOLDS if bound.holds and edmonds_ok else Verdict.FAILS
        item["verdict"] = verdict
        cmd.add(item, verdict)
        cmd.say(f"{key:<24} n={g.n:<3} nu={bound.nu:<3} bound={bound.bound} "
                f"edmonds={item['edmonds']}  {verdict}")
    return cmd.emit()


# ---------------------------------------------------------------------------
# Parser

def _edge(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'u,v': {text!r}")
    return u, v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmatch",
        description="Exact matching partition functions of regular graphs.")
    parser.add_argument("--version", action="version", version=f"regmatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="PATH",
                       help="write the structured report to this file")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("poly", help="matching generating polynomial of graph6 input")
    p.add_argument("inputs", nargs="*",
                   help="graph6 files, one graph per line ('-' or empty: stdin)")
    common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("ak-table", help="2a_k tables: K_{d+1}, infinite tree, necklaces")
    p.add_argument("--d", type=_bounded(1, 24), default=3)
    p.add_argument("--kmax", type=_bounded(1, 2000), default=10)
    common(p)
    p.set_defaults(func=_cmd_ak_table)

    p = sub.add_parser("verify", help="per-vertex free-energy sweep against K_{d+1}")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--lambda", dest="lam", type=_rational, action="append",
                   help="evaluation point p/q or decimal (repeatable)")
    p.add_argument("--grid-step", type=_positive(_rational), default=Fraction(1, 400))
    p.add_argument("--grid-max", type=_rational, default=Fraction(143, 400))
    p.add_argument("--precision-bits", type=_bounded(1, MAX_BITS), default=DEFAULT_BITS)
    p.add_argument("--include-necklaces", type=_bounded(0, 11), default=0, metavar="KMAX",
                   help="also sweep diamond necklaces DN_2..DN_KMAX (d=3)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ladder", help="interval ladder covering (0, target]")
    p.add_argument("--config", metavar="PATH",
                   help="file of A values, one per line (# comments)")
    p.add_argument("--degree", type=_DEGREE, default=4)
    p.add_argument("--dps", type=_bounded(15, 400), default=_DPS)
    p.add_argument("--base-cap", type=_rational, default=BASE_CAP)
    p.add_argument("--target", type=_real, default=COVER_TARGET)
    common(p)
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("remez", help="minimax polynomial for log(1+x) on [0, A]")
    p.add_argument("--a", type=_real, required=True, help="right endpoint A (decimal)")
    p.add_argument("--degree", type=_DEGREE, default=4)
    p.add_argument("--dps", type=_bounded(15, 400), default=_DPS)
    common(p)
    p.set_defaults(func=_cmd_remez)

    p = sub.add_parser("cd", help="critical constants c_d for odd d")
    p.add_argument("--dmax", type=_bounded(3, 201), default=9)
    p.add_argument("--width", type=_positive(_rational), default=Fraction(1, 10 ** 10))
    common(p)
    p.set_defaults(func=_cmd_cd)

    p = sub.add_parser("necklace", help="transfer-matrix trace identity checks")
    p.add_argument("--graph6", help="base graph as a graph6 string")
    p.add_argument("--builtin", choices=sorted(_BUILTIN_GRAPHS), default="k4")
    p.add_argument("--edge", type=_edge, default=(0, 1), metavar="U,V")
    p.add_argument("--kmax", type=_bounded(2, 12), default=4)
    common(p)
    p.set_defaults(func=_cmd_necklace)

    p = sub.add_parser("polytope", help="matching polytope and matching-number bounds")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--include-complete", action="store_true",
                   help="include K_{d+1}, whose bound check honestly fails")
    common(p)
    p.set_defaults(func=_cmd_polytope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Graph6ParseError as exc:
        source = getattr(exc, "source", "input")
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
    except (argparse.ArgumentTypeError, RegmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
