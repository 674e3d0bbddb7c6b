"""The benchmark's three workloads over regmatch's public API.

Each workload has three parts:

- `prepare(rm, seed, small)` builds the inputs (set-up, timed as setup_s);
- `run_pass(rm, inputs, timer)` does the timed work, running each item
  through `timer.item` (which keeps its start and end on the perf_counter
  clock), and returns one raw output per item;
- `check(rm, inputs, outputs, expected)` compares the outputs with what the
  workload must produce, outside the timed region.  It returns the failed
  items, the whole-pass checks, and counts read from the outputs.

`rm` is a namespace of freshly imported regmatch modules.  Every call into
the package goes through a module attribute at call time, so the tracer's
wrappers see it.  The seed relabels every input graph's vertices and
shuffles the order in which items are processed; every check holds for any
seed.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import random
import statistics
import types
from fractions import Fraction
from time import perf_counter


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def cold_start(rm) -> None:
    """Empty every cache the package keeps between calls, as a new process
    starts without them (also while the tracer's wrappers are installed)."""
    rm.matchpoly.clear_cache()
    for mod in vars(rm).values():
        for obj in vars(mod).values():
            if isinstance(obj, types.FunctionType):  # maybe a tracer's wrapper
                obj = getattr(obj, "__wrapped__", obj)
            if isinstance(obj, functools._lru_cache_wrapper):
                obj.cache_clear()


def relabeled_graph6(rm, g, rng: random.Random) -> str:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return rm.graphs.encode_graph6(g.relabel(perm))


class Check:
    """Outcome of one output check that is not tied to a single item."""

    __slots__ = ("name", "observed", "expected")

    def __init__(self, name: str, observed, expected):
        self.name, self.observed, self.expected = name, observed, expected

    @property
    def ok(self) -> bool:
        return self.observed == self.expected


# The host the benchmark was tuned on (a 2-vCPU shared virtual machine) runs
# identical work up to 30% faster or slower in phases lasting from seconds to
# minutes, and process CPU time moves with wall time, so no choice of run
# length or estimator removes it.  Every reported time is therefore scaled to
# a reference speed: a fixed probe that calls no regmatch code runs between
# items every PROBE_EVERY seconds, and an interval measured while the probes
# around it took a median of p seconds counts PROBE_REF / p reference seconds
# per second.  The probe is the same on every commit, so the scaling cancels
# in a comparison of two commits; it removes most of the host's phases
# because they slow the probe alike.
PROBE_EVERY = 0.5
PROBE_NEAR = 2  # probes on each side of an interval that set its scale
PROBE_REF = 0.017  # about the probe's median time in a run on that host, Python 3.11


def probe_work() -> None:
    """Fixed pure-Python work of the kinds the workloads do: Fraction sums,
    a hashed table of tuples, sorting and nested list building."""
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction((-1) ** k, k * k + 1)
    table: dict = {}
    x = 12345
    for _ in range(8000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 4095, x >> 19)
        table[key] = table.get(key, 0) + 1
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    rows = [[(i * j) % 97 for j in range(40)] for i in range(60)]
    sum(map(sum, rows))


class Timer:
    """Times items, probes the host's speed between them, and converts
    measured intervals to reference seconds."""

    def __init__(self):
        self.windows: list[tuple[float, float]] = []  # items' (start, end)
        self._starts: list[float] = []  # probes' starts and ends
        self._ends: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        # with the collector off, the probe's time does not depend on how
        # many objects the program keeps alive
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self._starts.append(t0)
        self._ends.append(t1)
        self._next = t1 + PROBE_EVERY

    def between(self) -> None:
        """Call between items: probes when PROBE_EVERY seconds have passed."""
        if perf_counter() >= self._next:
            self.probe()

    def item(self, fn, *args):
        """Run one item and keep its (start, end); an exception is its output,
        so the pass continues."""
        self.between()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed item is reported, not fatal
            out = exc
        self.windows.append((t0, perf_counter()))
        return out

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for an interval that no probe overlaps, from the
        PROBE_NEAR probes before it and the PROBE_NEAR after it."""
        i = bisect.bisect_right(self._ends, t0)
        j = bisect.bisect_left(self._starts, t1)
        near = [e - s for s, e in zip(self._starts[max(0, i - PROBE_NEAR):i],
                                      self._ends[max(0, i - PROBE_NEAR):i])]
        near += [e - s for s, e in zip(self._starts[j:j + PROBE_NEAR],
                                       self._ends[j:j + PROBE_NEAR])]
        return (t1 - t0) * PROBE_REF / statistics.median(near)

    def span(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, reference) seconds from t0 to t1, leaving out the
        probes run in between."""
        measured = reference = 0.0
        cur = t0
        for s, e in zip(self._starts, self._ends):
            if t0 <= s and e <= t1:
                measured += s - cur
                reference += self.scaled(cur, s)
                cur = e
        return measured + t1 - cur, reference + self.scaled(cur, t1)


# ---------------------------------------------------------------------------
# sweep: certified free-energy verdicts with a warm memo

class Sweep:
    """verify_inequality over the cubic corpus n <= 10 at 143 activities,
    the escalating diamond-necklace verdicts near lambda = 1, and the
    negative-lambda sandwich."""

    name = "sweep"
    tail_percentile = 99
    min_passes = 1

    def prepare(self, rm, seed: int, small: bool):
        rng = random.Random(seed)
        graphs = []
        for n in ((4, 6) if small else (4, 6, 8, 10)):
            # generated graphs are canonically labelled: graph6 is the key
            for g in rm.graphs.generate_connected_regular(n, 3):
                graphs.append((rm.graphs.encode_graph6(g), relabeled_graph6(rm, g, rng), True))
        for k in ((2,) if small else (2, 3, 4, 5)):
            dn = rm.graphs.diamond_necklace(k)
            graphs.append((f"DN{k}", relabeled_graph6(rm, dn, rng), False))
        grid = [Fraction(j, 400) for j in range(1, 144)]
        near_one = [1 - Fraction(1, 10 ** e) for e in range(10, 330, 10)]
        negative = [Fraction(-1, 8), Fraction(-1, 16), Fraction(-1, 32)]
        calls = []
        for i, (_, _, cubic) in enumerate(graphs):
            calls += ([(i, "verify", lam) for lam in grid] + [(i, "sandwich", lam) for lam in negative]
                      if cubic else [(i, "verify", lam) for lam in near_one])
        # one order over all calls, so that the escalating necklace verdicts,
        # which make the tail, are spread over the pass and not timed in one burst
        rng.shuffle(calls)
        return {"graphs": [(key, g6) for key, g6, _ in graphs], "calls": calls,
                "k4": rm.graphs.encode_graph6(rm.graphs.complete(4))}

    def run_pass(self, rm, inputs, timer):
        outputs = []
        sb = rm.series_bounds
        graphs = [(key, rm.graphs.parse_graph6(g6)) for key, g6 in inputs["graphs"]]
        for i, kind, lam in inputs["calls"]:
            key, g = graphs[i]
            fn = sb.verify_inequality if kind == "verify" else sb.negative_lambda_sandwich
            outputs.append((key, kind, lam, timer.item(fn, g, 3, lam)))
        return outputs

    def check(self, rm, inputs, outputs, expected):
        bad, lines, holds, escalated = [], [], 0, 0
        default_bits = rm.certified.DEFAULT_BITS
        for key, kind, lam, rep in outputs:
            if isinstance(rep, Exception):
                bad.append(f"{key} {kind} {lam}: raised {rep!r}")
                continue
            ok = rep.verdict.value == "HOLDS"
            if kind == "verify":
                lines.append(f"{key} verify {lam} {rep.verdict} {rep.equality} {rep.bits}"
                             f" {rep.margin.lo} {rep.margin.hi}")
            else:
                ok = ok and rep.lower_margin.lo > 0 and (
                    rep.upper_equality if key == inputs["k4"] else rep.upper_margin.lo > 0)
                lines.append(f"{key} sandwich {lam} {rep.lower_verdict} {rep.upper_verdict}"
                             f" {rep.upper_equality} {rep.bits} {rep.lower_margin.lo}"
                             f" {rep.lower_margin.hi} {rep.upper_margin.lo} {rep.upper_margin.hi}")
            holds += ok
            escalated += rep.bits > default_bits
            if not ok:
                bad.append(f"{key} {kind} {lam}: {rep.verdict}")
        checks = [Check("holds", holds, expected["holds"]),
                  Check("escalated", escalated, expected["escalated"]),
                  Check("digest", sha256_lines(lines), expected["digest"])]
        return bad, checks, {}


# ---------------------------------------------------------------------------
# corpus: generate the regular corpora and certify them cold

# connected cubic (OEIS A002851), quartic (A006820) and 5-regular graph counts
CORPUS_COUNTS = {(3, 4): 1, (3, 6): 2, (3, 8): 5, (3, 10): 19, (3, 12): 85,
                 (4, 5): 1, (4, 6): 1, (4, 7): 2, (4, 8): 6, (4, 9): 16,
                 (5, 6): 1, (5, 8): 3}
SMALL_CORPUS = ((3, 4), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6))


class Corpus:
    """generate_connected_regular for the cubic, quartic and 5-regular
    corpora, then Sturm real-rootedness and the quartic matching checks."""

    name = "corpus"
    tail_percentile = 90
    min_passes = 2

    def prepare(self, rm, seed: int, small: bool):
        jobs = list(SMALL_CORPUS if small else CORPUS_COUNTS)
        random.Random(seed).shuffle(jobs)
        bounds = {d: rm.certified.sqrt_enclosure(Fraction(4 * (d - 1))).lo for d in (3, 4, 5)}
        return {"jobs": jobs, "seed": seed, "bounds": bounds}

    @staticmethod
    def _certify(rm, g, d: int, bound: Fraction):
        mu = rm.matchpoly.matching_poly_mu(g)
        count = rm.polynomials.count_real_roots_with_multiplicity
        out = {"mu": mu.coeffs, "real": count(mu), "inside": count(mu, -bound, bound)}
        if d == 4:
            out["bound"] = rm.polytope.matching_lower_bound_check(g, 4)
            if g.n != 5:  # K_5 is the lone quartic graph on 5 vertices
                out["edmonds"] = rm.polytope.edmonds_check(g, 4)
        return out

    def run_pass(self, rm, inputs, timer):
        rng = random.Random(inputs["seed"])  # the same relabelling every pass
        generated, entries = {}, []
        for d, n in inputs["jobs"]:
            timer.between()
            try:
                graphs = rm.graphs.generate_connected_regular(n, d)
            except Exception as exc:  # noqa: BLE001 - reported by check()
                generated[d, n] = exc
                continue
            generated[d, n] = [rm.graphs.encode_graph6(g) for g in graphs]
            entries += [(d, key, g) for key, g in zip(generated[d, n], graphs)]
        rng.shuffle(entries)
        outputs = []
        for d, key, g in entries:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            out = timer.item(self._certify, rm, h, d, inputs["bounds"][d])
            outputs.append((d, key, h.n, out))
        return {"generated": generated, "items": outputs}

    def check(self, rm, inputs, outputs, expected):
        bad, checks, lines = [], [], []
        by_degree: dict[int, list[str]] = {}
        for (d, n), keys in sorted(outputs["generated"].items()):
            observed = len(keys) if isinstance(keys, list) else repr(keys)
            checks.append(Check(f"count d={d} n={n}", observed, CORPUS_COUNTS[d, n]))
            if isinstance(keys, list):
                by_degree.setdefault(d, []).extend(keys)
        for d, keys in sorted(by_degree.items()):
            checks.append(Check(f"checksum d={d}", sha256_lines(keys),
                                expected["checksums"][str(d)]))
        for d, key, n, out in outputs["items"]:
            if isinstance(out, Exception):
                bad.append(f"{key}: raised {out!r}")
                continue
            ok = out["real"] == n and out["inside"] == n
            line = f"{key} {out['mu']} {out['real']} {out['inside']}"
            if "bound" in out:
                # K_5 honestly fails the matching bound; every other graph holds
                ok = ok and out["bound"].holds == (n != 5)
                line += f" {out['bound'].nu} {out['bound'].holds}"
            if "edmonds" in out:
                w = out["edmonds"]
                ok = ok and w.ok and w.mode == "exhaustive"
                line += f" {w.ok} {w.subsets_checked}"
            lines.append(line)
            if not ok:
                bad.append(f"{key}: {line}")
        checks.append(Check("digest", sha256_lines(lines), expected["digest"]))
        return bad, checks, {}


# ---------------------------------------------------------------------------
# tables: the CLI report path and the layers that need no generated corpus

def _cli_steps(small: bool):
    if small:
        return [["cd", "--dmax", "7"], ["ak-table", "--d", "3", "--kmax", "4"],
                ["necklace", "--builtin", "c3", "--edge", "0,1"],
                ["necklace", "--builtin", "diamond", "--edge", "0,2"],
                ["remez", "--a", "0.2"], ["verify", "--d", "3", "--nmax", "6"],
                ["polytope", "--d", "4", "--nmax", "7"]]
    steps = [["ladder"], ["cd", "--dmax", "15"], ["ak-table", "--d", "3", "--kmax", "10"]]
    for builtin in ("k2", "c3", "k4", "diamond", "petersen", "prism"):
        edge = "0,2" if builtin == "diamond" else "0,1"
        steps.append(["necklace", "--builtin", builtin, "--edge", edge])
    steps += [["verify", "--d", "3", "--nmax", "8"], ["polytope", "--d", "4", "--nmax", "8"]]
    return steps


def _walk_graphs(rm, small: bool):
    g = rm.graphs
    if small:
        return {"K5": g.complete(5), "prism3": g.prism(3), "K33": g.complete_bipartite(3, 3)}
    return {"K7": g.complete(7), "K8": g.complete(8), "petersen": g.petersen(),
            "C10(1,2)": g.circulant(10, (1, 2)), "C11(1,2)": g.circulant(11, (1, 2)),
            "C12(1,5)": g.circulant(12, (1, 5)), "prism6": g.prism(6),
            "K44": g.complete_bipartite(4, 4)}


class Tables:
    """In-process CLI reports (JSON, digested) plus the Q_d recursions,
    M(DN_k, 1) = 10^k and tree-like walk totals against power sums."""

    name = "tables"
    tail_percentile = 80
    min_passes = 3

    def prepare(self, rm, seed: int, small: bool):
        rng = random.Random(seed)
        steps = [("cli", " ".join(argv), argv) for argv in _cli_steps(small)]
        qd_range = range(5, 8) if small else range(5, 16)
        steps.append(("qd", "qd", list(qd_range)))
        dn = [(k, relabeled_graph6(rm, rm.graphs.diamond_necklace(k), rng))
              for k in ((2, 3) if small else (2, 3, 4, 5))]
        steps.append(("dn", "dn", dn))
        for label, g in _walk_graphs(rm, small).items():
            steps.append(("walk", label, relabeled_graph6(rm, g, rng)))
        rng.shuffle(steps)
        return {"steps": steps}

    @staticmethod
    def _cli(rm, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = rm.cli.main(argv + ["--format", "json"])
        return rc, buf.getvalue()

    @staticmethod
    def _qd(rm, ds):
        nk = rm.necklace
        return [(d, nk.qd_recursive(d), nk.qd_direct(d), nk.qd_alternate(d)) for d in ds]

    @staticmethod
    def _dn(rm, graphs):
        return [(k, rm.matchpoly.gen_poly_value(rm.graphs.parse_graph6(g6), 1))
                for k, g6 in graphs]

    @staticmethod
    def _walk(rm, g6):
        g = rm.graphs.parse_graph6(g6)
        sums = rm.walks.graph_power_sums(g, 5)
        totals = [rm.walks.tree_like_walk_total(g, 2 * k) for k in range(1, 6)]
        return g.n, sums, totals

    def run_pass(self, rm, inputs, timer):
        outputs = []
        run = {"cli": self._cli, "qd": self._qd, "dn": self._dn, "walk": self._walk}
        for kind, label, arg in inputs["steps"]:
            cold_start(rm)  # each step stands for a separate CLI invocation
            outputs.append((kind, label, timer.item(run[kind], rm, arg)))
        return outputs

    def check(self, rm, inputs, outputs, expected):
        bad, report_items = [], 0
        for kind, label, out in outputs:
            if isinstance(out, Exception):
                bad.append(f"{label}: raised {out!r}")
                continue
            if kind == "cli":
                rc, text = out
                try:
                    report = json.loads(text)
                except ValueError:
                    report = {}
                report.pop("wall_clock_seconds", None)
                report_items += report.get("item_count", 0)
                digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
                ok = rc == 0 and digest == expected["cli"].get(label)
                detail = f"exit {rc}, digest {digest}"
            elif kind == "qd":
                ok = all(r == direct == alt for _, r, direct, alt in out)
                digest = sha256_lines(f"{d} {r.coeffs}" for d, r, _, _ in out)
                ok = ok and digest == expected["qd"]
                detail = f"digest {digest}"
            elif kind == "dn":
                ok = all(value == 10 ** k for k, value in out)
                detail = str(out)
            else:
                n, sums, totals = out
                ok = (all(t == n * sums.doubled(k) for k, t in enumerate(totals, 1))
                      and totals == expected["walks"].get(label))
                detail = f"totals {totals}"
            if not ok:
                bad.append(f"{label}: {detail}")
        return bad, [], {"cli.report_items": report_items}


WORKLOADS = {w.name: w for w in (Sweep(), Corpus(), Tables())}
