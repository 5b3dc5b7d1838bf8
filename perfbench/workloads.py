"""The three workloads: their inputs, their units and their checks.

A workload has ``make_inputs(seed)``, which makes its inputs as plain data,
``setup(nc, inputs)``, which builds them for the freshly imported modules
``nc`` and returns the units to time, and ``check(nc, inputs, results)``,
which checks one round's outputs against the reference computations of
``reference.py``.  Units return plain data only
(text, numbers, tuples), so that a finished round keeps no nilcomm object and
no cache alive.  Checks run after the timed rounds.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import reference as ref

CERTIFY_MAX_N = 8


def _pair(nc, t, n, sig):
    return nc.diagrams.PairType[t], nc.diagrams.PairParams(n, sig)


def _diagram(nc, rows):
    if rows and rows[0][1] is None:
        return nc.diagrams.AbDiagram.from_partition(d for d, _ in rows)
    return nc.diagrams.AbDiagram.from_rows(rows)


def _label(t, n, sig):
    return f"{t} n={n}" + (f" {sig}" if sig else "")


class Outcome(SimpleNamespace):
    """problems: failed checks; failed: operations per round that fail as
    expected (counted, not problems)."""


# -- certify -------------------------------------------------------------------


def _certify_unit(nc, pt, prm, diagrams):
    o, inv = nc.oracle, nc.invariants
    valid = set(nc.diagrams.enumerate_diagrams(pt, prm))
    rows = []
    for d in diagrams:
        try:
            real = o.realize(d, pt, prm)
        except nc.errors.UnrealizableDiagram:
            rows.append((d.text(), False, d in valid))
            continue
        defects = (inv.defect(d, pt), o.defect_oracle(real)) if d.rows else (None, None)
        rows.append((
            d.text(), True, d in valid, o.jordan_type(real.e),
            (inv.dim_p_cent(d, pt, prm), o.dim_p_cent_oracle(real)),
            (inv.dim_p0(d, pt), o.dim_graded(real, 0, -1)),
            (inv.dim_p_graded(d, pt, 1), o.dim_graded(real, 1, -1)),
            defects,
        ))
    return sorted(d.text() for d in valid), rows


class Certify:
    """The oracle certification sweep of ``nilcomm verify`` for all seven
    types up to n = CERTIFY_MAX_N: every partition with every letter
    assignment, valid or not; one unit per pair."""

    @staticmethod
    def make_inputs(seed):
        rng = random.Random(seed)
        pairs = [p for n in range(CERTIFY_MAX_N + 1) for p in ref.pairs_of_size(n)]
        rng.shuffle(pairs)
        inputs = []
        for t, n, sig in pairs:
            cands = [rows for part in ref.partitions(n)
                     for rows in ref.all_signings(part, t in ("AI", "AII"))]
            rng.shuffle(cands)
            inputs.append((t, n, sig, cands))
        return inputs

    @staticmethod
    def setup(nc, inputs):
        return [functools.partial(_certify_unit, nc, *_pair(nc, t, n, sig),
                                  [_diagram(nc, rows) for rows in cands])
                for t, n, sig, cands in inputs]

    @staticmethod
    def check(nc, inputs, results):
        problems = []
        for (t, n, sig, cands), (valid, rows) in zip(inputs, results):
            ncand = len(cands)
            label = _label(t, n, sig)
            want = sorted(ref.text(r) for r in ref.valid_diagrams(t, n, sig))
            if valid != want:
                problems.append(f"{label}: enumeration differs from the parity rules")
            count = {"AI": ref.partition_count(n),
                     "AII": ref.partition_count(n // 2)}.get(t, len(want))
            if len(valid) != count:
                problems.append(f"{label}: {len(valid)} orbits, expected {count}")
            if len(rows) != ncand or len({r[0] for r in rows}) != ncand:
                problems.append(f"{label}: {len(rows)} diagrams certified of {ncand}")
            for r in rows:
                txt, realizable, in_valid = r[:3]
                if realizable != in_valid:
                    problems.append(f"{label} {txt!r}: realizable={realizable} valid={in_valid}")
                if not realizable:
                    continue
                jt, *pairs = r[3:]
                if jt != tuple(d for d, _ in ref.from_text(txt)):
                    problems.append(f"{label} {txt!r}: Jordan type of e is {jt}")
                for what, (formula, oracle) in zip(("dim p^e", "dim p(e,0)", "dim p(e,1)",
                                                    "defect"), pairs):
                    if formula != oracle:
                        problems.append(f"{label} {txt!r}: {what} {formula} vs oracle {oracle}")
        return Outcome(problems=problems, failed=0)


# -- classify --------------------------------------------------------------------


def _verified_grid():
    """AI n <= 5, AII n <= 6, BDI with q <= 2 or p <= 4 (p >= q) up to n = 12,
    CI n <= 14: the pairs on which nilcomm claims zero unresolved orbits."""
    grid = [("AI", n, None) for n in range(2, 6)] + [("AII", n, None) for n in (2, 4, 6)]
    grid += [("BDI", n, (n - q, q)) for n in range(3, 13) for q in range(1, n // 2 + 1)
             if q <= 2 or n - q <= 4]
    return grid + [("CI", n, None) for n in range(2, 15, 2)]


def _classify_unit(nc, pt, prm):
    rep = nc.components.classify_components(pt, prm)

    def plain(c):
        return (c.diagram.text(), c.status, c.component_dim,
                c.reduction_target.text() if c.reduction_target is not None else None,
                c.witness_lengths)

    return ("components", rep.dim_p, [plain(c) for c in rep.components],
            [plain(c) for c in rep.eliminated], [plain(c) for c in rep.unresolved])


def _hasse_unit(nc, pt, prm):
    g = nc.closure.closure_hasse(pt, prm)
    return ("hasse", [v.text() for v in g.vertices],
            sorted((e.lower.text(), e.upper.text(), e.s, e.delta, e.is_reduction)
                   for e in g.edges))


class Classify:
    """classify_components on the verified grid, on CI 16 and on BDI with
    every signature up to n = 12, plus closure_hasse on CI 12; one unit per
    call."""

    HASSE = ("CI", 12, None)

    @staticmethod
    def make_inputs(seed):
        grid = _verified_grid()
        pairs = grid + [("CI", 16, None)] + [
            p for n in range(3, 13) for p in ref.pairs_of_size(n, ("BDI",)) if p not in grid]
        jobs = [("components",) + p for p in pairs] + [("hasse",) + Classify.HASSE]
        random.Random(seed).shuffle(jobs)
        return jobs

    @staticmethod
    def setup(nc, inputs):
        return [functools.partial(_classify_unit if kind == "components" else _hasse_unit,
                                  nc, *_pair(nc, t, n, sig))
                for kind, t, n, sig in inputs]

    @staticmethod
    def check(nc, inputs, results):
        problems = []
        grid = set(_verified_grid())
        drops = _DropOracle(nc)
        for (kind, t, n, sig), res in zip(inputs, results):
            label = _label(t, n, sig)
            if kind == "hasse":
                problems += _check_hasse(nc, t, n, sig, res)
                continue
            _, dim_p, comps, elim, unres = res
            if dim_p != ref.dim_p(t, n, sig):
                problems.append(f"{label}: dim p {dim_p}, expected {ref.dim_p(t, n, sig)}")
            if (t, n, sig) in grid and unres:
                problems.append(f"{label}: unresolved {[u[0] for u in unres]} on the verified grid")
            if t == "CI":
                want = ref.overpartition_count(n // 2)
                if len(comps) != want:
                    problems.append(f"{label}: {len(comps)} components, expected {want}")
            for c in comps:
                if c[2] != dim_p:
                    problems.append(f"{label}: component {c[0]!r} has dim {c[2]}, not dim p")
            for txt, status, _cdim, target, lengths in elim:
                if target is not None:
                    lo, hi = ref.from_text(txt), ref.from_text(target)
                    if lo == hi or not ref.leq(lo, hi):
                        problems.append(f"{label}: {target!r} is not above {txt!r}")
                    elif not drops.is_reduction(t, n, sig, txt, target):
                        problems.append(f"{label}: {txt!r} -> {target!r} is not defect-tight")
                elif lengths is None or lengths[1] - lengths[0] != 1:
                    problems.append(f"{label}: witness lengths {lengths} for {txt!r}")
        return Outcome(problems=problems, failed=0)


class _DropOracle:
    """Defect and centralizer drops from oracle kernel dimensions."""

    def __init__(self, nc):
        self.nc = nc
        self.memo = {}

    def dims(self, t, n, sig, txt):
        key = (t, n, sig, txt)
        if key not in self.memo:
            pt, prm = _pair(self.nc, t, n, sig)
            real = self.nc.oracle.realize(self.nc.diagrams.parse(txt), pt, prm)
            self.memo[key] = (self.nc.oracle.defect_oracle(real),
                              self.nc.oracle.dim_p_cent_oracle(real))
        return self.memo[key]

    def is_reduction(self, t, n, sig, lower, upper) -> bool:
        (d1, c1), (d2, c2) = self.dims(t, n, sig, lower), self.dims(t, n, sig, upper)
        return d1 - d2 == c1 - c2


def _check_hasse(nc, t, n, sig, res):
    _, vertices, edges = res
    label = _label(t, n, sig)
    want = sorted(ref.text(r) for r in ref.valid_diagrams(t, n, sig))
    if sorted(vertices) != want:
        return [f"closure graph {label}: vertices differ from the parity rules"]
    pt, _prm = _pair(nc, t, n, sig)
    diagrams = {v: nc.diagrams.parse(v) for v in vertices}
    less = {(x, y) for x in vertices for y in vertices
            if x != y and nc.closure.leq(diagrams[x], diagrams[y], pt)}
    if {(lo, up) for lo, up, *_ in edges} != ref.transitive_reduction(vertices, less):
        return [f"closure graph {label}: edges are not the transitive reduction of leq"]
    return []


# -- queries -----------------------------------------------------------------------

# (kind, smallest n, largest n, fresh queries per round by type).  Every
# fresh query uses a pair no other query of the round uses; kinds come in the
# order in which their pairs are drawn.  Fixed counts per kind and type, and
# diagrams drawn from evenly spaced bins of row count, keep the work of a
# round alike from seed to seed.
QUERY_MIX = (
    ("realize", 10, 15, {"AI": 2, "AII": 1, "AIII": 20, "BDI": 20, "CI": 1, "CII": 6, "DIII": 1}),
    ("reduce", 4, 11, {"AI": 1, "AII": 1, "AIII": 18, "BDI": 18, "CI": 1, "CII": 4, "DIII": 1}),
    ("covers", 4, 11, {"AIII": 14, "BDI": 14, "CI": 1, "CII": 3, "DIII": 1}),
    ("selflarge", 3, 10, {"AI": 2, "AIII": 8, "BDI": 8, "CI": 1, "CII": 2, "DIII": 1}),
    ("invariants", 3, 13, {"AI": 1, "AII": 1, "AIII": 28, "BDI": 28, "CII": 8, "DIII": 1}),
    ("witness", 4, 14, {"AI": 5, "AII": 2}),
)
REPEATS_PER_KIND = 5
MAX_MULTIPLICITY = 3
MAX_ABOVE = 30
EXCEPTIONAL_QUERIES = 6
# Diagrams that are not orbits of their pair.  A query on one passes when the
# CLI exits 2 and prints the violation diagrams.validate reports.  The CI
# inputs with k+2 a-rows and k b-rows of length 1 make the oracle's row
# matching backtrack in factorial time.
INVALID_QUERIES = (
    ("invariants", "BDI", "ab/ab"),
    ("reduce", "CI", "a/a/a/b"),
    ("selflarge", "BDI", "ab/ab"),
) + tuple(("invariants", "CI", "/".join(["a"] * (k + 2) + ["b"] * k)) for k in (5, 6, 7))
# Component counts of the exceptional cases (min, max), from the paper.
EXCEPTIONAL_COUNTS = {
    "GI": (3, 3), "FI": (10, 10), "FII": (2, 2), "EII": (17, 17), "EIII": (8, 8),
    "EIV": (1, 1), "EV": (27, 27), "EVI": (17, 17), "EVII": (11, 11),
    "EVIII": (33, 33), "EIX": (16, 16), "EI": (4, 6),
}


def _adjacent(rows) -> bool:
    lengths = {d for d, _ in rows}
    return any(d + 1 in lengths for d in lengths)


def _low_above(rng, diagrams):
    """A random diagram with at most MAX_ABOVE diagrams above it, or None.
    Covers cost up to the square of that number of order comparisons, so
    this keeps one reduce or covers query from costing as much as the rest
    of the round."""
    order = diagrams[:]
    rng.shuffle(order)
    for r in order[:20]:
        if sum(1 for g in diagrams if g != r and ref.leq(r, g)) <= MAX_ABOVE:
            return r
    return None


def _choose_diagram(rng, kind, pair, i, count):
    """The diagram of the i-th of count queries of one kind and type, or None
    if the pair has no fitting diagram.  The i-th query asks for a size near
    the i-th of count evenly spaced sizes and, in reverse order, a row count
    near the i-th of count evenly spaced row counts, so that large pairs get
    diagrams with few rows and the work of a round varies little by seed."""
    diagrams = [r for r in ref.valid_diagrams(*pair) if r]
    if kind == "witness":
        diagrams = [r for r in diagrams if _adjacent(r)]
    if kind == "selflarge":
        # the CLI reads a one-row partition as n; near the zero orbit one
        # query costs up to 30 times the median
        diagrams = [r for r in diagrams if (len(r) > 1 or r[0][1] is not None)
                    and max(sum(d == e for e, _ in r) for d, _ in r) <= MAX_MULTIPLICITY]
    if kind in ("reduce", "covers"):
        return _low_above(rng, diagrams)
    if not diagrams:
        return None
    diagrams.sort(key=len)
    j = count - 1 - i
    first = j * len(diagrams) // count
    return rng.choice(diagrams[first:max(first + 1, (j + 1) * len(diagrams) // count)])


def _make_queries(seed):
    rng = random.Random(seed)
    used, fresh, repeats = set(), [], []
    for kind, lo, hi, by_type in QUERY_MIX:
        mine = []
        for t, count in by_type.items():
            pool = [p for n in range(lo, hi + 1) for p in ref.pairs_of_size(n, (t,))]
            rng.shuffle(pool)
            for i in range(count):
                target = lo + (2 * i + 1) * (hi - lo + 1) // (2 * count)
                for pair in sorted(pool, key=lambda p: abs(p[1] - target)):
                    chosen = None if pair in used else _choose_diagram(rng, kind, pair, i, count)
                    if chosen is not None:
                        used.add(pair)
                        mine.append((kind,) + pair + (ref.text(chosen),))
                        break
                else:
                    raise ValueError(f"too few distinct {t} pairs for {kind} queries")
        fresh += mine
        # repeats spread evenly over the kind's queries ordered by size
        mine.sort(key=lambda q: q[2])
        step = len(mine) / REPEATS_PER_KIND
        repeats += [mine[int(k * step + rng.random() * step)] for k in range(REPEATS_PER_KIND)]
    cases = rng.sample(sorted(EXCEPTIONAL_COUNTS), EXCEPTIONAL_QUERIES)
    fresh += [("exceptional", case, 0, None, "") for case in cases]
    rng.shuffle(fresh)
    queries = fresh[:]
    for q in repeats:  # each after its first occurrence
        queries.insert(rng.randrange(queries.index(q) + 1, len(queries) + 1), q)
    for kind, t, txt in INVALID_QUERIES:
        n = len(txt.replace("/", ""))
        queries.insert(rng.randrange(len(queries) + 1), ("invalid-" + kind, t, n, None, txt))
    return queries


def _cli(nc, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = nc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _query_unit(nc, kind, t, n, sig, txt):
    if kind == "exceptional":
        return _cli(nc, ["--format", "json", "exceptional", t])
    if kind.startswith("invalid-"):
        return _cli(nc, ["--format", "json", kind[len("invalid-"):], t, txt])
    if kind in ("invariants", "reduce"):
        return _cli(nc, ["--format", "json", kind, t, txt])
    pt, prm = _pair(nc, t, n, sig)
    d = nc.diagrams.parse(txt)
    if kind == "selflarge":
        return (_cli(nc, ["--format", "json", "selflarge", t, txt]),
                nc.selflarge.verify_self_large_criterion(d, pt, prm))
    if kind == "covers":
        return sorted(g.text() for g in nc.closure.minimal_degenerations(d, pt, prm))
    real = nc.oracle.realize(d, pt, prm)
    if kind == "witness":
        return nc.oracle.commuting_witness(real), real.e, real.form
    basis = nc.oracle.p_e0_basis(real)  # realize
    return real.e, real.h, real.form, real.d_matrix, tuple(basis)


class Queries:
    """A seeded stream of single queries, CLI-style through cli.main with
    JSON output where the CLI has the command, library calls otherwise."""

    make_inputs = staticmethod(_make_queries)

    @staticmethod
    def setup(nc, inputs):
        nc.cli.build_parser()
        return [functools.partial(_query_unit, nc, *q) for q in inputs]

    @staticmethod
    def check(nc, inputs, results):
        problems, failed = [], 0
        first = {}
        drops = _DropOracle(nc)
        for q, res in zip(inputs, results):
            kind, t, n, sig, txt = q
            if q in first:
                if res != first[q]:
                    problems.append(f"repeated {kind} {t} {txt!r} gave another answer")
                continue
            first[q] = res
            if kind.startswith("invalid-"):
                failed += not _invalid_rejected(nc, t, txt, res)
                continue
            try:
                why = _QUERY_CHECKS[kind](nc, drops, t, n, sig, txt, res)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable answer ({exc!r})"
            if why:
                problems.append(f"{kind} {_label(t, n, sig)} {txt!r}: {why}")
        return Outcome(problems=problems, failed=failed)


def _invalid_rejected(nc, t, txt, res) -> bool:
    rc, out, err = res
    d = nc.diagrams.parse(txt)
    pt = nc.diagrams.PairType[t]
    if pt.has_signature:
        prm = nc.diagrams.PairParams(d.n, d.letter_counts())
    else:
        prm = nc.diagrams.PairParams(d.n)
    violations = nc.diagrams.validate(d, pt, prm)
    return rc == 2 and any(v.message in out + err for v in violations)


def _check_exceptional(nc, drops, case, n, sig, txt, res):
    rc, out, _err = res
    rep = json.loads(out)
    got = (rep["count_min"], rep["count_max"])
    if rc != 0 or got != EXCEPTIONAL_COUNTS[case] or len(rep["components"]) != got[0]:
        return f"exit {rc}, counts {got}, expected {EXCEPTIONAL_COUNTS[case]}"
    return None


def _check_invariants(nc, drops, t, n, sig, txt, res):
    rc, out, _err = res
    inv = json.loads(out)
    defect, cent = drops.dims(t, n, sig, txt)
    pt, prm = _pair(nc, t, n, sig)
    real = nc.oracle.realize(nc.diagrams.parse(txt), pt, prm)
    dim_p = ref.dim_p(t, n, sig)
    want = {"dim_p_cent": cent, "defect": defect, "dim_orbit": dim_p - cent,
            "component_dim": dim_p - defect, "dim_p0": nc.oracle.dim_graded(real, 0, -1)}
    bad = {k: (inv.get(k), v) for k, v in want.items() if inv.get(k) != v}
    if rc != 0 or bad:
        return f"exit {rc}, (answer, oracle) {bad}"
    return None


def _check_reduce(nc, drops, t, n, sig, txt, res):
    rc, out, _err = res
    target = json.loads(out)["reduction"]
    rows = ref.from_text(txt)
    diagrams = ref.valid_diagrams(t, n, sig)
    covers = ref.covers_above(rows, diagrams)
    tight = {c for c in covers if drops.is_reduction(t, n, sig, txt, c)}
    if rc != 0 or (target is None and tight) or (target is not None and target not in tight):
        return f"exit {rc}, reduction {target!r}, defect-tight covers {sorted(tight)}"
    return None


def _check_covers(nc, drops, t, n, sig, txt, res):
    want = ref.covers_above(ref.from_text(txt), ref.valid_diagrams(t, n, sig))
    return None if set(res) == want and len(res) == len(want) else f"covers {res}, expected {sorted(want)}"


def _check_selflarge(nc, drops, t, n, sig, txt, res):
    (rc, out, _err), criterion = res
    verdict = json.loads(out)
    if rc != 0 or [v["orbit"] for v in verdict] != [txt] or verdict[0]["self_large"] != criterion:
        return f"exit {rc}, verdict {verdict}, oracle criterion {criterion}"
    return None


def _check_witness(nc, drops, t, n, sig, txt, res):
    w, e, form = res
    partition = tuple(d for d, _ in ref.from_text(txt))
    if not ref.is_zero(ref.mat_sub(ref.mat_mul(e, w), ref.mat_mul(w, e))):
        return "witness does not commute with e"
    # theta(x) = -T^-1 x^T T, so theta(w) = -w exactly when w^T T = T w
    if ref.mat_mul(ref.transpose(w), form) != ref.mat_mul(form, w):
        return "theta(w) != -w"
    jt = ref.jordan_type(w)
    if jt is None or not ref.dominates_strictly(jt, partition):
        return f"Jordan type {jt} does not strictly dominate {partition}"
    return None


def _check_realize(nc, drops, t, n, sig, txt, res):
    e, h, form, dmat, basis = res
    partition = tuple(d for d, _ in ref.from_text(txt))
    if ref.jordan_type(e) != partition:
        return f"Jordan type of e is {ref.jordan_type(e)}"
    if ref.mat_sub(ref.mat_mul(h, e), ref.mat_mul(e, h)) != ref.scale(2, e):
        return "[h, e] != 2e"

    def anti_invariant(x):  # theta(x) == -x
        if dmat is not None:
            return ref.mat_mul(ref.mat_mul(dmat, x), dmat) == ref.scale(-1, x)
        return ref.mat_mul(ref.transpose(x), form) == ref.mat_mul(form, x)

    def in_g(x):  # trace zero (A types) or skew for the form
        if t in ("AI", "AII", "AIII"):
            return sum(x[i][i] for i in range(len(x))) == 0
        return ref.is_zero(ref.mat_sub(ref.mat_mul(ref.transpose(x), form),
                                       ref.scale(-1, ref.mat_mul(form, x))))

    if not anti_invariant(e) or not in_g(e):
        return "e is not in p"
    for x in basis:
        if not (ref.is_zero(ref.mat_sub(ref.mat_mul(e, x), ref.mat_mul(x, e)))
                and ref.is_zero(ref.mat_sub(ref.mat_mul(h, x), ref.mat_mul(x, h)))
                and anti_invariant(x) and in_g(x)):
            return "a p(e,0) basis vector is not in p(e,0)"
    want = nc.invariants.dim_p0(nc.diagrams.parse(txt), nc.diagrams.PairType[t])
    if len(basis) != want or ref.rank([sum(x, ()) for x in basis]) != len(basis):
        return f"p(e,0) basis of {len(basis)} vectors, dim p(e,0) is {want}"
    return None


_QUERY_CHECKS = {
    "exceptional": _check_exceptional,
    "invariants": _check_invariants,
    "reduce": _check_reduce,
    "covers": _check_covers,
    "selflarge": _check_selflarge,
    "witness": _check_witness,
    "realize": _check_realize,
}

WORKLOADS = {"certify": Certify, "classify": Classify, "queries": Queries}
