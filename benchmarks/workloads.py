"""The benchmark's workloads: fixed request menus and seeded request order.

Every request is a real ``simpson-nd`` argv in the default text format.
A menu entry may name a region file with a ``{region:NAME}`` placeholder;
the runner writes the region files into a scratch directory and
substitutes their paths, so the program only ever sees generated argv and
files.

A workload is a set of streams.  Each stream has a rate and a list of
requests.  ``sequence`` merges the streams by giving the j-th request of a
stream the key ``(j + phase) / rate`` with a seeded phase, so that every
prefix of the sequence holds each stream in proportion to its rate, give
or take one request.  That keeps the request mix of a time-bounded window
the same from seed to seed, which keeps the end-to-end figures steady.

* A repeating stream is one menu entry that recurs at its rate (sampling
  with replacement, balanced).
* A non-repeating stream walks its entries once, in a seeded
  low-discrepancy order over the entries' natural order (radicand, vertex
  count), so any prefix also spreads evenly over that property.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    dim: int | None = None
    radicand: int | None = None
    vertices: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Stream:
    rate: float
    requests: tuple[Request, ...]
    repeat: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple[Stream, ...]
    # requests of the seeded sequence that the traced run replays
    trace_requests: int
    regions: dict = field(default_factory=dict, compare=False)

    def menu(self) -> list[Request]:
        seen: dict[str, Request] = {}
        for stream in self.streams:
            for req in stream.requests:
                seen.setdefault(req.key, req)
        return list(seen.values())

    def one_per_kind(self) -> list[Request]:
        first: dict[str, Request] = {}
        for req in self.menu():
            first.setdefault(req.kind, req)
        return list(first.values())


def sequence(workload: Workload, seed: int) -> Iterator[Request]:
    """The seeded request order; finite only when no stream repeats."""
    rng = random.Random(f"{workload.name}:{seed}")
    heap = []
    orders = []
    for s, stream in enumerate(workload.streams):
        offset = rng.random()
        n = len(stream.requests)
        # Kronecker sequence over the stream's natural order
        order = sorted(range(n), key=lambda i: (offset + i * _GOLDEN) % 1.0)
        orders.append(order)
        phase = rng.random()
        heap.append((phase / stream.rate, s, 0, phase))
    heapq.heapify(heap)
    while heap:
        _, s, j, phase = heapq.heappop(heap)
        stream = workload.streams[s]
        order = orders[s]
        yield stream.requests[order[j % len(order)]]
        if stream.repeat or j + 1 < len(order):
            heapq.heappush(heap, ((j + 1 + phase) / stream.rate, s, j + 1, phase))


def input_profile(requests: list[Request]) -> dict:
    """Repeat share, request-kind mix and input-size spread of a run."""
    n = len(requests)
    profile: dict = {
        "requests": n,
        "distinct": len({r.key for r in requests}),
        "repeat_share": 1 - len({r.key for r in requests}) / n if n else 0.0,
        "kind_mix": {
            k: round(c / n, 4) for k, c in sorted(Counter(r.kind for r in requests).items())
        },
    }
    for attr in ("dim", "radicand", "vertices"):
        values = sorted(getattr(r, attr) for r in requests if getattr(r, attr) is not None)
        if values:
            profile[f"{attr}_spread"] = {
                "min": values[0],
                "median": statistics.median_low(values),
                "max": values[-1],
                "distinct": len(set(values)),
            }
    return profile


# ---------------------------------------------------------------- certify


def _certify() -> Workload:
    entries: list[tuple[float, Request]] = []
    for rule in ("CR1", "CR2"):
        for n in range(2, 9):
            argv = ("verify", "--rule", rule, "--dim", str(n))
            entries.append((1.0, Request(f"verify-{rule}", argv, dim=n)))
    for n in range(2, 7):
        argv = ("verify", "--rule", "CR3", "--dim", str(n), "--max-degree", "5")
        entries.append((1.0, Request("verify-CR3", argv, dim=n)))
    for n in range(2, 6):
        entries.append((1.0, Request("catalog", ("catalog", "--dim", str(n)), dim=n)))
    # the claim suite: rare by request count, about half the time by cost
    entries.append((0.75, Request("verify-all", ("verify", "--all"))))
    return Workload(
        name="certify",
        why="repeated rational residual scans (verify, catalog, verify --all): "
        "MonomialPoly.evaluate, Fraction scalar ops and exactness.residual",
        streams=tuple(Stream(rate, (req,), repeat=True) for rate, req in entries),
        trace_requests=95,
    )


# ----------------------------------------------------------- exact-fields


def _squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def radicand_menu(count: int = 160, top: int = 10**6) -> list[int]:
    """Squarefree radicands spread log-uniformly over [2, ~top], plus 3 and
    3893 (the CR5 field)."""
    found = {3, 3893}
    for i in range(count):
        d = max(2, round(2 * (top / 2) ** (i / (count - 1))))
        while d in found or not _squarefree(d):
            d += 1
        found.add(d)
    return sorted(found)


def _rat(x: Fraction) -> dict:
    return {"rat": [str(x.numerator), str(x.denominator)]}


def hexagon_region(d: int) -> dict:
    """H_d: vertices (+-(1 + sqrt d), 0) and (+-1, +-1), as region JSON."""
    one = ["1", "1"]
    minus = ["-1", "1"]
    r = {"quad": {"a": one, "b": one, "rad": d}}
    neg_r = {"quad": {"a": minus, "b": minus, "rad": d}}
    p, m = _rat(Fraction(1)), _rat(Fraction(-1))
    zero = _rat(Fraction(0))
    return {"polygon": [[r, zero], [p, p], [m, p], [neg_r, zero], [m, m], [p, m]]}


def rational_polygon(m: int, k: int) -> list[tuple[Fraction, Fraction]]:
    """The k-th fixed simple polygon with m rational vertices.

    Vertices sit in angular order around the origin, one in each of m
    equal sectors (between a quarter and three quarters of the way across
    it), at radius 3/2..3, rounded to a grid of step 1/q with q in 6..10.
    Rounding moves a vertex's angle by under 5 degrees while neighbours
    are at least 15 degrees apart, so the polygon is star-shaped about the
    origin and simple.
    """
    rng = random.Random(f"polygon:{m}:{k}")
    q = rng.randint(6, 10)
    pts = []
    for i in range(m):
        theta = 2 * math.pi * (i + rng.uniform(0.25, 0.75)) / m
        radius = rng.uniform(1.5, 3.0)
        pts.append((
            Fraction(round(radius * math.cos(theta) * q), q),
            Fraction(round(radius * math.sin(theta) * q), q),
        ))
    return pts


_PARAMS = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})


def _exact_fields() -> Workload:
    regions: dict[str, dict] = {}
    hex_moments, hex_lambda, hex_weights = [], [], []
    for d in radicand_menu():
        name = f"hex-{d}"
        regions[name] = hexagon_region(d)
        ref = f"{{region:{name}}}"
        hex_moments.append(Request(
            "moments-hexagon", ("moments", "--region-file", ref, "--degree", "6"), radicand=d))
        hex_lambda.append(Request(
            "derive-lambda-hexagon", ("derive", "--region-file", ref, "--mode", "lambda"),
            radicand=d))
        for targets in ("deg2", "deg3"):
            hex_weights.append(Request(
                "derive-weights-hexagon",
                ("derive", "--region-file", ref, "--mode", "weights", "--targets", targets),
                radicand=d,
            ))
    poly_moments, poly_lambda, poly_weights = [], [], []
    for m in range(3, 13):
        for k in range(16):
            name = f"poly-{m}-{k}"
            regions[name] = {"polygon": [[_rat(x), _rat(y)] for x, y in rational_polygon(m, k)]}
            ref = f"{{region:{name}}}"
            poly_moments.append(Request(
                "moments-polygon", ("moments", "--region-file", ref, "--degree", "6"),
                vertices=m))
            poly_lambda.append(Request(
                "derive-lambda-polygon", ("derive", "--region-file", ref, "--mode", "lambda"),
                vertices=m))
            poly_weights.append(Request(
                "derive-weights-polygon",
                ("derive", "--region-file", ref, "--mode", "weights", "--targets", "deg3"),
                vertices=m,
            ))
    verify_fields = [
        Request("verify-field", ("verify", "--rule", rule, "--max-degree", str(deg)))
        for rule in ("CR5", "CR5*", "CR6")
        for deg in range(2, 7)
    ]
    family_param = [
        Request("family-param", ("family", system, "--param", str(p)))
        for system in ("triangle", "square")
        for p in _PARAMS
    ]
    family_fixed = [
        Request("family-fixed", ("family", "trapezoid", "--branch", "primary")),
        Request("family-fixed", ("family", "trapezoid", "--branch", "conjugate")),
        Request("family-fixed", ("family", "simplex3", "--vertex-search")),
    ]
    groups = (hex_moments, hex_lambda, hex_weights, poly_moments, poly_lambda,
              poly_weights, verify_fields, family_param, family_fixed)
    return Workload(
        name="exact-fields",
        why="distinct requests over Q(sqrt d) hexagons and rational polygons: "
        "Polygon.moment, Quad arithmetic, exact solves and families; no repeats",
        # rate = size, so every stream runs out at the same point
        streams=tuple(Stream(float(len(g)), tuple(g), repeat=False) for g in groups),
        trace_requests=120,
        regions=regions,
    )


# --------------------------------------------------------------- compound


_COMPOUND_MENU = (
    # (rule argv, kind, [(expr, levels, rate)]).  Costs run evenly from a few
    # ms to about 0.2 s, so the median and the tail fall among close values.
    (("--rule", "CR3", "--dim", "1"), "interval", [
        ("x^12", "1:6", 1), ("x^7", "2:7", 1), ("x^9-x^4", "2:7", 1),
        ("cos(9*x)+x^3", "2:7", 1),
        ("sin(20*x)", "1:6", 1), ("sin(20*x)", "2:8", 1),
        ("exp(5*x)", "1:6", 1), ("exp(5*x)", "2:7", 1), ("exp(5*x)*sin(7*x)", "2:7", 1),
    ]),
    (("--rule", "CR4"), "square", [
        ("x^6*y^3", "1:4", 1), ("x^6*y^3", "2:5", 1), ("x^6*y^3", "3:5", 1),
        ("x^4+y^5", "2:5", 1), ("x^4+y^5", "3:5", 1), ("x^5*y^2-y^6", "3:5", 1),
        ("exp(x*y)", "1:3", 1), ("exp(x+y)", "1:3", 1), ("exp(x+y)", "1:4", 1),
        ("sin(3*x*y)", "1:3", 1), ("sin(3*x*y)", "1:4", 1), ("cos(4*x)*exp(y)", "1:3", 1),
        # the heaviest request, twice per round: the tail sits inside its samples
        ("exp(x)*sin(3*y)+cos(x*y)", "1:4", 2),
    ]),
    (("--rule", "TriangleMidedge"), "triangle", [
        ("x^3", "2:5", 1), ("x^3", "3:6", 1), ("x^5", "2:5", 1),
        ("x^2*y^2", "1:4", 1), ("x^2*y^2", "2:5", 1), ("x^2*y^2", "3:6", 1),
        ("x^4*y", "2:5", 1), ("x^4*y", "3:6", 1),
        ("exp(x+y)", "1:3", 1), ("sin(3*x+y)", "1:3", 1),
    ]),
)


def _is_polynomial(expr: str) -> bool:
    return not any(fn in expr for fn in ("exp", "sin", "cos"))


def _compound() -> Workload:
    streams = []
    for rule_args, shape, items in _COMPOUND_MENU:
        for expr, levels, rate in items:
            kind = f"{shape}-{'polynomial' if _is_polynomial(expr) else 'transcendental'}"
            argv = ("compound", *rule_args, "--expr", expr, "--levels", levels)
            streams.append(Stream(float(rate), (Request(kind, argv),), repeat=True))
    return Workload(
        name="compound",
        why="repeated float convergence studies on interval, square and triangle: "
        "compound_apply, expr.eval_float and exact triangle cells",
        streams=tuple(streams),
        trace_requests=99,
    )


WORKLOADS = {w.name: w for w in (_certify(), _exact_fields(), _compound())}
