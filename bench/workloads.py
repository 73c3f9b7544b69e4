"""The benchmark's workloads: seeded input generators, the timed operations,
their exact checks, and the public-layer replays of the traced run.

Every input is derived from (workload, seed, op index) alone, so the same
seed gives the same inputs however many operations a run gets through.
Inputs are cycled through fixed strata (dimension, size, op kind) so that
the mix of op costs, and with it every percentile, is the same from seed to
seed.  The seed moves coefficients, and weights, shifts or suite seeds where
the cost does not hinge on them; it never moves the structure of the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from projquant import (casimir, cli, densities, isotypic, parsing, poly,
                       quantization, resonance, sampling, slbasis, verify)

DEFAULT_SEED = 0


@dataclass(frozen=True)
class OpInput:
    """One generated operation; args are plain strings and ints."""

    index: int
    kind: str        # quantize, symbol_map, resonances, critical, or a suite
    group: str       # "a" or "b": the two op kinds each workload alternates
    n: int
    args: tuple


def digest(code: int, output: str) -> str:
    """Digest of an op's exit code and exact output bytes."""
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()[:16]


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}:{index}")


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 4))


def _context_args(ctx) -> tuple:
    return (str(ctx.weights[0]), str(ctx.weights[1]), str(ctx.mu))


def _context(inp: OpInput):
    l1, l2, mu = inp.args[:3]
    return densities.Context(inp.n, (Fraction(l1), Fraction(l2)), Fraction(mu))


# ----------------------------------------------------------------------
# generators


def dense_body(rng: random.Random, n: int, max_fiber: int, max_x: int):
    """Every a/b monomial of fiber degree <= max_fiber times every x-monomial
    of degree <= max_x, each with a nonzero coefficient."""
    terms = {}
    for d in range(max_fiber + 1):
        for fiber in poly.multi_indices(2 * n, d):
            for e in range(max_x + 1):
                for xm in poly.multi_indices(n, e):
                    terms[(xm, fiber[:n], fiber[n:])] = _nonzero_fraction(rng)
    return poly.Poly(n, terms)


def sparse_body(shape: random.Random, rng: random.Random, n: int, order: int,
                max_x: int):
    """Monomials from sampling.random_body plus one of exactly the given
    order, all drawn from `shape`; nonzero coefficients drawn from `rng`."""
    monomials = list(sampling.random_body(shape, n, order, max_x, 2, terms=7).terms)
    xa, aa, ba = [0] * n, [0] * n, [0] * n
    for _ in range(shape.randint(0, max_x)):
        xa[shape.randrange(n)] += 1
    for _ in range(order):
        (aa if shape.random() < 0.5 else ba)[shape.randrange(n)] += 1
    monomials.append((tuple(xa), tuple(aa), tuple(ba)))
    return poly.Poly(n, {key: _nonzero_fraction(rng) for key in monomials})


def _rational_in(rng: random.Random, lo: Fraction, width: Fraction) -> Fraction:
    """Seeded rational in [lo, lo + width) with a small denominator."""
    den = rng.randint(2, 12)
    first = -((-lo * den) // 1)
    last = -((-(lo + width) * den) // 1)
    return Fraction(rng.randrange(first, max(first + 1, last)), den)


def _critical_near(n: int, lo: Fraction, width: Fraction) -> list[Fraction]:
    """Critical shifts in [lo, lo + width) witnessed by tuples with j <= 1,
    found from the closed form without an interval scan."""
    found = set()
    for i in range(1, resonance.critical_bound_index(n, lo + width)):
        for p in range(i // 2 + 1):
            for j in range(min(i, 2)):
                if resonance.is_critical(i, p, j, 0):
                    d = resonance.resonant_delta(n, i, p, j, 0)
                    if lo <= d < lo + width:
                        found.add(d)
    return sorted(found)


class Workload:
    """Base: op stream, timed op, identity check, traced replay."""

    name = ""
    pool_size = 0
    strata: tuple = ()
    per_stratum = 1

    @property
    def cycle(self) -> int:
        """Ops in one pass over the strata."""
        return len(self.strata) * self.per_stratum

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def generate(self, index: int, stream: str = "ops") -> OpInput:
        raise NotImplementedError

    def run(self, inp: OpInput, tracer) -> tuple[int, str]:
        raise NotImplementedError

    def check(self, inp: OpInput, code: int, output: str) -> str | None:
        """None when the outcome passes its exact identity checks, else why
        not."""
        raise NotImplementedError

    def sample(self, records) -> list:
        """Records whose ops also get the costlier equivariance check."""
        return []

    def check_equivariance(self, inp: OpInput) -> str | None:
        raise NotImplementedError

    def replay(self, inp: OpInput, code: int, output: str, tracer) -> None:
        pass


# ----------------------------------------------------------------------
# quantize workloads: text in, text out


class _TextQuantize(Workload):
    """Ops with args (lambda1, lambda2, mu, canonical text, critical shift)."""

    per_stratum = 2      # quantize, then symbol_map

    def run(self, inp, tracer):
        ctx = _context(inp)
        tracer.count("parsing.chars_in", len(inp.args[3]))
        with tracer.span("parsing.parse"):
            body = parsing.parse_poly(inp.args[3], inp.n)
        try:
            if inp.kind == "quantize":
                with tracer.span("quantization.quantize"):
                    result = quantization.quantize(densities.SymbolPoly(body, ctx))
                out = result.operator.body
            else:
                with tracer.span("quantization.symbol_map"):
                    result = quantization.symbol_map(densities.BidiffOp(body, ctx))
                out = result.symbol.body
        except quantization.ObstructionError as err:
            with tracer.span("parsing.format"):
                text = parsing.format_poly(err.obstruction.body)
            labels = " ".join(map(str, (*err.source, *err.blocked)))
            return 2, f"obstruction {labels}\n{text}\n"
        with tracer.span("parsing.format"):
            text = parsing.format_poly(out)
        slots = sorted(list(label) for label in result.free_slots)
        return 0, f"{text}\nfree_slots {slots}\n"

    def check(self, inp, code, output):
        ctx = _context(inp)
        critical = inp.args[4]
        if code == 2:
            if not critical:
                return "obstruction at a generic shift"
            head, component, _ = output.split("\n")
            i, p, j, q = map(int, head.split()[1:])
            gap = (casimir.casimir_eigenvalue(inp.n, ctx.delta, i, p)
                   - casimir.casimir_eigenvalue(inp.n, ctx.delta, j, q))
            if gap != 0 or parsing.parse_poly(component, inp.n).is_zero():
                return "obstruction without a vanishing gap and a nonzero component"
            return None
        if code != 0:
            return f"exit code {code}"
        text, slots, _ = output.split("\n")
        if slots != "free_slots []" and not critical:
            return "free slot at a generic shift"
        body = parsing.parse_poly(inp.args[3], inp.n)
        result = parsing.parse_poly(text, inp.n)
        if inp.kind == "quantize":
            back = quantization.symbol_map(densities.BidiffOp(result, ctx)).symbol.body
        else:
            back = quantization.quantize(densities.SymbolPoly(result, ctx)).operator.body
        return None if back == body else "round trip differs"

    def sample(self, records):
        """The two smallest generic-shift quantize ops of the run."""
        return sorted((r for r in records if r.inp.kind == "quantize"
                       and r.code == 0 and not r.inp.args[4]),
                      key=lambda r: (len(r.inp.args[3]), r.inp.index))[:2]

    def check_equivariance(self, inp):
        """quantize(L_X P) == L_X quantize(P) for every basis field X."""
        ctx = _context(inp)
        sym = densities.SymbolPoly(parsing.parse_poly(inp.args[3], ctx.n), ctx)
        op = quantization.quantize(sym).operator
        for label, field in slbasis.basis_fields(ctx.n):
            lhs = quantization.quantize(
                densities.lie_derivative_symbol(field, sym)).operator.body
            if lhs != densities.lie_derivative_operator(field, op).body:
                return f"quantize is not equivariant under {label}"
        return None

    def replay(self, inp, code, output, tracer):
        ctx = _context(inp)
        body = parsing.parse_poly(inp.args[3], inp.n)
        out = parsing.parse_poly(output.split("\n")[0], inp.n) if code == 0 else None
        # The components quantize solves: the input symbol, or for symbol_map
        # the peeled principal parts, which sum to the output symbol.
        source = body if inp.kind == "quantize" or out is None else out
        replay_symbolic(source, body, ctx, tracer)
        tracer.count("quantization.terms_in", len(body.terms))
        if out is not None:
            tracer.count("quantization.terms_out", len(out.terms))
            slots = output.split("\n")[1].split(" ", 1)[1]
            tracer.count("quantization.free_slots", len(json.loads(slots)))
        else:
            tracer.count("quantization.obstructions")


def replay_symbolic(source, operator_body, ctx, tracer) -> None:
    """Public isotypic / casimir calls on the blocks the solve works on, and
    the Poly kernel battery."""
    sym = densities.SymbolPoly(source, ctx)
    with tracer.span("isotypic.decompose"):
        blocks = isotypic.decompose(sym)
    tracer.count("isotypic.blocks", len(blocks))
    tracer.count("isotypic.labels", sum(
        len(isotypic.labels_for_degree(ctx, d)) for d in source.fiber_parts()))
    tracer.count("quantization.components", len(blocks))
    tracer.count("quantization.levels", sum(label.i for label in blocks))
    for block in blocks.values():
        with tracer.span("casimir.symbol"):
            casimir.casimir_symbol(block)
    with tracer.span("casimir.correction"):
        casimir.casimir_correction(densities.BidiffOp(operator_body, ctx))
    poly_battery(operator_body, tracer)


def poly_battery(body, tracer) -> None:
    """The Poly kernels the engine is built from, on one body."""
    n = body.n
    with tracer.span("poly.construct"):
        copy = poly.Poly(n, body.terms)
    with tracer.span("poly.add"):
        total = copy + body.swap_fibers()
    linear = poly.Poly(n, {})
    for fam in (poly.ALPHA, poly.BETA):
        for i in range(1, n + 1):
            linear = linear + poly.Poly.variable(n, fam, i)
    with tracer.span("poly.mul"):
        product = body * linear
    tracer.count("poly.term_pairs", len(body.terms) * len(linear.terms))
    outs = [copy, total, product]
    with tracer.span("poly.diff"):
        for fam in poly.FAMILIES:
            for i in range(1, n + 1):
                outs.append(body.diff(fam, i))
    with tracer.span("poly.taylor_diff"):
        for m in poly.multi_indices(n, 2):
            outs.append(body.taylor_diff(poly.ALPHA, m))
    with tracer.span("poly.eta_contract"):
        outs.append(body.eta_contract(poly.ALPHA))
        outs.append(body.eta_contract(poly.BETA))
    tracer.count("poly.terms_out", sum(len(p.terms) for p in outs))


class QuantizeDense(_TextQuantize):
    """Dense arity-2 bodies: all fiber monomials up to the order times all
    x-monomials up to the x-degree, at generic shifts."""

    name = "quantize-dense"
    # (n, fiber degree, x-degree); each shape runs once in each direction.
    strata = ((2, 3, 2), (3, 3, 1), (2, 4, 1), (3, 3, 2), (2, 5, 1))
    pool_size = 240

    def generate(self, index, stream="ops"):
        n, order, max_x = self.strata[(index // 2) % len(self.strata)]
        rng = _rng(self.name, self.seed, stream, index)
        with self.tracer.span("sampling.generate"):
            ctx = sampling.generic_context(rng, n, order)
        body = dense_body(rng, n, order, max_x)
        kind, group = (("quantize", "a"), ("symbol_map", "b"))[index % 2]
        return OpInput(index, kind, group, n,
                       _context_args(ctx) + (parsing.format_poly(body), False))


class QuantizeSparse(_TextQuantize):
    """Sparse arity-2 symbols and operators of about eight terms; one op in
    ten sits at a critical shift."""

    name = "quantize-sparse"
    strata = ((2, 4), (3, 4), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7))
    pool_size = 400
    max_x = 3

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self._critical = {}

    def _critical_values(self, n):
        if n not in self._critical:
            self._critical[n] = [d for d, _ in
                                 resonance.critical_values_in_interval(n, 1, 3)]
        return self._critical[n]

    def generate(self, index, stream="ops"):
        n, order = self.strata[(index // 2) % len(self.strata)]
        # Monomials and contexts depend on the op index only, so every seed
        # runs the same structures; the seed moves the coefficients.
        shape = _rng(self.name, DEFAULT_SEED, stream, index)
        rng = _rng(self.name, self.seed, stream, index)
        critical = index % 10 == 9
        with self.tracer.span("sampling.generate"):
            if critical:
                delta = shape.choice(self._critical_values(n))
                weights = (sampling.random_fraction(shape, 3, 5),
                           sampling.random_fraction(shape, 3, 5))
                ctx = densities.Context.from_delta(n, weights, delta)
            else:
                ctx = sampling.generic_context(shape, n, order)
            body = sparse_body(shape, rng, n, order, self.max_x)
        kind, group = (("quantize", "a"), ("symbol_map", "b"))[index % 2]
        return OpInput(index, kind, group, n,
                       _context_args(ctx) + (parsing.format_poly(body), critical))


# ----------------------------------------------------------------------
# resonance-scan: CLI in process


def tuples_scanned(max_i: int) -> int:
    """Number of (i, p; j, q) label tuples with 1 <= i <= max_i, j < i, for
    n >= 2 (p ranges over 0..i // 2)."""
    width = [k // 2 + 1 for k in range(max_i + 1)]
    below = 0
    total = 0
    for i in range(1, max_i + 1):
        below += width[i - 1]
        total += width[i] * below
    return total


class ResonanceScan(Workload):
    """`projquant resonances` at seeded shifts and `projquant critical` over
    seeded intervals, through cli.main with stdout captured."""

    name = "resonance-scan"
    # (command, n, height, interval width); shifts fall in
    # [height, height + 1/4), which fixes the scan length of each stratum.
    # Costs at the first baseline run about 3, 12, 24 ms; four strata near
    # 70 ms around the median; three near 180 ms around the 90th percentile.
    strata = (("resonances", 2, 4, 0), ("critical", 2, 6, 5),
              ("resonances", 3, 6, 0), ("resonances", 2, 10, 0),
              ("critical", 2, Fraction(19, 2), 6), ("resonances", 3, 8, 0),
              ("critical", 3, Fraction(29, 4), 6), ("resonances", 3, 10, 0),
              ("critical", 2, 12, 11), ("resonances", 2, 13, 0))
    pool_size = 400
    band = Fraction(1, 4)

    def generate(self, index, stream="ops"):
        command, n, height, width = self.strata[index % len(self.strata)]
        rng = _rng(self.name, self.seed, stream, index)
        lo = Fraction(height)
        if command == "resonances":
            near = _critical_near(n, lo, self.band) if rng.random() < 1 / 3 else []
            delta = rng.choice(near) if near else _rational_in(rng, lo, self.band)
            return OpInput(index, command, "a", n, (str(delta),))
        hi = _rational_in(rng, lo, self.band)
        low = max(Fraction(0), hi - _rational_in(rng, Fraction(width), Fraction(1)))
        return OpInput(index, command, "b", n, (str(low), str(hi)))

    def _argv(self, inp):
        if inp.kind == "resonances":
            return ["resonances", "--n", str(inp.n), "--delta", inp.args[0], "--json"]
        return ["critical", "--n", str(inp.n), "--range", *inp.args, "--json"]

    def run(self, inp, tracer):
        buf = io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self._argv(inp))
        text = buf.getvalue()
        tracer.count("cli.stdout_bytes", len(text.encode()))
        return code, text

    def check(self, inp, code, output):
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(output)
        eig = casimir.casimir_eigenvalue
        if inp.kind == "resonances":
            delta = Fraction(inp.args[0])
            if Fraction(payload["delta"]) != delta:
                return "wrong shift echoed"
            flags = []
            for i, p, j, q, critical in payload["tuples"]:
                if eig(inp.n, delta, i, p) != eig(inp.n, delta, j, q):
                    return f"({i},{p};{j},{q}) is not resonant at {delta}"
                if resonance.is_critical(i, p, j, q) != critical:
                    return f"({i},{p};{j},{q}) criticality flag is wrong"
                flags.append(critical)
            kind = "critical" if any(flags) else "resonant" if flags else "generic"
            return None if payload["checks"]["kind"] == kind else "wrong kind"
        lo, hi = (Fraction(a) for a in inp.args)
        last = None
        for entry in payload:
            delta = Fraction(entry["delta"])
            if not lo <= delta <= hi or (last is not None and delta <= last):
                return f"shift {delta} out of range or out of order"
            last = delta
            for i, p, j, q in entry["tuples"]:
                if (eig(inp.n, delta, i, p) != eig(inp.n, delta, j, q)
                        or not resonance.is_critical(i, p, j, q)):
                    return f"({i},{p};{j},{q}) is not critical at {delta}"
        return None

    def replay(self, inp, code, output, tracer):
        n = inp.n
        if inp.kind == "resonances":
            delta = Fraction(inp.args[0])
            with tracer.span("resonance.classify"):
                result = resonance.classify_shift(n, delta, 6)
            with tracer.span("resonance.bound_index"):
                resonance.critical_bound_index(n, delta)
            scanned = tuples_scanned(result.max_order)
            found = len(result.tuples)
        else:
            lo, hi = (Fraction(a) for a in inp.args)
            with tracer.span("resonance.interval"):
                grouped = resonance.critical_values_in_interval(n, lo, hi)
            with tracer.span("resonance.bound_index"):
                bound = resonance.critical_bound_index(n, hi)
            scanned = tuples_scanned(bound - 1)
            found = sum(len(tuples) for _, tuples in grouped)
        tracer.count("resonance.candidates", scanned)
        tracer.count("resonance.tuples_found", found)


# ----------------------------------------------------------------------
# verify-oracles: the seeded verification suites


class VerifyOracles(Workload):
    """verify.run_suite for every suite at n = 2 and n = 3 over seeded suite
    seeds.

    The cycle weights the suites so that the median op falls in the middle
    of the ~25 ms suites (roundtrip, and spectrum at n = 2 four times) and
    the 90th percentile in the middle of spectrum at n = 3 (~235 ms, five
    times); the ~2 ms resonance suite (nine times) fills the bottom."""

    name = "verify-oracles"
    strata = (("resonance", 2), ("spectrum", 3), ("spectrum", 2), ("resonance", 3),
              ("casimir", 2), ("resonance", 2), ("spectrum", 3), ("roundtrip", 3),
              ("spectrum", 2), ("resonance", 3), ("resonance", 2), ("casimir", 3),
              ("equivariance", 2), ("spectrum", 3), ("spectrum", 2), ("resonance", 3),
              ("roundtrip", 2), ("equivariance", 3), ("resonance", 2), ("spectrum", 3),
              ("spectrum", 2), ("resonance", 3), ("resonance", 2), ("spectrum", 3))
    pool_size = 240
    max_order = 3

    def generate(self, index, stream="ops"):
        suite, n = self.strata[index % len(self.strata)]
        rng = _rng(self.name, self.seed, stream, index)
        return OpInput(index, suite, "a" if n == 2 else "b", n,
                       (rng.randrange(10 ** 6),))

    def run(self, inp, tracer):
        with tracer.span(f"verify.{inp.kind}"):
            checks = verify.run_suite(inp.kind, inp.n, inp.args[0], self.max_order)
        output = json.dumps([[c.name, c.passed] for c in checks]) + "\n"
        return (0 if all(c.passed for c in checks) else 1), output

    def check(self, inp, code, output):
        failed = [name for name, passed in json.loads(output) if not passed]
        if failed or code != 0:
            return f"failed checks {failed} (exit code {code})"
        return None

    def replay(self, inp, code, output, tracer):
        """Poly, isotypic and casimir layers on a body drawn as the suite
        draws its operators; the suites' own calls into slbasis, densities
        and casimir_direct are spanned in the op by WRAPPED_CALLS."""
        n = inp.n
        rng = random.Random(inp.args[0])
        ctx = densities.Context(n, (verify.rng_weight(rng), verify.rng_weight(rng)),
                                verify.rng_weight(rng))
        body = sampling.random_body(rng, n, self.max_order, 2)
        if inp.kind in ("casimir", "roundtrip"):
            replay_symbolic(body, body, ctx, tracer)
        else:
            poly_battery(body, tracer)
        if inp.kind == "spectrum":
            with tracer.span("slbasis.sl_basis"):
                slbasis.sl_basis(n)
        elif inp.kind == "resonance":
            with tracer.span("resonance.interval"):
                resonance.critical_values_in_interval(n, 0, 2)


WORKLOADS = {cls.name: cls for cls in
             (QuantizeDense, QuantizeSparse, ResonanceScan, VerifyOracles)}

# Public functions that the traced run wraps in every package module that
# imported them, as (module, function, span name or None, counter or None):
# the calls other layers make to them get their own spans and counts.
WRAPPED_CALLS = (
    (casimir, "casimir_eigenvalue", None, "casimir.eigenvalue_calls"),
    (casimir, "casimir_direct", "casimir.direct", None),
    (densities, "lie_derivative_symbol", "densities.lie_symbol", None),
    (densities, "lie_derivative_operator", "densities.lie_operator", None),
    (densities, "lie_derivative_via_definition", "densities.lie_definition", None),
    (slbasis, "bracket_closure_check", "slbasis.bracket_closure", None),
    (slbasis, "span_decompose", "slbasis.span_decompose", "slbasis.span_solves"),
)
