"""Independent verdict checker for every request the benchmark sends.

Reference values never come from the package under test: binomials come
from ``math.comb`` (extended to negative upper index by the reflection
C(m, r) = (-1)^r C(r - m - 1, r)), the Lucas coefficients from
n * C(n - k, k) / (n - k), and the cyclotomic modulus from the Moebius
product Phi_g = prod_{d | g} (z^d - 1)^mu(g / d).  Ring outputs are parsed
back into coefficient maps and compared exactly, so the check does not
depend on term order or spacing beyond what the parser needs.

The nine golden requests are compared byte for byte with tests/golden/.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import GOLDEN


class Reject(Exception):
    """The output is not the correct verdict for its request."""


def comb(m: int, r: int) -> int:
    """Generalized binomial C(m, r) for any integer m, from math.comb."""
    if r < 0:
        return 0
    if m >= 0:
        return math.comb(m, r)
    return (-1) ** r * math.comb(r - m - 1, r)


def lucas(n: int, k: int) -> int:
    """T(n, k) = n * C(n - k, k) / (n - k), for 0 <= k < n."""
    q, rem = divmod(n * math.comb(n - k, k), n - k)
    if rem:
        raise AssertionError(f"T({n}, {k}) is not an integer")
    return q


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic(g: int) -> list[int]:
    """Coefficients of Phi_g, lowest first, by the Moebius product."""
    poly = [1]
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    for d in divisors:  # every factor with exponent +1 first: multiply by z^d - 1
        if _mobius(g // d) == 1:
            poly = [(poly[j - d] if j >= d else 0) - (poly[j] if j < len(poly) else 0)
                    for j in range(len(poly) + d)]
    for d in divisors:  # then divide exactly by each z^d - 1 with exponent -1
        if _mobius(g // d) == -1:
            quot = [0] * (len(poly) - d)
            rem = list(poly)
            for top in range(len(rem) - 1, d - 1, -1):
                quot[top - d] = rem[top]
                rem[top - d] += rem[top]
                rem[top] = 0
            if any(rem):
                raise AssertionError(f"z^{d} - 1 does not divide the product for g={g}")
            poly = quot
    return poly


def _z_power(m: int, phi: list[int]) -> list[int]:
    """z^m reduced modulo the monic phi, as a coefficient list of length deg phi."""
    width = len(phi) - 1
    vec = [0] * max(m + 1, width)
    vec[m] = 1
    for top in range(len(vec) - 1, width - 1, -1):
        factor = vec[top]
        if factor:
            for j in range(width + 1):
                vec[top - width + j] -= factor * phi[j]
    return vec[:width]


def target_curve(g: int, i: int, collapse_u: bool) -> dict:
    """x-exponent -> {(a, b): q} for the target (-1)^k T(g,k) zeta^(ik) u^k x^(g-2k).

    With ``collapse_u`` (c = 1 in equation text) u is read as the root 1.
    """
    phi = cyclotomic(g)
    poly = {}
    for k in range(g // 2 + 1):
        coeff = (-1) ** k * lucas(g, k)
        zvec = _z_power(i * k, phi)
        b = 0 if collapse_u else k
        poly[g - 2 * k] = {(a, b): Fraction(coeff * q) for a, q in enumerate(zvec) if q}
    return poly


def source_curve(g: int, c: Fraction) -> dict:
    return {2 * g + 1: {(0, 0): Fraction(1)}, 1: {(0, 0): c}}


# ---------------------------------------------------------------- parsing

_FACTOR_Z = re.compile(r"z(?:\^(\d+))?")
_FACTOR_U = re.compile(r"u(?:\^(\d+))?")
_FACTOR_X = re.compile(r"x(?:\^(\d+))?")
_TAIL_X = re.compile(r"\*x(?:\^(\d+))?")


def _monomial(token: str, allow_x: bool) -> tuple[tuple[int, int], Fraction, int]:
    """Parse 'q*z^a*u^b*x^e' (every factor optional) into ((a, b), q, e)."""
    a = b = e = 0
    mag = Fraction(1)
    for factor in token.split("*"):
        if m := _FACTOR_Z.fullmatch(factor):
            a = int(m.group(1) or 1)
        elif m := _FACTOR_U.fullmatch(factor):
            b = int(m.group(1) or 1)
        elif allow_x and (m := _FACTOR_X.fullmatch(factor)):
            e = int(m.group(1) or 1)
        elif re.fullmatch(r"\d+(/\d+)?", factor):
            mag = Fraction(factor)
        else:
            raise Reject(f"bad factor {factor!r} in {token!r}")
    return (a, b), mag, e


def parse_element(text: str) -> dict:
    """Quotient-ring element text ('0' or signed q*z^a*u^b terms) -> {(a, b): q}."""
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    terms = [parts[0].removeprefix("-")] + parts[2::2]
    out = {}
    for sign, term in zip(signs, terms):
        key, mag, _ = _monomial(term, allow_x=False)
        if key in out or mag == 0:
            raise Reject(f"non-canonical element {text!r}")
        out[key] = -mag if sign == "-" else mag
    return out


def parse_poly(text: str) -> dict:
    """Polynomial-in-x text with ring coefficients -> {x_exp: {(a, b): q}}."""
    if text == "0":
        return {}
    out: dict = {}
    pos, sign = 0, 1
    if text.startswith("-"):
        pos, sign = 1, -1
    while True:
        if text.startswith("(", pos):
            end = text.index(")", pos)
            element = parse_element(text[pos + 1:end])
            m = _TAIL_X.match(text, end + 1)
            exp = 0 if m is None else int(m.group(1) or 1)
            pos = end + 1 if m is None else m.end()
        else:
            end = text.find(" ", pos)
            end = len(text) if end < 0 else end
            key, mag, exp = _monomial(text[pos:end], allow_x=True)
            element = {key: mag}
            pos = end
        if exp in out:
            raise Reject(f"x^{exp} appears twice in {text!r}")
        out[exp] = {key: sign * q for key, q in element.items()}
        if pos == len(text):
            return out
        op = text[pos:pos + 3]
        if op not in (" + ", " - "):
            raise Reject(f"bad separator at {pos} in {text!r}")
        sign = 1 if op == " + " else -1
        pos += 3


def _equation(text: str) -> dict:
    if not text.startswith("y^2 = "):
        raise Reject(f"not an equation: {text!r}")
    return parse_poly(text[len("y^2 = "):])


def _lines(out: str) -> list[str]:
    if not out.endswith("\n"):
        raise Reject("output does not end in a newline")
    return out[:-1].split("\n")


def _csv(out: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(_lines(out)))
    if rows[0] != header:
        raise Reject(f"csv header {rows[0]} != {header}")
    return rows[1:]


def _expect(got, want, what: str) -> None:
    if got != want:
        raise Reject(f"{what}: got {str(got)[:120]!r}, want {str(want)[:120]!r}")


def _ints(line: str) -> list[int]:
    return [int(v) for v in line.split()]


# ---------------------------------------------------------------- commands

def _identity(fmt: str, args: list[str], out: str) -> None:
    n, i = int(args[0]), int(args[1])
    terms = []
    for k in range(i + 1):
        coeff = (-1) ** k * lucas(n, k)
        value = comb(n - 2 * k, i - k)
        terms.append([k, coeff, value, coeff * value])
    if sum(t[3] for t in terms):
        raise AssertionError(f"reference sum is nonzero at n={n}, i={i}")
    if fmt == "json":
        keys = ["k", "signed_coefficient", "binomial_value", "product"]
        want = {"n": n, "i": i, "terms": [dict(zip(keys, t)) for t in terms],
                "total": 0, "holds": True}
        _expect(json.loads(out), want, "identity json")
    elif fmt == "csv":
        rows = _csv(out, ["k", "signed_coefficient", "binomial_value", "product"])
        _expect([[int(v) for v in row] for row in rows], terms, "identity csv")
    else:
        lines = _lines(out)
        _expect(lines[0], f"alignment identity at n={n}, i={i}", "identity title")
        _expect(lines[1].split(), ["k", "coefficient", "binomial", "product"], "identity header")
        _expect([_ints(line) for line in lines[2:-2]], terms, "identity terms")
        _expect(lines[-2:], ["total = 0", "holds: yes"], "identity verdict")


def _aligned(fmt: str, args: list[str], out: str) -> None:
    n, i = int(args[0]), int(args[1])
    entries = [[k, n - 2 * k, i - k, comb(n - 2 * k, i - k)] for k in range(min(i, n // 2) + 1)]
    if fmt == "json":
        keys = ["k", "row", "index", "value"]
        want = {"n": n, "i": i, "entries": [dict(zip(keys, e)) for e in entries]}
        _expect(json.loads(out), want, "aligned json")
    elif fmt == "csv":
        rows = _csv(out, ["k", "row", "index", "value"])
        _expect([[int(v) for v in row] for row in rows], entries, "aligned csv")
    else:
        lines = _lines(out)
        _expect(lines[0], f"entries vertically aligned with entry i={i} of row n={n}", "aligned title")
        _expect(lines[1].split(), ["k", "row", "index", "value"], "aligned header")
        _expect([_ints(line) for line in lines[2:]], entries, "aligned entries")


def _lucas_row(fmt: str, args: list[str], out: str) -> None:
    n = int(args[0])
    coeffs = [lucas(n, k) for k in range(n // 2 + 1)]
    if fmt == "json":
        _expect(json.loads(out), {"n": n, "coefficients": coeffs}, "lucas-row json")
    elif fmt == "csv":
        rows = _csv(out, ["k", "coefficient"])
        _expect([[int(v) for v in row] for row in rows], [[k, v] for k, v in enumerate(coeffs)], "lucas-row csv")
    else:
        head = f"T({n}, k) for k = 0..{n // 2}: "
        (line,) = _lines(out)
        _expect(line[:len(head)], head, "lucas-row title")
        _expect(_ints(line[len(head):]), coeffs, "lucas-row values")


def _triangle(fmt: str, args: list[str], out: str) -> None:
    n_max = int(args[0])
    rows = [[math.comb(n, i) for i in range(n + 1)] for n in range(n_max + 1)]
    if fmt == "json":
        _expect(json.loads(out), {"n_max": n_max, "rows": rows}, "triangle json")
    elif fmt == "csv":
        got = [[int(v) for v in row] for row in _csv(out, ["n", "i", "value"])]
        want = [[n, i, v] for n, row in enumerate(rows) for i, v in enumerate(row)]
        _expect(got, want, "triangle csv")
    elif n_max <= 20:
        _expect([_ints(line) for line in _lines(out)], rows, "triangle grid")
    else:
        lines = _lines(out)
        _expect(len(lines), n_max + 1, "triangle row count")
        for n, (line, row) in enumerate(zip(lines, rows)):
            _expect(line, f"row {n}: " + " ".join(map(str, row)), f"triangle row {n}")


def _table_terms(text: str) -> list[list[int]]:
    """'x^5 - 5*zeta^i*x^3 + ...' -> [[sign, magnitude, zeta_exp, x_exp], ...]."""
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    terms = [parts[0].removeprefix("-")] + parts[2::2]
    out = []
    for sign, term in zip(signs, terms):
        mag, zeta, x = 1, 0, 0
        for factor in term.split("*"):
            if factor == "zeta^i":
                zeta = 1
            elif m := re.fullmatch(r"zeta\^\((\d+)i\)", factor):
                zeta = int(m.group(1))
            elif m := _FACTOR_X.fullmatch(factor):
                x = int(m.group(1) or 1)
            elif factor.isdigit():
                mag = int(factor)
            else:
                raise Reject(f"bad table factor {factor!r}")
        out.append([1 if sign == "+" else -1, mag, zeta, x])
    return out


def _table(fmt: str, args: list[str], out: str) -> None:
    g_min, g_max = int(args[0]), int(args[1])
    rows = {g: [[(-1) ** k, lucas(g, k), k, g - 2 * k] for k in range(g // 2 + 1)]
            for g in range(g_min, g_max + 1)}
    if fmt == "json":
        keys = ["k", "sign", "magnitude", "zeta_exp", "x_exp"]
        want = {"rows": [{"g": g, "coefficients": [dict(zip(keys, [k] + e)) for k, e in enumerate(es)]}
                         for g, es in rows.items()]}
        _expect(json.loads(out), want, "table json")
    elif fmt == "csv":
        got = [[int(v) for v in row] for row in _csv(out, ["g", "k", "sign", "magnitude", "zeta_exp", "x_exp"])]
        want = [[g, k] + e for g, es in rows.items() for k, e in enumerate(es)]
        _expect(got, want, "table csv")
    else:
        lines = _lines(out)
        _expect(lines[0], "g    curve C_i (c = 1)", "table header")
        _expect(len(lines) - 1, len(rows), "table row count")
        for line, (g, es) in zip(lines[1:], rows.items()):
            head, _, equation = line.partition(" y^2 = ")
            _expect(head.strip(), str(g), "table g")
            _expect(_table_terms(equation), [[s, m, z, x] for s, m, z, x in es], f"table row {g}")


def _sweep(fmt: str, args: list[str], out: str) -> None:
    n_max = int(args[0])
    pairs = n_max * (n_max - 1) // 2
    if fmt == "json":
        _expect(json.loads(out), {"n_max": n_max, "pairs_checked": pairs, "failures": []}, "sweep json")
    elif fmt == "csv":
        _expect(_csv(out, ["n", "i", "total"]), [], "sweep csv failures")
    else:
        _expect(_lines(out), [f"checked {pairs} pairs with 2 <= n <= {n_max}, 0 < i < n",
                              "failures: none"], "sweep text")


def _lockwood(fmt: str, args: list[str], out: str) -> None:
    n_max = int(args[0])
    if fmt == "json":
        want = {"n_max": n_max, "checked": n_max, "all_hold": True, "failures": []}
        _expect(json.loads(out), want, "lockwood json")
    elif fmt == "csv":
        _expect(_csv(out, ["n", "holds"]), [[str(n), "True"] for n in range(1, n_max + 1)], "lockwood csv")
    else:
        _expect(_lines(out), [f"x^n + y^n expansion identity for n = 1..{n_max}: all {n_max} hold"],
                "lockwood text")


def _ring_args(args: list[str]) -> tuple[int, Fraction, int]:
    return int(args[0]), Fraction(args[1]), int(args[2])


def _coefficient_rows(rows: list[list[str]], top: int) -> list[int]:
    _expect([int(row[0]) for row in rows], list(range(top, -1, -1)), "x exponents")
    return rows


def _curve(fmt: str, args: list[str], out: str) -> None:
    g, c, i = _ring_args(args)
    full = target_curve(g, i, collapse_u=False)
    shown = target_curve(g, i, collapse_u=c == 1)
    if fmt == "json":
        data = json.loads(out)
        _expect([data["g"], data["c"], data["i"]], [g, str(c), i], "curve json header")
        _expect(_equation(data["equation"]), shown, "curve json equation")
        got = {e["x_exp"]: parse_element(e["element"]) for e in data["coefficients"]}
        _expect([e["x_exp"] for e in data["coefficients"]], list(range(g, -1, -1)), "x exponents")
        _expect({x: e for x, e in got.items() if e}, full, "curve json coefficients")
    elif fmt == "csv":
        rows = _coefficient_rows(_csv(out, ["x_exp", "element"]), g)
        got = {int(x): parse_element(e) for x, e in rows}
        _expect({x: e for x, e in got.items() if e}, full, "curve csv coefficients")
    else:
        (line,) = _lines(out)
        head = f"C_{i} over R(g={g}, c={c}): "
        _expect(line[:len(head)], head, "curve title")
        _expect(_equation(line[len(head):]), shown, "curve equation")


def _verify_morphism(fmt: str, args: list[str], out: str) -> None:
    g, c, i = _ring_args(args)
    source = source_curve(g, c)
    target = target_curve(g, i, collapse_u=c == 1)
    if fmt == "json":
        data = json.loads(out)
        _expect([data["g"], data["c"], data["i"], data["holds"], data["residual"], data["x_map_nonconstant"]],
                [g, str(c), i, True, "0", True], "morphism json verdict")
        _expect(_equation(data["source"]), source, "morphism json source")
        _expect(_equation(data["target"]), target, "morphism json target")
        _expect(parse_poly(data["pullback"]), source, "morphism json pullback")
    elif fmt == "csv":
        rows = _coefficient_rows(_csv(out, ["x_exp", "pullback", "source", "residual"]), 2 * g + 1)
        for x, pullback, src, residual in rows:
            want = source.get(int(x), {})
            _expect(parse_element(pullback), want, f"morphism csv pullback x^{x}")
            _expect(parse_element(src), want, f"morphism csv source x^{x}")
            _expect(residual, "0", f"morphism csv residual x^{x}")
    else:
        lines = _lines(out)
        _expect(len(lines), 7, "morphism line count")
        _expect(lines[0], f"morphism check for g={g}, c={c}, i={i}", "morphism title")
        _expect(_equation(lines[1].removeprefix("source:   ")), source, "morphism source")
        _expect(_equation(lines[2].removeprefix("target:   ")), target, "morphism target")
        _expect(lines[3], "x-map:    (x^2 + w)/x with w = zeta^i*c^(1/g) (nonconstant)", "morphism x-map")
        _expect(_equation(lines[4].removeprefix("pullback: ")), source, "morphism pullback")
        _expect(lines[5:], ["residual: 0", "holds: yes"], "morphism verdict")


_CHECKS = {
    "identity": _identity,
    "aligned": _aligned,
    "lucas-row": _lucas_row,
    "triangle": _triangle,
    "table": _table,
    "sweep": _sweep,
    "lockwood": _lockwood,
    "curve": _curve,
    "verify-morphism": _verify_morphism,
}


def _split_argv(argv: list[str]) -> tuple[str, str, list[str]]:
    fmt, command, positional = "text", None, []
    words = iter(argv)
    for word in words:
        if word == "--":
            positional += list(words)
        elif word == "--format":
            fmt = next(words)
        elif word == "--workers":
            next(words)
        elif command is None:
            command = word
        else:
            positional.append(word)
    return fmt, command, positional


class Checker:
    """Judges (argv, exit code, stdout) triples; golden requests byte for byte."""

    def __init__(self, golden_dir: Path):
        self.golden = {tuple(argv): (golden_dir / name).read_bytes() for argv, name in GOLDEN}

    def check(self, argv: list[str], code, out: str) -> str | None:
        """None when the verdict is correct, else the reason it is rejected."""
        if code != 0:
            return f"exit code {code}"
        expected = self.golden.get(tuple(argv))
        if expected is not None:
            return None if out.encode() == expected else "differs from the golden file"
        fmt, command, args = _split_argv(argv)
        try:
            _CHECKS[command](fmt, args, out)
        except (Reject, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def self_test(self) -> list[str]:
        """Feed known-bad verdicts; return the ones the checker wrongly accepted."""
        good = self.golden[("identity", "11", "3")].decode()
        fresh = "alignment identity at n=7, i=3\nk  coefficient  binomial  product\n" \
                "0  1  35  35\n1  -7  10  -70\n2  14  3  42\n3  -7  1  -7\ntotal = 0\nholds: yes\n"
        cases = [
            ("golden request, tampered output", ["identity", "11", "3"], 0, good.replace("165", "166")),
            ("golden request, exit code 1", ["identity", "11", "3"], 1, good),
            ("checked request, tampered output", ["identity", "7", "3"], 0, fresh.replace("-70", "-71")),
            ("checked request, exit code 2", ["identity", "7", "3"], 2, fresh),
            ("morphism, nonzero residual", ["verify-morphism", "--", "1", "1", "0"], 0,
             "morphism check for g=1, c=1, i=0\nsource:   y^2 = x^3 + x\ntarget:   y^2 = x\n"
             "x-map:    (x^2 + w)/x with w = zeta^i*c^(1/g) (nonconstant)\n"
             "pullback: y^2 = x^3 + 2*x\nresidual: x\nholds: yes\n"),
        ]
        wrong = [name for name, argv, code, out in cases if self.check(argv, code, out) is None]
        if self.check(["identity", "7", "3"], 0, fresh) is not None:
            wrong.append("checked request, correct output rejected")
        if self.check(["identity", "11", "3"], 0, good) is not None:
            wrong.append("golden request, correct output rejected")
        return wrong
