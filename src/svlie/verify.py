"""Reproducible verification suites behind the CLI.

All randomness comes from SplitMix64 (documented below), so identical
(suite, radius, seed, cases) always produce identical reports on any
platform.  The ``lemma36-verdict`` suite audits, component by component, a
candidate closed form for the composition law against the generator-wise
oracle; the suite itself passes iff the shipped closed form matches the
oracle — candidate agreement is reported, never required.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import permutations

from .algebra import (
    BasisVector,
    C,
    Element,
    M,
    Window,
    Y,
    bracket,
    centralizer_window,
    format_element,
    jacobi_residual,
    single,
)
from .autgroup import (
    AutomorphismParams,
    action,
    apply,
    automorphism_window_map,
    compose,
    compose_oracle,
    factorize,
    identity,
    invert,
)
from .derivations import (
    HOM_RADIUS,
    MAP_RADIUS,
    ClassifiedDerivation,
    DerivationError,
    WindowMap,
    classified_window_map,
    classify_degree0,
    decompose,
    equivariant_hom_nullity,
    leibniz_check,
    outer_independence_kernel,
)
from .expr import params_to_json
from .scalar import ONE, Scalar, ZERO, format_scalar

__all__ = ["SUITES", "SplitMix64", "run_suite", "render_text"]

_MAX_WITNESSES = 3
# the positions a random b or c draws from
_SEQ_POSITIONS = (-3, -2, -1, 1, 2, 3)


class SplitMix64:
    """splitmix64: 64-bit state stepped by the golden-gamma constant.

    next() = mix(state += 0x9E3779B97F4A7C15) with the standard xor-shift
    multiplies; fixed here so reports are reproducible everywhere.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next() % len(seq)]


def random_scalar(rng: SplitMix64, nonzero: bool = False) -> Scalar:
    """``p/q + (r/s)*i``, with the imaginary part drawn one time in three."""
    while True:
        p, q = rng.randint(-4, 4), rng.randint(1, 3)
        r, s = (rng.randint(-4, 4), rng.randint(1, 3)) if rng.randint(0, 2) == 0 else (0, 1)
        value = Scalar(p * s, r * q) / (q * s)
        if value or not nonzero:
            return value


def random_seq(rng: SplitMix64) -> dict[int, Scalar]:
    chosen = {}
    for _ in range(rng.randint(0, 2)):
        chosen[rng.choice(_SEQ_POSITIONS)] = random_scalar(rng, nonzero=True)
    return chosen


def random_params(rng: SplitMix64) -> AutomorphismParams:
    return AutomorphismParams(
        b=random_seq(rng),
        c=random_seq(rng),
        i=rng.randint(0, 1),
        u=random_scalar(rng, nonzero=True),
        w=random_scalar(rng, nonzero=True),
        alpha=random_scalar(rng),
        beta=random_scalar(rng),
        gamma=random_scalar(rng),
    )


def random_shear(rng: SplitMix64) -> AutomorphismParams:
    return AutomorphismParams(
        alpha=random_scalar(rng), beta=random_scalar(rng), gamma=random_scalar(rng)
    )


def random_element(rng: SplitMix64, radius: int, max_terms: int = 3) -> Element:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        kind = rng.choice("LYM")
        terms.append((BasisVector(kind, rng.randint(-radius, radius)), random_scalar(rng)))
    return Element(terms)


def random_classified(rng: SplitMix64, radius: int) -> ClassifiedDerivation:
    return ClassifiedDerivation(
        random_scalar(rng),
        random_scalar(rng),
        random_scalar(rng),
        random_element(rng, radius),
    )


def random_degree0(rng: SplitMix64) -> ClassifiedDerivation:
    """The degree-zero normal form d1*R1 + d*R2 + g0*R3, drawing d, d1, g0 in that order."""
    d, d1, g0 = random_scalar(rng), random_scalar(rng), random_scalar(rng)
    return ClassifiedDerivation(c1=d1, c2=d, c3=g0)


def _check(name: str, cases: int, witnesses: list[str]) -> dict:
    return {
        "name": name,
        "cases": cases,
        "violations": len(witnesses),
        "witnesses": witnesses[:_MAX_WITNESSES],
    }


def _jacobi_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], None]:
    """Check every ordered triple, evaluating one residual per set of three generators.

    Antisymmetry is checked first, on every window pair ``i <= j``, the
    diagonal included.  Where the three pairs of a multiset ``a <= b <= c``
    are all antisymmetric, the residual changes sign under a swap, so it
    vanishes when an entry repeats and one residual decides all six
    orderings of three distinct generators.  Elsewhere each distinct
    ordering is evaluated.  The failing ordered triples are exactly those of
    the plain ``n**3`` loop.
    """
    elems = [single(bv) for bv in Window(radius).vectors()]
    n = len(elems)
    skew = {
        (i, j): (bracket(elems[i], elems[j]) + bracket(elems[j], elems[i])).is_zero()
        for i in range(n)
        for j in range(i, n)
    }
    failing = set()
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                if not (skew[a, b] and skew[b, c] and skew[a, c]):
                    for i, j, k in set(permutations((a, b, c))):
                        if not jacobi_residual(elems[i], elems[j], elems[k]).is_zero():
                            failing.add((i, j, k))
                elif a < b < c and not jacobi_residual(elems[a], elems[b], elems[c]).is_zero():
                    failing.update(permutations((a, b, c)))
    witnesses = [f"({elems[i]}, {elems[j]}, {elems[k]})" for i, j, k in sorted(failing)]
    return [_check("jacobi-residual", n**3, witnesses)], None


def _center_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], None]:
    found = centralizer_window(Window(radius))
    expected = [single(M(0)), single(C)]
    witnesses = []
    if found != expected:
        witnesses.append("basis: " + ", ".join(format_element(e) for e in found))
    return [_check("centralizer-basis", 1, witnesses)], None


def _derivation_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], None]:
    checks = []
    wradius = max(MAP_RADIUS, radius)
    unit_rules = [
        ("rule-l-to-m", ClassifiedDerivation(c1=ONE)),
        ("rule-l-to-nm", ClassifiedDerivation(c2=ONE)),
        ("rule-schrodinger-weight", ClassifiedDerivation(c3=ONE)),
    ]
    for name, deriv in unit_rules:
        bad = leibniz_check(classified_window_map(deriv, radius))
        checks.append(
            _check(f"leibniz-{name}", 1, [f"({x}, {y})" for x, y, _ in bad])
        )
    witnesses = []
    kernel = outer_independence_kernel(Window(wradius))
    for c1, c2, c3, z in kernel:
        central = all(bv in (M(0), C) for bv in z.support())
        if c1 or c2 or c3 or not central:
            witnesses.append(
                f"c1={format_scalar(c1)} c2={format_scalar(c2)} "
                f"c3={format_scalar(c3)} z={format_element(z)}"
            )
    checks.append(_check("outer-independence", len(kernel), witnesses))

    rng = SplitMix64(seed)
    witnesses = []
    for case in range(cases):
        deriv = random_classified(rng, wradius)
        wmap = classified_window_map(deriv, wradius)
        try:
            decompose(wmap)
        except DerivationError as exc:
            witnesses.append(f"case {case}: {exc}")
    checks.append(_check("decompose-roundtrip", cases, witnesses))

    witnesses = []
    for case in range(cases):
        deriv = random_degree0(rng)
        fitted = classify_degree0(classified_window_map(deriv, wradius))
        if fitted != deriv:
            witnesses.append(f"case {case}: fitted {fitted} from {deriv}")
    checks.append(_check("classify-roundtrip", cases, witnesses))

    witnesses = []
    rejected_cases = 5
    for case in range(rejected_cases):
        c1 = random_scalar(rng, nonzero=True)

        def image(bv: BasisVector, c1=c1) -> Element:
            if bv.kind == "L":
                return single(Y(bv.index), c1 * bv.index)
            return Element()

        try:
            classify_degree0(WindowMap.from_function(wradius, image))
            witnesses.append(f"case {case}: accepted c1={format_scalar(c1)}")
        except DerivationError:
            pass
    checks.append(_check("classify-rejects-y-family", rejected_cases, witnesses))
    return checks, None


def _hom_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], None]:
    nullity = equivariant_hom_nullity(Window(radius))
    witnesses = [] if nullity == 0 else [f"nullity={nullity}"]
    return [_check("hom-vanishing", 1, witnesses)], None


def _ideal_violation(act, gens) -> str | None:
    """The witness for the first of ``gens`` that ``act`` moves out of its ideal,
    the span of Y, M and C or, for M and C, of M and C; an L term is named first."""
    for bv in gens:
        if bv.kind == "L":
            continue  # L is in neither ideal
        kinds = {t.kind for t in act(single(bv)).support()}
        if "L" in kinds:
            return f"L-term in image of {bv}"
        if bv.kind in ("M", "C") and "Y" in kinds:
            return f"Y-term in image of {bv}"
    return None


def _group_law_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], None]:
    checks = []
    rng = SplitMix64(seed)
    gens = Window(radius).vectors()

    witnesses, invariants = [], []
    for case in range(cases):
        p, q = random_params(rng), random_params(rng)
        composed, act_p, act_q = action(compose(p, q)), action(p), action(q)
        for bv in gens:
            x = single(bv)
            if composed(x) != act_p(act_q(x)):
                witnesses.append(f"case {case}: differs on {bv}")
                break
        expected = single(C) if p.i == 0 else -single(C)
        # apply, not act_p, keeps verify.apply in use: bench/test_bench.py reads it
        if apply(p, single(C)) != expected:
            invariants.append(f"case {case}: central character")
        if (msg := _ideal_violation(act_p, gens)) is not None:
            invariants.append(f"case {case}: {msg}")
    checks.append(_check("compose-matches-oracle-action", cases, witnesses))

    half = max(1, cases // 2)
    witnesses = []
    for case in range(half):
        p, q, r = random_params(rng), random_params(rng), random_params(rng)
        if compose(compose(p, q), r) != compose(p, compose(q, r)):
            witnesses.append(f"case {case}")
    checks.append(_check("associativity", half, witnesses))

    witnesses = []
    for case in range(half):
        p = random_params(rng)
        inv = invert(p)
        if compose(p, inv) != identity() or compose(inv, p) != identity():
            witnesses.append(f"case {case}")
    checks.append(_check("inverse-roundtrip", half, witnesses))

    witnesses = []
    for case in range(half):
        p = random_params(rng)
        if factorize(automorphism_window_map(p, max(MAP_RADIUS, radius))) != p:
            witnesses.append(f"case {case}")
    checks.append(_check("factorize-apply-identity", half, witnesses))

    checks.append(_check("central-character-and-ideals", cases, invariants))
    return checks, None


def _seq_text(seq: Mapping[int, Scalar]) -> str:
    return "{" + ", ".join(f"{j}: {format_scalar(v)}" for j, v in seq.items()) + "}"


def _candidate_components(p: AutomorphismParams, q: AutomorphismParams) -> dict:
    """The candidate closed form under audit, evaluated component by component."""
    sp = -1 if p.i else 1
    w_q_inv = q.w.inverse()
    out = {
        "w": p.w * q.w,
        "i": (p.i + q.i) % 2,
        "u": (p.u if q.i == 0 else p.u.inverse()) * q.u,
        "gamma": p.gamma * w_q_inv * w_q_inv + q.gamma,
        "alpha": (p.alpha * w_q_inv + q.alpha) / 2,
        "beta": p.beta * w_q_inv * w_q_inv + q.alpha * q.alpha + q.beta + q.gamma,
    }
    b_keys = set(p.b) | {sp * jq for jq in q.b}
    b2 = {
        j: p.b.get(j, ZERO) + sp * p.w * q.b.get(sp * j, ZERO) * p.u ** (sp * j)
        for j in b_keys
    }
    c_keys = set(p.c) | {sp * kq for kq in q.c}
    c_keys |= {sp * jq for jq in q.b}
    c_keys |= {j + sp * jq for j in p.b for jq in q.b}
    c2: dict[int, Scalar] = {}
    for k in c_keys:
        if k == 0:
            continue
        u_k = p.u ** (sp * k)
        total = (
            p.c.get(k, ZERO)
            + sp * p.w * p.w * q.c.get(sp * k, ZERO) * u_k
            + 2 * p.alpha * p.w * p.w * k * q.b.get(sp * k, ZERO) * u_k
        )
        cross = ZERO
        for j in b_keys:
            term = (
                p.u ** (sp * j) * q.b.get(sp * j, ZERO) * p.b.get(k - j, ZERO)
                - p.u ** (sp * (k - j)) * p.b.get(j, ZERO) * q.b.get(sp * (k - j), ZERO)
            )
            if term:
                cross = cross + Scalar(sp * (k - j) * (k - 2 * j)) / (2 * k) * p.w * term
        c2[k] = total - cross
    # canonical b and c, zeros dropped and positions sorted, through the one constructor
    canonical = AutomorphismParams(b=b2, c=c2)
    out["b"], out["c"] = canonical.b, canonical.c
    return out


# relation -> (formula, printer of its values), in report order; delta-product,
# which audits the shear alone, comes last
_RELATIONS = {
    "w": ("w'' = w * w'", format_scalar),
    "i": ("i'' = i + i' (mod 2)", str),
    "u": ("u'' = u^((-1)^i') * u'", format_scalar),
    "gamma": ("gamma'' = gamma / w'^2 + gamma'", format_scalar),
    "alpha": ("alpha'' = (alpha / w' + alpha') / 2", format_scalar),
    "beta": ("beta'' = beta / w'^2 + alpha'^2 + beta' + gamma'", format_scalar),
    "b": ("b''_j = b_j + (-1)^i w u^((-1)^i j) b'_((-1)^i j)", _seq_text),
    "c": (
        "c''_k = c_k + (-1)^i w^2 u^((-1)^i k) c'_((-1)^i k)"
        " + 2 alpha k w^2 u^((-1)^i k) b'_((-1)^i k)"
        " - sum_j ((-1)^i w (k-j)(k-2j) / 2k)"
        " (u^((-1)^i j) b'_((-1)^i j) b_(k-j) - u^((-1)^i (k-j)) b_j b'_((-1)^i (k-j)))",
        _seq_text,
    ),
    "delta-product": (
        "shear(a,b,g) . shear(a',b',g') = shear(a+a', b+b', g+g'+2aa')",
        lambda values: ", ".join(map(format_scalar, values)),
    ),
}


def _curated_pairs() -> list[tuple[AutomorphismParams, AutomorphismParams]]:
    e = identity()
    shear_a = AutomorphismParams(alpha=ONE)
    shear_b = AutomorphismParams(beta=ONE)
    shear_g = AutomorphismParams(gamma=ONE)
    kind2 = AutomorphismParams(w=Scalar(2))
    deg2 = AutomorphismParams(u=Scalar(2))
    flip = AutomorphismParams(i=1)
    xi_b1 = AutomorphismParams(b={1: ONE})
    xi_bm1 = AutomorphismParams(b={-1: ONE})
    xi_b2 = AutomorphismParams(b={2: ONE})
    xi_c2 = AutomorphismParams(c={2: ONE})
    singles = [e, shear_a, shear_b, shear_g, kind2, deg2, flip, xi_b1, xi_c2]
    pairs = [(p, q) for p in singles for q in singles]
    pairs += [
        (xi_b1, xi_bm1),
        (xi_b1, xi_b2),
        (xi_b2, xi_bm1),
        (AutomorphismParams(b={1: ONE}, alpha=ONE), xi_bm1),
        (AutomorphismParams(b={1: ONE}, i=1, w=Scalar(2)), xi_b2),
        (AutomorphismParams(b={-2: ONE}, u=Scalar(3)), xi_b2),
    ]
    return pairs


def _relation(name: str, trials) -> dict:
    """One verdict row; its witness is the first (p, q, printed, oracle) trial that disagrees."""
    formula, text = _RELATIONS[name]
    witness = None
    for p, q, printed, oracle in trials:
        if printed != oracle:
            witness = {"p": params_to_json(p), "q": params_to_json(q),
                       "printed": text(printed), "oracle": text(oracle)}
            break
    return {
        "name": name,
        "formula": formula,
        "verdict": "AGREE" if witness is None else "DISAGREE",
        "witness": witness,
    }


def _lemma36_checks(radius: int, seed: int, cases: int) -> tuple[list[dict], list[dict]]:
    rng = SplitMix64(seed)
    pairs = _curated_pairs() + [
        (random_params(rng), random_params(rng)) for _ in range(cases)
    ]
    shear_pairs = [
        (AutomorphismParams(alpha=ONE), AutomorphismParams(alpha=ONE)),
        (AutomorphismParams(alpha=ONE, gamma=ONE), AutomorphismParams(beta=ONE)),
    ] + [(random_shear(rng), random_shear(rng)) for _ in range(max(1, cases // 4))]

    oracle_witnesses = []
    results: list[tuple] = []
    for p, q in pairs:
        oracle = compose_oracle(p, q, radius)
        if compose(p, q) != oracle:
            oracle_witnesses.append(f"p={params_to_json(p)} q={params_to_json(q)}")
        results.append((p, q, _candidate_components(p, q), oracle))
    checks = [_check("compose-matches-oracle-params", len(pairs), oracle_witnesses)]

    relations = [
        _relation(
            name,
            ((p, q, candidate[name], getattr(oracle, name)) for p, q, candidate, oracle in results),
        )
        for name in _RELATIONS
        if name != "delta-product"
    ]

    def shear_trials():
        for p, q in shear_pairs:
            oracle = compose_oracle(p, q, radius)
            predicted = (
                p.alpha + q.alpha,
                p.beta + q.beta,
                p.gamma + q.gamma + 2 * p.alpha * q.alpha,
            )
            yield p, q, predicted, (oracle.alpha, oracle.beta, oracle.gamma)

    relations.append(_relation("delta-product", shear_trials()))
    return checks, relations


# suite -> (smallest radius, runner (radius, seed, cases) -> (checks, relations or
# None)), in the order ``all`` runs them; runners call the engine through this
# module's globals, which tests and the bench tracer rebind.
_SUITES = {
    "jacobi": (1, _jacobi_checks),
    "center": (1, _center_checks),
    "derivations": (1, _derivation_checks),
    "hom-vanishing": (HOM_RADIUS, _hom_checks),
    "group-law": (1, _group_law_checks),
    "lemma36-verdict": (MAP_RADIUS, _lemma36_checks),
}
SUITES = (*_SUITES, "all")


def run_suite(suite: str, radius: int = 4, seed: int = 0, cases: int = 100) -> dict:
    """Run one named suite; deterministic given (suite, radius, seed, cases)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if cases < 1:
        raise ValueError("cases must be at least 1")
    checks: list[dict] = []
    relations: list[dict] | None = None
    for name, (floor, runner) in _SUITES.items():
        if suite in (name, "all"):
            found, verdicts = runner(max(floor, radius), seed, cases)
            checks += found
            if verdicts is not None:
                relations = verdicts
    report = {
        "suite": suite,
        "radius": radius,
        "seed": seed,
        "cases": cases,
        "checks": checks,
        "violations": sum(c["violations"] for c in checks),
    }
    if relations is not None:
        report["relations"] = relations
    report["passed"] = report["violations"] == 0
    return report


def render_text(report: dict) -> str:
    lines = [
        f"suite {report['suite']} (radius={report['radius']}, "
        f"seed={report['seed']}, cases={report['cases']})"
    ]
    for check in report["checks"]:
        status = "ok" if check["violations"] == 0 else "FAIL"
        lines.append(
            f"  [{status}] {check['name']}: {check['cases']} cases, "
            f"{check['violations']} violations"
        )
        for witness in check["witnesses"]:
            lines.append(f"         witness: {witness}")
    for relation in report.get("relations", []):
        lines.append(f"  [{relation['verdict']}] {relation['name']}: {relation['formula']}")
        if relation["witness"] is not None:
            w = relation["witness"]
            lines.append(f"         printed {w['printed']}  oracle {w['oracle']}")
            lines.append(f"         at p={w['p']} q={w['q']}")
    lines.append("PASS" if report["passed"] else "FAIL")
    return "\n".join(lines)
