"""Batch experiment driver: every computable claim as a reproducible run.

Each experiment writes one JSON artifact (plus CSV for root trajectories)
into the output directory and exits 0 only when all of its assertions
hold.  Outputs carry no timestamps, so reruns with identical
configuration are byte-identical: a rerun leaves an unchanged artifact in
place (same inode and mtime) and replaces a changed one atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import bdchain, measures, nacheck, particles, polycore, stability
from .measures import Measure

SCHEMA_VERSION = 1


def _write_atomic(path: str, text: str) -> None:
    """Leave path untouched when it already holds text's UTF-8 bytes; else
    write them to a temporary file beside path and rename it into place."""
    data = text.encode("utf-8")
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        if fh.read(len(data) + 1) == data:
            return
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [header] + [[str(v) for v in row] for row in rows]
    _write_atomic(path, "".join(",".join(line) + "\n" for line in lines))


def _random_real_rooted(rng, deg_max: int = 8):
    deg = int(rng.integers(1, deg_max + 1))
    roots = rng.uniform(-3.0, -1e-3, size=deg)
    poly = polycore.UniPoly.from_roots([float(r) for r in roots])
    w = poly.coeffs_float()
    return Measure(w / w.sum())


# ---------------------------------------------------------------------------
# experiment runners: each returns (passed, payload, CSV rows or None)
# ---------------------------------------------------------------------------


def _run_quad_death_preserve(p, seed):
    rng = np.random.default_rng(seed)
    rates = bdchain.BirthDeathRates.quadratic_death()
    t_grid = list(np.logspace(-3, 0, int(p["t_points"])))
    laws = [_random_real_rooted(rng, int(p["deg_max"])) for _ in range(int(p["count"]))]
    degrees = np.array([len(mu.weights) - 1 for mu in laws])
    d_max = int(degrees.max())
    # the start laws as the rows of one zero-padded matrix, checked in one
    # batch per degree
    start = np.zeros((len(laws), d_max + 1))
    for row, mu in zip(start, laws):
        row[: len(mu.weights)] = mu.weights
    tails = np.array([mu.tail_bound for mu in laws])
    counts = dict.fromkeys(("proven", "policy_stable", "inconclusive", "refuted"), 0)
    for t in t_grid:
        # one block on {0..d_max} serves every law: pure death never moves
        # mass up, so rows 0..d of P(t) vanish past column d, and the block's
        # trunc_error bounds the l1 error of every row, so of each law of mass 1
        block = bdchain.transition(rates, t, d_max, tol=1e-13)
        evolved = start @ block.matrix
        for d in np.unique(degrees):
            rows = degrees == d
            for cert in stability.real_rooted_batch(
                evolved[rows, : d + 1], tails[rows] + block.trunc_error
            ):
                counts[_verdict_kind(cert)] += 1
    payload = {"checked": len(laws) * len(t_grid), **counts, "t_grid": t_grid}
    return counts["refuted"] == 0, payload, None


def _verdict_kind(cert) -> str:
    """proven (by sign alternation), policy_stable (a float-policy Stable),
    inconclusive or refuted."""
    if cert.alternation is not None:
        return "proven"
    return {
        stability.Verdict.STABLE: "policy_stable",
        stability.Verdict.INCONCLUSIVE: "inconclusive",
        stability.Verdict.REFUTED: "refuted",
    }[cert.verdict]


def _run_double_root(p, seed):
    r, t = float(p["r"]), float(p["t"])
    poly, cert = bdchain.quadratic_map_counterexample(r, t)
    disc = float(poly.coeffs[1]) ** 2 - 4.0 * float(poly.coeffs[0]) * float(poly.coeffs[2])
    closed = math.exp(-4.0 * t) - math.exp(-2.0 * t) if r == 0.5 else None
    im = abs(cert.witness[0].imag) if cert.witness else 0.0
    expected_im = math.sqrt(-disc) / (2.0 * math.exp(-2.0 * t)) if disc < 0 else 0.0
    ok = cert.verdict is stability.Verdict.REFUTED and abs(im - expected_im) < 1e-12
    if closed is not None:
        ok = ok and abs(disc - closed) < 1e-12
    payload = {
        "r": r,
        "t": t,
        "poly": poly.to_json(),
        "certificate": cert.to_json(),
        "discriminant": disc,
        "closed_form_discriminant": closed,
        "witness_im": im,
    }
    return ok, payload, None


def _run_birth_monotonicity(p, seed):
    t_grid = [float(x) for x in str(p["t_grid"]).split(";")]
    inc = bdchain.BirthDeathRates.from_sequences([1.0, 2.0, 1.0])
    dec = bdchain.BirthDeathRates.from_sequences([2.0, 1.0])
    recs_inc = bdchain.birth_monotonicity_probe(inc, 0, t_grid)
    recs_dec = bdchain.birth_monotonicity_probe(dec, 0, t_grid)
    ok = all(r["verdict"] == "Refuted" for r in recs_inc) and all(
        r["verdict"] != "Refuted" for r in recs_dec
    )
    payload = {
        "t_grid": t_grid,
        "increasing_birth": [{"t": r["t"], "verdict": r["verdict"]} for r in recs_inc],
        "non_increasing_birth": [{"t": r["t"], "verdict": r["verdict"]} for r in recs_dec],
    }
    return ok, payload, None


def _root_rows(recs) -> list:
    return [(r["t"], i, z.real, z.imag) for r in recs for i, z in enumerate(r["roots"])]


def _run_hermite_law(p, seed):
    n, w = int(p["n"]), float(p["w"])
    t_grid = [4.0 ** (-j) for j in range(3, 11)]
    recs = bdchain.hermite_root_law(w, n, None, t_grid + [1e-6])
    reports = [r["report"] for r in recs]
    decreasing = all(a > b for a, b in zip(reports[:-1], reports[1:-1]))
    ok = decreasing and reports[-1] < 1e-2
    payload = {
        "n": n,
        "w": w,
        "records": [{"t": r["t"], "report": r["report"]} for r in recs],
    }
    return ok, payload, _root_rows(recs)


def _run_kummer_law(p, seed):
    n = int(p["n"])
    recs = bdchain.kummer_root_law(n, [1e-4, 1e-5])
    zeros = polycore.negative_x_zeros_of_series(polycore.kummer_series_poly(n))
    ok = recs[-1]["report"] < 1e-3 and len(zeros) == n - 1 and all(z < 0 for z in zeros)
    payload = {
        "n": n,
        "records": [{"t": r["t"], "report": r["report"]} for r in recs],
        "kummer_series_zero_count": len(zeros),
    }
    return ok, payload, _root_rows(recs)


def _run_kingman_bp(p, seed):
    n, t = int(p["n"]), float(p["t"])
    ev = bdchain.kingman(n, True, t)
    cert = stability.is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound)
    dec = measures.bp_decompose(ev)
    ok = (
        cert.verdict is not stability.Verdict.REFUTED
        and dec.residual < 1e-8
        and dec.q in (0, 1)
    )
    payload = {
        "n": n,
        "t": t,
        "certificate": cert.to_json(),
        "decomposition": dec.to_json(),
    }
    return ok, payload, None


def _run_wright_fisher(p, seed):
    start = int(p["start"])
    residuals = {}
    ok = True
    for t in (0.05, 0.2):
        res = bdchain.wf_residual(Measure.point_mass(start), t)
        residuals[str(t)] = res
        ok = ok and res < 1e-6
    payload = {"start": start, "residuals": residuals}
    return ok, payload, None


def _run_trotter_split(p, seed):
    mu = Measure.point_mass(int(p["start"]))
    b0, d1, d2, t = (float(p[k]) for k in ("b0", "d1", "d2", "t"))
    combined = bdchain.BirthDeathRates.from_polynomial(b0, d1, d2)
    # the splits first: the reference's box grows with b0*t too, uncapped
    splits = {n: bdchain.lie_split_evolve(mu, b0, d1, d2, t, n) for n in (16, 64, 256, 1024, 4096)}
    ref = bdchain.evolve(mu, combined, t, tol=1e-14)
    tvs = [{"steps": n, "tv": bdchain.tv_distance(split, ref)} for n, split in splits.items()]
    vals = [r["tv"] for r in tvs]
    ok = all(a > b for a, b in zip(vals, vals[1:])) and vals[-1] < 1e-6
    payload = {"b0": b0, "d1": d1, "d2": d2, "t": t, "tv": tvs}
    return ok, payload, None


def _ts_fixture(rng):
    """Random exactly-stable two-site measure: rational Bernoulli products
    pushed through one rational jump transform."""
    from .polycore import MultiPoly

    def rand_frac():
        return Fraction(int(rng.integers(1, 10)), int(rng.integers(10, 14)))

    left = [rand_frac()]
    right = [rand_frac() for _ in range(int(rng.integers(1, 4)))]

    def bern_poly(ps, var, nvars=2):
        f = MultiPoly.from_dict({(0, 0): Fraction(1)}, nvars)
        for pp in ps:
            key = tuple(1 if k == var else 0 for k in range(nvars))
            f = f * MultiPoly.from_dict({(0, 0): 1 - pp, key: pp}, nvars)
        return f

    f = bern_poly(left, 0) * bern_poly(right, 1)
    p_jump = Fraction(int(rng.integers(1, 8)), 8)
    f = particles.single_jump_transform(f, 0, 1, p_jump)
    shape = f.max_degree_per_var()
    w = np.empty(tuple(s + 1 for s in shape), dtype=object)
    w[...] = Fraction(0)
    for alpha, c in f.terms:
        w[alpha] = c
    return w


def _run_particles_na(p, seed):
    rng = np.random.default_rng(seed)
    count = int(p["count"])
    worst = Fraction(0)
    all_pass = True
    for _ in range(count):
        w = _ts_fixture(rng)
        rep = nacheck.na_all_splits(w)
        all_pass = all_pass and rep.passed
        if rep.worst_slack > worst:
            worst = rep.worst_slack
    bad = np.zeros((2, 2))
    bad[0, 0] = bad[1, 1] = 0.5
    mix = nacheck.na_all_splits(Measure(bad))
    ok = all_pass and float(worst) <= 1e-12 and not mix.passed
    payload = {
        "fixtures": count,
        "worst_slack": float(worst),
        "mixture_violation": mix.to_json(),
    }
    return ok, payload, None


def _run_tstable_certify(p, seed):
    sigma = Fraction(str(p["sigma"]))
    trunc = int(p["trunc"])
    m_max = int(p["m_max"])
    c = {}
    term = Fraction(1)
    for k in range(trunc + 1):
        c[k] = term
        term = term * sigma / (k + 1)
    verdicts = []
    exact_match = True
    for m in range(1, m_max + 1):
        fm = stability.tstable_approximant(c, m).poly.to_uni()
        closed = polycore.UniPoly.from_coeffs([Fraction(1), Fraction(sigma, m)]).pow(m)
        exact_match = exact_match and fm.coeffs == closed.coeffs
        cert = stability.is_real_rooted(fm)
        verdicts.append(cert.verdict.value)
    cert_all = stability.certify_tstable(c, m_max=m_max, tail_bound=float(p["tail"]))
    ok = exact_match and all(v == "Stable" for v in verdicts) and (
        cert_all.verdict is not stability.Verdict.REFUTED
    )
    payload = {
        "sigma": str(sigma),
        "trunc": trunc,
        "m_max": m_max,
        "approximant_verdicts": verdicts,
        "closed_form_exact_match": exact_match,
        "overall": cert_all.to_json(),
    }
    return ok, payload, None


# Fraction("1e999999999") first builds a billion-digit power of ten, so a
# decimal exponent of 1000 or more is out of range
_LONG_EXPONENT = re.compile(r"[eE][+-]?0*[1-9]\d{3}")


def _is_nonnegative_rational(s: str) -> bool:
    if _LONG_EXPONENT.search(s):
        return False
    try:
        return Fraction(s) >= 0
    except (ValueError, ZeroDivisionError):
        return False


def _is_positive_grid(s: str) -> bool:
    try:
        return all(0 < float(x) < math.inf for x in s.split(";"))
    except ValueError:
        return False


EXPERIMENTS = {
    "quad-death-preserve": {
        "claim": "constant-birth quadratic-death chains preserve real-rootedness",
        "params": {"count": (int, 100), "deg_max": (int, 8), "t_points": (int, 7)},
        "valid": {k: lambda n: n >= 1 for k in ("count", "deg_max", "t_points")},
        "run": _run_quad_death_preserve,
    },
    "double-root-counterexample": {
        "claim": "quadratic death maps a double root in (0,1) to complex roots",
        "params": {"r": (float, 0.5), "t": (float, 0.1)},
        "valid": {"r": lambda r: 0 < r < 1, "t": lambda t: 0 <= t < math.inf},
        "run": _run_double_root,
    },
    "birth-monotonicity": {
        "claim": "increasing birth rates refute stability via the depth-2 approximant",
        "params": {"t_grid": (str, "0.0001;0.0003;0.001")},
        "valid": {"t_grid": _is_positive_grid},
        "run": _run_birth_monotonicity,
    },
    "hermite-law": {
        "claim": "multiple roots split at sqrt(t) scale with Hermite-root spacing",
        "params": {"n": (int, 3), "w": (float, -0.5)},
        "valid": {"n": lambda n: n >= 1, "w": lambda w: -math.inf < w < 0},
        "run": _run_hermite_law,
        "csv": ("root_trajectories", ["t", "root_index", "re", "im"]),
    },
    "kummer-law": {
        "claim": "roots leaving the origin scale linearly with cluster-polynomial zeros",
        "params": {"n": (int, 3)},
        "valid": {"n": lambda n: n >= 1},
        "run": _run_kummer_law,
        "csv": ("small_root_trajectories", ["t", "root_index", "re", "im"]),
    },
    "kingman-bp": {
        "claim": "coalescent block counts decompose into Bernoulli and Poisson parts",
        "params": {"n": (int, 100), "t": (float, 0.5)},
        "valid": {"n": lambda n: n >= 1, "t": lambda t: 0 <= t < math.inf},
        "run": _run_kingman_bp,
    },
    "wright-fisher": {
        "claim": "the quadratic-death generating function satisfies the Wright-Fisher PDE",
        "params": {"start": (int, 5)},
        "valid": {"start": lambda s: s >= 0},
        "run": _run_wright_fisher,
    },
    "trotter-split": {
        "claim": "alternating half-chain sub-steps converge to the combined chain",
        "params": {
            "start": (int, 5),
            "b0": (float, 1.0),
            "d1": (float, 1.0),
            "d2": (float, 1.0),
            "t": (float, 0.5),
        },
        "valid": {
            "start": lambda s: s >= 0,
            "b0": lambda x: 0 <= x < math.inf,
            "d1": lambda x: 0 <= x < math.inf,
            "d2": lambda x: 0 <= x < math.inf,
            "t": lambda t: 0 < t < math.inf,
        },
        "run": _run_trotter_split,
    },
    "particles-na": {
        "claim": "stable multi-site laws are negatively associated; a diagonal mixture is not",
        "params": {"count": (int, 50)},
        "valid": {"count": lambda n: n >= 1},
        "run": _run_particles_na,
    },
    "tstable-certify": {
        "claim": "truncated Poisson approximants are the exact binomial closed form",
        "params": {
            "sigma": (str, "1"),
            "trunc": (int, 60),
            "m_max": (int, 20),
            "tail": (float, 1e-30),
        },
        "valid": {
            "sigma": _is_nonnegative_rational,
            "trunc": lambda n: n >= 0,
            "m_max": lambda n: n >= 1,
            "tail": lambda x: 0 <= x < math.inf,
        },
        "run": _run_tstable_certify,
    },
}


_KIND = {int: "an integer", float: "a number", str: "a string"}


def _coerce_params(name: str, overrides: dict) -> dict:
    schema = EXPERIMENTS[name]["params"]
    out = {k: v for k, (_, v) in schema.items()}
    for key, raw in overrides.items():
        if key not in schema:
            raise KeyError(f"unknown parameter {key!r} for {name}")
        typ = schema[key][0]
        # a --param string parses by type; a --config JSON value must have
        # the parameter's type, where an integral float counts as an int and
        # any number as a float, and a boolean is never accepted
        if not isinstance(raw, str) and (
            isinstance(raw, bool)
            or typ is str
            or not isinstance(raw, (int, float))
            or typ is int and isinstance(raw, float) and not raw.is_integer()
        ):
            raise ValueError(f"{key}={raw!r} is not {_KIND[typ]} for {name}")
        out[key] = typ(raw)
    # range checks run here, before any work, so that a ValueError raised
    # inside a runner still surfaces as a program error; only the kernels'
    # InputRangeError (a rate sum past the float range, lambda*t above the
    # series cap, a Lie split box above its cap), which no per-parameter
    # check can foresee, exits 2 as well
    for key, ok in EXPERIMENTS[name].get("valid", {}).items():
        if not ok(out[key]):
            raise ValueError(f"{key}={out[key]!r} is out of range for {name}")
    return out


def run_experiment(name: str, params: dict, seed: int, tol: float, outdir: str) -> int:
    spec = EXPERIMENTS[name]
    passed, payload, rows = spec["run"](params, seed)
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "claim": spec["claim"],
        "params": params,
        "seed": seed,
        "tol": tol,
        "passed": bool(passed),
        "results": payload,
    }
    _write_json(os.path.join(outdir, f"{name}.json"), artifact)
    if "csv" in spec:
        stem, header = spec["csv"]
        _write_csv(os.path.join(outdir, f"{name}.{stem}.csv"), header, rows)
    print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stablepgf", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiment names")
    pd = sub.add_parser("describe", help="print the parameter schema of an experiment")
    pd.add_argument("name")
    pr = sub.add_parser("run", help="run one experiment")
    pr.add_argument("name")
    pr.add_argument("--config", help="JSON file of parameter overrides")
    pr.add_argument("--param", action="append", default=[], help="key=value override")
    ps = sub.add_parser("suite", help="run every experiment with default parameters")
    for p in (pr, ps):
        p.add_argument("--out", default="artifacts")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)

    args = parser.parse_args(argv)
    if args.command in ("describe", "run") and args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}", file=sys.stderr)
        return 2
    # a negative seed fails in numpy, and a NaN tol is not JSON in the artifact
    for flag, ok in (("seed", lambda s: s >= 0), ("tol", lambda x: 0 < x < math.inf)):
        if args.command in ("run", "suite") and not ok(getattr(args, flag)):
            print(f"--{flag}={getattr(args, flag)!r} is out of range", file=sys.stderr)
            return 2
    if args.command in ("run", "suite"):
        # refused here, not at the first artifact write after the work
        found = os.path.abspath(args.out)
        while not os.path.exists(found):
            found = os.path.dirname(found)
        if not os.path.isdir(found):
            print(f"--out={args.out}: {found} is not a directory", file=sys.stderr)
            return 2
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "describe":
        spec = EXPERIMENTS[args.name]
        schema = {
            "experiment": args.name,
            "claim": spec["claim"],
            "params": {
                k: {"type": t.__name__, "default": d} for k, (t, d) in spec["params"].items()
            },
            "artifacts": [f"{args.name}.json"],
            "csv_columns": spec["csv"][1] if "csv" in spec else None,
        }
        print(json.dumps(schema, sort_keys=True, indent=2))
        return 0
    if args.command == "run":
        overrides = {}
        if args.config:
            try:  # an unreadable file is an OSError, bad JSON a ValueError
                with open(args.config, encoding="utf-8") as fh:
                    overrides = json.load(fh)
                if not isinstance(overrides, dict):
                    raise ValueError("not a JSON object")
            except (OSError, ValueError) as exc:
                print(f"--config {args.config}: {exc}", file=sys.stderr)
                return 2
        for kv in args.param:
            if "=" not in kv:
                print(f"bad --param {kv!r}, expected key=value", file=sys.stderr)
                return 2
            key, val = kv.split("=", 1)
            overrides[key] = val
        try:
            params = _coerce_params(args.name, overrides)
        except (KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            return run_experiment(args.name, params, args.seed, args.tol, args.out)
        except measures.InputRangeError as exc:
            # raised before the artifact is written
            print(f"{args.name}: {exc}", file=sys.stderr)
            return 2
    if args.command == "suite":
        worst = 0
        for name in EXPERIMENTS:
            params = _coerce_params(name, {})
            code = run_experiment(name, params, args.seed, args.tol, args.out)
            worst = max(worst, code)
        return worst
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
