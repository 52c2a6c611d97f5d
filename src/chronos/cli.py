"""Configuration-driven experiment runner and report emitter.

Subcommands: run <config>, plot <csv>, selftest.  Configs are flat
``key = value`` text with dotted section names; reports are CSV with a
provenance header comment.  Exit codes: 0 success, 1 invariant violation,
2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ChronosError, ConfigError, DomainError, RangeError, ResourceError
from .families import builtin_family, family_from_csv, integrate_family
from .film import (FilmSpace, commutation_check, embed, exchange, residual_norm,
                   slot_operator_norm, verify_eq38)
from .linalg import operator_norm
from .path_sum import PathSumConfig, U_lambda, _bubble_counts_from, monte_carlo_U
from .propagators import (CANCELLATION_FLOOR, asymptotic_probe, dyson_terms,
                          product_integral, yosida_propagator_convergence)
from .smatrix import SMatrixConfig, S_lambda, oracle_S

def parse_config(text: str) -> tuple:
    """Flat key = value lines; '#' starts a comment; each key is set once.
    Returns (value of each key, line number of each key)."""
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in cfg:
            raise ConfigError(
                f"{key} is set on line {lines[key]} and again on line {lineno}")
        cfg[key], lines[key] = value.strip(), lineno
    return cfg, lines


# A key's parser follows from the type of its default in _RUNNERS; a type in
# place of a default means the key has none and reads as None when absent.
_PARSERS = {int: int, float: float, str: str,
            bool: lambda text: {"on": True, "off": False}[text],
            tuple: lambda text: tuple(float(x) for x in text.split(",") if x.strip())}
# Least admissible value of each integer key.
_LEAST = {"order": 0, "base_dim": 1, "slots": 1, "seed": 0,
          "count_draws": 1, "trials": 100}


def _value(key: str, text: str, kind: type):
    """text parsed as kind and checked against the bounds of key."""
    try:
        value = _PARSERS[kind](text)
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: cannot parse {text!r}") from None
    numbers = value if kind is tuple else (value,) if kind in (int, float) else ()
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if kind is int and value < _LEAST[key]:
        raise ConfigError(f"{key} must be >= {_LEAST[key]}, got {value}")
    if key.startswith("sweep.") and len(value) < 2:
        raise ConfigError(f"{key} must list at least two values")
    if key == "interval" and len(value) != 2:
        raise ConfigError(f"interval must be two values a, b; got {text!r}")
    if key.endswith(".diag") and not value:
        raise ConfigError(f"{key} may not be empty")
    if ((key.endswith("tol") or key in ("lambda", "z", "half_window")
         or key.startswith("sweep."))
            and min(numbers) <= 0):
        raise ConfigError(f"{key} must be > 0, got {text!r}")
    return value


def _get_family(p: dict):
    if p["family.csv"] is not None:
        try:
            return family_from_csv(p["family.csv"])
        except ConfigError as exc:
            raise ConfigError(f"family.csv: {exc}") from None
    return builtin_family(p["family.name"], p["family.params"], interval=p["interval"])


def _path_sum_horizon(p: dict, fam) -> float:
    """The horizon t of a path sum, which runs on [a, a + t] of the family."""
    t = fam.b - fam.a if p["horizon"] is None else p["horizon"]
    if not 0.0 < t <= fam.b - fam.a:
        raise ConfigError(f"horizon must be in (0, {fam.b - fam.a}], got {t}")
    return t


class Report:
    """CSV rows with a provenance header; shortest round-trip floats."""

    def __init__(self, columns, seed, digest):
        self.columns = list(columns)
        self.rows = []
        self.seed = seed
        self.digest = digest

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ConfigError("row width does not match the report schema")
        for column, v in zip(self.columns, values):
            if isinstance(v, float) and not np.isfinite(v):
                raise RangeError(f"refusing to emit the non-finite {column} = {v}")
        self.rows.append(values)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(f"# chronos {__version__} seed={self.seed} "
                     f"config_digest={self.digest}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(
                    repr(v) if isinstance(v, float) else str(v)
                    for v in row) + "\n")


def _experiment_asymptotic(p, digest):
    if p["q.diag"] is not None:
        Q = np.diag(np.array(p["q.diag"], dtype=complex))
    else:
        fam = _get_family(p)
        Q = integrate_family(fam, fam.a, fam.b)
    n, ws = p["order"], p["sweep.w"]
    try:
        order, _, norms = asymptotic_probe(Q, n, ws)
    except DomainError as exc:
        raise ConfigError(f"sweep.w: {exc}") from None
    report = Report(["w", "residual_norm", "ratio"], p["seed"], digest)
    for k, (w, r) in enumerate(zip(ws, norms)):
        report.add(w, r, norms[k - 1] / r if k and r > 0 else 0.0)
    fitted = sum(r >= CANCELLATION_FLOOR for r in norms)
    return report, abs(order - (n + 1)) <= 0.1, (
        f"fitted order {order:.3f} (expected {n + 1}) on {fitted} of {len(ws)} points")


def _experiment_dyson(p, digest):
    fam = _get_family(p)
    n = p["order"]
    oracle = product_integral(fam, fam.a, fam.b, p["oracle_tol"]).U
    expn = dyson_terms(fam, fam.a, fam.b, n)
    ts = np.linspace(fam.a, fam.b, 65)
    M = max(np.linalg.norm(H, 2) for H in fam.evaluate_batch(ts))
    span = fam.b - fam.a
    report = Report(["order", "tail_norm", "classical_bound"], p["seed"], digest)
    ok = True
    partial = np.zeros_like(oracle)
    for k in range(n + 1):
        partial = partial + expn.terms[k]
        tail = float(np.linalg.norm(oracle - partial, 2))
        # An overflowed bound is inf, which Report.add rejects (exit 1).
        bound = float((M * span) ** (k + 1) / math.factorial(k + 1)
                      * np.exp(M * span))
        ok = ok and tail <= bound + 1e-12
        report.add(k, tail, bound)
    return report, ok, f"tail within classical bound up to order {n}: {ok}"


def _experiment_yosida(p, digest):
    fam = _get_family(p)
    try:
        slope, q_gaps, exp_gaps = yosida_propagator_convergence(
            fam, fam.a, fam.b, p["sweep.z"])
    except DomainError as exc:
        raise ConfigError(f"sweep.z: {exc}") from None
    report = Report(["z", "q_gap", "exp_gap"], p["seed"], digest)
    for row in zip(p["sweep.z"], q_gaps, exp_gaps):
        report.add(*row)
    return report, slope <= -0.9, f"convergence slope {slope:.3f} (need <= -0.9)"


def _experiment_lambda_sweep(p, digest):
    fam = _get_family(p)
    t = _path_sum_horizon(p, fam)
    oracle = product_integral(fam, fam.a, fam.a + t, p["oracle_tol"]).U
    report = Report(["lambda", "n_max", "captured_mass", "err_raw",
                     "err_normalized", "seconds"], p["seed"], digest)
    errs = []
    for lam in p["sweep.lambdas"]:
        t0 = time.perf_counter()
        res = U_lambda(fam, PathSumConfig(lam=lam, t=t, tail_tol=p["tail_tol"],
                                          seed=p["seed"]))
        err = float(np.linalg.norm(res.U - oracle, 2))
        errs.append(err)
        report.add(lam, res.extras["n_max"],
                   float(res.extras["captured_mass"]),
                   float(np.linalg.norm(res.extras["raw"] - oracle, 2)), err,
                   time.perf_counter() - t0 if p["timing"] else 0.0)
    ok = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return report, ok, f"normalized error strictly decreasing: {ok}"


def _experiment_film_verify(p, digest):
    d, N = p["base_dim"], p["slots"]
    fam = _get_family(p)
    if d != fam.dim:
        raise ConfigError(f"base_dim {d} differs from the family dimension {fam.dim}")
    film = FilmSpace(d, tuple(np.linspace(fam.a + 0.05 * (fam.b - fam.a),
                                          fam.b - 0.05 * (fam.b - fam.a), N)))
    report = Report(["check", "detail", "residual"], p["seed"], digest)
    ok = True
    H = fam((fam.a + fam.b) / 2)
    for j, k in itertools.permutations(range(1, N + 1), 2):
        P, P_kj = exchange(j, k, film), exchange(k, j, film)
        E_j, E_k = embed(H, j, film), embed(H, k, film)
        r1 = residual_norm(film, lambda v: P.apply(E_j.apply(P_kj.apply(v))) - E_k.apply(v))
        r3 = residual_norm(film, lambda v: P.apply(P_kj.apply(v)) - v)
        rc = commutation_check(H, H @ H, j, k, film)
        ok = ok and r1 <= 1e-13 and r3 <= 1e-13 and rc <= 1e-12
        report.add("exchange_transport", f"{j}-{k}", r1)
        report.add("exchange_involution", f"{j}-{k}", r3)
        report.add("slot_commutation", f"{j}-{k}", float(rc))
    iso = abs(slot_operator_norm(embed(H, 1, film)) - operator_norm(H))
    ok = ok and iso <= 1e-9
    report.add("embedding_isometry", "slot1", float(iso))
    r38 = verify_eq38(fam, film, p["z"], 0)
    ok = ok and r38 <= 1e-10
    report.add("norm_identity", "generating_vector", float(r38))
    return report, ok, f"film identities all within tolerance: {ok}"


def _experiment_smatrix_sweep(p, digest):
    H0 = np.diag(np.array(p["h0.diag"], dtype=complex))
    # Hopping J + J^T (J: superdiagonal of ones) is sigma_x at d = 2.
    J = np.eye(H0.shape[0], k=1)
    V = p["coupling"] * (J + J.T)
    T = p["half_window"]
    S_ref = oracle_S(SMatrixConfig(H0=H0, V=V, T=T)).U
    report = Report(["lambda", "T", "err_vs_oracle", "unitarity_defect",
                     "seconds"], p["seed"], digest)
    errs = []
    for lam in p["sweep.lambdas"]:
        t0 = time.perf_counter()
        S = S_lambda(SMatrixConfig(H0=H0, V=V, T=T, lam=lam), p["tail_tol"]).U
        err = float(np.linalg.norm(S - S_ref, 2))
        defect = float(np.linalg.norm(S.conj().T @ S - np.eye(S.shape[0]), 2))
        errs.append(err)
        report.add(lam, T, err, defect,
                   time.perf_counter() - t0 if p["timing"] else 0.0)
    ok = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return report, ok, f"S_lambda error strictly decreasing: {ok}"


def _experiment_monte_carlo(p, digest):
    fam = _get_family(p)
    t = _path_sum_horizon(p, fam)
    lam, draws = p["lambda"], p["count_draws"]
    ps = PathSumConfig(lam=lam, t=t, trials=p["trials"], seed=p["seed"])
    res = monte_carlo_U(fam, ps)
    # The first trials' counts come with the samples; only the rest are drawn.
    counts = np.concatenate([res.extras["counts"][:draws],
                             _bubble_counts_from(ps, ps.trials, draws)])
    mean = float(counts.mean())
    sigma = float(np.sqrt(lam * t / draws))
    oracle = product_integral(fam, fam.a, fam.a + t, p["oracle_tol"]).U
    dist = float(np.linalg.norm(res.U - oracle, 2))
    report = Report(["stat", "value"], p["seed"], digest)
    report.add("count_mean", mean)
    report.add("count_expected", float(lam * t))
    report.add("count_sigma", sigma)
    report.add("max_entry_stderr", float(res.error_estimate))
    report.add("distance_to_oracle", dist)
    ok = abs(mean - lam * t) <= 3 * sigma
    return report, ok, f"count mean {mean:.3f} vs {lam * t} (3 sigma {3 * sigma:.3f})"


# Keys every experiment reads, and the keys of a built-in or tabulated family.
_COMMON = {"experiment": str, "output": str, "seed": 0}
_FAMILY = {"family.csv": str, "family.name": "two_level_driven",
           "family.params": (), "interval": (0.0, 1.0)}
_LAMBDAS = (10.0, 100.0, 1000.0)

# Each experiment's runner and the keys it reads besides _COMMON, each with
# its default; any other key is a config error.
_RUNNERS = {
    "dyson-convergence": (_experiment_dyson, {
        "order": 5, "oracle_tol": 1e-10, **_FAMILY}),
    "asymptotic": (_experiment_asymptotic, {
        "q.diag": tuple, "order": 1,
        "sweep.w": (0.1, 0.05, 0.025, 0.0125, 0.00625), **_FAMILY}),
    "yosida": (_experiment_yosida, {
        "sweep.z": (10.0, 100.0, 1000.0, 10000.0), **_FAMILY}),
    "lambda-sweep": (_experiment_lambda_sweep, {
        "horizon": float, "sweep.lambdas": _LAMBDAS, "tail_tol": 1e-10,
        "oracle_tol": 1e-10, "timing": False, **_FAMILY}),
    "film-verify": (_experiment_film_verify, {
        "base_dim": 2, "slots": 4, "z": 10.0, **_FAMILY}),
    "smatrix-sweep": (_experiment_smatrix_sweep, {
        "h0.diag": (1.0, -1.0), "coupling": 0.3, "half_window": 2.0,
        "sweep.lambdas": _LAMBDAS, "tail_tol": 1e-10, "timing": False}),
    "monte-carlo": (_experiment_monte_carlo, {
        "horizon": float, "lambda": 20.0, "trials": 500,
        "count_draws": 100000, "oracle_tol": 1e-9, **_FAMILY}),
}
# Keys that replace others, which are then never read.
_REPLACES = {"q.diag": tuple(_FAMILY), "family.csv": tuple(_FAMILY)[1:]}


def run(config_path: str) -> int:
    try:
        with open(config_path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        cfg, lines = parse_config(text)
        name = cfg.get("experiment")
        if name not in _RUNNERS:
            raise ConfigError(
                f"experiment must be one of {', '.join(_RUNNERS)}; got {name!r}")
        runner, keys = _RUNNERS[name]
        keys = {**_COMMON, **keys}
        unknown = sorted(set(cfg) - set(keys))
        if unknown:
            raise ConfigError(f"{name} reads no key " + ", ".join(
                f"{key} (line {lines[key]})" for key in unknown))
        for key, replaced in _REPLACES.items():
            clash = [k for k in replaced if key in cfg and k in cfg]
            if clash:
                raise ConfigError(f"{key} replaces {', '.join(clash)}")
        p = {}
        for key, default in keys.items():
            kind = default if isinstance(default, type) else type(default)
            if key in cfg:
                p[key] = _value(key, cfg[key], kind)
            else:
                p[key] = None if kind is default else default
        # Overflow surfaces as values the library and Report.add reject.
        with np.errstate(all="ignore"):
            report, ok, summary = runner(p, digest)
        out = cfg.get("output", f"{name}.csv")
        report.write(out)
    # A ResourceError means the config asked for more than a documented cap.
    except (ConfigError, ResourceError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChronosError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    print(f"{name}: {summary} -> {out}")
    return 0 if ok else 1


_PLOT_STYLES = {
    ("w", "residual_norm", "ratio"): ("w", ["residual_norm"], True),
    ("lambda", "n_max", "captured_mass", "err_raw", "err_normalized",
     "seconds"): ("lambda", ["err_raw", "err_normalized"], True),
    ("lambda", "T", "err_vs_oracle", "unitarity_defect", "seconds"):
        ("lambda", ["err_vs_oracle", "unitarity_defect"], True),
    ("z", "q_gap", "exp_gap"): ("z", ["q_gap", "exp_gap"], True),
    ("order", "tail_norm", "classical_bound"):
        ("order", ["tail_norm", "classical_bound"], False),
}


def emit_plot_script(csv_path: str) -> int:
    try:
        with open(csv_path) as fh:
            lines = [(no, l) for no, l in enumerate(fh.read().splitlines(), 1)
                     if l and not l.startswith("#")]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(lines) < 2:
        print("error: CSV has no data rows", file=sys.stderr)
        return 2
    header = tuple(lines[0][1].split(","))
    if header not in _PLOT_STYLES:
        print(f"error: unknown CSV schema {header}", file=sys.stderr)
        return 2
    xcol, ycols, logscale = _PLOT_STYLES[header]
    xi = header.index(xcol) + 1
    ref = None
    if xcol == "w":
        # Reference power law fitted to the residuals the probe fits.
        rows = []
        for no, line in lines[1:]:
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != len(header):
                print(f"error: {csv_path} line {no}: expected {len(header)} "
                      f"numbers, got {line!r}", file=sys.stderr)
                return 2
            rows.append(row)
        data = np.array(rows)
        xs, ys = data[:, xi - 1], data[:, header.index(ycols[0])]
        # Only finite points with w > 0 have a place on log-log axes.
        good = ((xs > 0) & np.isfinite(xs) & np.isfinite(ys)
                & (ys >= CANCELLATION_FLOOR))
        if good.sum() >= 2:
            ref = np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)
    out = csv_path + ".gp"
    with open(out, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write(f"set xlabel '{xcol}'\n")
        if logscale:
            fh.write("set logscale xy\n")
        plots = [
            f"'{csv_path}' skip 2 using {xi}:{header.index(y) + 1} "
            f"with linespoints title '{y}'" for y in ycols]
        if ref is not None:
            slope, logc = ref
            fh.write(f"ref(x) = {float(np.exp(logc))!r}"
                     f" * x**{float(slope)!r}\n")
            plots.append(f"ref(x) with lines dashtype 2 "
                         f"title 'slope {slope:.2f}'")
        fh.write("plot " + ", ".join(plots) + "\n")
    print(f"wrote {out}")
    return 0


def selftest(outdir: str = "selftest_out", seed: int = 12345) -> int:
    """Deterministic invariant battery; CSV outputs carry no wall-clock."""
    os.makedirs(outdir, exist_ok=True)
    configs = {
        "asymptotic.cfg": (
            "experiment = asymptotic\nq.diag = -1, -2\norder = 1\n"
            f"seed = {seed}\noutput = asymptotic.csv\n"),
        "yosida.cfg": (
            "experiment = yosida\nfamily.name = damped_two_level\n"
            f"seed = {seed}\noutput = yosida.csv\n"),
        "film.cfg": (
            "experiment = film-verify\nslots = 4\nbase_dim = 2\n"
            f"seed = {seed}\noutput = film.csv\n"),
        "lambda.cfg": (
            "experiment = lambda-sweep\nfamily.name = two_level_driven\n"
            "sweep.lambdas = 10, 40, 160\ntail_tol = 1e-10\n"
            f"seed = {seed}\noutput = lambda.csv\n"),
        "monte.cfg": (
            "experiment = monte-carlo\nfamily.name = two_level_driven\n"
            "lambda = 20\ntrials = 200\ncount_draws = 20000\n"
            f"seed = {seed}\noutput = monte.csv\n"),
    }
    status = 0
    # Run from the output directory so the config text (and its digest)
    # is independent of where the battery lands.
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for name, text in configs.items():
            with open(name, "w") as fh:
                fh.write(text)
            code = run(name)
            print(f"selftest {name}: exit {code}")
            status = max(status, code)
    finally:
        os.chdir(here)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chronos")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_plot = sub.add_parser("plot", help="emit a gnuplot script for a CSV")
    p_plot.add_argument("csv")
    p_self = sub.add_parser("selftest", help="run the invariant battery")
    p_self.add_argument("--outdir", default="selftest_out")
    p_self.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "plot":
        return emit_plot_script(args.csv)
    return selftest(args.outdir, args.seed)


if __name__ == "__main__":
    sys.exit(main())
