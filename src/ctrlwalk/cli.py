"""Command-line front end: reproducible experiments with persisted records.

Every subcommand reads an optional flat JSON config (flags override file
values, and each value must be what its flag would give), echoes the keys
given into its output record, and writes one JSON ResultRecord (NDJSON for
sweeps) so a stored record can be re-run. Exit codes: 0 success, 2
parameter problem, 3 calibration failure, 4 invariant violation found by a
verify run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .defaults import MC_TRIALS
from .dp import (
    MAX,
    MIN,
    _csv_cutoff,
    as_target,
    boundary_to_csv,
    evolve,
    extract_region,
    solve_extremal,
    value_table_to_csv,
)
from .errors import CalibrationError, InvariantError, ParameterError, as_index
from .lattice import FLOAT, RATIONAL, interval_mass, to_snapshot
from .policies import check_sweep_params, policy_from_json, policy_to_json, sweep_policy

# analysis and montecarlo are imported by the handlers that call them, so a
# command loads only the engines it runs

OUT_DIR_ENV = "CTRLWALK_OUT_DIR"

# policy-string key -> (sweep_policy parameter, type); "n" is the horizon
_POLICY_KEYS = {
    "q": ("q", float),
    "u": ("u_value", float),
    "band": ("band", int),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "K0": ("K0", int),
    "A": ("A", int),
    "T": ("n", int),
    "n": ("n", int),
}

# every flag once, by its config key: add_argument keywords, plus the default
# a subcommand applies where it declares the flag (the echoed config omits it)
_FLAGS = {
    "policy": {"help": "kind:k=v,... or file:PATH"},
    "policy_kind": {},
    "q": {"type": float},
    "n": {"type": int},
    "n_grid": {},
    "start": {"type": int, "default": 0},
    "target": {"help": "site or lo:hi"},
    "mode": {"choices": [FLOAT, RATIONAL], "default": FLOAT},
    "objective": {"choices": [MAX, MIN], "default": MAX},
    "method": {"choices": ["exact", "mc"], "default": "exact"},
    "trials": {"type": int, "default": MC_TRIALS},
    "beta": {"type": float, "default": 0.0},
    "min_n": {"type": int},
    "cutoff": {"type": int},
    "params": {"help": "JSON object with extra policy parameters"},
    "h": {"type": int},
    "delta": {"type": float},
    "ell": {"type": int},
    "band": {"type": int},
    "window": {"type": int},
    "eps": {"type": float},
    "seed": {"type": int},
    "values_csv": {}, "region_json": {}, "boundary_csv": {}, "dump_final": {}, "csv": {},
    "cert": {}, "t_grid": {}, "out": {}, "config": {},
}

# the runs that sample and so need --seed: (command, its method or what)
_SAMPLING_RUNS = {("simulate", None), ("barriers", None), ("exponent", "mc"), ("verify", "lemma0")}
_VARIANT_KEY = {"exponent": "method", "verify": "what"}
# verify targets that replay a calibration certificate -> the analysis function
# that checks it and returns its verdict as "pass"
_CERTIFICATE_CHECKS = {
    "lemma5": "verify_lemma5_certificate", "lemma6": "verify_lemma6_certificate",
}


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_json(path: str):
    """The JSON value a file holds; a key repeated in one object raises ParameterError."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParameterError(f"{path} repeats key {key!r}")
            obj[key] = value
        return obj

    with open(path) as fh:
        return json.load(fh, object_pairs_hook=unique)


def _grid(value):
    """--n-grid and --t-grid: a comma list such as "128,256" as ints; a JSON list as it is."""
    return [int(v) for v in value.split(",") if v] if isinstance(value, str) else value


def _parse_target(text):
    if isinstance(text, str):
        a, sep, b = text.partition(":")
        return as_target((int(a), int(b)) if sep else int(a))
    return as_target(text)


def parse_policy(spec, n: int | None = None):
    """Policy from 'kind:k=v,...' text, 'file:PATH', or an inline JSON dict."""
    if isinstance(spec, dict):
        return policy_from_json(spec)
    if not isinstance(spec, str):
        raise ParameterError(f"cannot parse policy from {spec!r}")
    if spec.startswith("file:"):
        return policy_from_json(_load_json(spec[5:]))
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        k, eq, v = (part.strip() for part in item.partition("="))
        if not eq:
            raise ParameterError(f"bad policy parameter {item!r} in {spec!r}")
        if k not in _POLICY_KEYS:
            raise ParameterError(f"unknown policy parameter {k!r} in {spec!r}")
        name, typ = _POLICY_KEYS[k]
        try:
            params[name] = typ(v)
        except ValueError:
            raise ParameterError(f"policy parameter {k}={v!r} is not {typ.__name__}") from None
    if "q" not in params:
        raise ParameterError(f"policy spec {spec!r} needs q=...")
    q, horizon = params.pop("q"), params.pop("n", n if n is not None else 0)
    check_sweep_params(kind, params)
    return sweep_policy(kind, q, horizon, params)


def _record(command: str, config: dict, payload, provenance) -> dict:
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
        "provenance": provenance,
    }


def _emit(command: str, config: dict, payload, provenance, out: str | None) -> None:
    """Write the record to --out, or to stdout, as it is encoded: indented JSON,
    or one NDJSON line per record for a sweep's payload list. json.dump hands
    the indented text over in chunks, so its whole text is never held."""
    with _open_out(out) if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(payload, list):
            for p in payload:
                fh.write(json.dumps(_record(command, config, p, provenance)) + "\n")
        else:
            json.dump(_record(command, config, payload, provenance), fh, indent=2)
            fh.write("\n")
    if out:
        print(f"wrote {_resolve_out(out)}")


def _open_out(path: str):
    path = _resolve_out(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w")


# ---------------------------------------------------------------------------
# subcommand handlers: take the typed config, return (payload, provenance), and
# verify a pass flag too; exponent's payload is a list, one NDJSON record each


def _cmd_evolve(cfg):
    n, start, mode = cfg["n"], cfg["start"], cfg["mode"]
    policy = parse_policy(cfg["policy"], n=n)
    target = _parse_target(cfg.get("target"))
    d = evolve(policy, n, start, mode=mode)
    p = interval_mass(d, target[0], target[1])
    payload = {
        "n": n,
        "start": start,
        "target": list(target),
        "p": float(p),
        "policy": policy_to_json(policy),
        "flag_never_hit": float(d.flag_totals()[0]),
        "snapshot": to_snapshot(d),
    }
    if mode == RATIONAL:
        payload["p_exact"] = str(p)
    return payload, "exact"


def _cmd_solve(cfg):
    n, q, objective = cfg["n"], cfg["q"], cfg["objective"]
    target = _parse_target(cfg.get("target"))
    keep = bool(cfg.get("values_csv"))  # the value table is only ever read by the CSV export
    if not keep and "cutoff" in cfg:
        raise ParameterError("--cutoff only applies with --values-csv")
    if keep:  # refused before the solve, so no values CSV is opened for it
        _csv_cutoff(n, cfg.get("cutoff"))
    table, bb = solve_extremal(q, n, objective, target=target, keep_values=keep)
    region = extract_region(bb)
    if cfg.get("values_csv"):
        with _open_out(cfg["values_csv"]) as fh:
            value_table_to_csv(table, fh, cfg.get("cutoff"))
    if cfg.get("boundary_csv"):
        with _open_out(cfg["boundary_csv"]) as fh:
            boundary_to_csv(bb, fh)
    if cfg.get("region_json"):
        with _open_out(cfg["region_json"]) as fh:
            json.dump(region, fh)
    payload = {
        "q": q,
        "n": n,
        "objective": objective,
        "target": list(target),
        "value": table.value(0, 0),
        "region": region,
    }
    return payload, "exact"


def _cmd_region(cfg):
    payload, prov = _cmd_solve(cfg)
    return payload["region"], prov


def _cmd_simulate(cfg):
    from .montecarlo import hit_estimate, run_batch

    n, start, seed, trials = cfg["n"], cfg["start"], cfg["seed"], cfg["trials"]
    policy = parse_policy(cfg["policy"], n=n)
    target = _parse_target(cfg.get("target"))
    final = run_batch(policy, n, start=start, trials=trials, seed=seed).final
    est = hit_estimate(final, *target)
    if cfg.get("dump_final"):
        with _open_out(cfg["dump_final"]) as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "final"])
            w.writerows(enumerate(final.tolist()))
    payload = {
        "n": n,
        "start": start,
        "target": list(target),
        "policy": policy_to_json(policy),
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "hits": est.hits,
        "trials": est.trials,
    }
    return payload, {"method": "mc", "seed": seed, "trials": trials}


def _cmd_barriers(cfg):
    from .montecarlo import barrier_diagnostics

    n, seed, trials = cfg["n"], cfg["seed"], cfg["trials"]
    policy = parse_policy(cfg["policy"], n=n)
    st = barrier_diagnostics(
        policy, n, beta_exp=cfg["beta"], trials=trials, seed=seed, start=cfg["start"]
    )
    payload = {
        "n": st.n,
        "beta_exp": st.beta_exp,
        "trials": st.trials,
        "N0": st.N0,
        "radii": list(st.radii),
        "band_starts": list(st.band_starts),
        "policy": policy_to_json(policy),
        "stage_stats": [
            {
                "stage": i + 1,
                "entered_strict": st.entered_strict[i],
                "entered_by_n": st.entered_by_n[i],
                "cond_escape": None if i >= st.N0 - 1 else st.cond_escape[i][0],
                "cond_escape_ci": None if i >= st.N0 - 1 else list(st.cond_escape[i][1:]),
            }
            for i in range(st.N0)
        ],
        "min_cond_escape": st.min_cond_escape,
        "final_at_zero": st.final_at_zero,
        "final_in_window": st.final_in_window,
        "violations_exact": st.violations_exact,
        "violations_window": st.violations_window,
    }
    return payload, {"method": "mc", "seed": seed, "trials": trials}


def _cmd_exponent(cfg):
    from .analysis import exponent_sweep

    method = cfg["method"]
    params = cfg.get("params", {})
    if isinstance(params, str):
        try:
            params = json.loads(params)
        except ValueError as exc:
            raise ParameterError(f"--params is not JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ParameterError(f"--params must be a JSON object, got {params!r}")
    if method == "mc":  # a seed or trials in params wins
        params = {"seed": cfg["seed"], "trials": cfg["trials"], **params}
    records, fit = exponent_sweep(
        cfg["policy_kind"], cfg["q"], _grid(cfg["n_grid"]), method=method,
        params=params, min_n=cfg.get("min_n"),
    )
    fit_payload = {
        "sigma_hat": fit.sigma_hat,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "n_min": fit.n_min,
        "n_max": fit.n_max,
        "min_n_cutoff": fit.min_n,
        "points": [list(p) for p in fit.points],
        "local_slopes": [list(s) for s in fit.local_slopes],
    }
    if cfg.get("csv"):
        with _open_out(cfg["csv"]) as fh:
            w = csv.writer(fh)
            w.writerow(["policy_kind", "q", "n", "p", "method", "ci_low", "ci_high"])
            for r in records:
                w.writerow(
                    [r["policy_kind"], r["q"], r["n"], repr(r["p"]), r["method"],
                     "" if r["ci_low"] is None else repr(r["ci_low"]),
                     "" if r["ci_high"] is None else repr(r["ci_high"])]
                )

    prov = "exact" if method == "exact" else {
        "method": "mc", "seed": params.get("seed"), "trials": params.get("trials"),
    }
    print(f"sigma_hat = {fit.sigma_hat:.6f}  r2 = {fit.r_squared:.6f}", file=sys.stderr)
    return [*records, {"fit": fit_payload}], prov


def _certificate(obj, what: str):
    """What verify <what> --cert checks: the payload of a `calibrate <what>` record,
    or obj itself when it is not a record (holds no "command")."""
    if not (isinstance(obj, dict) and "command" in obj):
        return obj
    config = obj.get("config")
    made = (obj["command"], config.get("what") if isinstance(config, dict) else None)
    if made != ("calibrate", what) or "payload" not in obj:
        name = " ".join(str(v) for v in made if v is not None)
        raise ParameterError(f"--cert holds a {name} record; verify {what} reads the payload "
                             f"of a calibrate {what} record, or a bare certificate")
    return obj["payload"]


def _cmd_verify(cfg):
    what = cfg["what"]
    if what == "lemma0":
        from .montecarlo import lemma0_check

        res = lemma0_check(
            cfg["q"], cfg["h"], cfg["delta"], cfg["ell"], trials=cfg["trials"], seed=cfg["seed"]
        )
        payload = {
            "q": res.q_cap, "h": res.h, "delta": res.delta, "ell": res.ell,
            "trials": res.trials, "estimate": res.estimate,
            "ci_low": res.ci_low, "ci_high": res.ci_high,
            "threshold": res.threshold, "violation": res.violation,
        }
        ok = not res.violation
        return payload, {"method": "mc", "seed": cfg["seed"], "trials": res.trials}, ok

    from . import analysis

    if what in _CERTIFICATE_CHECKS:
        cert = _certificate(_load_json(_resolve_out(cfg["cert"])), what)
        rep = getattr(analysis, _CERTIFICATE_CHECKS[what])(cert)
        ok = rep.pop("pass")
        return {"replay_max_diff": rep.pop("max_diff"), **rep}, "exact", ok

    if what == "reversibility":
        q, band, mode = cfg["q"], cfg["band"], cfg["mode"]
        window = cfg.get("window", band + 8)
        residual = analysis.reversibility_check(analysis.ChainSpec(q, band, mode=mode), window)
        tol = 0.0 if mode == RATIONAL else 1e-15
        ok = residual <= tol
        payload = {
            "q": q, "band": band, "window": window, "mode": mode,
            "residual": float(residual), "tolerance": tol, "pass": bool(ok),
        }
        return payload, "exact", ok

    # heatkernel, the one target left: argparse's choices admit no other
    q, band = cfg["q"], cfg.get("band", 16)
    chain = analysis.ChainSpec(q, band)
    tg = _grid(cfg.get("t_grid", [2**k for k in range(4, 13)]))
    ts = sorted({as_index(t, "time in t_grid") for t in tg})
    if not ts or ts[-1] // 2 not in ts:  # the check compares the top octave's ends
        raise ParameterError(f"t_grid must hold half its largest time, got {ts}")
    prof = analysis.heat_kernel_profile(chain, ts)
    running = dict(prof["running_max"])
    growth = running[ts[-1]] / running[ts[-1] // 2] - 1.0
    ok = growth < 0.01
    payload = {
        "q": q, "band": band, "t_grid": ts, "probes": list(prof["probes"]),
        "per_t": [[t, v] for t, v in prof["per_t"]],
        "bound_estimate": prof["bound_estimate"],
        "top_octave_growth": growth,
        "pass": bool(ok),
    }
    return payload, "exact", ok


# calibrate target -> (its analysis calibrator, the config key of its one input)
_CALIBRATIONS = {"lemma5": ("calibrate_lemma5", "q"), "lemma6": ("calibrate_lemma6", "eps")}


def _cmd_calibrate(cfg):
    from . import analysis

    calibrate, key = _CALIBRATIONS[cfg["what"]]
    return getattr(analysis, calibrate)(cfg[key]), "exact"


# ---------------------------------------------------------------------------
# argument wiring


# subcommand -> (help, positional `what` choices, flags before --seed/--out/--config, handler)
_SUBCOMMANDS = {
    "evolve": ("exact law of the walk under a policy", "", "policy n start target mode",
               _cmd_evolve),
    "solve": ("extremal hit probability over capped controls", "",
              "q n objective target values_csv region_json boundary_csv cutoff", _cmd_solve),
    "region": ("bang-bang region of the extremal control", "",
               "q n objective target boundary_csv", _cmd_region),
    "simulate": ("Monte Carlo hit estimate with CI", "",
                 "policy n start target trials dump_final", _cmd_simulate),
    "exponent": ("hit-probability sweep and power-law fit", "",
                 "policy_kind q n_grid method trials min_n csv params", _cmd_exponent),
    "barriers": ("barrier-entrance diagnostics", "", "policy n beta trials start",
                 _cmd_barriers),
    "verify": ("statistical and structural checks",
               "lemma0 lemma5 lemma6 reversibility heatkernel",
               "q h delta ell trials cert band window mode t_grid", _cmd_verify),
    "calibrate": ("search parameter witnesses", "lemma5 lemma6", "q eps", _cmd_calibrate),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ctrlwalk", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, what, keys, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if what:
            p.add_argument("what", choices=what.split())
        for key in [*keys.split(), "seed", "out", "config"]:  # None marks a flag not given
            p.add_argument("--" + key.replace("_", "-"), **{**_FLAGS[key], "default": None})
    return top


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return next(a.choices for a in parser._actions if a.dest == "command")


def _typed(action: argparse.Action, value):
    """A config value as its flag would give it; ParameterError if the flag cannot."""
    key, typ = action.dest, action.type
    if value is None:
        raise ParameterError(f"config key {key!r} is null")
    if typ is not None and (isinstance(value, bool) or not isinstance(value, (int, typ))):
        kind = "an integer" if typ is int else "a number"  # flags are typed int or float
        raise ParameterError(f"config key {key!r} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config key {key!r} must be one of {action.choices}, got {value!r}")
    return value if typ is None else typ(value)


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[dict, dict]:
    """(echo, cfg). echo holds the keys given, flags over the config file's.
    cfg holds them typed by their flags, over the defaults of the flags the
    subcommand declares; undeclared keys pass through."""
    echo = {}
    if args.config:
        echo = _load_json(args.config)
        if not isinstance(echo, dict):
            raise ParameterError("config file must hold a flat JSON object")
    flags = vars(args).items()
    echo.update((k, v) for k, v in flags if k not in ("command", "config") and v is not None)
    actions = {a.dest: a for a in parser._actions}
    cfg = {k: f["default"] for k, f in _FLAGS.items() if k in actions and "default" in f}
    cfg.update((k, _typed(actions[k], v) if k in actions else v) for k, v in echo.items())
    return echo, cfg


def run_command(argv) -> int:
    """Run one subcommand and return its exit code. The handler computes the
    payload; _emit then streams its record to --out or stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
        return 2 if code not in (0,) else 0

    try:
        command = args.command
        echo, cfg = _merge_config(args, _subcommands(parser)[command])
        out = echo.pop("out", None)
        run = (command, cfg.get(_VARIANT_KEY[command]) if command in _VARIANT_KEY else None)
        if run in _SAMPLING_RUNS and "seed" not in cfg:
            name = " ".join(filter(None, run))
            raise ParameterError(f"--seed is required for {name} (no hidden entropy)")

        payload, prov, *ok = _SUBCOMMANDS[command][3](cfg)  # verify adds a pass flag
        _emit(command, {**echo, "out": out} if out else echo, payload, prov, out)
        if not all(ok):
            print(f"{command} {cfg.get('what', '')}: check FAILED", file=sys.stderr)
            return 4
        return 0
    except (ParameterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: missing or malformed parameter: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
