"""The four benchmark workloads: seeded inputs, the call for each operation,
and the independent checks of its output.

Inputs come in cycles. A cycle holds every operation kind of its workload in
fixed proportion; the seed picks values inside it (q, targets, objectives,
MC seeds) and the order of its operations. A run executes whole cycles, so
every run measures the same mix.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

from spans import span_name

EXACT_Q = 0.9
SWEEP_GRID = (512, 1024, 2048, 4096, 8192)
EXACT_KINDS = ("constant", "fast-until-zero", "two-zone", "schedule-localization")

DP_N = 8192
DP_QS = (0.5, 0.9, 0.95)
REPLAY_N = 512

MC_Q = 0.9
MC_N = 1024
MC_TRIALS = 100_000
MC_BAND = 16
MC_POLICIES = ("constant", "two-zone", "fast-until-zero", "schedule-localization", "bang-bang")
MC_SUB_TRIALS = 64
Z_BOUND = 4.5

CLI_N = 256
CLI_TRIALS = 10_000
CLI_QS = (0.5, 0.75, 0.9)
CLI_EPS = (0.2, 0.25)

# A finite-grid fit of an n^-1/2 law reads slightly above 1/2 (0.5006 for
# constant q=0.9 on 512..8192); the ceiling still rejects faster decay.
SIGMA_MAX = 0.51
ORACLE_RTOL = 1e-10
REPLAY_TOL = 1e-10

# Operations whose wrong result is a defect already on record. They stay in
# the mix and count as failed; they alone do not make a run incorrect.
KNOWN_DEFECTS = {
    "left-of-window": "ROADMAP 4a: solve_extremal with a target left of [-n, n] "
    "returns a nonzero value (negative slice stop wraps around)",
}


# ---------------------------------------------------------------------------
# oracles that do not use the package


def trinomial_return(n: int, u: float) -> float:
    """P(S_n = 0) for the walk that stays with probability u every step.

    Sum over k up-steps (= down-steps) of the trinomial law, in logs with
    math.lgamma and a log-sum-exp.
    """
    a = 0.5 * (1.0 - u)
    log_a = math.log(a)
    log_u = math.log(u) if u > 0 else None
    logs = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        if m and log_u is None:
            continue
        logs.append(
            math.lgamma(n + 1) - 2 * math.lgamma(k + 1) - math.lgamma(m + 1)
            + 2 * k * log_a + (m * log_u if m else 0.0)
        )
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def forward_cells(n: int) -> int:
    """Problem cells of one forward evolution to n: sum_t 2 * (2t + 1)."""
    return 2 * n * n


def backward_cells(n: int) -> int:
    """Problem cells of one backward DP to n: n rows of 2n + 1 sites."""
    return n * (2 * n + 1)


def z_ok(p_hat: float, p: float, trials: int) -> bool:
    return abs(p_hat - p) <= Z_BOUND * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


# ---------------------------------------------------------------------------
# inputs


def _exact_cycle(rng):
    kinds = list(EXACT_KINDS)
    rng.shuffle(kinds)
    return [
        {"op": "sweep", "name": f"sweep[{k}]", "policy_kind": k, "q": EXACT_Q,
         "grid": list(SWEEP_GRID), "work": sum(forward_cells(n) for n in SWEEP_GRID)}
        for k in kinds
    ]


def _extremal_cycle(rng):
    n = DP_N
    # q and objective come from fixed multisets so every cycle holds the
    # same mix; memory use grows as q falls, so each cycle has every q
    qs = list(DP_QS) * 2
    objectives = ["max", "min"] * 2
    rng.shuffle(qs)
    rng.shuffle(objectives)
    ops = [
        {"op": "sweep", "name": "sweep[optimal]", "policy_kind": "optimal",
         "q": qs.pop(), "grid": list(SWEEP_GRID),
         "work": sum(backward_cells(m) for m in SWEEP_GRID)}
        for _ in range(2)
    ]
    a, b = rng.randint(1, 64), rng.randint(65, 128)
    c, w = rng.randint(100, 4000), rng.randint(0, 50)
    k, m = rng.randint(1, 200), rng.randint(1, 500)
    r, rw = rng.randint(1, n), rng.randint(0, 500)
    pairs = [
        ("straddle", (-a, b)),
        ("off-centre", (c, c + w)),
        ("partly-outside", (n - k, n + m)),
        ("right-of-window", (n + r, n + r + rw)),
    ]
    mirror_kind = {"right-of-window": "left-of-window"}
    for pair, (kind, (lo, hi)) in enumerate(pairs):
        q, objective = qs.pop(), objectives.pop()
        for role, kd, tgt in (
            ("first", kind, (lo, hi)),
            ("mirror", mirror_kind.get(kind, kind), (-hi, -lo)),
        ):
            ops.append(
                {"op": "solve", "name": f"solve[{kd},{objective},{tgt[0]}:{tgt[1]}]",
                 "target_kind": kd, "pair": pair, "role": role, "q": q, "n": n,
                 "objective": objective, "target": list(tgt), "work": backward_cells(n)}
            )
    rng.shuffle(ops)
    return ops


def _mc_cycle(rng):
    hits = list(MC_POLICIES)
    barriers = list(MC_POLICIES)
    rng.shuffle(hits)
    rng.shuffle(barriers)
    ops = []
    for hp, bp in zip(hits, barriers):  # estimate_hit and barrier_diagnostics alternate
        for kind, policy in (("estimate_hit", hp), ("barrier_diagnostics", bp)):
            op = {"op": kind, "name": f"{kind}[{policy}]", "policy": policy, "n": MC_N,
                  "trials": MC_TRIALS, "seed": rng.getrandbits(63),
                  "sub_base": rng.randint(0, MC_TRIALS - MC_SUB_TRIALS),
                  "sub_trial": rng.randrange(MC_SUB_TRIALS), "work": MC_TRIALS * MC_N}
            if kind == "estimate_hit":
                op["target"] = [-rng.randint(0, 8), rng.randint(0, 8)]
            ops.append(op)
    return ops


def _cli_cycle(rng):
    q = rng.choice(CLI_QS)
    n = CLI_N
    seed = rng.getrandbits(31)
    lo, hi = -rng.randint(0, 8), rng.randint(0, 8)
    band = rng.randint(2, 6)
    eps = rng.choice(CLI_EPS)
    calls = [
        ("evolve", ["evolve", "--policy", f"constant:q={q}", "--n", str(n),
                    "--target", "0", "--out", "evolve.json"], 0),
        ("solve", ["solve", "--q", str(q), "--n", str(n), f"--target={lo}:{hi}",
                   "--out", "solve.json"], 0),
        ("simulate", ["simulate", "--policy", f"two-zone:q={q},band={band}", "--n", str(n),
                      "--trials", str(CLI_TRIALS), "--seed", str(seed), "--out", "simulate.json"], 0),
        ("barriers", ["barriers", "--policy", f"constant:q={q}", "--n", str(n), "--beta", "0",
                      "--trials", str(CLI_TRIALS), "--seed", str(seed + 1),
                      "--out", "barriers.json"], 0),
        ("exponent", ["exponent", "--policy-kind", "constant", "--q", str(q),
                      "--n-grid", "128,256,512", "--out", "exponent.ndjson"], 0),
        ("verify-reversibility", ["verify", "reversibility", "--mode", "rational", "--q", str(q),
                                  "--band", str(band), "--out", "reversibility.json"], 0),
        ("calibrate-lemma6", ["calibrate", "lemma6", "--eps", str(eps),
                              "--out", "calibrate6.json"], 0),
        ("verify-lemma6", ["verify", "lemma6", "--cert", "cert6.json", "--out", "verify6.json"], 0),
        ("invalid-q", ["solve", "--q", "1.5", "--n", str(n)], 2),
    ]
    return [
        {"op": "cli", "name": f"cli[{name}]", "call": name, "argv": argv, "expect": code,
         "q": q, "work": 1}
        for name, argv, code in calls
    ]


CYCLES = {
    "exact": _exact_cycle,
    "extremal": _extremal_cycle,
    "mc": _mc_cycle,
    "cli": _cli_cycle,
}

WORK_UNITS = {"exact": "cells", "extremal": "cells", "mc": "trial-steps", "cli": "calls"}


def cycles(workload: str, seed: int):
    """Endless seeded stream of operation cycles for one workload."""
    rng = random.Random(f"{workload}:{int(seed)}")
    make = CYCLES[workload]
    while True:
        yield make(rng)


def _lattice_bytes(n: int) -> int:
    return 3 * 2 * (2 * n + 1) * 8  # (2, W) float64 mass in, control row, mass out


def _dp_bytes(n: int) -> int:
    return 6 * (2 * n + 3) * 8  # value row, padded row, neighbours, two candidates, mask


def _mc_bytes(trials: int, n: int) -> int:
    stages = 0
    while math.sqrt(n / 2.0 ** (stages + 1)) >= 1.0:  # barrier stages at beta = 0
        stages += 1
    # keys, site, uniforms, control (8 B each), flag (1 B), entrance table
    return trials * (4 * 8 + 1) + trials * stages * 8


def working_set_bytes(workload: str) -> int:
    """Largest array footprint the workload computes on, from its inputs."""
    if workload == "exact":
        return _lattice_bytes(max(SWEEP_GRID))
    if workload == "extremal":
        return _dp_bytes(DP_N)
    if workload == "mc":
        return _mc_bytes(MC_TRIALS, MC_N)
    return max(_lattice_bytes(512), _dp_bytes(CLI_N), _mc_bytes(CLI_TRIALS, CLI_N))


# ---------------------------------------------------------------------------
# set-up and calls


class Context:
    """What a workload builds before it is ready: policies, paths, tracer."""

    def __init__(self, cw, workload: str, root: str, tmp: str):
        self.cw = cw
        self.workload = workload
        self.root = root
        self.tmp = tmp
        self.policies = {}
        self.laws = {}
        self.tracer = None
        if workload == "mc":
            self.policies = {
                kind: cw.sweep_policy(kind, MC_Q, MC_N, {"band": MC_BAND})
                for kind in MC_POLICIES if kind != "bang-bang"
            }
            _, bb = cw.solve_extremal(MC_Q, MC_N, "max", target=0, keep_values=False)
            self.policies["bang-bang"] = bb.as_policy()
            self.family = cw.barrier_family(MC_N, 0.0)

    def call(self, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(span_name(fn), fn, *args, **kwargs)

    def cli_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["CTRLWALK_OUT_DIR"] = self.tmp
        return env


def run_op(op: dict, ctx: Context):
    """Execute one operation; the caller times this call and nothing else."""
    cw = ctx.cw
    kind = op["op"]
    if kind == "sweep":
        return ctx.call(cw.analysis.exponent_sweep, op["policy_kind"], op["q"], op["grid"],
                        method="exact")
    if kind == "solve":
        table, _ = ctx.call(cw.dp.solve_extremal, op["q"], op["n"], op["objective"],
                            tuple(op["target"]), keep_values=False)
        return float(table.value(0, 0))
    if kind == "estimate_hit":
        return ctx.call(cw.montecarlo.estimate_hit, ctx.policies[op["policy"]], op["n"],
                        target=tuple(op["target"]), trials=op["trials"], seed=op["seed"])
    if kind == "barrier_diagnostics":
        return ctx.call(cw.montecarlo.barrier_diagnostics, ctx.policies[op["policy"]], op["n"],
                        beta_exp=0.0, trials=op["trials"], seed=op["seed"])
    if kind == "cli":
        return run_cli(op, ctx)
    raise ValueError(f"unknown operation {kind!r}")


def run_cli(op: dict, ctx: Context):
    """One fresh-process CLI call; in a traced run the child records spans."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "ctrlwalk.cli", *op["argv"]]
    else:
        spans_out = os.path.join(ctx.tmp, "spans.json")
        cmd = [sys.executable, os.path.join(ctx.root, "bench", "cli_child.py"), spans_out,
               *op["argv"]]
    done = subprocess.run(cmd, cwd=ctx.tmp, env=ctx.cli_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return {"code": done.returncode, "stderr": done.stderr.decode(errors="replace")[-400:]}


# ---------------------------------------------------------------------------
# checks: run after the cycle, outside the timed region; each returns the
# names of the checks an operation failed


def check_cycle(ops, results, ctx: Context):
    """List of failed check names per operation (empty list = passed)."""
    fails = [[] for _ in ops]
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, BaseException):
            fails[i].append(f"raised {type(res).__name__}: {res}")
            continue
        fails[i].extend(CHECKS[op["op"]](op, res, ctx))
    if ctx.workload == "extremal":
        _check_mirrors(ops, results, fails)
    return fails


def _check_sweep(op, res, ctx):
    records, fit = res
    bad = []
    if not 0.0 < fit.sigma_hat <= SIGMA_MAX:
        bad.append(f"sigma_hat {fit.sigma_hat:.6f} outside (0, {SIGMA_MAX}]")
    for rec in records:
        if not 0.0 < rec["p"] <= 1.0:
            bad.append(f"p={rec['p']!r} at n={rec['n']} outside (0, 1]")
    if op["policy_kind"] in ("constant", "fast-until-zero"):
        # started on 0, fast-until-zero is lazy at q from step 0: same law
        for rec in records:
            ref = trinomial_return(rec["n"], op["q"])
            if abs(rec["p"] - ref) > ORACLE_RTOL * ref:
                bad.append(f"trinomial oracle at n={rec['n']}: {rec['p']!r} vs {ref!r}")
    if op["policy_kind"] == "optimal":
        cw = ctx.cw
        table, bb = cw.solve_extremal(op["q"], REPLAY_N, "max", keep_values=False)
        dp_value = float(table.value(0, 0))
        replay = cw.hit_probability(bb.as_policy(), REPLAY_N)
        if abs(replay - dp_value) > REPLAY_TOL:
            bad.append(f"bang-bang replay at n={REPLAY_N}: {replay!r} vs DP {dp_value!r}")
        swept = [r["p"] for r in records if r["n"] == REPLAY_N]
        if swept and swept[0] != dp_value:
            bad.append(f"sweep point n={REPLAY_N} {swept[0]!r} != DP {dp_value!r}")
    return bad


def _check_solve(op, value, ctx):
    lo, hi = op["target"]
    n = op["n"]
    if hi < -n or lo > n:
        return [] if value == 0.0 else [f"target outside [-n, n] gave {value!r}, expected 0"]
    return [] if 0.0 <= value <= 1.0 else [f"value {value!r} outside [0, 1]"]


def _check_mirrors(ops, results, fails):
    firsts = {op["pair"]: res for op, res in zip(ops, results)
              if op["op"] == "solve" and op["role"] == "first"}
    for i, (op, res) in enumerate(zip(ops, results)):
        if op["op"] != "solve" or op["role"] != "mirror":
            continue
        other = firsts[op["pair"]]
        if isinstance(res, BaseException) or isinstance(other, BaseException):
            continue
        if res != other:
            lo, hi = op["target"]
            fails[i].append(f"mirror target {-hi}:{-lo} gave {other!r}, this gave {res!r}")


def _sub_batch(op, ctx, family):
    """Counter-based stream contract on a seeded sub-batch of the operation."""
    cw = ctx.cw
    pol = ctx.policies[op["policy"]]
    base, m, n, seed = op["sub_base"], MC_SUB_TRIALS, op["n"], op["seed"]
    whole = cw.run_batch(pol, n, trials=m, seed=seed, family=family, trial_base=base)
    half = m // 2
    a = cw.run_batch(pol, n, trials=half, seed=seed, family=family, trial_base=base)
    b = cw.run_batch(pol, n, trials=m - half, seed=seed, family=family, trial_base=base + half)
    bad = []
    if whole.final.tobytes() != (a.final.tobytes() + b.final.tobytes()):
        bad.append("half-batches do not concatenate bitwise to the whole batch")
    if family is not None:
        joined = a.entrances.tobytes() + b.entrances.tobytes()
        if whole.entrances.tobytes() != joined:
            bad.append("half-batch entrance tables differ from the whole batch")
    i = op["sub_trial"]
    path, entr = cw.sample_path(pol, n, seed=seed, trial=base + i, family=family)
    if int(path[-1]) != int(whole.final[i]):
        bad.append(f"sample_path(trial={base + i}) ends at {int(path[-1])}, "
                   f"run_batch put it at {int(whole.final[i])}")
    if family is not None and entr.tobytes() != whole.entrances[i].tobytes():
        bad.append(f"sample_path(trial={base + i}) entrance times differ from run_batch")
    return bad


def _exact_mass(op, ctx, lo, hi) -> float:
    """Exact P(S_n in [lo, hi]) under the operation's policy; one evolution
    per policy, kept for the rest of the run."""
    law = ctx.laws.get(op["policy"])
    if law is None:
        law = ctx.laws[op["policy"]] = ctx.cw.evolve(ctx.policies[op["policy"]], op["n"])
    return float(ctx.cw.interval_mass(law, lo, hi))


def _check_estimate_hit(op, est, ctx):
    lo, hi = op["target"]
    p = _exact_mass(op, ctx, lo, hi)
    bad = []
    if est.trials != op["trials"] or not z_ok(est.p_hat, p, est.trials):
        bad.append(f"p_hat {est.p_hat!r} beyond z={Z_BOUND} of exact {p!r}")
    return bad + _sub_batch(op, ctx, None)


def _check_barriers(op, st, ctx):
    p0 = _exact_mass(op, ctx, 0, 0)
    bad = []
    if st.violations_exact != 0:
        bad.append(f"violations_exact = {st.violations_exact}")
    if not z_ok(st.final_at_zero / st.trials, p0, st.trials):
        bad.append(f"final_at_zero {st.final_at_zero}/{st.trials} beyond z={Z_BOUND} of {p0!r}")
    return bad + _sub_batch(op, ctx, ctx.family)


def _load(ctx, name):
    with open(os.path.join(ctx.tmp, name)) as fh:
        if name.endswith(".ndjson"):
            return [json.loads(line) for line in fh if line.strip()]
        return json.load(fh)


def _check_cli(op, res, ctx):
    if res["code"] != op["expect"]:
        return [f"exit code {res['code']}, expected {op['expect']}: {res['stderr'].strip()}"]
    if op["expect"] != 0:
        return []
    try:
        return _CLI_PAYLOAD[op["call"]](op, ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"record unreadable: {type(exc).__name__}: {exc}"]


def between_ops(op: dict, ctx: Context) -> None:
    """Untimed step after an operation: the lemma6 round trip's verify call
    reads the bare certificate out of the calibrate record."""
    if op.get("call") == "calibrate-lemma6":
        try:
            cert = _load(ctx, "calibrate6.json")["payload"]
        except (OSError, ValueError, KeyError):
            return  # the calibrate check reports it; verify then fails on its own
        with open(os.path.join(ctx.tmp, "cert6.json"), "w") as fh:
            json.dump(cert, fh)


def start_cycle(ctx: Context) -> None:
    """Untimed: clear the CLI output directory so no record outlives its cycle."""
    for entry in os.listdir(ctx.tmp):
        os.remove(os.path.join(ctx.tmp, entry))


def _in01(x):
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _cli_evolve(op, ctx):
    p = _load(ctx, "evolve.json")["payload"]["p"]
    ref = trinomial_return(CLI_N, op["q"])
    return [] if abs(p - ref) <= ORACLE_RTOL * ref else [f"p {p!r} vs trinomial {ref!r}"]


def _cli_solve(op, ctx):
    v = _load(ctx, "solve.json")["payload"]["value"]
    return [] if _in01(v) else [f"value {v!r} outside [0, 1]"]


def _cli_simulate(op, ctx):
    pl = _load(ctx, "simulate.json")["payload"]
    ok = (pl["trials"] == CLI_TRIALS and _in01(pl["p_hat"])
          and pl["ci_low"] <= pl["p_hat"] <= pl["ci_high"])
    return [] if ok else [f"payload out of range: {pl['p_hat']!r} [{pl['ci_low']}, {pl['ci_high']}]"]


def _cli_barriers(op, ctx):
    pl = _load(ctx, "barriers.json")["payload"]
    ok = pl["violations_exact"] == 0 and pl["N0"] >= 1 and pl["trials"] == CLI_TRIALS
    return [] if ok else [f"violations_exact={pl['violations_exact']} N0={pl['N0']}"]


def _cli_exponent(op, ctx):
    lines = _load(ctx, "exponent.ndjson")
    fit = lines[-1]["payload"]["fit"]
    ps = [line["payload"]["p"] for line in lines[:-1]]
    ok = len(ps) == 3 and all(0.0 < p <= 1.0 for p in ps) and 0.0 < fit["sigma_hat"] <= SIGMA_MAX
    return [] if ok else [f"sweep out of range: p={ps} sigma_hat={fit['sigma_hat']!r}"]


def _cli_reversibility(op, ctx):
    pl = _load(ctx, "reversibility.json")["payload"]
    return [] if pl["pass"] is True and pl["residual"] == 0.0 else [f"residual {pl['residual']!r}"]


def _cli_calibrate(op, ctx):
    pl = _load(ctx, "calibrate6.json")["payload"]
    ok = pl["A"] >= 1 and 0.0 < pl["q"] < 1.0 and all(
        v < pl["eps"] / 2 for d in (pl["escape_by_K"], pl["early_exit_by_K"]) for v in d.values())
    return [] if ok else [f"certificate out of range: A={pl['A']} q={pl['q']}"]


def _cli_verify6(op, ctx):
    pl = _load(ctx, "verify6.json")["payload"]
    ok = pl["replay_max_diff"] == 0.0 and pl["all_below"] is True
    return [] if ok else [f"replay_max_diff={pl['replay_max_diff']!r} all_below={pl['all_below']}"]


_CLI_PAYLOAD = {
    "evolve": _cli_evolve,
    "solve": _cli_solve,
    "simulate": _cli_simulate,
    "barriers": _cli_barriers,
    "exponent": _cli_exponent,
    "verify-reversibility": _cli_reversibility,
    "calibrate-lemma6": _cli_calibrate,
    "verify-lemma6": _cli_verify6,
}

CHECKS = {
    "sweep": _check_sweep,
    "solve": _check_solve,
    "estimate_hit": _check_estimate_hit,
    "barrier_diagnostics": _check_barriers,
    "cli": _check_cli,
}


def known_defect(op: dict):
    """The KNOWN_DEFECTS key an operation exercises, or None."""
    kind = op.get("target_kind")
    return kind if kind in KNOWN_DEFECTS else None
