"""Seeded input generators and output oracles for the four benchmark workloads.

Each workload turns ``(seed, k)`` into the k-th op of a run: one
``chemostat <command>`` call on a generated model file. The op's structural
class (species count, rival kind, cycle regime) rotates with ``k`` so every
seed gets the same mix of classes, while the numbers inside each class are
drawn from the seed. That keeps run-to-run spread small without fixing the
inputs.

Oracles check the written outputs against facts the generator knows
independently of the library: closed-form break-even points
``lambda = b*D/(a-D)`` of Monod species, the lower end ``l`` of a window
rival's growth, the known limit cycles of ``models/quadratic_yield.json``,
and the documented drift bound of ``verify_decrease``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

VERDICT_GAS = "GAS-certified"
VERDICT_WASHOUT = "washout-only"
VERDICTS = {VERDICT_GAS, "locally-stable-uncertified", "unstable", VERDICT_WASHOUT}
EXIT_FOR_VERDICT = {VERDICT_GAS: 0, VERDICT_WASHOUT: 3}  # anything else exits 2

T_END = 500.0
SWEEP_POINTS = 8
REFERENCE_CYCLES = ((7.804, "unstable"), (8.595, "stable"))
DRIFT_TOL = 1e-8  # verify_decrease's default drift bound, per unit time


@dataclass
class Op:
    """One benchmark operation: CLI arguments plus what the oracle knows."""

    command: str
    model: dict
    extra_args: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def argv(self, model_path: str, out_dir: str) -> list[str]:
        return [self.command, "--model", model_path, "--out", out_dir] + self.extra_args

    def setup_models(self) -> list[dict]:
        """Every model this op certifies or integrates, as dicts."""
        if self.command != "sweep":
            return [self.model]
        out = []
        for value in self.meta["values"]:
            data = json.loads(json.dumps(self.model))
            data["constants"][self.meta["constant"]] = value
            out.append(data)
        return out


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _monod_lambda(a: float, b: float, d: float) -> float:
    return b * d / (a - d) if a > d else math.inf


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _winner(rng: random.Random) -> tuple[dict, float]:
    a, b, d = rng.uniform(0.9, 1.3), rng.uniform(0.05, 0.2), rng.uniform(0.45, 0.7)
    yld = [rng.uniform(0.5, 2.0)] if rng.random() < 0.5 else [1.0, rng.uniform(0.5, 4.0)]
    spec = {"label": "winner",
            "monod": {"a": a, "b": b, "Di": d, "yield": {"poly": yld}}}
    return spec, _monod_lambda(a, b, d)


def _monod_with_lambda(rng: random.Random, lam: float) -> tuple[float, float, float]:
    a, b = rng.uniform(0.9, 1.4), rng.uniform(0.05, 0.3)
    return a, b, lam * a / (b + lam)  # D chosen so that b*D/(a-D) == lam


def _rival(rng: random.Random, kind: str, index: int, lam1: float,
           constants: dict, variant: int) -> tuple[dict, dict]:
    """A rival of one of three kinds, and what the oracle needs to know.

    ``structured``: Monod with a constant or linear poly yield, which the
    closed-form routes cover. ``expr_yield``: Monod with an expression-string
    yield bound to a named constant. ``window``: growth ``-(S-l)*(S-u)``
    with uptake ``S``, positive only on ``(l, u)``; its width is log-uniform
    so narrow windows, which a coarse break-even scan can step over, occur.

    ``variant`` fixes, in rotation, whether the rival breaks even above the
    winner (two of three) or below it, and which of two yield shapes it has,
    so every seed gets the same mix of verdicts and trajectory lengths.
    """
    label = f"rival{index}"
    above = variant % 3 != 2
    scale = rng.uniform(1.1, 2.5) if above else rng.uniform(0.5, 0.9)
    alt_shape = (variant // 3) % 2 == 1
    if kind == "window":
        lo = lam1 * scale
        hi = lo + _loguniform(rng, 1e-3, 0.3)
        spec = {"label": label, "growth": f"-(S-{lo!r})*(S-{hi!r})", "uptake": "S"}
        return spec, {"kind": kind, "l": lo, "u": hi}
    a, b, d = _monod_with_lambda(rng, lam1 * scale)
    if kind == "structured":
        yld = {"poly": [1.0, rng.uniform(0.5, 6.0)] if alt_shape else [rng.uniform(0.5, 2.0)]}
    else:
        name = f"c{index}"
        constants[name] = rng.uniform(0.5, 30.0)
        yld = f"1+{name}*S^2" if alt_shape else f"1+{name}*S"
    spec = {"label": label, "monod": {"a": a, "b": b, "Di": d, "yield": yld}}
    return spec, {"kind": kind, "lambda": _monod_lambda(a, b, d),
                  "constant_yield": kind == "structured" and not alt_shape}


RIVAL_KINDS = ("structured", "expr_yield", "window")


def _competition_model(rng: random.Random, kinds: list[str],
                       variant: int) -> tuple[dict, dict]:
    constants: dict = {}
    winner, lam1 = _winner(rng)
    species, rivals = [winner], []
    for j, kind in enumerate(kinds, start=2):
        spec, info = _rival(rng, kind, j, lam1, constants, variant + j)
        species.append(spec)
        rivals.append(info)
    model = {"D": 1.0, "S0": 1.0, "constants": constants, "species": species}
    meta = {"class": "+".join(kinds), "lambda1": lam1, "rivals": rivals,
            "winner_constant_yield": len(winner["monod"]["yield"]["poly"]) == 1}
    return model, meta


# ---------------------------------------------------------------------------
# Generators. Each docstring says why the workload exists.

def gen_analyze(seed: int, k: int) -> Op:
    """Certify one of the run's distinct 2-3 species models per op.

    Certificates, the expression evaluator, ``break_even`` and root finding
    do nearly all the work; integration and cycle search do none. A run's
    models are distinct and every op starts from a cleared break-even cache,
    so no cache is shared across ops, as with separate CLI processes.
    """
    rng = _rng("analyze", seed, k)
    # Two of three ops have one rival, so the median op is a 2-species one
    # whatever the op count; each kind appears equally often in both sizes.
    n_rivals = 2 if k % 3 == 2 else 1
    kinds = [RIVAL_KINDS[(k + k // 3 + j) % 3] for j in range(n_rivals)]
    model, meta = _competition_model(rng, kinds, k // 3)
    return Op("analyze", model, meta=meta)


def gen_sweep(seed: int, k: int) -> Op:
    """Certify one base model at 8 values of a rival's yield constant.

    Same certificate layer as ``analyze``, but the points share their growth
    functions, so the ``break_even`` cache hits, and they run on the
    ``ThreadPoolExecutor`` that ``CHEMOSTAT_THREADS`` sizes.
    """
    rng = _rng("sweep", seed, k)
    model, meta = _competition_model(rng, ["expr_yield"], k)
    lo = rng.uniform(0.5, 3.0)
    values = [lo * 1.8 ** j for j in range(SWEEP_POINTS)]
    meta.update(constant="c2", values=values)
    arg = "constants.c2=" + ",".join(repr(v) for v in values)
    return Op("sweep", model, ["--sweep", arg], meta)


def gen_simulate(seed: int, k: int) -> Op:
    """Integrate a 2-species model from the ``analyze`` family to t=500.

    Exercises the dynamics layer (Lyapunov sampling with adaptive Simpson
    and fixed-step probes) and the adaptive integrator, which no other
    workload measures; ``simulate`` also runs a full ``certify`` for the
    Lyapunov constants. Op 0 is the fixed ``LONG_TRANSIENT`` model.
    """
    if k == 0:
        return Op("simulate", LONG_TRANSIENT, ["--t-end", repr(T_END)],
                  {"class": "reference"})
    rng = _rng("simulate", seed, k)
    model, meta = _competition_model(rng, [RIVAL_KINDS[k % 3]], k // 3)
    return Op("simulate", model, ["--t-end", repr(T_END)], meta)


# Op 0 of ``simulate``: a winning rival with an expression yield whose
# damped oscillation takes about 20 000 accepted steps to t=500 (19-22
# thousand for c2 from 20 to 26). Seeded models of the same class take
# from a few hundred to about as many, and the trajectory held in memory
# sets the run's peak RSS; with this op in every run, that peak no longer
# depends on whether the seed happens to draw a long transient.
LONG_TRANSIENT = {"D": 1.0, "S0": 1.0, "constants": {"c2": 23.0}, "species": [
    {"label": "winner",
     "monod": {"a": 1.123, "b": 0.183, "Di": 0.557, "yield": {"poly": [1.0, 3.06]}}},
    {"label": "rival2",
     "monod": {"a": 1.305, "b": 0.0625, "Di": 0.844, "yield": "1+c2*S"}}]}


# Cycle regimes around models/quadratic_yield.json (Monod a=2, b=0.58, yield
# 1 + c*S^2 with c=46 and D_i=1), checked at their corners with
# ``find_cycles``: below D_i ~ 0.98 the equilibrium is unstable inside one
# stable cycle; a thin band at D_i = 1 +- 3e-4, c ~ 45-46 holds two fixed
# points of the return map (D_i = 0.999 already gives one, 1.001 none);
# above it there are none; at D_i ~ 1.145-1.15 four to six of the ~100 scan
# points no longer return to the section, and each of them integrates to
# t_max (from D_i ~ 1.17 every point does). A run's five models are the
# reference and one of each regime in CYCLE_ROTATION; the run reports the
# fixed points found per class (``fixed_points_by_class``).
CYCLE_REGIMES = {
    "one_cycle": ((0.92, 0.96), (44.0, 48.0)),
    "two_cycles": ((0.9997, 1.0003), (45.3, 46.0)),
    "no_cycle": ((1.03, 1.11), (40.0, 52.0)),
}
CYCLE_ROTATION = ("one_cycle", "partial_no_return", "two_cycles", "no_cycle")
# The partial-no-return model is fixed: over D_i 1.145-1.15 and c 45-47 its
# op took from 3.0 to 5.1 s, not monotonically in either, and as the
# costliest op of a five-model run it would make op_tail_ms a draw of the
# seed. This one has 6 of 101 scan points that do not return and takes
# about 1.3-1.4 times as long as the reference op.
PARTIAL_NO_RETURN = (1.15, 46.0)


def _cycles_model(d_i: float, c: float) -> dict:
    return {"D": 1.0, "S0": 1.0, "species": [
        {"label": "pw", "monod": {"a": 2.0, "b": 0.58, "Di": d_i,
                                  "yield": {"poly": [1.0, 0.0, c]}}}]}


def gen_cycles(seed: int, k: int) -> Op:
    """Scan one single-species model for limit cycles per op.

    The adaptive integrator, the right-hand side and the return map do
    about all the work and certificates none. Op 0 is the reference model
    itself; the others rotate through the cycle regimes with the yield
    coefficient and removal rate drawn from the seed, except for the fixed
    partial-no-return model.
    """
    if k == 0:
        return Op("cycles", _cycles_model(1.0, 46.0),
                  meta={"class": "reference", "reference": True})
    name = CYCLE_ROTATION[(k - 1) % len(CYCLE_ROTATION)]
    if name == "partial_no_return":
        return Op("cycles", _cycles_model(*PARTIAL_NO_RETURN),
                  meta={"class": name, "reference": False})
    d_range, c_range = CYCLE_REGIMES[name]
    rng = _rng("cycles", seed, k)
    return Op("cycles", _cycles_model(rng.uniform(*d_range), rng.uniform(*c_range)),
              meta={"class": name, "reference": False})


# Classes whose model does not depend on the seed.
FIXED_CLASSES = ("reference", "partial_no_return")


GENERATORS = {"analyze": gen_analyze, "sweep": gen_sweep,
              "simulate": gen_simulate, "cycles": gen_cycles}


# ---------------------------------------------------------------------------
# Oracles. Each returns a list of problems (empty when the op is correct)
# and a dict of input properties observed in the outputs.

def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_verdict(verdict: str, meta: dict) -> list[str]:
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    problems = []
    lam1 = meta["lambda1"]
    gas = verdict == VERDICT_GAS
    rivals = meta["rivals"]
    if all(r["kind"] == "structured" and r["constant_yield"] for r in rivals) \
            and meta["winner_constant_yield"]:
        expect = lam1 < 1.0 and all(lam1 < r["lambda"] for r in rivals)
        if gas != expect:
            problems.append(f"constant-yield Monod model: verdict {verdict!r}, "
                            f"closed form says GAS={expect}")
    for r in rivals:
        if gas and r["kind"] == "window" and r["l"] < lam1:
            problems.append(f"GAS although window rival grows on "
                            f"({r['l']:.6g}, {r['u']:.6g}) below lambda1={lam1:.6g}")
        if gas and r["kind"] != "window" and r["lambda"] < lam1:
            problems.append(f"GAS although a Monod rival breaks even at "
                            f"{r['lambda']:.6g} < lambda1={lam1:.6g}")
    return problems


def check_analyze(op: Op, rc: int, out_dir: str, chem) -> tuple[list[str], dict]:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = check_verdict(report["verdict"], op.meta)
    if rc != EXIT_FOR_VERDICT.get(report["verdict"], 2):
        problems.append(f"exit code {rc} does not match verdict {report['verdict']!r}")
    if not math.isclose(report["lambda1"], op.meta["lambda1"], rel_tol=1e-8):
        problems.append(f"lambda1 {report['lambda1']!r} != closed form "
                        f"{op.meta['lambda1']!r}")
    rows = _read_csv(os.path.join(out_dir, "gi_curves.csv"))
    if len(rows) != report["grid"]["size"] + 2:
        problems.append(f"gi_curves.csv has {len(rows)} rows")
    return problems, {"verdict": report["verdict"]}


def check_sweep(op: Op, rc: int, out_dir: str, chem) -> tuple[list[str], dict]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    header, body = rows[0], rows[1:]
    problems = []
    if header[:2] != ["constants.c2", "verdict"] or len(body) != SWEEP_POINTS:
        return [f"unexpected sweep.csv shape: {header}, {len(body)} rows"], {}
    for row, value in zip(body, op.meta["values"]):
        if float(row[0]) != value:
            problems.append(f"row for {row[0]} out of order (expected {value!r})")
        problems += check_verdict(row[1], op.meta)
    return problems, {}


def check_simulate(op: Op, rc: int, out_dir: str, chem) -> tuple[list[str], dict]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    problems = []
    times = [float(r[0]) for r in rows[1:]]
    if times[0] != 0.0 or not math.isclose(times[-1], T_END, rel_tol=1e-12):
        problems.append(f"trajectory spans {times[0]!r}..{times[-1]!r}")
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("trajectory times are not increasing")
    if any(float(v) < 0.0 for r in rows[1:] for v in r[1:]):
        problems.append("negative state in trajectory")
    lyap_path = os.path.join(out_dir, "lyapunov.csv")
    wrote = os.path.exists(lyap_path)
    if wrote:
        lrows = _read_csv(lyap_path)
        header = lrows[0]
        t = [float(r[0]) for r in lrows[1:]]
        for col, name in enumerate(header):
            if not name.startswith("V_"):
                continue
            v = [float(r[col]) for r in lrows[1:]]
            allowed = DRIFT_TOL * (1.0 + abs(v[0]))
            for k in range(1, len(v)):
                dt = t[k] - t[k - 1]
                if dt > 0.0 and (v[k] - v[k - 1]) / dt > allowed:
                    problems.append(f"{name} rises at t={t[k]!r} beyond the "
                                    "verify_decrease drift bound")
                    break
    return problems, {"lyapunov_written": wrote}


def check_cycles(op: Op, rc: int, out_dir: str, chem) -> tuple[list[str], dict]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    with open(os.path.join(out_dir, "cycles.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    problems = []
    model = chem.normalize(chem.model_from_dict(op.model))
    for fp in result["fixed_points"]:
        x = fp["x_section"]
        r, _ = chem.return_map(model, x)
        if abs(r - x) > 1e-5 * max(1.0, abs(x)):
            problems.append(f"fixed point {x!r} returns to {r!r}")
    if op.meta["reference"]:
        got = sorted((round(fp["x_section"], 3), fp["stability"])
                     for fp in result["fixed_points"])
        if got != sorted(REFERENCE_CYCLES):
            problems.append(f"reference model gave {got}, expected "
                            f"{sorted(REFERENCE_CYCLES)}")
    rows = _read_csv(os.path.join(out_dir, "displacement.csv"))[1:]
    no_return = sum(1 for r in rows if r[1] == "nan")
    return problems, {"class": op.meta["class"], "fixed_points": len(result["fixed_points"]),
                      "grid_points": len(rows), "no_return_points": no_return}


CHECKS = {"analyze": check_analyze, "sweep": check_sweep,
          "simulate": check_simulate, "cycles": check_cycles}
