"""Command-line front end.

Subcommands::

    analyze   certify a model; writes report.json and gi_curves.csv
    simulate  integrate a model; writes trajectory.csv (+ lyapunov.csv)
    cycles    single-species limit-cycle scan; cycles.json + displacement.csv
    ccrit     tabulate the critical yield slope; ccrit.csv
    sweep     certify over a parameter grid; sweep.csv

Exit codes: 0 success (analyze: certified), 1 input error, 2 analyze found
the model uncertified, 3 analyze found washout only, 4 simulate hit a
stiffness failure. Outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import certificates, cycles, dynamics
from .certificates import (VERDICT_GAS, VERDICT_WASHOUT, certify, c_crit,
                           gi_curve, standard_grid)
from .expr import ExprError
from .model import (ChemostatModel, ModelError, NotApplicableError,
                    model_from_dict, model_to_dict, normalize)
from .rk45 import StiffnessError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNCERTIFIED = 2
EXIT_WASHOUT = 3
EXIT_STIFF = 4


@dataclass
class RunConfig:
    command: str
    model_path: str | None
    overrides: list[tuple[str, str]] = field(default_factory=list)
    output_dir: str = "."
    grid: int = certificates.GRID_SIZE
    rtol: float = 1e-8
    t_end: float = 500.0
    echo_model: bool = False
    initial: list[float] | None = None
    sweeps: list[tuple[str, list[str]]] = field(default_factory=list)
    b_values: list[float] | None = None
    x_lo: float | None = None
    x_hi: float | None = None
    cycle_grid: int = 64

    def __post_init__(self):
        if self.grid <= 0:
            raise ValueError(f"--grid must be positive, got {self.grid}")
        if self.rtol <= 0:
            raise ValueError(f"--rtol must be positive, got {self.rtol}")
        if self.t_end <= 0:
            raise ValueError(f"--t-end must be positive, got {self.t_end}")
        if self.cycle_grid <= 2:
            raise ValueError(f"--cycle-grid must exceed 2, got {self.cycle_grid}")


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _set_by_path(data: dict, dotted: str, raw: str) -> None:
    """Patch a model dict at a dotted path, e.g. ``constants.c2`` or
    ``species.0.monod.a``. Values parse as JSON, falling back to text."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = dotted.split(".")
    node = data
    for k, part in enumerate(parts[:-1]):
        key = int(part) if isinstance(node, list) else part
        try:
            nxt = node[key]
        except (KeyError, IndexError, ValueError, TypeError):
            if isinstance(node, dict):
                node[part] = nxt = {}
            else:
                raise ModelError(f"cannot address {dotted!r} in the model")
        node = nxt
    last = parts[-1]
    key = int(last) if isinstance(node, list) else last
    node[key] = value


def _load_model_dict(cfg: RunConfig) -> dict:
    if not cfg.model_path:
        raise ModelError("a model file is required (--model PATH)")
    with open(cfg.model_path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ModelError(f"invalid JSON in {cfg.model_path}: {e}") from e
    for dotted, raw in cfg.overrides:
        _set_by_path(data, dotted, raw)
    return data


def _prepare_model(cfg: RunConfig) -> tuple[ChemostatModel, dict]:
    data = _load_model_dict(cfg)
    model = model_from_dict(data)
    if cfg.echo_model:
        print(json.dumps(model_to_dict(model), indent=2, sort_keys=True))
    return normalize(model), data


# ---------------------------------------------------------------------------
# Commands

def cmd_analyze(cfg: RunConfig) -> int:
    model, _ = _prepare_model(cfg)
    report = certify(model, grid_size=cfg.grid)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_json(os.path.join(cfg.output_dir, "report.json"), report.to_dict())
    pts = standard_grid(cfg.grid)
    header = ["S"] + [f"g{i}" for i in report.retained]
    columns = [gi_curve(model, i, pts) for i in report.retained]
    rows = ([s] + [col[k] for col in columns] for k, s in enumerate(pts))
    _write_csv(os.path.join(cfg.output_dir, "gi_curves.csv"), header, rows)
    if report.verdict == VERDICT_GAS:
        return EXIT_OK
    if report.verdict == VERDICT_WASHOUT:
        return EXIT_WASHOUT
    return EXIT_UNCERTIFIED


def cmd_simulate(cfg: RunConfig) -> int:
    model, _ = _prepare_model(cfg)
    n = model.n_species
    initial = cfg.initial if cfg.initial is not None else [0.5] + [0.1] * n
    if len(initial) != n + 1:
        raise ModelError(f"--initial needs {n + 1} comma-separated values")
    try:
        traj = dynamics.integrate(model, initial, cfg.t_end, rtol=cfg.rtol)
    except StiffnessError as e:
        print(f"stiffness failure: {e}", file=sys.stderr)
        return EXIT_STIFF
    os.makedirs(cfg.output_dir, exist_ok=True)

    report = certify(model, grid_size=cfg.grid)
    lyap = {}
    if report.verdict == VERDICT_GAS and all(s > 0 for s in traj.final_state[1:2]):
        for which in ("wl", "hsu"):
            try:
                constants = certificates.energy_constants(model, report, which)
            except NotApplicableError as e:
                print(f"note: lyapunov.csv has no {which} energy: {e}",
                      file=sys.stderr)
                continue
            lyap[which] = _try_samples(model, traj, which, constants)
    lyap = {k: v for k, v in lyap.items() if v is not None}

    with open(os.path.join(cfg.output_dir, "trajectory.csv"), "w",
              encoding="utf-8", newline="") as fh:
        traj.write_csv(fh)
    if lyap:
        header = ["t"]
        for name in sorted(lyap):
            header += [f"V_{name}", f"Vdot_{name}"]
        times = lyap[sorted(lyap)[0]].times
        rows = []
        for k, t in enumerate(times):
            row = [t]
            for name in sorted(lyap):
                row += [lyap[name].V[k], lyap[name].Vdot_closed[k]]
            rows.append(row)
        _write_csv(os.path.join(cfg.output_dir, "lyapunov.csv"), header, rows)
    return EXIT_OK


def _try_samples(model, traj, which, constants):
    # Trajectories that leave the energy function's domain (S outside (0,1)
    # early on, or an extinct winner) simply skip the lyapunov output.
    try:
        return dynamics.lyapunov_samples(model, traj, which, constants)
    except ModelError:
        return None


def cmd_ccrit(cfg: RunConfig) -> int:
    bs = cfg.b_values
    if bs is None:
        bs = [k / 100.0 for k in range(101)]
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.output_dir, "ccrit.csv"), ["b", "c_crit"],
               ([b, c_crit(b)] for b in bs))
    return EXIT_OK


def cmd_cycles(cfg: RunConfig) -> int:
    model, _ = _prepare_model(cfg)
    result = cycles.find_cycles(model, x_lo=cfg.x_lo, x_hi=cfg.x_hi,
                                n_grid=cfg.cycle_grid)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_json(os.path.join(cfg.output_dir, "cycles.json"), {
        "schema_version": certificates.SCHEMA_VERSION,
        "lambda": result.lam,
        "x_star": result.x_star,
        "fixed_points": [
            {"x_section": c.x_section, "period": c.period,
             "stability": c.stability, "multiplier": c.multiplier,
             "crossings": list(c.crossings)}
            for c in result.fixed_points
        ],
    })
    _write_csv(os.path.join(cfg.output_dir, "displacement.csv"),
               ["x", "x_return", "period"],
               ([x, math.nan if r is None else r, math.nan if p is None else p]
                for (x, r, p) in result.displacement))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweeps or any(not values for _, values in cfg.sweeps):
        print("sweep grid is empty (use --sweep path=v1,v2,...)", file=sys.stderr)
        return EXIT_INPUT
    base = _load_model_dict(cfg)
    keys = [k for k, _ in cfg.sweeps]
    combos = list(itertools.product(*[values for _, values in cfg.sweeps]))

    def run(combo):
        data = json.loads(json.dumps(base))
        for key, raw in zip(keys, combo):
            _set_by_path(data, key, raw)
        model = normalize(model_from_dict(data))
        return certify(model, grid_size=cfg.grid)

    reports = [run(combo) for combo in combos]

    n = len(reports[0].lambdas)
    header = list(keys) + ["verdict"]
    for i in range(2, n + 1):
        header += [f"gap{i}_lower", f"gap{i}_upper", f"gap{i}_feasible"]
    rows = []
    for combo, report in zip(combos, reports):
        row: list = list(combo) + [report.verdict]
        by_index = {g.species_index: g for g in report.gaps}
        for i in range(2, n + 1):
            g = by_index.get(i)
            if g is None:
                row += ["", "", ""]
            else:
                row += [g.lower_bound, g.upper_bound, str(g.feasible).lower()]
        rows.append(row)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.output_dir, "sweep.csv"), header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemostat",
        description="Competition-model certification, simulation, and "
                    "cycle detection")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model=True, grid=False):
        if needs_model:
            p.add_argument("--model", required=True, help="model JSON file")
            p.add_argument("--set", action="append", default=[],
                           metavar="PATH=VALUE",
                           help="patch the model dict (repeatable), e.g. "
                                "--set constants.c2=30")
            p.add_argument("--echo-model", action="store_true",
                           help="print the parsed model as JSON")
        p.add_argument("--out", default=".", help="output directory")
        if grid:
            p.add_argument("--grid", type=int, default=certificates.GRID_SIZE,
                           help="certificate grid size")

    common(sub.add_parser("analyze", help="run the stability certificates"),
           grid=True)
    p_sim = sub.add_parser("simulate", help="integrate the model")
    common(p_sim, grid=True)
    p_sim.add_argument("--rtol", type=float, default=1e-8,
                       help="integration relative tolerance")
    p_sim.add_argument("--t-end", type=float, default=500.0,
                       help="integration horizon")
    p_sim.add_argument("--initial", help="comma-separated S,x1,...,xN")
    p_cyc = sub.add_parser("cycles", help="limit-cycle scan (single species)")
    common(p_cyc)
    p_cyc.add_argument("--x-lo", type=float, default=None)
    p_cyc.add_argument("--x-hi", type=float, default=None)
    p_cyc.add_argument("--cycle-grid", type=int, default=64)
    p_cc = sub.add_parser("ccrit", help="tabulate the critical yield slope")
    common(p_cc, needs_model=False)
    p_cc.add_argument("--b", help="comma-separated half-saturation values")
    p_sw = sub.add_parser("sweep", help="certify over a parameter grid")
    common(p_sw, grid=True)
    p_sw.add_argument("--sweep", action="append", default=[],
                      metavar="PATH=V1,V2,...",
                      help="sweep a model entry over values (repeatable; "
                           "grid is the cartesian product)")
    return parser


def _parse_kv(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ModelError(f"expected PATH=VALUE, got {item!r}")
    key, _, value = item.partition("=")
    return key.strip(), value


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        model_path=getattr(args, "model", None),
        output_dir=args.out,
        echo_model=getattr(args, "echo_model", False),
        cycle_grid=getattr(args, "cycle_grid", 64),
        x_lo=getattr(args, "x_lo", None),
        x_hi=getattr(args, "x_hi", None),
        **{k: getattr(args, k) for k in ("grid", "rtol", "t_end")
           if hasattr(args, k)},
    )
    for item in getattr(args, "set", []):
        cfg.overrides.append(_parse_kv(item))
    for item in getattr(args, "sweep", []):
        key, value = _parse_kv(item)
        cfg.sweeps.append((key, [v for v in value.split(",") if v != ""]))
    if getattr(args, "initial", None):
        cfg.initial = [float(v) for v in args.initial.split(",")]
    if getattr(args, "b", None):
        cfg.b_values = [float(v) for v in args.b.split(",")]
    return cfg


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "cycles": cmd_cycles,
    "ccrit": cmd_ccrit,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ModelError, ExprError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
