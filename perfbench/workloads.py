"""The four benchmark workloads.

Each workload makes its config text from the seed (without importing
taxisim, so the orchestrator stays light), gets ready in a fresh interpreter,
makes one measured call into taxisim, and checks that call's outputs.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import random
import time

# Tolerances of the correctness checks, shared with the acceptance gate.
CONSERVATION_RTOL = 1e-10
BUDGET_TOL = 1e-10
RESIDUAL_TOL = 1e-10
SPATIAL_ORDER_RANGE = (1.8, 2.2)
TEMPORAL_ORDER_RANGE = (0.8, 1.2)
# Stated accuracy of refine-mms: the larger of the u and v L2 errors on the
# finest grid at T.  The seed commit reaches 4.26e-6; a scheme change may not
# buy speed by missing this target.
MMS_ERR_TARGET = 4.5e-6

REFINE_N = (32, 64, 128)
INEQ_COUNT = 50
INEQ_P = "1,2"
INEQ_ETA = "0.1,1,10"
RUN_2D_T = 0.002


def config_text(workload: str, seed: int) -> str:
    """Config file for `workload`; the same seed gives the same text."""
    if workload == "run-1d":
        # perturbed_front draws its cosine noise from the config seed
        return ("domain.lx = 10\ngrid.nx = 256\nmodel.l = 2\n"
                "model.epsilon = 0.01\ntime.T = 1\n"
                "init.preset = perturbed_front\ninit.noise_amp = 0.05\n"
                f"seed = {seed}\n")
    if workload == "run-2d":
        rng = random.Random(seed)
        cx, cy = (1.0 + rng.uniform(-0.25, 0.25) for _ in range(2))
        T = RUN_2D_T
        snaps = ",".join(f"{T * k / 4:g}" for k in range(5))
        return ("domain.dim = 2\ndomain.lx = 2\ngrid.nx = 128\nmodel.l = 2\n"
                f"model.epsilon = 0.01\ntime.T = {T:g}\n"
                "init.preset = gaussian_colony\ninit.amplitude = 4\n"
                f"init.width = 0.3\ninit.center = {cx:.17g},{cy:.17g}\n"
                f"diagnostics.sample_interval = {T / 100:g}\n"
                f"output.snapshot_times = {snaps}\noutput.images = on\n"
                f"seed = {seed}\n")
    if workload == "refine-mms":
        # the manufactured solution is fixed: this workload ignores the seed
        return ("grid.nx = 32\nmodel.l = 2\nmodel.epsilon = 0.01\n"
                "time.T = 0.001\ninit.preset = constant\n")
    if workload == "ineq-lab":
        # the seed drives the cosine family of (phi, psi) pairs
        return ("domain.dim = 2\ngrid.nx = 64\nmodel.l = 2\n"
                "model.epsilon = 0.01\ntime.T = 1\ninit.preset = constant\n"
                f"seed = {seed}\n")
    raise ValueError(f"unknown workload {workload!r}")


class Workload:
    """A workload made ready in this interpreter.

    `setup` imports the taxisim module the call needs, loads the config and
    builds what the call starts from, recording per-layer set-up timings in
    `self.setup_layers`; `call` is the measured call; `check` returns a list
    of failure messages."""

    module = "taxisim.experiments"
    top_span = ""

    def __init__(self, config_path: str):
        self.config_path = config_path
        self.setup_layers = {}
        self.cfg = None

    def setup(self) -> None:
        t = time.perf_counter()
        importlib.import_module(self.module)
        self.setup_layers["taxisim.import_s"] = time.perf_counter() - t
        from taxisim.config import load_config
        t = time.perf_counter()
        self.cfg = load_config(self.config_path)
        self.setup_layers["config.load_config_ms"] = (time.perf_counter() - t) * 1e3
        self.prepare()

    def prepare(self) -> None:
        pass

    def call(self, out_dir: str):
        raise NotImplementedError

    def check(self, out_dir: str, result) -> list[str]:
        raise NotImplementedError


class RunWorkload(Workload):
    top_span = "experiments.run_scenario"

    def prepare(self) -> None:
        from taxisim.model import regularize_initial
        from taxisim.presets import make_initial
        cfg = self.cfg
        u0, v0 = make_initial(cfg.preset, cfg.grid(), cfg.preset_params,
                              seed=cfg.seed)
        regularize_initial(u0, v0, cfg.model)

    def call(self, out_dir: str):
        from taxisim.experiments import run_scenario
        return run_scenario(self.cfg, out_dir)

    def check(self, out_dir: str, result) -> list[str]:
        from taxisim.grid import read_field
        errors = []
        if result.manifest["status"] != "success":
            errors.append(f"manifest status {result.manifest['status']!r}")
        rows = read_csv(os.path.join(out_dir, "series.csv"))
        total0 = rows[0]["mass_u"] + rows[0]["mass_v"]
        drift = max(abs(r["mass_u"] + r["mass_v"] - total0) for r in rows) / total0
        if not drift <= CONSERVATION_RTOL:
            errors.append(f"relative drift of int(u+v) {drift:.3e}")
        budget = rows[0]["mass_v"] + BUDGET_TOL
        if not all(r["cumulative_uv"] <= budget for r in rows):
            errors.append("cumulative_uv exceeds the initial int v")
        if not all(r["inf_v"] > 0.0 for r in rows):
            errors.append("v not positive at a sample time")
        final = result.final_state
        mins = [float(final.u.values.min()), float(final.v.values.min())]
        mins += [float(read_field(os.path.join(out_dir, f)).values.min())
                 for f in sorted(os.listdir(out_dir)) if f.endswith(".field")]
        if not min(mins) > 0.0:
            errors.append("u or v not positive in the final state or a snapshot")
        return errors


class RefineWorkload(Workload):
    top_span = "experiments.refinement_study"

    def prepare(self) -> None:
        from taxisim import mms
        # users pay the symbolic source build on every `taxisim refine`
        t = time.perf_counter()
        mms.build_sources(self.cfg.model.l)
        self.setup_layers["mms.build_sources_s"] = time.perf_counter() - t

    def call(self, out_dir: str):
        from taxisim.experiments import refinement_study
        return refinement_study(self.cfg, REFINE_N, out_dir)

    def check(self, out_dir: str, result) -> list[str]:
        errors = []
        if result["status"] != "success":
            errors.append(f"manifest status {result['status']!r}")
        if not result["residual"] < RESIDUAL_TOL:
            errors.append(f"source residual {result['residual']:.3e}")
        lo, hi = SPATIAL_ORDER_RANGE
        if not all(lo <= o <= hi for _, ou, ov in result["spatial_orders"]
                   for o in (ou, ov)):
            errors.append(f"spatial orders {result['spatial_orders']}")
        lo, hi = TEMPORAL_ORDER_RANGE
        if not all(lo <= o <= hi for o in result["temporal_orders"]):
            errors.append(f"temporal orders {result['temporal_orders']}")
        err = mms_err_l2(result)
        if not err <= MMS_ERR_TARGET:
            errors.append(f"finest-grid L2 error {err:.3e} misses "
                          f"{MMS_ERR_TARGET:g}")
        return errors


class IneqWorkload(Workload):
    module = "taxisim.cli"
    top_span = "cli.main"

    def call(self, out_dir: str):
        from taxisim.cli import main
        argv = ["ineq", self.config_path, "--out", out_dir,
                "--count", str(INEQ_COUNT), "--p", INEQ_P, "--eta", INEQ_ETA]
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def check(self, out_dir: str, result) -> list[str]:
        errors = []
        if result != 0:
            errors.append(f"exit code {result}")
        rows = read_csv(os.path.join(out_dir, "ineq_reports.csv"))
        n_sets = len(INEQ_P.split(",")) * (1 + len(INEQ_ETA.split(",")))
        if len(rows) != INEQ_COUNT * n_sets:
            errors.append(f"{len(rows)} report rows, expected "
                          f"{INEQ_COUNT * n_sets}")
        if not all(math.isfinite(r["ratio"]) for r in rows):
            errors.append("a non-finite inequality ratio")
        return errors


CLASSES = {"run-1d": RunWorkload, "run-2d": RunWorkload,
           "refine-mms": RefineWorkload, "ineq-lab": IneqWorkload}


def make(workload: str, config_path: str) -> Workload:
    return CLASSES[workload](config_path)


def mms_err_l2(manifest: dict) -> float:
    """Larger of the u and v L2 errors on the finest grid."""
    _, eu, ev = manifest["errors"][-1]
    return max(eu, ev)


def read_csv(path: str) -> list[dict]:
    """Rows of a numeric CSV as dicts; empty cells are skipped."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            cells = line.strip().split(",")
            rows.append({k: float(c) for k, c in zip(header, cells) if c})
    return rows


def csv_digests(out_dir: str) -> dict:
    """sha256 of every CSV the call wrote, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))
