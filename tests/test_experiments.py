import dataclasses
import hashlib
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from taxisim import (
    Domain,
    Grid,
    ScalarField,
    experiments,
    parse_config,
    read_field,
)
from taxisim.experiments import (
    continuation_children,
    epsilon_continuation,
    l_sweep,
    refinement_study,
    run_scenario,
    write_pgm,
)
from taxisim.diagnostics import record_columns
from taxisim.presets import make_initial
from taxisim.stepper import StepFailure


def small_config(**overrides):
    text = """
grid.nx = 32
model.l = 2
model.epsilon = 0.01
time.T = 0.05
init.preset = constant
diagnostics.sample_interval = 0.01
"""
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    return parse_config(text)


def check_manifest(out_dir):
    """Every listed file exists, every produced file is listed, and none is
    listed twice."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    listed = set(manifest["files"])
    assert len(listed) == len(manifest["files"])
    on_disk = {f for f in os.listdir(out_dir)
               if os.path.isfile(os.path.join(out_dir, f))}
    assert listed == on_disk
    return manifest


class TestPresets:
    def test_constant(self):
        g = Grid(Domain((1.0,)), (8,))
        u0, v0 = make_initial("constant", g, {"a": 1.0, "b": 1.0})
        assert np.all(u0.values == 1.0) and np.all(v0.values == 1.0)

    def test_gaussian_peak_at_center(self):
        g = Grid(Domain((1.0, 1.0)), (17, 17))  # odd: a cell sits at center
        u0, v0 = make_initial("gaussian_colony", g,
                              {"amplitude": 1.0, "width": 0.1, "v": 2.0,
                               "center": None})
        idx = np.unravel_index(np.argmax(u0.values), u0.values.shape)
        assert idx == (8, 8)
        assert u0.values.max() == pytest.approx(1.0, abs=1e-3)
        assert np.all(v0.values == 2.0)

    def test_perturbed_front_deterministic_and_bounded(self):
        g = Grid(Domain((4.0,)), (64,))
        params = {"base": 1.0, "noise_amp": 0.05, "v": 1.0}
        u0, _ = make_initial("perturbed_front", g, params, seed=7)
        u0b, _ = make_initial("perturbed_front", g, params, seed=7)
        assert np.array_equal(u0.values, u0b.values)
        assert np.abs(u0.values - 1.0).max() <= 0.05 + 1e-12
        u0c, _ = make_initial("perturbed_front", g, params, seed=8)
        assert not np.array_equal(u0.values, u0c.values)

    def test_checker_levels(self):
        g = Grid(Domain((1.0,)), (16,))
        u0, _ = make_initial("checker", g, {"lo": 0.5, "hi": 1.5, "tiles": 4})
        assert set(np.unique(u0.values)) == {0.5, 1.5}

    def test_checker_integer_levels(self):
        # integer levels need a cast, which ScalarField(copy=False) allows
        g = Grid(Domain((1.0, 1.0)), (8, 8))
        u0, v0 = make_initial("checker", g, {"lo": 1, "hi": 2, "v": 3})
        assert u0.values.dtype == v0.values.dtype == np.float64
        assert set(np.unique(u0.values)) == {1.0, 2.0}

    def test_unknown_preset(self):
        g = Grid(Domain((1.0,)), (8,))
        with pytest.raises(ValueError):
            make_initial("vortex", g, {})


class TestWritePgm:
    def test_header_and_size_2d(self, tmp_path):
        g = Grid(Domain((1.0, 1.0)), (6, 4))
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.uniform(0.0, 1.0, (6, 4)))
        path = tmp_path / "f.pgm"
        lo, hi = write_pgm(path, f)
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"6 4"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255" and len(pixels) == 24
        assert lo == f.values.min() and hi == f.values.max()

    def test_constant_field_scales_to_zero(self, tmp_path):
        g = Grid(Domain((1.0,)), (5,))
        path = tmp_path / "c.pgm"
        write_pgm(path, ScalarField.full(g, 2.0))
        pixels = path.read_bytes().split(b"\n", 3)[3]
        assert pixels == bytes(5)

    def test_full_range_used(self, tmp_path):
        g = Grid(Domain((1.0,)), (3,))
        path = tmp_path / "r.pgm"
        write_pgm(path, ScalarField(g, np.array([1.0, 2.0, 3.0])))
        pixels = path.read_bytes().split(b"\n", 3)[3]
        assert pixels[0] == 0 and pixels[2] == 255


class TestRunScenario:
    def test_row_count_and_conservation(self, tmp_path):
        cfg = small_config()
        res = run_scenario(cfg, str(tmp_path))
        # floor(T / interval) + 1 sampled records
        assert len(res.records) == 6
        lines = (tmp_path / "series.csv").read_text().strip().split("\n")
        assert len(lines) == 7
        cols = lines[0].split(",")
        iu, iv = cols.index("mass_u"), cols.index("mass_v")
        total0 = 2.0 + cfg.model.epsilon  # initial u is shifted by epsilon
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[iu]) + float(parts[iv]) \
                == pytest.approx(total0, abs=1e-10)
        assert res.manifest["status"] == "success"
        assert res.final_state.t == pytest.approx(0.05)

    def test_manifest_sound_and_complete(self, tmp_path):
        cfg = small_config(**{"output.snapshot_times": "0,0.05",
                              "output.images": "on"})
        run_scenario(cfg, str(tmp_path))
        manifest = check_manifest(str(tmp_path))
        snaps = [f for f in manifest["files"] if f.endswith(".field")]
        assert sorted(snaps) == ["u_0.05.field", "u_0.field",
                                 "v_0.05.field", "v_0.field"]
        pgms = [f for f in manifest["files"] if f.endswith(".pgm")]
        assert len(pgms) == 4
        for p in pgms:
            assert "min" in manifest["images"][p]

    def test_snapshot_matches_final_state(self, tmp_path):
        cfg = small_config(**{"output.snapshot_times": "0.05"})
        res = run_scenario(cfg, str(tmp_path))
        back = read_field(tmp_path / "u_0.05.field")
        assert np.array_equal(back.values, res.final_state.u.values)

    def test_rerun_bit_identical(self, tmp_path):
        cfg = parse_config("""
grid.nx = 32
model.l = 2
model.epsilon = 0.01
time.T = 0.02
init.preset = perturbed_front
init.noise_amp = 0.05
diagnostics.sample_interval = 0.01
seed = 5
""")
        run_scenario(cfg, str(tmp_path / "a"))
        run_scenario(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "series.csv").read_bytes() \
            == (tmp_path / "b" / "series.csv").read_bytes()

    @pytest.mark.parametrize("T, interval, times", [
        (0.01, 0.003, [0.0, 0.003, 0.006, 0.009000000000000001, 0.01]),
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),  # 3 * 0.1 lands one ulp past T
        # 3 * 0.1 lands within 1e-9 before T: one event, at T
        (0.3000000001, 0.1, [0.0, 0.1, 0.2, 0.3000000001]),
    ])
    def test_state_at_T_recorded_once(self, tmp_path, T, interval, times):
        cfg = parse_config(f"""
grid.nx = 8
model.l = 2
model.epsilon = 0.01
time.T = {T}
init.preset = constant
diagnostics.sample_interval = {interval}
""")
        res = run_scenario(cfg, str(tmp_path))
        assert res.manifest["status"] == "success"
        assert [rec.t for rec in res.records] == times
        assert res.final_state.t == T
        lines = (tmp_path / "series.csv").read_text().strip().split("\n")
        assert len(lines) == len(times) + 1

    @pytest.mark.parametrize("T, snapshot_times", [
        (0.5, "0.3"),  # 3 * 0.1 lands one ulp past the snapshot time
        (0.3, "0.1,0.2,0.3"),  # and one ulp past T
    ])
    def test_snapshot_written_once(self, tmp_path, monkeypatch, T,
                                   snapshot_times):
        written = []
        real = experiments.write_field

        def counting_write_field(path, field):
            written.append(os.path.basename(path))
            return real(path, field)

        monkeypatch.setattr(experiments, "write_field", counting_write_field)
        cfg = parse_config(f"""
grid.nx = 8
model.l = 2
model.epsilon = 0.01
time.T = {T}
init.preset = constant
diagnostics.sample_interval = 0.1
output.snapshot_times = {snapshot_times}
""")
        res = run_scenario(cfg, str(tmp_path))
        assert res.manifest["status"] == "success"
        expected = [f"{name}_{t:g}.field" for t in cfg.snapshot_times
                    for name in "uv"]
        assert written == expected
        assert check_manifest(str(tmp_path))["files"] \
            == ["series.csv", *expected, "manifest.json"]
        assert [rec.t for rec in res.records] \
            == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5][:round(T / 0.1) + 1]

    def test_step_failure_recorded(self, tmp_path):
        cfg = small_config(**{"init.a": 1e9, "init.b": 1e-6,
                              "time.dt_min": 1e-3})
        res = run_scenario(cfg, str(tmp_path))
        assert res.manifest["status"] == "step_failure"
        assert "error" in res.manifest
        manifest = check_manifest(str(tmp_path))  # partial outputs retained
        assert "series.csv" in manifest["files"]

    @pytest.mark.parametrize("exc_type, status", [
        (RuntimeError, "error"),
        (KeyboardInterrupt, "interrupted"),
    ])
    def test_crash_finalizes_manifest(self, tmp_path, monkeypatch, exc_type,
                                      status):
        real = experiments.full_record
        calls = []

        def failing_record(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise exc_type("disk on fire")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "full_record", failing_record)
        cfg = small_config(**{"output.snapshot_times": "0"})
        with pytest.raises(exc_type):
            run_scenario(cfg, str(tmp_path))
        manifest = check_manifest(str(tmp_path))
        assert manifest["status"] == status
        assert "finished" in manifest
        if exc_type is RuntimeError:
            assert manifest["error"] == "RuntimeError: disk on fire"
        else:
            assert "error" not in manifest
        assert manifest["files"][:2] == ["series.csv", "u_0.field"]
        # the header and the two records taken before the third raised
        text = (tmp_path / "series.csv").read_text()
        assert text.endswith("\n")
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0] == record_columns(cfg.p_list, cfg.q_alpha)
        assert [row[0] for row in rows[1:]] == ["0", "0.01"]
        assert len({len(row) for row in rows}) == 1


class TestEpsilonContinuation:
    def test_two_values_one_row(self, tmp_path):
        cfg = small_config()
        man = epsilon_continuation(cfg, [0.1, 0.05], str(tmp_path))
        lines = (tmp_path / "continuation.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        eps, eps_next = lines[1].split(",")[:2]
        assert float(eps) == 0.1 and float(eps_next) == 0.05
        assert man["children"] == ["eps_0.1", "eps_0.05"]
        for child in man["children"]:
            child_man = check_manifest(str(tmp_path / child))
            assert child_man["status"] == "success"

    def test_child_failure_leaves_manifest(self, tmp_path):
        cfg = small_config(**{"time.dt_min": 1})
        with pytest.raises(StepFailure, match="child run eps_0.1 failed"):
            epsilon_continuation(cfg, [0.1, 0.05], str(tmp_path))
        manifest = check_manifest(str(tmp_path))
        assert manifest["status"] == "child_failure"
        assert manifest["failed_children"] == ["eps_0.1", "eps_0.05"]
        assert manifest["child_errors"] == {
            child: check_manifest(str(tmp_path / child))["error"]
            for child in ("eps_0.1", "eps_0.05")}
        assert manifest["children"] == ["eps_0.1", "eps_0.05"]
        assert manifest["files"] == ["manifest.json"]
        assert "finished" in manifest

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_child_spares_siblings(self, tmp_path, jobs):
        # a regular file where eps_0.05's directory belongs makes that child
        # raise; its siblings still finish and the study records the failure
        (tmp_path / "eps_0.05").write_text("")
        with pytest.raises(StepFailure, match="child run eps_0.05 failed"):
            epsilon_continuation(small_config(), [0.1, 0.05, 0.025],
                                 str(tmp_path), jobs=jobs)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["status"] == "child_failure"
        assert manifest["failed_children"] == ["eps_0.05"]
        assert manifest["files"] == ["manifest.json"]
        for child in ("eps_0.1", "eps_0.025"):
            assert check_manifest(str(tmp_path / child))["status"] == "success"

    def test_rejects_nondecreasing(self, tmp_path):
        cfg = small_config()
        with pytest.raises(ValueError):
            epsilon_continuation(cfg, [0.05, 0.1], str(tmp_path))
        with pytest.raises(ValueError):
            epsilon_continuation(cfg, [0.1], str(tmp_path))


    def test_snapshot_label_shared_with_T(self):
        # the continuation adds T to the snapshot times; 0.3 and 0.30000001
        # would both write u_0.3.field in every child
        cfg = dataclasses.replace(small_config(), T=0.30000001,
                                  sample_interval=0.1, snapshot_times=(0.3,))
        with pytest.raises(ValueError, match="^eps: output.snapshot_times: "
                                             "0.3 and 0.30000001 share"):
            continuation_children(cfg, [0.1, 0.05])


class TestRecorded:
    @pytest.mark.parametrize("under, exc_type", [
        ("", FileExistsError), ("sub", NotADirectoryError)])
    def test_out_dir_naming_a_file(self, tmp_path, under, exc_type):
        # the error os.makedirs raised, raised first and saying why
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = str(afile / under) if under else str(afile)
        for call in (lambda: experiments.recorded(out,
                                                  small_config()).__enter__(),
                     lambda: run_scenario(small_config(), out)):
            with pytest.raises(exc_type, match="not a directory") as exc:
                call()
            assert exc.value.filename == out
        assert afile.read_text() == "keep"
        assert os.listdir(tmp_path) == ["afile"]

    def test_terminated(self, tmp_path):
        with pytest.raises(experiments.Terminated):
            with experiments.recorded(str(tmp_path), small_config()):
                raise experiments.Terminated("signal 15")
        manifest = check_manifest(str(tmp_path))
        assert manifest["status"] == "terminated" and "finished" in manifest

    def test_failed_write_keeps_last_manifest(self, tmp_path, monkeypatch):
        # the final write stops halfway; the running manifest stays whole
        dump = experiments.json.dump
        calls = []

        def broken_dump(obj, fh, **kwargs):
            calls.append(obj["status"])
            if len(calls) == 1:
                return dump(obj, fh, **kwargs)
            fh.write('{"status": "succ')
            raise OSError("disk full")

        monkeypatch.setattr(experiments.json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            with experiments.recorded(str(tmp_path), small_config()):
                pass
        assert calls == ["running", "success"]
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["status"] == "running" and "finished" not in manifest

    @pytest.mark.parametrize("exc_type", [ValueError, experiments.Terminated,
                                          None])
    def test_failed_final_write_keeps_block_exception(self, tmp_path,
                                                       monkeypatch, exc_type):
        # the block's own exception propagates, not the write's OSError (a
        # block that succeeded gets the OSError); no partial .tmp is left
        dump = experiments.json.dump
        calls = []

        def broken_dump(obj, fh, **kwargs):
            calls.append(obj["status"])
            if len(calls) == 1:
                return dump(obj, fh, **kwargs)
            fh.write('{"status": "')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiments.json, "dump", broken_dump)
        with pytest.raises(exc_type or OSError,
                           match="boom" if exc_type else "No space") as info:
            with experiments.recorded(str(tmp_path), small_config()):
                if exc_type:
                    raise exc_type("boom")
        assert type(info.value) is (exc_type or OSError)
        assert os.listdir(tmp_path) == ["manifest.json"]
        assert check_manifest(str(tmp_path))["status"] == "running"

    def test_write_leaves_no_temporary(self, tmp_path):
        with experiments.recorded(str(tmp_path), small_config()):
            assert os.listdir(tmp_path) == ["manifest.json"]
        assert check_manifest(str(tmp_path))["status"] == "success"


class TestRefinementStudy:
    def test_small_study(self, tmp_path):
        cfg = parse_config("""
grid.nx = 16
model.l = 2
model.epsilon = 0.01
time.T = 0.02
init.preset = constant
""")
        man = refinement_study(cfg, [16, 32], str(tmp_path))
        assert man["residual"] < 1e-10
        assert len(man["spatial_orders"]) == 1
        _, ou, ov = man["spatial_orders"][0]
        assert ou > 1.5 and ov > 1.5
        assert len(man["temporal_orders"]) == 1
        assert man["temporal_orders"][0] > 0.7
        check_manifest(str(tmp_path))
        assert (tmp_path / "refine.csv").exists()
        assert (tmp_path / "temporal.csv").exists()

    @pytest.mark.parametrize("l", [3.0, 4.0])
    def test_temporal_orders_at_high_l(self, tmp_path, l):
        # h^2/80 lies above the forced run's CFL bound from l = 3 on: runs
        # at dt0 and dt0/2 took the same steps, and log2 of their zero
        # difference raised
        cfg = parse_config(f"""
grid.nx = 16
model.l = {l}
model.epsilon = 0.01
time.T = 0.02
init.preset = constant
""")
        man = refinement_study(cfg, [16, 32], str(tmp_path))
        assert man["status"] == "success"
        assert all(d > 0.0 for d in man["temporal_diffs"])
        (order,) = man["temporal_orders"]
        assert 0.8 <= order <= 1.2

    # sha256 of refine.csv and temporal.csv, recorded at 8f502d8, where each
    # of the six forced runs went through run_until on its own
    GOLDEN = {
        1.0: ("fcf8a9cc316d51810cad7f12858967016f5075c9754be54ca1fec1e92d67c706",
              "b739f79eae78c183919161e4f7c8b1762a3c58b112ac85132d412ab7aa2f9c3a"),
        2.0: ("ba7e5d6a0b4024f155c973626547310e06dce286318dd0a985fdb595f9634c40",
              "4cf550e840c022f04079815e1891f19cab69bbfced38584d2e15bace3223100a"),
    }

    @pytest.mark.parametrize("l", GOLDEN)
    def test_golden_csv_bytes(self, tmp_path, l):
        cfg = parse_config(f"""
grid.nx = 16
model.l = {l}
model.epsilon = 0.01
time.T = 0.02
init.preset = constant
""")
        refinement_study(cfg, [16, 32], str(tmp_path))
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("refine.csv", "temporal.csv"))
        assert got == self.GOLDEN[l]

    @pytest.mark.parametrize("T, ok", [(1e-13, False), (8e-6, False),
                                       (1.2e-5, True)])
    def test_T_too_short_for_temporal_study(self, tmp_path, T, ok):
        # n = 16: dt0 = 0.4 h^2 / 80 = 1.953e-05.  For T <= dt0/2 the runs
        # at dt0 and dt0/2 took identical steps, and the study ended in a
        # ZeroDivisionError or a math domain error with an `error` manifest
        cfg = parse_config(f"""
grid.nx = 16
model.l = 2
model.epsilon = 0.01
time.T = {T!r}
init.preset = constant
""")
        out = tmp_path / "out"
        if ok:
            man = refinement_study(cfg, [16, 32], str(out))
            assert man["status"] == "success"
            assert all(d > 0.0 for d in man["temporal_diffs"])
            return
        with pytest.raises(ValueError, match=r"^time\.T = .* dt0 = 1\.953e-05$"):
            refinement_study(cfg, [16, 32], str(out))
        assert not out.exists()

    def test_rejects_non_doubling(self, tmp_path):
        cfg = small_config()
        with pytest.raises(ValueError):
            refinement_study(cfg, [16, 24], str(tmp_path))

    @pytest.mark.parametrize("residual, exc_type, status", [
        (1e-6, RuntimeError, "error"),
        (KeyboardInterrupt, KeyboardInterrupt, "interrupted"),
    ])
    def test_failure_finalizes_manifest(self, tmp_path, monkeypatch, residual,
                                        exc_type, status):
        def residual_check(l):
            if residual is KeyboardInterrupt:
                raise KeyboardInterrupt
            return residual

        monkeypatch.setattr(experiments.mms, "residual_check", residual_check)
        with pytest.raises(exc_type):
            refinement_study(small_config(), [16, 32], str(tmp_path))
        manifest = check_manifest(str(tmp_path))
        assert manifest["status"] == status
        assert manifest["files"] == ["manifest.json"]
        assert "finished" in manifest and "started" in manifest
        if exc_type is RuntimeError:
            assert manifest["error"].startswith(
                "RuntimeError: manufactured source residual 1.000e-06")
        else:
            assert "error" not in manifest


class TestLSweep:
    def test_single_l(self, tmp_path):
        cfg = small_config()
        man = l_sweep(cfg, [2.5], str(tmp_path))
        assert man["status"] == "success"
        lines = (tmp_path / "sweep_summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        parts = lines[1].split(",")
        assert float(parts[0]) == 2.5
        assert parts[-1] == "success"
        assert all(math.isfinite(float(x)) for x in parts[1:-1])
        child = check_manifest(str(tmp_path / "l_2.5"))
        assert child["config"]["model"]["l"] == 2.5

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_child_spares_siblings(self, tmp_path, jobs):
        # a regular file where l_2.5's directory belongs makes that child
        # raise; its siblings still finish and it keeps its summary row
        (tmp_path / "l_2.5").write_text("")
        man = l_sweep(small_config(), [2, 2.5, 3], str(tmp_path), jobs=jobs)
        lines = (tmp_path / "sweep_summary.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[2] == "2.5,nan,nan,nan,nan,error"
        assert [line.split(",")[-1] for line in lines[1:]] \
            == ["success", "error", "success"]
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["status"] == man["status"] == "child_failure"
        assert manifest["failed_children"] == ["l_2.5"]
        assert manifest["files"] == ["sweep_summary.csv", "manifest.json"]
        for child in ("l_2", "l_3"):
            assert check_manifest(str(tmp_path / child))["status"] == "success"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_child_error_recorded(self, tmp_path, jobs):
        # the study manifest keeps the "Type: message" of a child that
        # raised before its own directory (and manifest) existed
        blocker = tmp_path / "l_2.5"
        blocker.write_text("")
        l_sweep(small_config(), [2, 2.5, 3], str(tmp_path), jobs=jobs)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["failed_children"] == ["l_2.5"]
        assert list(manifest["child_errors"]) == ["l_2.5"]
        assert manifest["child_errors"]["l_2.5"].startswith("FileExistsError: ")
        assert str(blocker) in manifest["child_errors"]["l_2.5"]

    def test_pool_matches_serial(self, tmp_path):
        cfg = parse_config("""
grid.nx = 16
model.l = 2
model.epsilon = 0.01
time.T = 0.02
init.preset = perturbed_front
init.noise_amp = 0.05
diagnostics.sample_interval = 0.01
""")
        for jobs in (1, 2):
            man = l_sweep(cfg, [1.5, 2.5], str(tmp_path / f"jobs{jobs}"),
                          jobs=jobs)
            assert man["status"] == "success"
        assert (tmp_path / "jobs1" / "sweep_summary.csv").read_bytes() \
            == (tmp_path / "jobs2" / "sweep_summary.csv").read_bytes()


@pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 2), (5000, 2)])
@pytest.mark.parametrize("study", [l_sweep, epsilon_continuation])
def test_workers_at_most_children(tmp_path, monkeypatch, study, jobs,
                                  workers):
    # the pool records its size and raises, so that no process starts
    import concurrent.futures

    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("no pool in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    values = [2, 3] if study is l_sweep else [0.1, 0.05]
    with pytest.raises(RuntimeError, match="no pool"):
        study(small_config(), values, str(tmp_path), jobs=jobs)
    assert asked == [workers]


_RUN_CHILD = experiments._run_child


def _worker_dies_at_eps_005(args):
    """`_run_child`, but the epsilon = 0.05 child kills its worker once its
    manifest reads "running"; at module level, so that the pool can pickle
    it."""
    config, out_dir = args
    if config.model.epsilon == 0.05:
        with experiments.recorded(out_dir, config):
            os._exit(3)
    return _RUN_CHILD(args)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched child reaches workers only by fork")
def test_dead_worker_fails_only_its_child(tmp_path, monkeypatch):
    # the worker of eps_0.05 dies; its siblings are rerun alone and end as
    # in a serial study, and no manifest is left at "running"
    import concurrent.futures

    eps = [0.1, 0.05, 0.025]
    cfg = small_config(**{"output.snapshot_times": "0.02"})
    epsilon_continuation(cfg, eps, str(tmp_path / "serial"))
    sizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "_run_child", _worker_dies_at_eps_005)
    out = tmp_path / "pooled"
    with pytest.raises(StepFailure, match="child run eps_0.05 failed"):
        epsilon_continuation(cfg, eps, str(out), jobs=2)
    manifest = check_manifest(str(out))
    assert manifest["status"] == "child_failure"
    assert manifest["failed_children"] == ["eps_0.05"]
    assert manifest["child_errors"]["eps_0.05"].startswith(
        "BrokenProcessPool: ")
    for child in ("eps_0.1", "eps_0.025"):
        assert check_manifest(str(out / child))["status"] == "success"
        for name in os.listdir(out / child):
            if name != "manifest.json":
                assert (out / child / name).read_bytes() == (
                    tmp_path / "serial" / child / name).read_bytes()
    dead = check_manifest(str(out / "eps_0.05"))
    assert dead["status"] == "error" and "finished" in dead
    assert dead["error"] == manifest["child_errors"]["eps_0.05"]
    for root, _, names in os.walk(out):
        if "manifest.json" in names:
            with open(os.path.join(root, "manifest.json")) as fh:
                assert json.load(fh)["status"] != "running"
    assert sizes[0] == 2 and set(sizes[1:]) == {1} and len(sizes) <= 4


@pytest.mark.parametrize("make, values", [
    (l_sweep, [2, 2.0000001]),
    (epsilon_continuation, [0.1000001, 0.1]),
])
def test_colliding_children_rejected(tmp_path, make, values):
    # each child's directory is named by its %g label
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="share the subdirectory"):
        make(small_config(), values, str(out))
    assert not out.exists()
