import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from taxisim import cli, experiments
from taxisim.cli import _floats, main
from taxisim.config import load_config
from taxisim.inequalities import (check_ineq_61, check_ineq_64, check_lists,
                                  cosine_family)

CONFIG = """
grid.nx = 32
model.l = 2
model.epsilon = 0.01
time.T = 0.02
init.preset = constant
diagnostics.sample_interval = 0.01
"""


def write_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "series.csv").exists()
    assert "status=success" in capsys.readouterr().out


def test_continuation_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "cont")
    assert main(["continuation", cfg, "--out", out,
                 "--eps", "0.1,0.05"]) == 0
    assert (tmp_path / "cont" / "continuation.csv").exists()


def test_ineq_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "ineq")
    assert main(["ineq", cfg, "--out", out, "--count", "5",
                 "--p", "1", "--eta", "1"]) == 0
    with open(tmp_path / "ineq" / "ineq_summary.json") as fh:
        summary = json.load(fh)
    assert "c61_p1" in summary["fitted_constants"]
    assert "c64_p1_eta1" in summary["fitted_constants"]
    lines = (tmp_path / "ineq" / "ineq_reports.csv").read_text().strip()
    assert len(lines.split("\n")) == 1 + 2 * 5  # header + (6.1 and 6.4) rows


def test_seed_override(tmp_path):
    path = tmp_path / "front.cfg"
    path.write_text(CONFIG.replace("init.preset = constant",
                                   "init.preset = perturbed_front"))
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", str(path), "--out", a, "--seed", "1"]) == 0
    assert main(["run", str(path), "--out", b, "--seed", "2"]) == 0
    sa = (tmp_path / "a" / "series.csv").read_text()
    sb = (tmp_path / "b" / "series.csv").read_text()
    assert sa != sb


CONFIG_2D = """
domain.dim = 2
grid.nx = 12
grid.ny = 10
model.l = 2
model.epsilon = 0.01
time.T = 1
init.preset = constant
seed = 5
"""


def write_config_2d(tmp_path):
    path = tmp_path / "ineq2d.cfg"
    path.write_text(CONFIG_2D)
    return str(path)


def reference_ineq(cfg_path, out_dir, count, ps, etas):
    """The ineq lab as one (6.4) check per (pair, p, eta), kept as the
    reference for the one-pass eta sweep."""
    cfg = load_config(cfg_path)
    grid = cfg.grid()
    pairs = cosine_family(grid, count, cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    fitted = {}
    for p in ps:
        best = 0.0
        for i, (phi, psi) in enumerate(pairs):
            rep = check_ineq_61(phi, psi, p, field_seed=i)
            rows.append(("6.1", i, p, "", rep.lhs, rep.rhs_terms, rep.ratio))
            best = max(best, rep.ratio)
        fitted[f"c61_p{p:g}"] = best
        for eta in etas:
            best = 0.0
            for i, (phi, psi) in enumerate(pairs):
                rep = check_ineq_64(phi, psi, p, eta, field_seed=i)
                rows.append(("6.4", i, p, eta, rep.lhs, rep.rhs_terms,
                             rep.ratio))
                best = max(best, rep.ratio)
            fitted[f"c64_p{p:g}_eta{eta:g}"] = best
    with open(os.path.join(out_dir, "ineq_reports.csv"), "w") as fh:
        fh.write("ineq,field_seed,p,eta,lhs,rhs_total,ratio\n")
        for ineq, i, p, eta, lhs, terms, ratio in rows:
            total = (terms["bracket"] * terms["factor"] if ineq == "6.1"
                     else sum(terms.values()))
            fh.write(f"{ineq},{i},{p:g},{eta if eta == '' else '%g' % eta},"
                     f"{lhs:.17g},{total:.17g},{ratio:.17g}\n")
    summary = {"grid": list(grid.shape), "count": count,
               "seed": cfg.seed, "fitted_constants": fitted}
    with open(os.path.join(out_dir, "ineq_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(out_dir):
    """The manifest, after checking that it lists exactly the files on
    disk."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert set(manifest["files"]) == set(os.listdir(out_dir))
    return manifest


STUDIES = ("sweep", "continuation", "refine")

IMPOSSIBLE = [
    ["--count", "0"],
    ["--count", "-2"],
    ["--p", "0.5"],
    ["--p", "1,0.99"],
    ["--eta", "0"],
    ["--eta", "1,-0.5"],
    ["sweep", "--l", "0.5,2"],
    ["sweep", "--jobs", "0", "--l", "2"],
    ["continuation", "--eps", "0.1,1"],
    ["continuation", "--eps", "0.1,0,-0.1"],
    ["continuation", "--jobs", "0", "--eps", "0.1,0.05"],
    ["continuation", "--eps", "0.05,0.1"],
    ["continuation", "--eps", "0.1,0.05,0.07"],
    ["continuation", "--eps", "0.05"],
    ["refine", "--n", "16,24"],
    ["refine", "--n", "16,32,32"],
    ["refine", "--n", "16"],
    ["refine", "--n", "0,0"],
    ["sweep", "--l", ""],
    ["--p", "inf"],
    ["--p", "1,inf"],
    ["--eta", "inf"],
    ["sweep", "--l", "2,inf"],
    ["sweep", "--l", "inf"],
    ["refine", "--n", "1,2"],
    ["--p", ""],
    ["--eta", ""],
]

COLLIDING = [
    ["--eta", "0.1,0.1000001"],
    ["--eta", "1,2,1.0000001"],
    ["--p", "1,1.0000001"],
    ["sweep", "--l", "2,2.0000001"],
    ["sweep", "--l", "2,3,2"],
    ["continuation", "--eps", "0.1000001,0.1"],
    ["--p", "1,1"],
    ["--eta", "3,0.2,3"],
]


class TestIneq:
    @pytest.mark.parametrize("ps, etas", [
        ("1,2", "0.1,1,10"),
        ("2.5,1", "3,0.2,2"),
    ])
    def test_outputs_match_per_eta_loop(self, tmp_path, ps, etas):
        cfg = write_config_2d(tmp_path)
        ref, out = tmp_path / "ref", tmp_path / "out"
        reference_ineq(cfg, str(ref), 6, _floats(ps), _floats(etas))
        assert main(["ineq", cfg, "--out", str(out), "--count", "6",
                     "--p", ps, "--eta", etas]) == 0
        for name in ("ineq_reports.csv", "ineq_summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_manifest_on_success(self, tmp_path):
        cfg = write_config_2d(tmp_path)
        out = str(tmp_path / "out")
        assert main(["ineq", cfg, "--out", out, "--count", "2",
                     "--p", "1", "--eta", "1,2"]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "success"
        assert manifest["files"] == ["ineq_reports.csv", "ineq_summary.json",
                                     "manifest.json"]
        assert manifest["config"]["seed"] == 5
        assert (manifest["count"], manifest["p"], manifest["eta"]) \
            == (2, [1.0], [1.0, 2.0])
        assert "finished" in manifest and "error" not in manifest
        # fixed-point strings, so identical calls write equal-sized manifests
        timings = manifest["timings"]
        assert list(timings) == ["family_s", "ineq_61_s", "ineq_64_s",
                                 "write_s"]
        for t in timings.values():
            assert re.fullmatch(r"\d+\.\d{6}", t) and float(t) > 0.0

    def test_memory_does_not_grow_with_count(self, tmp_path, capsys):
        # the family is built as each pair is checked: 180 more 64^2 pairs
        # add only their report rows, not 360 fields of 32 KiB
        cfg = tmp_path / "ineq64.cfg"
        cfg.write_text(CONFIG_2D.replace("grid.nx = 12", "grid.nx = 64")
                       .replace("grid.ny = 10", "grid.ny = 64"))
        assert main(["ineq", str(cfg), "--out", str(tmp_path / "warm"),
                     "--count", "1"]) == 0
        peaks = []
        for count in (20, 200):
            tracemalloc.start()
            try:
                assert main(["ineq", str(cfg), "--out",
                             str(tmp_path / f"count{count}"),
                             "--count", str(count)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6

    def test_terminated_with_failed_final_write_exits_143(
            self, tmp_path, monkeypatch, capsys):
        # a full disk at SIGTERM: the final manifest write fails, and the
        # command still ends as terminated, keeping the running manifest
        dump = experiments.json.dump
        calls = []

        def dump_once(obj, fh, **kwargs):
            calls.append(obj["status"])
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return dump(obj, fh, **kwargs)

        def terminated(*args, **kwargs):
            raise experiments.Terminated("signal 15")

        monkeypatch.setattr(experiments.json, "dump", dump_once)
        monkeypatch.setattr(cli, "cosine_family", terminated)
        out = str(tmp_path / "out")
        assert main(["ineq", write_config_2d(tmp_path), "--out", out]) == 143
        assert calls == ["running", "terminated"]
        assert read_manifest(out)["status"] == "running"
        assert capsys.readouterr().err.splitlines()[-1] == (
            "taxisim ineq: terminated")

    @pytest.mark.parametrize("exc_type, status", [
        (RuntimeError, "error"),
        (KeyboardInterrupt, "interrupted"),
    ])
    def test_crash_finalizes_manifest(self, tmp_path, monkeypatch, exc_type,
                                      status):
        real = cli.check_ineq_64
        calls = []

        def failing_check(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise exc_type("disk on fire")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "check_ineq_64", failing_check)
        cfg = write_config_2d(tmp_path)
        out = str(tmp_path / "out")
        with pytest.raises(exc_type):
            main(["ineq", cfg, "--out", out, "--count", "4"])
        manifest = read_manifest(out)
        assert manifest["status"] == status
        assert "finished" in manifest
        if exc_type is RuntimeError:
            assert manifest["error"] == "RuntimeError: disk on fire"
        else:
            assert "error" not in manifest
        assert manifest["files"] == ["manifest.json"]

    # cases that do not start with a study command are `ineq` options
    @pytest.mark.parametrize("bad", IMPOSSIBLE)
    def test_impossible_arguments_rejected(self, tmp_path, capsys, bad):
        command, *opts = bad if bad[0] in STUDIES else ["ineq", *bad]
        cfg = write_config_2d(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--out", str(out)] + opts)
        assert exc.value.code == 2
        assert opts[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", COLLIDING)
    def test_colliding_labels_rejected(self, tmp_path, capsys, bad):
        # rows, fitted constants and each study child's directory are named
        # by the %g label, so two values sharing one, equal ones included,
        # would overwrite a constant or share a directory
        command, *opts = bad if bad[0] in STUDIES else ["ineq", *bad]
        cfg = write_config_2d(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--out", str(out)] + opts)
        assert exc.value.code == 2
        assert "share the label" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("p, eta", [
    ([1.0, 2.5, 4.0], 0.5),
    (2.5, [0.1, 1.0]),
    (2.5, 0.5),
])
@pytest.mark.parametrize("check", [check_ineq_61, check_ineq_64])
def test_checks_called_once_per_pair(tmp_path, monkeypatch, check, p, eta):
    # the lab hands each check the whole --p list, and (6.4) the whole --eta
    # list, once per field pair
    calls = []

    def counted(phi, psi, *args, **kwargs):
        calls.append(args)
        return check(phi, psi, *args, **kwargs)

    monkeypatch.setattr(cli, check.__name__, counted)
    ps = p if isinstance(p, list) else [p]
    etas = eta if isinstance(eta, list) else [eta]
    assert main(["ineq", write_config_2d(tmp_path), "--out",
                 str(tmp_path / "out"), "--count", "3",
                 "--p", ",".join(map(str, ps)),
                 "--eta", ",".join(map(str, etas))]) == 0
    expected = (ps,) if check is check_ineq_61 else (ps, etas)
    assert calls == [expected] * 3


def test_p_list_outputs_match_per_p_calls(tmp_path):
    # one call per pair serves every p: the tables equal, byte for byte,
    # those of one scalar call per (pair, p, eta)
    cfg = write_config_2d(tmp_path)
    ref, out = tmp_path / "ref", tmp_path / "out"
    reference_ineq(cfg, str(ref), 6, [1.0, 2.5, 4.0], [0.5])
    assert main(["ineq", cfg, "--out", str(out), "--count", "6",
                 "--p", "1,2.5,4", "--eta", "0.5"]) == 0
    for name in ("ineq_reports.csv", "ineq_summary.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


# overrides RunConfig rejects: (option, value, the key its error names)
OVERRIDES = [
    ("--seed", "-1", "seed"),
    ("--out", "", "output.dir"),
]


@pytest.mark.parametrize("option, value, key", OVERRIDES)
@pytest.mark.parametrize("command", [["run"], ["ineq", "--count", "1"],
                                     ["sweep", "--l", "2"]])
def test_rejected_override_is_usage_error(tmp_path, monkeypatch, capsys,
                                          command, option, value, key):
    # both used to pass the checks: --seed -1 ended in an `error` manifest
    # and numpy's traceback, --out "" in os.makedirs("")
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    given = ["--out", "out"] if option != "--out" else []
    with pytest.raises(SystemExit) as exc:
        main([command[0], cfg, *given, option, value] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    assert err.splitlines()[-1].startswith(
        f"taxisim {command[0]}: error: argument {option}: {key} ")
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("line, key", [
    ("seed = -1", "seed"),
    ("output.dir =", "output.dir"),
])
def test_rejected_config_value_is_usage_error(tmp_path, monkeypatch, capsys,
                                              line, key):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG + line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"taxisim run: error: {path}: {key} must "
        + ("be an integer >= 0, got -1" if key == "seed" else "not be empty"))
    assert os.listdir(tmp_path) == ["run.cfg"]


# per study: the library function, the option that holds its values and
# how one value parses (float, not _floats: a non-finite value reaches it)
LIBRARY = {
    "sweep": (experiments.l_sweep, "--l", float),
    "continuation": (experiments.epsilon_continuation, "--eps", float),
    "refine": (experiments.refinement_study, "--n", int),
}


@pytest.mark.parametrize("bad", [bad for bad in IMPOSSIBLE + COLLIDING
                                 if bad[0] in STUDIES]
                         + [bad for bad in IMPOSSIBLE
                            if bad[0] in ("--p", "--eta")]
                         + [[option, value] for option, value, _ in OVERRIDES])
def test_library_rejects_what_cli_rejects(tmp_path, bad):
    # the CLI states no rule of its own: a study argument it rejects, the
    # study rejects too, before its output directory exists; an ineq list
    # it rejects, `inequalities.check_lists` rejects (the other list valid);
    # an override it rejects, RunConfig rejects under `dataclasses.replace`
    if bad[0] in ("--seed", "--out"):
        option, value, key = next(o for o in OVERRIDES if o[0] == bad[0])
        field = {"--seed": ("seed", int), "--out": ("out_dir", str)}[option]
        cfg = load_config(write_config_2d(tmp_path))
        with pytest.raises(ValueError, match=f"^{key} "):
            dataclasses.replace(cfg, **{field[0]: field[1](value)})
        return
    if bad[0] in ("--p", "--eta"):
        option, raw = bad
        lists = {"--p": [1.0], "--eta": [1.0],
                 option: [float(x) for x in raw.split(",") if x.strip()]}
        with pytest.raises(ValueError, match=f"^{option[2:]}: "):
            check_lists(lists["--p"], lists["--eta"])
        return
    command, *opts = bad
    study, option, parse = LIBRARY[command]
    given = dict(zip(opts[::2], opts[1::2]))
    values = [parse(x) for x in given.pop(option).split(",") if x.strip()]
    jobs = {"jobs": int(given.pop("--jobs"))} if "--jobs" in given else {}
    assert not given
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        study(load_config(write_config_2d(tmp_path)), values, str(out), **jobs)
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--l", "2"]])
def test_config_error_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("model.l = 2", "model.l = 0.5"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(path), "--out", str(out)] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    assert err.splitlines()[-1].startswith(f"taxisim {command[0]}: error: ")
    assert "bad.cfg: model.l must be finite and >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["refine", "--n", "16,32"]])
@pytest.mark.parametrize("name", ["missing.cfg", "a_directory"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(path), "--out", str(out)] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    assert err.splitlines()[-1].startswith(f"taxisim {command[0]}: error: ")
    assert str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["refine", "--n", "16,32"]])
def test_non_utf8_config_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(path), "--out", str(out)] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    assert err.splitlines()[-1].startswith(
        f"taxisim {command[0]}: error: {path}: not UTF-8 text")
    assert not out.exists()


def test_face_mean_key_is_usage_error(tmp_path, capsys):
    # the step has one face mean, the arithmetic one, and no key selects it
    path = tmp_path / "mean.cfg"
    path.write_text(CONFIG + "model.face_mean = harmonic\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"taxisim run: error: {path}: line 8: unknown key model.face_mean")
    assert not out.exists()


@pytest.mark.parametrize("width", ["1e300", "1e-300", "1.3e-162"])
def test_gaussian_width_out_of_range_is_usage_error(tmp_path, capsys, width):
    # before, the run crashed building u0, after its directory existed
    path = tmp_path / "wide.cfg"
    path.write_text(CONFIG.replace("init.preset = constant",
                                   "init.preset = gaussian_colony")
                    + f"init.width = {width}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"taxisim run: error: {path}: init.width must keep 2 width")
    assert not out.exists()


def test_repeated_diagnostics_entry_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rep.cfg"
    path.write_text(CONFIG.replace("nx = 32", "nx = 16")
                    + "diagnostics.p_list = 2,2\n"
                    + "diagnostics.q_alpha = 4:3,4:3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    assert err.splitlines()[-1] == (
        f"taxisim run: error: {path}: diagnostics.q_alpha: column wq_4_3 "
        "would repeat")
    assert not out.exists()


def test_continuation_snapshot_label_shared_with_T(tmp_path, capsys):
    # each child's snapshot at T = 0.30000001 prints like the one at 0.3
    path = tmp_path / "near.cfg"
    path.write_text(CONFIG.replace("time.T = 0.02", "time.T = 0.30000001")
                    .replace("sample_interval = 0.01", "sample_interval = 0.1")
                    + "output.snapshot_times = 0.3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["continuation", str(path), "--out", str(out),
              "--eps", "0.1,0.05"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "taxisim continuation: error: argument --eps: output.snapshot_times: "
        "0.3 and 0.30000001 share the label 0.3")
    assert not out.exists()


# per command: its extra arguments and a name its finalized block calls
LIFECYCLE = {
    "run": ([], (experiments, "full_record")),
    "continuation": (["--eps", "0.1,0.05"], (experiments, "_run_children")),
    "refine": (["--n", "16,32"], (experiments.mms, "residual_check")),
    "sweep": (["--l", "2"], (experiments, "_run_children")),
    "ineq": (["--count", "2"], (cli, "cosine_family")),
}


@pytest.mark.parametrize("exc_type, status", [
    (RuntimeError, "error"),
    (KeyboardInterrupt, "interrupted"),
])
@pytest.mark.parametrize("command", list(LIFECYCLE))
def test_every_command_finalizes_manifest(tmp_path, monkeypatch, command,
                                          exc_type, status):
    extra, (module, name) = LIFECYCLE[command]

    def fail(*args, **kwargs):
        raise exc_type("disk on fire")

    monkeypatch.setattr(module, name, fail)
    out = str(tmp_path / "out")
    with pytest.raises(exc_type):
        main([command, write_config(tmp_path), "--out", out] + extra)
    manifest = read_manifest(out)
    assert manifest["status"] == status
    assert manifest["started"] <= manifest["finished"]
    assert manifest["files"][-1] == "manifest.json"
    assert manifest.get("error") == ("RuntimeError: disk on fire"
                                     if exc_type is RuntimeError else None)


@pytest.mark.parametrize("command", list(LIFECYCLE))
def test_terminated_command_exits_143(tmp_path, monkeypatch, capsys,
                                      command):
    # what the SIGTERM handler raises: the manifest is finalized and main
    # returns 128 + SIGTERM
    extra, (module, name) = LIFECYCLE[command]

    def fail(*args, **kwargs):
        raise experiments.Terminated("signal 15")

    monkeypatch.setattr(module, name, fail)
    out = str(tmp_path / "out")
    before = signal.getsignal(signal.SIGTERM)
    assert main([command, write_config(tmp_path), "--out", out] + extra) == 143
    assert signal.getsignal(signal.SIGTERM) is before
    manifest = read_manifest(out)
    assert manifest["status"] == "terminated"
    assert manifest["started"] <= manifest["finished"]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"taxisim {command}: terminated")


def test_sigterm_finalizes_run(tmp_path):
    # SIGTERM's default action skipped every `finally`: the manifest stayed
    # "running" and series.csv held none of its buffered rows
    path = tmp_path / "long.cfg"
    path.write_text(CONFIG.replace("nx = 32", "nx = 256")
                    .replace("time.T = 0.02", "time.T = 100"))
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "taxisim.cli", "run", str(path), "--out",
         str(out)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60
        while not (out / "series.csv").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143
    assert err.splitlines()[-1] == "taxisim run: terminated"
    manifest = read_manifest(str(out))
    assert manifest["status"] == "terminated"
    assert manifest["started"] <= manifest["finished"]
    assert (out / "series.csv").read_text().startswith("t,mass_u,")


@pytest.mark.parametrize("command, status", [
    (["continuation", "--eps", "0.1,0.05"], "child_failure"),
    (["refine", "--n", "16,32"], "step_failure")])
def test_failed_study_exits_1_without_traceback(tmp_path, command, status):
    # a child's StepFailure, re-raised by the continuation, and a forced
    # run's, raised in the refine study, ended both commands in a
    # traceback; the refine study's manifest read "error"
    path = tmp_path / "fail.cfg"
    path.write_text(CONFIG + "time.dt_min = 1\n")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "taxisim.cli", command[0], str(path), "--out",
         str(out)] + command[1:], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        f"{command[0]} finished: status={status} out={out}"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == status
    if status == "step_failure":
        assert manifest["error"].startswith("step size ")
        assert read_manifest(str(out))["files"] == ["manifest.json"]


@pytest.mark.parametrize("T", ["1e-13", "8e-6"])
def test_refine_T_too_short_is_usage_error(tmp_path, T):
    # T <= dt0/2 (dt0 = 1.953e-05 at n = 16) ended the study in a traceback
    # and an `error` manifest
    path = tmp_path / "short.cfg"
    path.write_text(CONFIG.replace("time.T = 0.02", f"time.T = {T}")
                    .replace("diagnostics.sample_interval = 0.01\n", ""))
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "taxisim.cli", "refine", str(path), "--out",
         str(out), "--n", "16,32"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        f"taxisim refine: error: {path}: time.T = {float(T):g} must exceed "
        "dt0/2 for the temporal study, with dt0 = 1.953e-05")
    assert not out.exists()


def test_main_outside_main_thread(tmp_path):
    # only the main thread may set a signal handler; elsewhere main runs
    # without one
    codes = []
    out = str(tmp_path / "out")
    worker = threading.Thread(target=lambda: codes.append(
        main(["run", write_config(tmp_path), "--out", out])))
    worker.start()
    worker.join()
    assert codes == [0]
    assert read_manifest(out)["status"] == "success"


@pytest.mark.parametrize("command", [["run"], ["refine", "--n", "16,32"],
                                     ["sweep", "--l", "2"]])
@pytest.mark.parametrize("given", ["option", "config"])
@pytest.mark.parametrize("under", ["", "/sub"])
def test_out_naming_a_file_is_usage_error(tmp_path, monkeypatch, capsys,
                                          command, given, under):
    # os.makedirs in `recorded` ended these in a FileExistsError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep")
    path = tmp_path / "run.cfg"
    if given == "option":
        path.write_text(CONFIG)
        argv = ["--out", "afile" + under]
    else:
        path.write_text(CONFIG + f"output.dir = afile{under}\n")
        argv = []
    with pytest.raises(SystemExit) as exc:
        main([command[0], "run.cfg", *argv] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] \
        == [err.splitlines()[-1]]
    name = "argument --out: " if given == "option" else "run.cfg: output.dir "
    what = ("exists and is not a directory" if not under else
            f"lies under {tmp_path / 'afile'}, which is not a directory")
    assert err.splitlines()[-1] == (
        f"taxisim {command[0]}: error: {name}afile{under} {what}")
    assert sorted(os.listdir(tmp_path)) == ["afile", "run.cfg"]
    assert (tmp_path / "afile").read_text() == "keep"
