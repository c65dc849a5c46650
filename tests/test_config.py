import dataclasses
import math

import pytest

from taxisim import (ConfigError, ModelParams, RunConfig, load_config,
                     parse_config)

MINIMAL = """
grid.nx = 64
model.l = 2
model.epsilon = 0.01
time.T = 1
init.preset = constant
"""


class TestMinimal:
    def test_defaults_filled(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 1
        assert cfg.lengths == (1.0,)
        assert cfg.shape == (64,)
        assert cfg.model.l == 2.0
        assert cfg.model.epsilon == 0.01
        assert cfg.model.b == 1.0
        assert cfg.T == 1.0
        assert cfg.safety == 0.4
        assert cfg.preset == "constant"
        assert cfg.preset_params == {"a": 1.0, "b": 1.0}
        assert cfg.p_list == (2.0, 4.0)
        assert cfg.q_alpha == ((4.0, 3.0), (6.0, 5.0))
        assert cfg.sample_interval == pytest.approx(0.01)
        assert cfg.seed == 0

    def test_grid_and_control_builders(self):
        cfg = parse_config(MINIMAL)
        g = cfg.grid()
        assert g.shape == (64,) and g.domain.lengths == (1.0,)
        ctrl = cfg.step_control()
        assert ctrl.safety == 0.4

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\n" + MINIMAL + "\nseed = 3 # trailing\n")
        assert cfg.seed == 3


class TestValidation:
    def test_small_l_names_key(self):
        bad = MINIMAL.replace("model.l = 2", "model.l = 0.5")
        with pytest.raises(ConfigError, match="model.l"):
            parse_config(bad)

    def test_unknown_key_hard_error(self):
        # model.face_mean is no key: the step has one face mean
        for line in ("model.alpha = 1", "model.face_mean = arithmetic",
                     "model.face_mean = harmonic"):
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                parse_config(MINIMAL + line + "\n")

    def test_unknown_preset_param_hard_error(self):
        # amplitude belongs to gaussian_colony, not constant
        with pytest.raises(ConfigError, match="init.amplitude"):
            parse_config(MINIMAL + "init.amplitude = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "model.l = 3\n")

    def test_parse_error_reports_line(self):
        text = "grid.nx = 64\nmodel.l two\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(text)

    def test_unparsable_value_reports_line(self):
        bad = MINIMAL.replace("grid.nx = 64", "grid.nx = many")
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config(bad)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="time.T"):
            parse_config(MINIMAL.replace("time.T = 1", ""))

    def test_bad_epsilon(self):
        bad = MINIMAL.replace("model.epsilon = 0.01", "model.epsilon = 1.5")
        with pytest.raises(ConfigError, match="model.epsilon"):
            parse_config(bad)

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="time.scheme"):
            parse_config(MINIMAL + "time.scheme = fully_implicit\n")

    def test_negative_max_halvings(self):
        with pytest.raises(ConfigError, match="time.max_halvings"):
            parse_config(MINIMAL + "time.max_halvings = -1\n")

    def test_snapshot_after_T(self):
        bad = MINIMAL.replace("time.T = 1", "time.T = 0.01")
        with pytest.raises(ConfigError, match="output.snapshot_times"):
            parse_config(bad + "output.snapshot_times = 0.02\n")

    @pytest.mark.parametrize("times", ["0.1,0.1000001", "0.1,0.1"])
    def test_snapshot_times_sharing_a_label(self, times):
        # both would write u_0.1.field
        with pytest.raises(ConfigError, match="output.snapshot_times: .* "
                                              "share the label 0.1"):
            parse_config(MINIMAL + f"output.snapshot_times = {times}\n")

    def test_unknown_preset(self):
        bad = MINIMAL.replace("init.preset = constant",
                              "init.preset = vortex")
        with pytest.raises(ConfigError, match="vortex"):
            parse_config(bad)

    def test_bad_q_alpha(self):
        with pytest.raises(ConfigError, match="q_alpha"):
            parse_config(MINIMAL + "diagnostics.q_alpha = 2:1\n")

    @pytest.mark.parametrize("line, message", [
        ("domain.dim = 3", "domain.dim must be 1 or 2, got 3"),
        ("domain.dim = 0", "domain.dim must be 1 or 2, got 0"),
        ("diagnostics.p_list = 2,0.5",
         "diagnostics.p_list: L^p norm needs p >= 1 or p = inf, got 0.5"),
    ])
    def test_grid_rules_name_file_and_key(self, line, message):
        # grid states both rules (Domain, lp_norm); config calls them
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + line + "\n", name="x.cfg")
        assert str(exc.value) == f"x.cfg: {message}"

    @pytest.mark.parametrize("line, message", [
        ("diagnostics.p_list = 2,2", "diagnostics.p_list: column lp_u_2"),
        ("diagnostics.p_list = 4,2,4.0", "diagnostics.p_list: column lp_u_4"),
        ("diagnostics.q_alpha = 4:3,6:5,4:3",
         "diagnostics.q_alpha: column wq_4_3"),
    ])
    def test_repeated_entry_names_file_and_key(self, line, message):
        # diagnostics owns the column names and the rule; config calls it
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + line + "\n", name="x.cfg")
        assert str(exc.value) == f"x.cfg: {message} would repeat"

    def test_noise_amp_bound(self):
        text = MINIMAL.replace("init.preset = constant",
                               "init.preset = perturbed_front")
        with pytest.raises(ConfigError, match="noise_amp"):
            parse_config(text + "init.noise_amp = 2\ninit.base = 1\n")

    def test_record_count_bound(self):
        # 1e9 records would be an event table of ~300 GB, built before
        # the first step
        with pytest.raises(ConfigError, match=r"^<config>: diagnostics\."
                           r"sample_interval gives more than 1e\+06 records"):
            parse_config(MINIMAL + "diagnostics.sample_interval = 1e-9\n")
        cfg = parse_config(MINIMAL + "diagnostics.sample_interval = 1e-6\n")
        with pytest.raises(ValueError, match="^diagnostics.sample_interval"):
            dataclasses.replace(cfg, T=1.5)

    @pytest.mark.parametrize("width", ["1e300", "1e-300", "1.3e-162"])
    def test_gaussian_width_in_float_range(self, width):
        # 2 width^2 overflowed (OverflowError) or underflowed to 0 (nan u0)
        # when the run built u0
        text = MINIMAL.replace("init.preset = constant",
                               "init.preset = gaussian_colony")
        with pytest.raises(ConfigError, match="^<config>: init.width must "
                           "keep 2 width"):
            parse_config(text + f"init.width = {width}\n")


class TestReplace:
    # a config built by dataclasses.replace is checked as a parsed one is
    @pytest.mark.parametrize("change, key", [
        ({"sample_interval": 0.0}, "diagnostics.sample_interval"),
        ({"T": -1.0}, "time.T"),
        ({"snapshot_times": (0.1, 0.1000001)}, "output.snapshot_times"),
        ({"p_list": (2.0, 2.0)}, "diagnostics.p_list"),
        # each passed before and died in the run, after the output
        # directory existed, or in os.makedirs("")
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"out_dir": ""}, "output.dir"),
        ({"T": math.inf}, "time.T"),
        ({"T": math.nan}, "time.T"),
        ({"sample_interval": math.inf}, "diagnostics.sample_interval"),
        ({"sample_interval": math.nan}, "diagnostics.sample_interval"),
    ])
    def test_rejected_naming_key(self, change, key):
        with pytest.raises(ValueError, match=f"^{key}"):
            dataclasses.replace(parse_config(MINIMAL), **change)

    @pytest.mark.parametrize("change, key", [
        ({"preset": "checker"}, "init.a"),
        ({"preset_params": {"tiles": 3.0}}, "init.tiles"),
    ])
    def test_foreign_preset_parameter_rejected(self, change, key):
        # a parameter the preset does not have would be echoed in the
        # manifest and ignored by make_initial
        with pytest.raises(ValueError, match=f"^{key} is not a parameter"):
            dataclasses.replace(parse_config(MINIMAL), **change)

    def test_preset_changed_with_its_parameters(self):
        cfg = dataclasses.replace(parse_config(MINIMAL), preset="checker",
                                  preset_params={"tiles": 3.0})
        assert cfg.preset_params == {"lo": 0.5, "hi": 1.5, "tiles": 3.0,
                                     "v": 1.0}

    def test_built_directly_takes_field_defaults(self):
        # the defaults, preset parameters included, live in RunConfig
        cfg = RunConfig(dim=1, lengths=(1.0,), shape=(64,),
                        model=ModelParams(l=2.0, epsilon=0.01), T=1.0,
                        preset="constant", sample_interval=0.01)
        assert cfg == parse_config(MINIMAL)


class TestRunInputs:
    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed must be an integer >= 0, got -1"),
        ("output.dir =", "output.dir must not be empty"),
    ])
    def test_rejected_at_parse(self, line, message):
        with pytest.raises(ConfigError, match=f"^<config>: {message}$"):
            parse_config(MINIMAL + line + "\n")

    def test_accepted(self):
        cfg = parse_config(MINIMAL + "seed = 0\noutput.dir = o\n")
        assert (cfg.seed, cfg.out_dir) == (0, "o")
        assert dataclasses.replace(cfg, seed=2 ** 70).seed == 2 ** 70


class TestNonFinite:
    # each parsed, and before they were rejected each crashed a run, ended it
    # as step_failure, or was silently honoured as nonsense
    @pytest.mark.parametrize("line", [
        "time.T = nan",
        "time.T = inf",
        "domain.lx = nan",
        "domain.ly = -inf",
        "model.l = nan",
        "model.b = nan",
        "time.dt_min = nan",
        "time.dt_min = inf",
        "diagnostics.sample_interval = inf",
        "diagnostics.p_list = 2,inf",
        "diagnostics.q_alpha = inf:3",
        "init.a = nan",
        "init.b = inf",
    ])
    def test_rejected_naming_key(self, line):
        key = line.split(" = ")[0]
        text = "".join(f"{ln}\n" for ln in MINIMAL.splitlines()
                       if ln and not ln.startswith(key + " "))
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(text + line + "\n")


class TestRicherConfigs:
    def test_2d_with_preset_params(self):
        text = """
domain.dim = 2
domain.lx = 2
domain.ly = 3
grid.nx = 16
grid.ny = 8
model.l = 2.5
model.epsilon = 0.05
time.T = 0.5
init.preset = gaussian_colony
init.amplitude = 4
init.width = 0.2
init.center = 1.0,1.5
diagnostics.p_list = 2,3,4
diagnostics.q_alpha = 4:3
output.snapshot_times = 0,0.5
output.images = on
seed = 42
"""
        cfg = parse_config(text)
        assert cfg.lengths == (2.0, 3.0) and cfg.shape == (16, 8)
        assert cfg.preset_params["center"] == (1.0, 1.5)
        assert cfg.p_list == (2.0, 3.0, 4.0)
        assert cfg.q_alpha == ((4.0, 3.0),)
        assert cfg.snapshot_times == (0.0, 0.5)
        assert cfg.images is True
        assert cfg.seed == 42

    def test_center_dim_mismatch(self):
        text = MINIMAL.replace("init.preset = constant",
                               "init.preset = gaussian_colony")
        with pytest.raises(ConfigError, match="center"):
            parse_config(text + "init.center = 0.5,0.5\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.shape == (64,)

    @pytest.mark.parametrize("line", [
        "time.T = nan",
        "init.a = many",
        "diagnostics.q_alpha = 4:x",
    ])
    def test_load_config_value_error_names_file(self, tmp_path, line):
        key = line.split(" = ")[0]
        path = tmp_path / "my.cfg"
        path.write_text("".join(f"{ln}\n" for ln in MINIMAL.splitlines()
                                if not ln.startswith(key + " ")) + line)
        with pytest.raises(ConfigError,
                           match=rf"my\.cfg: line \d+: cannot parse {key}"):
            load_config(path)

    def test_load_config_error_names_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "model.alpha = 1\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            load_config(path)
