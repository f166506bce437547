import pytest

from roadalign.config import SCENE_KEYS, PipelineConfig, read_key_values
from roadalign.errors import ConfigError
from roadalign.synth import PRESETS, _scene_cfg_text


def _write(tmp_path, text):
    p = tmp_path / "align.cfg"
    p.write_text(text)
    return p


def test_read_key_values_parses_comments_and_blanks(tmp_path):
    p = _write(tmp_path, "\n# full comment\ntheta=0.7  # trailing\n"
                         "focal_px = 150\nname=a=b\n")
    raw = read_key_values(p)
    assert raw == {"theta": "0.7", "focal_px": "150", "name": "a=b"}


def test_read_key_values_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError, match=":2"):
        read_key_values(_write(tmp_path, "theta=0.7\nnot a pair\n"))
    with pytest.raises(ConfigError, match="empty key"):
        read_key_values(_write(tmp_path, "=0.7\n"))
    p = tmp_path / "latin1.cfg"
    p.write_bytes(b"theta=0.7\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="latin1.cfg: not UTF-8"):
        read_key_values(p)


def test_load_requires_theta_and_focal(tmp_path):
    with pytest.raises(ConfigError, match="missing required key: theta"):
        PipelineConfig.load(_write(tmp_path, "focal_px=100\n"))
    with pytest.raises(ConfigError, match="missing required key: focal_px"):
        PipelineConfig.load(overrides={"theta": "0.7"})
    with pytest.raises(ConfigError, match="missing required key: theta"):
        PipelineConfig.load(overrides={"theta": "", "focal_px": "150"})


def test_load_defaults(tmp_path):
    cfg = PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=150\n"))
    assert cfg.theta == 0.7
    assert cfg.focal_px == 150.0
    assert cfg.lag == 5
    assert cfg.window == 10
    assert cfg.band == 30
    assert cfg.feature_space == "invariant"
    assert cfg.cx is None and cfg.cy is None


def test_overrides_win_over_file(tmp_path):
    p = _write(tmp_path, "theta=0.7\nfocal_px=150\nlag=5\n")
    cfg = PipelineConfig.load(p, overrides={"lag": "2", "window": "6",
                                            "theta": None})
    assert cfg.lag == 2
    assert cfg.window == 6
    assert cfg.theta == 0.7  # None overrides are ignored


def test_band_switches_off(tmp_path):
    for word in ("none", "NONE", "off"):
        cfg = PipelineConfig.load(
            _write(tmp_path, f"theta=0.7\nfocal_px=150\nband={word}\n"))
        assert cfg.band is None
    cfg = PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=150\nband=12\n"))
    assert cfg.band == 12
    # an empty value means the default
    cfg = PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=150\nband=\n"))
    assert cfg.band == 30


def test_scene_keys_load_and_set_nothing(tmp_path):
    p = _write(tmp_path, "theta=0.7\nfocal_px=150\nseed=7\ntrack=0,0;0,12\n"
                         "ref.frames=40\nbeta=3\nsigma_y=0.1\n")
    assert PipelineConfig.load(p) == PipelineConfig(theta=0.7, focal_px=150.0)


@pytest.mark.parametrize("line,key,hint", [
    ("smooth_sigm=1.5", "smooth_sigm", "smooth_sigma"),
    ("pyramid_level=1", "pyramid_level", "pyramid_levels"),
    ("bnad=3", "bnad", "band"),
    ("colour=red", "colour", None),
])
def test_unknown_key_is_a_config_error(tmp_path, line, key, hint):
    p = _write(tmp_path, f"theta=0.7\nfocal_px=150\n{line}\n")
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'") as exc:
        PipelineConfig.load(p)
    if hint:
        assert f"did you mean '{hint}'?" in str(exc.value)
    else:
        assert "did you mean" not in str(exc.value)
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        PipelineConfig.load(overrides={"theta": "0.7", "focal_px": "150",
                                       key: line.split("=")[1]})


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_key_scene_cfg_writes_loads(tmp_path, name):
    scene, ride_ref, ride_obs = PRESETS[name]()
    text = _scene_cfg_text(scene, ride_ref, ride_obs)
    p = _write(tmp_path, text)
    assert set(SCENE_KEYS) <= set(read_key_values(p))
    cfg = PipelineConfig.load(p)
    assert cfg.theta == pytest.approx(scene.theta)


def test_generated_scene_cfg_is_loadable(mini_pair):
    cfg = PipelineConfig.load(mini_pair.root / "scene.cfg")
    assert cfg.theta == 0.7
    assert cfg.focal_px == 75.0
    assert cfg.downsample_factor == 8
    assert cfg.lag == 5


def test_bad_values_raise_config_error(tmp_path):
    with pytest.raises(ConfigError, match="lag"):
        PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=150\nlag=five\n"))
    with pytest.raises(ConfigError, match="focal_px"):
        PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=banana\n"))
    with pytest.raises(ConfigError):
        PipelineConfig.load(_write(tmp_path, "theta=0.7\nfocal_px=150\nlag=2.5\n"))


@pytest.mark.parametrize("line,key", [
    ("band=abc", "band"),
    ("window=0", "window"),
    ("downsample_factor=0", "downsample_factor"),
    ("smooth_sigma=0", "smooth_sigma"),
    ("pyramid_levels=0", "pyramid_levels"),
    ("min_blob_px=-1", "min_blob_px"),
    ("theta=nan", "theta"),
    ("focal_px=nan", "focal_px"),
    ("mu_y=inf", "mu_y"),
    ("mu_y=nan", "mu_y"),
    ("smooth_sigma=inf", "smooth_sigma"),
    ("focal_px=inf", "focal_px"),
    ("cx=nan", "cx"),
    ("cy=-inf", "cy"),
    # refinement works in the feature space; a file that set another
    # space for it is rejected, not silently read another way
    ("diff_space=gray", "diff_space"),
    ("feature_space=gray\ndiff_space=invariant", "diff_space"),
    # the other former keys are fixed too
    ("min_blob_px=10", "min_blob_px"),
    ("mu_y=0.9", "mu_y"),
    ("max_shift=abc", "max_shift"),
    ("gradient_floor_ratio=0.3", "gradient_floor_ratio"),
    ("max_iterations=2.0", "max_iterations"),
    ("robust_skip=1", "robust_skip"),
    ("histogram_bins=64", "histogram_bins"),
])
def test_bad_value_fails_at_load(tmp_path, line, key):
    p = _write(tmp_path, f"theta=0.7\nfocal_px=150\n{line}\n")
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.load(p)


@pytest.mark.parametrize("lines,space", [
    ("", "invariant"),
    ("diff_space=invariant\n", "invariant"),
    ("feature_space=gray\ndiff_space=gray\n", "gray"),
    # every former key, at its fixed value or empty
    ("gradient_floor_ratio=0.05\nmax_shift=2\nmu_y=1\nmax_iterations=50\n"
     "robust_skip=2\nmin_blob_px=25\nhistogram_bins=256\n", "invariant"),
    ("diff_space=\nmu_y=\nmin_blob_px=\n", "invariant"),
])
def test_diff_space_equal_to_the_feature_space_loads(tmp_path, lines, space):
    cfg = PipelineConfig.load(
        _write(tmp_path, f"theta=0.7\nfocal_px=150\n{lines}"))
    assert cfg == PipelineConfig(theta=0.7, focal_px=150.0, feature_space=space)


def test_validation_errors():
    with pytest.raises(ConfigError, match="focal_px"):
        PipelineConfig(theta=0.7, focal_px=0.0)
    with pytest.raises(ConfigError, match="lag"):
        PipelineConfig(theta=0.7, focal_px=100.0, lag=-1)
    with pytest.raises(ConfigError, match="window"):
        PipelineConfig(theta=0.7, focal_px=100.0, lag=8, window=6)
    with pytest.raises(ConfigError, match="band"):
        PipelineConfig(theta=0.7, focal_px=100.0, band=0)
    with pytest.raises(ConfigError, match="feature_space"):
        PipelineConfig(theta=0.7, focal_px=100.0, feature_space="rgb")


def test_descriptor_settings_validation():
    with pytest.raises(ConfigError, match="smooth_sigma must be positive"):
        PipelineConfig(theta=0.7, focal_px=100.0, smooth_sigma=0.0)
    with pytest.raises(ConfigError, match="smooth_sigma must be positive"):
        PipelineConfig(theta=0.7, focal_px=100.0, smooth_sigma=-1.0)
    with pytest.raises(ConfigError, match="positive integer"):
        PipelineConfig(theta=0.7, focal_px=100.0, downsample_factor=0)
    with pytest.raises(ConfigError, match="positive integer"):
        PipelineConfig(theta=0.7, focal_px=100.0, downsample_factor=2.5)


def test_factories_propagate_values():
    cfg = PipelineConfig(theta=0.7, focal_px=150.0, lag=3, window=7,
                         band=20)
    sync = cfg.sync_config()
    assert sync.lag_l == 3
    assert sync.window_L == 7
    assert sync.candidate_band == 20
    k = cfg.intrinsics(160, 120)
    assert (k.focal_px, k.cx, k.cy) == (150.0, 79.5, 59.5)
    cfg2 = PipelineConfig(theta=0.7, focal_px=150.0, cx=70.0, cy=50.0)
    k2 = cfg2.intrinsics(160, 120)
    assert (k2.cx, k2.cy) == (70.0, 50.0)
