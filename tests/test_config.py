import pytest

from roadalign.config import PipelineConfig, read_key_values
from roadalign.errors import ConfigError


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
    assert cfg.diff_space == "invariant"
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


def test_unknown_keys_are_tolerated(tmp_path):
    p = _write(tmp_path, "theta=0.7\nfocal_px=150\nseed=7\ntrack=0,0;0,12\n")
    cfg = PipelineConfig.load(p)
    assert cfg.theta == 0.7


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
    ("beta=0", "beta"),
    ("downsample_factor=0", "downsample_factor"),
    ("pyramid_levels=0", "pyramid_levels"),
    ("min_blob_px=-1", "min_blob_px"),
    ("theta=nan", "theta"),
    ("focal_px=nan", "focal_px"),
])
def test_bad_value_fails_at_load(tmp_path, line, key):
    p = _write(tmp_path, f"theta=0.7\nfocal_px=150\n{line}\n")
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.load(p)


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
    with pytest.raises(ConfigError, match="diff_space"):
        PipelineConfig(theta=0.7, focal_px=100.0, diff_space="rgb")


def test_factories_propagate_values():
    cfg = PipelineConfig(theta=0.7, focal_px=150.0, lag=3, window=7, beta=1.5,
                         band=20, smooth_sigma=1.5, downsample_factor=8,
                         max_shift=1, pyramid_levels=2, max_iterations=30,
                         robust_skip=1, min_blob_px=10, histogram_bins=64)
    params = cfg.descriptor_params()
    assert params.smooth_sigma == 1.5
    assert params.downsample_factor == 8
    assert params.max_shift == 1
    sync = cfg.sync_config()
    assert sync.lag_l == 3
    assert sync.window_L == 7
    assert sync.beta == 1.5
    assert sync.candidate_band == 20
    lk = cfg.lk_settings()
    assert lk.pyramid_levels == 2
    assert lk.max_iterations == 30
    assert lk.robust_skip == 1
    refine = cfg.refine_settings()
    assert refine.min_blob_px == 10
    assert refine.histogram_bins == 64
    k = cfg.intrinsics(160, 120)
    assert (k.focal_px, k.cx, k.cy) == (150.0, 79.5, 59.5)
    cfg2 = PipelineConfig(theta=0.7, focal_px=150.0, cx=70.0, cy=50.0)
    k2 = cfg2.intrinsics(160, 120)
    assert (k2.cx, k2.cy) == (70.0, 50.0)
