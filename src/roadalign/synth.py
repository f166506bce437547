"""Deterministic synthetic paired rides with exact ground truth.

A textured ground plane carries a road ribbon along a polyline track.
Two camera passes over the same track, each with its own speed profile,
per-frame attitude jitter, lighting and parked vehicles, render to
frames whose correspondence, relative rotations and road masks are known
exactly. Shadow bands attenuate the color channels consistently with a
blackbody illuminant, so the invariant projection with the same angle
removes them completely.
"""

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import SCENE_KEYS, check_keys, read_key_values
from .errors import ConfigError, DataError
from .imagecore import pyramid_depth, save_image_rgb, save_mask

MAX_JITTER = 0.02  # radians per axis

_FRAME_NAME = "frame_{:06d}.ppm"
_MASK_NAME = "mask_{:06d}.pgm"

# what a spec file may override, with each value's parser. Frame counts
# are deliberately not overridable: preset rides carry per-frame speed
# and jitter schedules sized to their scene
_SPEC_SCENE_KEYS = {"seed": int, "theta": float, "focal_px": float,
                    "image_width": int, "image_height": int,
                    "road_width": float}
_SPEC_OBS_RIDE_KEYS = {"model_violation": float, "noise_sigma": float,
                       "gain": float}


def _check_finite(spec):
    """ValueError naming the first float field of `spec` that is not finite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class ShadowBand:
    """Ground strip between two along-track positions, in meters.

    `attenuation` scales the green channel; `planck` shifts the
    log-chromaticity along the lighting direction of the scene's
    invariant angle, so red and blue scale by attenuation * exp(-planck
    * sin(theta)) and attenuation * exp(planck * cos(theta)).
    """

    start: float
    end: float
    attenuation: float = 0.55
    planck: float = 0.35

    def __post_init__(self):
        if not self.end > self.start:
            raise ValueError("band end must exceed start")
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError("attenuation must be in (0, 1]")

    def channel_factors(self, theta):
        a = self.attenuation
        return np.array([
            a * math.exp(-self.planck * math.sin(theta)),
            a,
            a * math.exp(self.planck * math.cos(theta)),
        ])


@dataclass(frozen=True)
class Vehicle:
    """Upright textured box standing on the road, drawn as a billboard."""

    arc_s: float
    lateral: float
    width: float
    height: float
    albedo_scale: float = 1.0
    first_frame: int = 0
    last_frame: int = 10 ** 9

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("vehicle dimensions must be positive")
        if self.last_frame < self.first_frame:
            raise ValueError("empty frame span")


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    track_points: tuple = ((0.0, 0.0), (0.0, 40.0))
    road_width: float = 4.0
    image_width: int = 160
    image_height: int = 120
    focal_px: float = 150.0
    theta: float = 0.7
    frames: int = 60
    camera_height: float = 1.4
    camera_pitch: float = 0.18
    road_texture_scale: float = 2.2
    background_texture_scale: float = 3.6

    def __post_init__(self):
        _check_finite(self)
        if len(self.track_points) < 2:
            raise ValueError("track needs at least two control points")
        if self.road_width <= 0:
            raise ValueError("road_width must be positive")
        if self.image_width < 2 or self.image_height < 2:
            raise ValueError("image_width and image_height must be at "
                             "least 2")
        if self.focal_px <= 0:
            raise ValueError("focal_px must be positive")
        if self.frames < 1:
            raise ValueError("frames must be at least 1")


@dataclass(frozen=True)
class RideSpec:
    """One pass over the scene's track.

    `speed_profile[j]` is the arc-length advance applied before frame j
    (the first entry offsets the ride from the track start); zeros are
    stops. When None, the ride covers the track at constant speed over
    `scene.frames` frames. Jitter is an (n, 3) array of per-frame
    rotation angles about the camera axes, each bounded by 0.02 rad.

    `model_violation` adds that fraction of unattenuated ambient light
    back inside shadow bands. Zero keeps shadows exactly blackbody, so
    the invariant projection cancels them; positive values deliberately
    break that assumption for robustness experiments.
    """

    speed_profile: tuple | None = None
    jitter: tuple | None = None
    shadows: tuple = ()
    gain: float = 1.0
    vehicles: tuple = ()
    noise_sigma: float = 0.0
    model_violation: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.speed_profile is not None:
            prof = np.asarray(self.speed_profile, dtype=np.float64)
            if prof.ndim != 1 or prof.size < 1:
                raise ValueError("speed_profile must be a non-empty sequence")
            if np.any(prof < 0):
                raise ValueError("speed increments must be non-negative")
        if self.jitter is not None:
            jit = np.asarray(self.jitter, dtype=np.float64)
            if jit.ndim != 2 or jit.shape[1] != 3:
                raise ValueError("jitter must be an (n, 3) array")
            if np.any(np.abs(jit) > MAX_JITTER):
                raise ValueError(f"jitter must stay within {MAX_JITTER} rad")
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 <= self.model_violation <= 1.0:
            raise ValueError("model_violation must be in [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-frame truth for an observed/reference pair."""

    correspondence: np.ndarray  # obs frame -> 0-based ref frame index
    omega_true: np.ndarray      # (n_obs, 3) relative rotation angles
    theta_used: float
    ref_arc: np.ndarray
    obs_arc: np.ndarray


@dataclass(frozen=True)
class RideRender:
    frames: list
    masks: list
    arc: np.ndarray
    rotations: np.ndarray  # (n, 3, 3) camera-to-world


class _Track:
    """Arc-length parametrized polyline in the ground plane."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 0):
            raise ValueError("degenerate track segment")
        self.points = pts
        self.seg = seg
        self.seg_len = seg_len
        self.cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.length = float(self.cum[-1])
        chord = pts[-1] - pts[0]
        self.chord_dir = chord / np.hypot(*chord)

    def point_and_tangent(self, s):
        if s < -1e-9 or s > self.length + 1e-9:
            raise ValueError("camera leaves the track domain")
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(max(i, 0), len(self.seg) - 1)
        t = (s - self.cum[i]) / self.seg_len[i]
        point = self.points[i] + t * self.seg[i]
        tangent = self.seg[i] / self.seg_len[i]
        return point, tangent

    def distance(self, px, py):
        """Distance of ground points to the track centerline."""
        best = np.full(np.shape(px), np.inf)
        for i in range(len(self.seg)):
            ax, ay = self.points[i]
            dx, dy = self.seg[i]
            ll = self.seg_len[i] ** 2
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / ll, 0.0, 1.0)
            d2 = (px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2
            best = np.minimum(best, d2)
        return np.sqrt(best)

    def chord_projection(self, px, py):
        ox, oy = self.points[0]
        return (px - ox) * self.chord_dir[0] + (py - oy) * self.chord_dir[1]


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


class _Noise2D:
    """Wrapping value noise on a seeded lattice."""

    def __init__(self, rng, size=64):
        self.size = size
        self.grid = rng.random((size, size))

    def sample(self, xs, ys, scale):
        u = np.asarray(xs, dtype=np.float64) / scale
        v = np.asarray(ys, dtype=np.float64) / scale
        i0 = np.floor(u)
        j0 = np.floor(v)
        fu = _smoothstep(u - i0)
        fv = _smoothstep(v - j0)
        i0 = i0.astype(np.int64) % self.size
        j0 = j0.astype(np.int64) % self.size
        i1 = (i0 + 1) % self.size
        j1 = (j0 + 1) % self.size
        g = self.grid
        top = g[j0, i0] * (1.0 - fu) + g[j0, i1] * fu
        bot = g[j1, i0] * (1.0 - fu) + g[j1, i1] * fu
        return top * (1.0 - fv) + bot * fv


class _Material:
    """Three-channel albedo field: base color times two-octave noise."""

    def __init__(self, rng, base, scale):
        self.base = np.asarray(base, dtype=np.float64)
        self.scale = scale
        self.noise = [_Noise2D(rng) for _ in range(3)]

    def albedo(self, xs, ys):
        out = np.empty(np.shape(xs) + (3,))
        for c in range(3):
            n = (0.65 * self.noise[c].sample(xs, ys, self.scale)
                 + 0.35 * self.noise[c].sample(xs, ys, self.scale * 0.37))
            out[..., c] = self.base[c] * (0.72 + 0.56 * n)
        return out


class _Textures:
    def __init__(self, scene):
        rng = np.random.default_rng([int(scene.seed), 11])
        self.road = _Material(rng, (0.46, 0.47, 0.52), scene.road_texture_scale)
        self.background = _Material(rng, (0.40, 0.52, 0.33),
                                    scene.background_texture_scale)
        self.vehicle_noise = _Noise2D(rng)
        self.sky = np.array([0.74, 0.80, 0.93])


def _small_rotation(angles):
    wx, wy, wz = angles
    cx, sx = math.cos(wx), math.sin(wx)
    cy, sy = math.cos(wy), math.sin(wy)
    cz, sz = math.cos(wz), math.sin(wz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rx @ ry @ rz


def _camera_rotation(tangent, pitch, jitter):
    """Camera-to-world rotation: x right, y down, z forward along track."""
    tx, ty = tangent
    fwd = np.array([tx * math.cos(pitch), ty * math.cos(pitch), -math.sin(pitch)])
    right = np.array([ty, -tx, 0.0])
    down = np.cross(fwd, right)
    base = np.stack([right, down, fwd], axis=1)
    return base @ _small_rotation(jitter)


def relative_rotation_angles(rot_ref, rot_obs):
    """Small-angle rotation taking reference view rays to observed ones."""
    rel = rot_ref.T @ rot_obs
    return np.array([
        (rel[2, 1] - rel[1, 2]) / 2.0,
        (rel[0, 2] - rel[2, 0]) / 2.0,
        (rel[1, 0] - rel[0, 1]) / 2.0,
    ])


def correspondence_from_arcs(ref_arc, obs_arc):
    """Nearest reference frame per observed frame, ties to the smaller index.

    Non-decreasing because both arc sequences are non-decreasing.
    """
    ref_arc = np.asarray(ref_arc, dtype=np.float64)
    out = np.empty(len(obs_arc), dtype=np.int64)
    for j, s in enumerate(np.asarray(obs_arc, dtype=np.float64)):
        i = int(np.searchsorted(ref_arc, s, side="left"))
        if i == 0:
            best = 0
        elif i >= len(ref_arc):
            best = len(ref_arc) - 1
        else:
            best = i - 1 if s - ref_arc[i - 1] <= ref_arc[i] - s else i
        # duplicates (stopped reference) canonicalize to the first index
        out[j] = int(np.searchsorted(ref_arc, ref_arc[best], side="left"))
    return out


def _resolve_profile(scene, ride, track_length=None):
    if ride.speed_profile is not None:
        return np.asarray(ride.speed_profile, dtype=np.float64)
    if track_length is None:
        track_length = _Track(scene.track_points).length
    prof = np.full(scene.frames, track_length / scene.frames)
    prof[0] = 0.0
    return prof


def _active_vehicles(ride, frame_index):
    return [v for v in ride.vehicles
            if v.first_frame <= frame_index <= v.last_frame]


def render_ride(scene, ride):
    """Render every frame of a ride; deterministic for a given scene seed."""
    track = _Track(scene.track_points)
    textures = _Textures(scene)
    profile = _resolve_profile(scene, ride, track.length)
    arc = np.cumsum(profile)
    if arc[-1] > track.length + 1e-9:
        raise ValueError("camera leaves the track domain")
    n = len(profile)
    jitter = (np.zeros((n, 3)) if ride.jitter is None
              else np.asarray(ride.jitter, dtype=np.float64))
    if len(jitter) != n:
        raise ValueError("jitter length does not match frame count")
    noise_rng = (np.random.default_rng([int(scene.seed), 97])
                 if ride.noise_sigma > 0 else None)

    h, w = scene.image_height, scene.image_width
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = (np.arange(w) - cx) / scene.focal_px
    ys = (np.arange(h) - cy) / scene.focal_px
    gx, gy = np.meshgrid(xs, ys)
    dirs_cam = np.stack([gx, gy, np.ones_like(gx)], axis=-1)

    frames, masks, rotations = [], [], []
    for j in range(n):
        point, tangent = track.point_and_tangent(float(arc[j]))
        rot = _camera_rotation(tangent, scene.camera_pitch, jitter[j])
        center = np.array([point[0], point[1], scene.camera_height])
        rgb, mask = _render_frame(scene, track, textures, center, rot,
                                  dirs_cam, ride, j, noise_rng)
        frames.append(rgb)
        masks.append(mask)
        rotations.append(rot)
    return RideRender(frames, masks, arc, np.stack(rotations))


def _render_frame(scene, track, textures, center, rot, dirs_cam, ride,
                  frame_index, noise_rng):
    h, w = scene.image_height, scene.image_width
    d = dirs_cam @ rot.T
    dz = d[..., 2]
    ground = dz < -1e-9
    t_ground = np.where(ground, -center[2] / np.where(ground, dz, -1.0), np.inf)
    t_safe = np.where(ground, t_ground, 0.0)
    px = center[0] + t_safe * d[..., 0]
    py = center[1] + t_safe * d[..., 1]

    road_dist = track.distance(px, py)
    half = scene.road_width / 2.0
    on_road = ground & (road_dist <= half)

    albedo = np.where(on_road[..., None],
                      textures.road.albedo(px, py),
                      textures.background.albedo(px, py))
    # painted line just inside each road edge anchors the boundary
    line = ground & (np.abs(road_dist - (half - 0.25)) <= 0.15)
    albedo[line] = np.minimum(albedo[line] * 1.35, 0.97)
    # distant ground fades to the base colors, taming horizon aliasing
    dist = t_ground * np.linalg.norm(d, axis=-1)
    fade = np.clip((dist - 25.0) / 40.0, 0.0, 1.0)[..., None]
    base_far = np.where(on_road[..., None], textures.road.base,
                        textures.background.base)
    albedo = albedo * (1.0 - fade) + base_far * fade
    albedo[~ground] = textures.sky

    # vehicles: billboards perpendicular to the track, nearest hit wins
    hit_t = t_ground.copy()
    vehicle_vis = np.zeros((h, w), dtype=bool)
    for veh in _active_vehicles(ride, frame_index):
        q2, tang = track.point_and_tangent(veh.arc_s)
        normal = np.array([tang[1], -tang[0]])
        foot = np.array([q2[0] + veh.lateral * normal[0],
                         q2[1] + veh.lateral * normal[1], 0.0])
        plane_n = np.array([tang[0], tang[1], 0.0])
        denom = d @ plane_n
        with np.errstate(divide="ignore", invalid="ignore"):
            t_v = ((foot - center) @ plane_n) / denom
            pvx = center[0] + t_v * d[..., 0]
            pvy = center[1] + t_v * d[..., 1]
            pvz = center[2] + t_v * d[..., 2]
            lat = (pvx - foot[0]) * normal[0] + (pvy - foot[1]) * normal[1]
            inside = (np.abs(denom) > 1e-9) & (t_v > 0.05) & (t_v < hit_t) \
                & (np.abs(lat) <= veh.width / 2.0) \
                & (pvz >= 0.0) & (pvz <= veh.height)
        if not inside.any():
            continue
        tex = textures.vehicle_noise.sample(lat[inside], pvz[inside], 0.6)
        shade = np.clip(veh.albedo_scale * (0.35 + 0.4 * tex), 0.02, 0.97)
        albedo[inside] = np.stack(
            [shade * 1.05, shade * 0.55, shade * 0.5], axis=-1).clip(0.02, 0.97)
        hit_t = np.where(inside, t_v, hit_t)
        vehicle_vis |= inside

    mask = on_road & ~vehicle_vis

    # lighting: shadow bands over whatever surface the ray hits, then gain
    rgb = albedo
    if ride.shadows:
        surface = np.isfinite(hit_t)
        ht = np.where(surface, hit_t, 0.0)
        hx = center[0] + ht * d[..., 0]
        hy = center[1] + ht * d[..., 1]
        proj = track.chord_projection(hx, hy)
        for band in ride.shadows:
            inside = surface & (proj >= band.start) & (proj <= band.end)
            factors = band.channel_factors(scene.theta) + ride.model_violation
            rgb = np.where(inside[..., None], rgb * factors, rgb)
    rgb = rgb * ride.gain
    if noise_rng is not None:
        rgb = rgb + noise_rng.normal(0.0, ride.noise_sigma, rgb.shape)
        rgb = np.clip(rgb, 1.0 / 510.0, 1.0)
    if rgb.min() <= 0.0 or rgb.max() > 1.0 + 1e-12:
        raise ValueError("rendered values left (0, 1]; check gain/attenuation")
    return np.clip(rgb, None, 1.0), mask


def make_pair(scene, ride_ref, ride_obs, out_dir):
    """Render both rides to disk and write the ground-truth files.

    Layout under out_dir: ref/frame_%06d.ppm + ref/mask_%06d.pgm, the
    same under obs/, plus truth_correspondence.csv, truth_omega.csv and
    scene.cfg. Identical specs produce byte-identical trees. A frame or
    mask file already in ref/ or obs/ that this render would not
    overwrite is a DataError, raised before anything is written: a run
    would pair it with this render's frames.
    """
    out = Path(out_dir)
    for name, ride in (("ref", ride_ref), ("obs", ride_obs)):
        count = len(_resolve_profile(scene, ride))
        written = {pattern.format(j) for pattern in (_FRAME_NAME, _MASK_NAME)
                   for j in range(count)}
        stale = sorted(p for glob in ("frame_*.ppm", "mask_*.pgm")
                       for p in (out / name).glob(glob)
                       if p.name not in written)
        if stale:
            raise DataError(f"{stale[0]} is not a file of the {count} "
                            f"frames this render writes; use an empty "
                            f"directory")
    ref = render_ride(scene, ride_ref)
    obs = render_ride(scene, ride_obs)
    for name, render in (("ref", ref), ("obs", obs)):
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        for j, (frame, mask) in enumerate(zip(render.frames, render.masks)):
            save_image_rgb(frame, sub / _FRAME_NAME.format(j))
            save_mask(mask, sub / _MASK_NAME.format(j))

    corr = correspondence_from_arcs(ref.arc, obs.arc)
    omega = np.stack([
        relative_rotation_angles(ref.rotations[corr[j]], obs.rotations[j])
        for j in range(len(obs.arc))
    ])

    lines = ["obs_index,ref_index"]
    lines += [f"{j},{int(corr[j])}" for j in range(len(corr))]
    (out / "truth_correspondence.csv").write_text("\n".join(lines) + "\n")

    lines = ["obs_index,omega_x,omega_y,omega_z"]
    lines += [
        f"{j},{omega[j, 0]:.10g},{omega[j, 1]:.10g},{omega[j, 2]:.10g}"
        for j in range(len(corr))
    ]
    (out / "truth_omega.csv").write_text("\n".join(lines) + "\n")

    (out / "scene.cfg").write_text(_scene_cfg_text(scene, ride_ref, ride_obs))
    return GroundTruth(corr, omega, scene.theta, ref.arc, obs.arc)


def _scene_cfg_text(scene, ride_ref, ride_obs):
    track = ";".join(f"{x:.10g},{y:.10g}" for x, y in scene.track_points)
    levels = pyramid_depth((scene.image_height, scene.image_width), 3)
    lines = [
        "# generated scene; also usable as an align/groundtruth config",
        f"theta={scene.theta:.10g}",
        f"focal_px={scene.focal_px:.10g}",
        "lag=5",
        "window=10",
        "smooth_sigma=1.5",
        "downsample_factor=8",
        f"pyramid_levels={levels}",
    ]
    values = (scene.seed, scene.image_width, scene.image_height,
              scene.frames, f"{scene.road_width:.10g}",
              f"{scene.camera_height:.10g}", f"{scene.camera_pitch:.10g}",
              track, len(_resolve_profile(scene, ride_ref)),
              len(_resolve_profile(scene, ride_obs)))
    lines += [f"{key}={value}" for key, value in zip(SCENE_KEYS, values,
                                                      strict=True)]
    return "\n".join(lines) + "\n"


def preset_street():
    """Default street-like pair: 120 reference frames, 90 observed frames
    with a stop, a shadow band and one parked vehicle."""
    scene = SceneSpec(
        seed=7,
        track_points=((0.0, 0.0), (0.0, 18.0), (2.5, 30.0), (4.5, 40.0)),
        road_width=4.0,
        image_width=160,
        image_height=120,
        focal_px=150.0,
        theta=0.7,
        frames=120,
    )
    rng = np.random.default_rng([scene.seed, 1])
    ref_profile = np.full(120, 0.2)
    ref_profile[0] = 0.0
    ride_ref = RideSpec(
        speed_profile=tuple(ref_profile),
        jitter=tuple(map(tuple, rng.uniform(-0.004, 0.004, (120, 3)))),
    )
    rng = np.random.default_rng([scene.seed, 2])
    obs_profile = np.concatenate([
        np.full(30, 0.30), np.full(20, 0.22), np.zeros(12), np.full(28, 0.35)
    ])
    obs_profile[0] = 0.0
    ride_obs = RideSpec(
        speed_profile=tuple(obs_profile),
        jitter=tuple(map(tuple, rng.uniform(-0.006, 0.006, (90, 3)))),
        shadows=(ShadowBand(start=5.5, end=11.5, attenuation=0.55, planck=0.35),),
        gain=0.92,
        vehicles=(Vehicle(arc_s=17.5, lateral=0.9, width=1.7, height=1.5,
                          albedo_scale=1.0, first_frame=30, last_frame=60),),
    )
    return scene, ride_ref, ride_obs


def preset_mini():
    """Small straight-road pair for smoke tests and quick demos."""
    scene = SceneSpec(
        seed=11,
        track_points=((0.0, 0.0), (0.0, 12.0)),
        road_width=3.5,
        image_width=80,
        image_height=60,
        focal_px=75.0,
        theta=0.7,
        frames=18,
    )
    rng = np.random.default_rng([scene.seed, 1])
    ride_ref = RideSpec(
        jitter=tuple(map(tuple, rng.uniform(-0.003, 0.003, (18, 3)))),
    )
    rng = np.random.default_rng([scene.seed, 2])
    obs_profile = np.full(14, 0.7)
    obs_profile[0] = 0.0
    ride_obs = RideSpec(
        speed_profile=tuple(obs_profile),
        jitter=tuple(map(tuple, rng.uniform(-0.003, 0.003, (14, 3)))),
    )
    return scene, ride_ref, ride_obs


PRESETS = {"street": preset_street, "mini": preset_mini}


def load_spec(spec):
    """(scene, reference ride, observed ride) of a preset name, or of a
    key=value file naming a `preset` (default street) plus overrides.

    A key the file may not set and a value that does not parse or that
    the scene or ride refuses are ConfigErrors.
    """
    if spec in PRESETS:
        return PRESETS[spec]()
    path = Path(spec)
    if not path.is_file():
        raise DataError(f"unknown preset or missing spec file: {spec}")
    raw = read_key_values(path)
    check_keys(raw, {"preset", *_SPEC_SCENE_KEYS, *_SPEC_OBS_RIDE_KEYS},
               "spec key")
    name = raw.get("preset", "street")
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    scene, ride_ref, ride_obs = PRESETS[name]()
    try:
        scene_kw = {k: cast(raw[k]) for k, cast in _SPEC_SCENE_KEYS.items()
                    if k in raw}
        ride_kw = {k: cast(raw[k]) for k, cast in _SPEC_OBS_RIDE_KEYS.items()
                   if k in raw}
        return (replace(scene, **scene_kw), ride_ref,
                replace(ride_obs, **ride_kw))
    except ValueError as exc:
        raise ConfigError(f"bad value in {spec}: {exc}") from exc
