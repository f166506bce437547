"""Workload inputs for the pipeline benchmark, rendered from a seed.

Each workload names the synthetic pair it runs on, the pipeline mode,
and the number of masks a correct run writes. The scene (route,
textures, shadow band, vehicle) and the stored reference ride are fixed
per workload; the seed draws the per-frame camera jitter of the
observed ride, so each seed is a new drive over the same reference and
asks for the same amount of work. `street` with seed 7 is the
library's `street` preset exactly.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from roadalign.synth import RideSpec, SceneSpec, ShadowBand, Vehicle, preset_street

SCENE_SEED = 7  # textures and reference jitter of the long_ref scene
LAG = 5  # scene.cfg's lag; align leaves the last LAG frames unmasked


def street_pair(seed):
    """The `street` preset with the observed ride's jitter drawn from `seed`."""
    scene, ride_ref, ride_obs = preset_street()
    rng = np.random.default_rng([seed, 2])
    ride_obs = dataclasses.replace(
        ride_obs, jitter=tuple(map(tuple, rng.uniform(-0.006, 0.006, (90, 3)))))
    return scene, ride_ref, ride_obs


def long_ref_pair(seed):
    """A 600-frame reference ride at 80x60 and a 110-frame observed ride.

    The observed ride starts 50 m into the 124 m route and covers about
    30 m of it at street-like speeds, with a 12-frame stop, so the
    reference bank is ten times wider than the +-30 candidate band.
    """
    n_ref, n_obs = 600, 110
    scene = SceneSpec(
        seed=SCENE_SEED,
        track_points=((0.0, 0.0), (0.0, 30.0), (3.0, 55.0), (3.5, 80.0),
                      (0.5, 104.0), (1.0, 124.0)),
        road_width=3.5,
        image_width=80,
        image_height=60,
        focal_px=75.0,
        theta=0.7,
        frames=n_ref,
    )
    rng = np.random.default_rng([SCENE_SEED, 1])
    ref_profile = np.full(n_ref, 0.2)
    ref_profile[0] = 0.0
    ride_ref = RideSpec(
        speed_profile=tuple(ref_profile),
        jitter=tuple(map(tuple, rng.uniform(-0.004, 0.004, (n_ref, 3)))),
    )
    rng = np.random.default_rng([seed, 2])
    obs_profile = np.concatenate([
        np.full(35, 0.30), np.full(25, 0.22), np.zeros(12), np.full(38, 0.35)
    ])
    obs_profile[0] = 50.0
    ride_obs = RideSpec(
        speed_profile=tuple(obs_profile),
        jitter=tuple(map(tuple, rng.uniform(-0.006, 0.006, (n_obs, 3)))),
        shadows=(ShadowBand(start=58.0, end=63.0, attenuation=0.55,
                            planck=0.35),),
        gain=0.92,
        vehicles=(Vehicle(arc_s=70.0, lateral=0.8, width=1.6, height=1.4,
                          first_frame=35, last_frame=72),),
    )
    return scene, ride_ref, ride_obs


@dataclass(frozen=True)
class Workload:
    name: str
    pair: str      # which rendered pair it reads
    mode: str      # "align" or "groundtruth"
    n_obs: int

    @property
    def expected_masks(self):
        return self.n_obs - LAG if self.mode == "align" else self.n_obs


PAIRS = {"street": street_pair, "long_ref": long_ref_pair}

WORKLOADS = {
    w.name: w for w in (
        Workload("street", "street", "align", 90),
        Workload("street_gt", "street", "groundtruth", 90),
        Workload("long_ref", "long_ref", "align", 110),
    )
}
