"""Tests for GS3Config validation and derived quantities."""

import dataclasses
import math
import pickle

import pytest

from repro.core import GS3Config


class TestValidation:
    def test_defaults_valid(self):
        GS3Config()

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            GS3Config(ideal_radius=-1.0)

    def test_tolerance_too_large(self):
        with pytest.raises(ValueError):
            GS3Config(ideal_radius=100.0, radius_tolerance=90.0)

    def test_tolerance_zero(self):
        with pytest.raises(ValueError):
            GS3Config(radius_tolerance=0.0)

    def test_collect_window_too_small(self):
        with pytest.raises(ValueError):
            GS3Config(hop_latency=1.0, collect_window=1.5)


class TestDerived:
    def test_lattice_spacing(self):
        cfg = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
        assert cfg.lattice_spacing == pytest.approx(math.sqrt(3) * 100)

    def test_search_radius(self):
        cfg = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
        assert cfg.search_radius == pytest.approx(math.sqrt(3) * 100 + 50)

    def test_alpha(self):
        cfg = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
        assert cfg.alpha == pytest.approx(math.asin(25 / (math.sqrt(3) * 100)))

    def test_max_cell_radius(self):
        cfg = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
        assert cfg.max_cell_radius == pytest.approx(100 + 50 / math.sqrt(3))

    def test_neighbor_distance_band(self):
        cfg = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
        assert cfg.neighbor_distance_low == pytest.approx(
            math.sqrt(3) * 100 - 50
        )
        assert cfg.neighbor_distance_high == pytest.approx(
            math.sqrt(3) * 100 + 50
        )

    def test_failure_timeout(self):
        cfg = GS3Config(heartbeat_interval=10.0, failure_timeout_beats=2.5)
        assert cfg.failure_timeout == 25.0

    def test_recommended_max_range_exceeds_search_radius(self):
        cfg = GS3Config()
        assert cfg.recommended_max_range > cfg.search_radius

    def test_frozen(self):
        cfg = GS3Config()
        with pytest.raises(AttributeError):
            cfg.ideal_radius = 5.0


def _formulas(cfg):
    """Every derived quantity, from the paper's formulas."""
    R, R_t = cfg.ideal_radius, cfg.radius_tolerance
    root3 = math.sqrt(3.0)
    failure_timeout = cfg.failure_timeout_beats * cfg.heartbeat_interval
    return {
        "lattice_spacing": root3 * R,
        "search_radius": root3 * R + 2.0 * R_t,
        "alpha": math.asin(R_t / (root3 * R)),
        "max_cell_radius": R + 2.0 * R_t / root3,
        "cell_broadcast_range": R + 2.0 * R_t / root3 + R_t,
        "neighbor_distance_low": root3 * R - 2.0 * R_t,
        "neighbor_distance_high": root3 * R + 2.0 * R_t,
        "failure_timeout": failure_timeout,
        "root_stale_horizon": cfg.root_stale_timeouts * failure_timeout,
        "recommended_max_range": root3 * R + 4.0 * R_t,
    }


CONFIGS = [
    GS3Config(),
    GS3Config(
        ideal_radius=140.0,
        radius_tolerance=31.0,
        heartbeat_interval=7.0,
        failure_timeout_beats=2.5,
        root_stale_timeouts=4.0,
    ),
]


class TestDerivedComputedOnce:
    """Derived quantities are cached on first use; nothing else sees it."""

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_every_derived_value_equals_its_formula(self, cfg):
        for name, expected in _formulas(cfg).items():
            assert getattr(cfg, name) == pytest.approx(expected, rel=1e-12)
            # The second read is the cached value, not a recomputation.
            assert getattr(cfg, name) is getattr(cfg, name)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_cache_is_invisible_to_dict_eq_hash_and_pickle(self, cfg):
        fresh = dataclasses.replace(cfg)
        for name in _formulas(cfg):
            getattr(cfg, name)
        assert cfg.to_dict() == fresh.to_dict()
        assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(cfg)]
        assert cfg == fresh
        assert hash(cfg) == hash(fresh)
        # Pickles carry the fields only: the same bytes whichever
        # derived values were read, and the copy computes its own.
        assert pickle.dumps(cfg) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == fresh
        for name, expected in _formulas(cfg).items():
            assert getattr(copy, name) == getattr(cfg, name)

    def test_replace_recomputes_derived_values(self):
        cfg = GS3Config()
        for name in _formulas(cfg):
            getattr(cfg, name)
        wider = dataclasses.replace(cfg, ideal_radius=150.0)
        assert wider.lattice_spacing == pytest.approx(math.sqrt(3.0) * 150.0)
        for name, expected in _formulas(wider).items():
            assert getattr(wider, name) == pytest.approx(expected, rel=1e-12)
        assert wider.recommended_max_range != cfg.recommended_max_range
