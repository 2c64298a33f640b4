"""The unified MonitorConfig API.

One frozen config object replaces the loose ``engine=``/``faults=``/
``retry=``/``workers=`` keywords across the entry points
(``OnlineMonitor``, ``simulate``, ``MonitoringProxy`` and its ``run``,
``run_suite``, ``sweep``).  These tests pin the enum coercion, the
dataclass validation, and — per entry point — that the removed keywords
are rejected with Python's own ``TypeError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online import (
    ENGINES,
    Engine,
    FailureModel,
    MonitorConfig,
    OnlineMonitor,
    RetryPolicy,
    resolve_config,
)
from repro.policies import SEDF
from repro.proxy import MonitoringProxy
from repro.sim.engine import simulate
from repro.sim.runner import run_suite, sweep
from tests.conftest import random_general_instance


class TestEngineEnum:
    def test_members_match_legacy_tuple(self):
        assert ENGINES == ("reference", "vectorized")
        assert len(Engine) == 2
        assert Engine.REFERENCE == "reference"
        assert Engine.VECTORIZED == "vectorized"

    def test_coerce_accepts_strings_and_members(self):
        assert Engine.coerce("vectorized") is Engine.VECTORIZED
        assert Engine.coerce(Engine.REFERENCE) is Engine.REFERENCE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ModelError, match="unknown engine 'quantum'"):
            Engine.coerce("quantum")


class TestMonitorConfig:
    def test_defaults(self):
        cfg = MonitorConfig()
        assert cfg.engine is Engine.REFERENCE
        assert cfg.faults is None and cfg.retry is None and cfg.workers is None

    def test_engine_string_coerced_on_construction(self):
        assert MonitorConfig(engine="vectorized").engine is Engine.VECTORIZED

    def test_unknown_engine_rejected(self):
        with pytest.raises(ModelError, match="engine"):
            MonitorConfig(engine="quantum")

    def test_workers_validated(self):
        assert MonitorConfig(workers=4).workers == 4
        with pytest.raises(ModelError, match="workers"):
            MonitorConfig(workers=0)

    def test_frozen(self):
        cfg = MonitorConfig()
        with pytest.raises(AttributeError):
            cfg.engine = Engine.VECTORIZED

    def test_replace_revalidates(self):
        cfg = MonitorConfig()
        assert cfg.replace(engine="vectorized").engine is Engine.VECTORIZED
        assert cfg.engine is Engine.REFERENCE  # original untouched
        with pytest.raises(ModelError):
            cfg.replace(engine="quantum")

    def test_retry_without_faults_allowed_as_template(self):
        # sweep templates carry a retry policy while per-point failure
        # models arrive later; only the monitor rejects the combination.
        cfg = MonitorConfig(retry=RetryPolicy(max_retries=1))
        assert cfg.faults is None
        with pytest.raises(ModelError, match="retry"):
            OnlineMonitor(SEDF(), BudgetVector.constant(1, 5), config=cfg)

    def test_health_defaults_none(self):
        assert MonitorConfig().health is None

    def test_health_without_faults_allowed_as_template(self):
        # Same template rule as retry: the config carries the health
        # knobs, sweep injects per-point failure models later.
        from repro.online import HealthConfig

        cfg = MonitorConfig(health=HealthConfig())
        assert cfg.faults is None
        with pytest.raises(ModelError, match="health"):
            OnlineMonitor(SEDF(), BudgetVector.constant(1, 5), config=cfg)

    def test_health_replace_revalidates(self):
        from repro.online import HealthConfig

        cfg = MonitorConfig(faults=FailureModel(rate=0.1))
        assert cfg.replace(health=HealthConfig()).health is not None
        assert cfg.health is None  # original untouched


class TestResolveConfig:
    def test_none_yields_defaults(self):
        assert resolve_config(None) == MonitorConfig()

    def test_config_passes_through(self):
        cfg = MonitorConfig(engine="vectorized")
        assert resolve_config(cfg) is cfg

    def test_non_config_rejected(self):
        with pytest.raises(ModelError, match="MonitorConfig"):
            resolve_config({"engine": "vectorized"})


# ----------------------------------------------------------------------
# The four entry points
# ----------------------------------------------------------------------

EPOCH = Epoch(15)


def _profiles(seed=0):
    rng = np.random.default_rng(seed)
    return random_general_instance(
        rng, num_resources=4, num_chronons=15, num_ceis=10, max_rank=2, max_width=3
    )


def _instance_factory(rng):
    return random_general_instance(
        rng, num_resources=4, num_chronons=15, num_ceis=10, max_rank=2, max_width=3
    )


def _sweep_kwargs():
    return dict(
        make_instance_for=lambda value: _instance_factory,
        epoch_for=lambda value: EPOCH,
        budget_for=lambda value: BudgetVector.constant(value, 15),
        policies=[("MRSF", True)],
        repetitions=1,
    )


class TestEntryPointShims:
    """Every entry point accepts config= and rejects the removed keywords."""

    @pytest.mark.parametrize(
        "call, error, match",
        [
            pytest.param(
                lambda: OnlineMonitor(
                    SEDF(), BudgetVector.constant(1, 15), engine="vectorized"
                ),
                TypeError, "unexpected keyword argument 'engine'",
                id="OnlineMonitor",
            ),
            pytest.param(
                lambda: simulate(
                    _profiles(), EPOCH, BudgetVector.constant(1, 15), "MRSF",
                    engine="vectorized",
                ),
                TypeError, "unexpected keyword argument 'engine'",
                id="simulate",
            ),
            pytest.param(
                lambda: MonitoringProxy(
                    EPOCH, ResourcePool.uniform(4), engine="vectorized"
                ),
                TypeError, "unexpected keyword argument 'engine'",
                id="MonitoringProxy",
            ),
            pytest.param(
                lambda: MonitoringProxy(EPOCH, ResourcePool.uniform(4)).run(
                    engine="vectorized"
                ),
                TypeError, "unexpected keyword argument 'engine'",
                id="MonitoringProxy.run",
            ),
            pytest.param(
                lambda: run_suite(
                    _instance_factory, EPOCH, BudgetVector.constant(1, 15),
                    [("MRSF", True)], repetitions=1, engine="vectorized",
                ),
                TypeError, "unexpected keyword argument 'engine'",
                id="run_suite",
            ),
            pytest.param(
                lambda: sweep([1], engine="vectorized", **_sweep_kwargs()),
                TypeError, "unexpected keyword argument 'engine'",
                id="sweep",
            ),
            pytest.param(
                lambda: MonitorConfig(engine="auto"),
                ModelError, "unknown engine 'auto'",
                id="auto",
            ),
        ],
    )
    def test_removed_spelling_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_monitor_accepts_config(self):
        monitor = OnlineMonitor(
            SEDF(),
            BudgetVector.constant(1, 15),
            config=MonitorConfig(engine="vectorized"),
        )
        assert monitor.engine == "vectorized"
        assert monitor.config.engine is Engine.VECTORIZED

    def test_monitor_legacy_faults_raises(self):
        with pytest.raises(TypeError, match=r"keyword argument 'faults'"):
            OnlineMonitor(
                SEDF(), BudgetVector.constant(1, 15), faults=FailureModel(rate=0.5)
            )

    def test_monitor_config_plus_legacy_raises(self):
        # A valid config does not make the removed keyword acceptable.
        with pytest.raises(TypeError, match=r"keyword argument 'engine'"):
            OnlineMonitor(
                SEDF(),
                BudgetVector.constant(1, 15),
                config=MonitorConfig(),
                engine="vectorized",
            )

    def test_proxy_accepts_config_and_legacy_raises(self):
        pool = ResourcePool.from_names(["A", "B"])
        proxy = MonitoringProxy(
            Epoch(10), pool, budget=1.0, config=MonitorConfig(engine="vectorized")
        )
        assert proxy.config.engine is Engine.VECTORIZED
        with pytest.raises(TypeError, match=r"keyword argument 'engine'"):
            MonitoringProxy(Epoch(10), pool, budget=1.0, engine="vectorized")

    def test_run_suite_accepts_config_and_legacy_raises(self):
        budget = BudgetVector.constant(1, 15)
        via_config = run_suite(
            _instance_factory, EPOCH, budget, [("MRSF", True)],
            repetitions=2, config=MonitorConfig(engine="vectorized"),
        )
        assert via_config["MRSF(P)"].completeness_mean >= 0.0
        with pytest.raises(TypeError, match=r"keyword argument 'engine'"):
            run_suite(
                _instance_factory, EPOCH, budget, [("MRSF", True)],
                repetitions=2, engine="vectorized",
            )

    def test_sweep_accepts_config_and_legacy_raises(self):
        kwargs = _sweep_kwargs()
        via_config = sweep([1], config=MonitorConfig(engine="vectorized"), **kwargs)
        assert via_config[1]["MRSF(P)"].completeness_mean >= 0.0
        with pytest.raises(TypeError, match=r"keyword argument 'engine'"):
            sweep([1], engine="vectorized", **kwargs)

    def test_sweep_faults_for_overrides_template_per_point(self):
        template = MonitorConfig(retry=RetryPolicy(max_retries=1))
        results = sweep(
            [0.0, 1.0],
            make_instance_for=lambda value: _instance_factory,
            epoch_for=lambda value: EPOCH,
            budget_for=lambda value: BudgetVector.constant(2, 15),
            policies=[("MRSF", True)],
            repetitions=2,
            config=template,
            faults_for=lambda value: (
                FailureModel(rate=value, seed=3) if value else None
            ),
        )
        clean = results[0.0]["MRSF(P)"]
        dead = results[1.0]["MRSF(P)"]
        assert clean.probes_failed_mean == 0.0
        assert dead.completeness_mean == 0.0
        assert dead.probes_failed_mean > 0

    def test_no_bare_keywords_left_in_src(self):
        """The redesign's acceptance check: src/ calls go through config=."""
        import pathlib
        import re

        pattern = re.compile(r"\b(?:engine|faults|retry)\s*=\s*(?!None\b)")
        offenders = []
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        for path in src.rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                stripped = line.split("#", 1)[0]
                if "=" not in stripped:
                    continue
                if re.search(r"def \w+|^\s*(?:engine|faults|retry)\s*[:=]", stripped):
                    continue  # definitions and config-field assignments
                if pattern.search(stripped) and "MonitorConfig(" not in stripped:
                    if re.search(r"\b(?:simulate|OnlineMonitor|MonitoringProxy|run_suite|sweep)\s*\(", stripped):
                        offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
