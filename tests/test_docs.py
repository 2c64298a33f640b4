"""Executable-documentation tests: the README snippets must stay runnable."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TUTORIAL = Path(__file__).resolve().parent.parent / "docs" / "tutorial.md"


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self, capsys):
        blocks = python_blocks(README)
        assert blocks, "README lost its quickstart code block"
        exec(compile(blocks[0], "<readme-quickstart>", "exec"), {})
        out = capsys.readouterr().out
        assert "completeness" in out

    def test_proxy_block_runs_with_context(self, capsys):
        blocks = python_blocks(README)
        proxy_blocks = [b for b in blocks if "MonitoringProxy" in b]
        assert proxy_blocks, "README lost its proxy code block"
        from repro import Epoch, ResourcePool

        context = {
            "epoch": Epoch(400),
            "pool": ResourcePool.from_names(
                ["MishBlog", "CNNBreakingNews", "CNNMoney"]
            ),
        }
        exec(compile(proxy_blocks[0], "<readme-proxy>", "exec"), context)
        out = capsys.readouterr().out
        assert out.strip()  # it prints the analyst's stats


class TestTutorial:
    def test_model_blocks_run(self):
        """The tutorial's self-contained model blocks (1 and 2) run."""
        blocks = python_blocks(TUTORIAL)
        assert len(blocks) >= 4
        context: dict = {}
        for block in blocks[:2]:  # §1: model; §1b: semantics
            exec(compile(block, "<tutorial>", "exec"), context)

    def test_policy_and_workload_blocks_run(self, capsys):
        """§3 on both engines and §4 run, given the budget, epoch and
        profiles that §1 and §2 build."""
        from repro import BudgetVector, Epoch, ProfileSet, cei
        from repro.online import MonitorConfig

        blocks = python_blocks(TUTORIAL)
        policy_block = next(b for b in blocks if "monitor.run(" in b)
        workload_block = next(b for b in blocks if "generate_profiles(" in b)
        vectorized = policy_block.replace(
            "preemptive=True)",
            'preemptive=True, config=MonitorConfig(engine="vectorized"))',
        )
        assert vectorized != policy_block
        printed = []
        for block in (policy_block, vectorized):
            context = {
                "epoch": Epoch(100),
                "budget": BudgetVector.constant(1, 100),
                "profiles": ProfileSet.from_ceis(
                    [cei((0, 10, 15), (1, 12, 20)), cei((2, 12, 12)), cei((3, 12, 12))]
                ),
                "MonitorConfig": MonitorConfig,
            }
            exec(compile(block, "<tutorial-policy>", "exec"), context)
            printed.append(capsys.readouterr().out.strip())
        # Budget 1 cannot probe resources 2 and 3 both at chronon 12.
        assert printed == [str(2 / 3)] * 2
        context = {"epoch": Epoch(100)}
        exec(compile(workload_block, "<tutorial-workloads>", "exec"), context)
        assert context["profiles"].num_ceis > 0

    def test_proxy_blocks_run(self, capsys):
        """§6: the query-text proxy and the mid-run session both run."""
        blocks = python_blocks(TUTORIAL)
        proxy_block = next(b for b in blocks if "MonitoringProxy(" in b)
        session_block = next(b for b in blocks if "ProxySession(" in b)
        exec(compile(proxy_block, "<tutorial-proxy>", "exec"), {})
        assert capsys.readouterr().out.strip()  # the analyst's report
        exec(compile(session_block, "<tutorial-session>", "exec"), {})
        assert capsys.readouterr().out.strip() == "1.0"

    def test_streaming_block_runs_with_context(self, capsys):
        """§7: the always-on service block, given a small morning."""
        from repro import cei

        blocks = python_blocks(TUTORIAL)
        streaming_block = next(b for b in blocks if "StreamingProxy(" in b)
        context = {"morning_ceis": [cei((0, 2, 8)), cei((1, 5, 12), (2, 5, 12))]}
        exec(compile(streaming_block, "<tutorial-streaming>", "exec"), context)
        assert capsys.readouterr().out.strip()  # ana's live stats

    def test_crash_block_runs_with_context(self, capsys, tmp_path, monkeypatch):
        """§8: the journaled proxy, reopened without a close, recovers
        the clock (its directory is relative, so it lands in tmp_path)."""
        from repro import ResourcePool, cei

        blocks = python_blocks(TUTORIAL)
        crash_block = next(b for b in blocks if "DurableStreamingProxy(" in b)
        monkeypatch.chdir(tmp_path)
        context = {
            "pool": ResourcePool.from_names(["MishBlog", "CNNBreakingNews", "CNNMoney"]),
            "morning_ceis": [cei((0, 2, 8)), cei((1, 5, 12), (2, 5, 12))],
        }
        exec(compile(crash_block, "<tutorial-crash>", "exec"), context)
        context["proxy"].close()
        assert capsys.readouterr().out.strip() == "30"

    def _walkthrough(self) -> dict:
        """The context §1–§4 leave behind, run in order: ``epoch`` and
        ``budget`` (§1, §2), ``trace``, ``rng`` and ``profiles`` (§4),
        and ``schedule`` from running MRSF on them (§3)."""
        blocks = python_blocks(TUTORIAL)
        workload_block = next(b for b in blocks if "generate_profiles(" in b)
        policy_block = next(b for b in blocks if "monitor.run(" in b)
        context: dict = {}
        for block in (*blocks[:3], workload_block, policy_block):
            exec(compile(block, "<tutorial>", "exec"), context)
        return context

    def test_noise_block_runs_with_context(self, capsys):
        """§5: synthetic noise over §4's trace, and a model fitted on a
        history trace and paired against §4's trace as the future."""
        from repro import simulate_auction_trace

        blocks = python_blocks(TUTORIAL)
        noise_block = next(b for b in blocks if "FPNModel(" in b)
        context = self._walkthrough()
        capsys.readouterr()
        history = simulate_auction_trace(
            context["epoch"], context["rng"], num_auctions=100, total_bids=1500
        )
        context["history_bundle"] = history.bundle
        context["future_bundle"] = context["trace"].bundle
        exec(compile(noise_block, "<tutorial-noise>", "exec"), context)
        resources = set(context["trace"].bundle.resources)
        assert set(context["noisy"]) == resources
        assert set(context["fitted"]) == resources
        assert any(context["fitted"].values())

    def test_diagnosing_block_runs_with_context(self, capsys):
        """§9: the probe breakdown and event coverage of §3's schedule."""
        blocks = python_blocks(TUTORIAL)
        diagnose_block = next(b for b in blocks if "diagnose(" in b)
        context = self._walkthrough()
        capsys.readouterr()
        exec(compile(diagnose_block, "<tutorial-diagnose>", "exec"), context)
        out = capsys.readouterr().out
        assert "probes:" in out and "CoverageReport(" in out

    def test_capacity_block_runs_with_context(self):
        """§10: the smallest budget reaching 80% on a small workload."""
        from repro import Epoch, ProfileSet, cei

        blocks = python_blocks(TUTORIAL)
        capacity_block = next(b for b in blocks if "minimum_budget_for(" in b)

        def make_my_profiles(rng):
            starts = rng.integers(0, 30, size=12)
            return ProfileSet.from_ceis(
                [cei((i % 4, int(s), int(s) + 3)) for i, s in enumerate(starts)]
            )

        context = {"epoch": Epoch(40), "make_my_profiles": make_my_profiles}
        exec(compile(capacity_block, "<tutorial-capacity>", "exec"), context)
        assert context["budget_needed"] >= 1
        assert context["achieved"] >= 0.8

    def test_every_mentioned_symbol_is_importable(self):
        """Every `repro.<something>` dotted name in the docs resolves."""
        import importlib

        text = README.read_text() + TUTORIAL.read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Try importing progressively; the tail may be an attribute.
            module = None
            for split in range(len(parts), 0, -1):
                try:
                    module = importlib.import_module(".".join(parts[:split]))
                    remainder = parts[split:]
                    break
                except ImportError:
                    continue
            assert module is not None, f"doc mentions unknown module {dotted}"
            target = module
            for attribute in remainder:
                assert hasattr(target, attribute), (
                    f"doc mentions {dotted} but {attribute!r} is missing"
                )
                target = getattr(target, attribute)


class TestEngineNames:
    def test_documented_engines_exist(self):
        """Every `engine="..."` the docs show is a current engine name."""
        import warnings

        from repro.online.config import Engine

        docs = [README, *sorted(README.parent.glob("docs/*.md"))]
        names = {
            name
            for path in docs
            for name in re.findall(r'engine="(\w+)"', path.read_text())
        }
        assert names, "the docs no longer show any engine"
        for name in sorted(names):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Engine.coerce(name)
