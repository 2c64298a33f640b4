"""Crash-injection harness for the durable streaming proxy.

The robustness claim of :mod:`repro.proxy.durability` is *bit-identical
recovery*: kill the service at any point — between operations or halfway
through writing a journal frame — and the recovered proxy's subsequent
schedule and statistics are indistinguishable from a process that never
died.  This harness proves it the blunt way:

1. The parent derives a deterministic operation script from a seed
   (register / unregister / submit / cancel / budget / tick churn,
   re-registering dropped names, ending in a burst of ticks so there is
   a "subsequent schedule" to compare).
2. A child process (``python tests/crash_harness.py --child ...``)
   replays the script against a :class:`DurableStreamingProxy` and dies
   with ``os._exit`` at the configured kill point:

   * ``--kill-after K`` — between operation K and K+1 (an op boundary);
   * ``--kill-frame K --torn-bytes B`` — after writing only ``B`` bytes
     of the K-th journal frame (a torn write, injected through the WAL's
     ``opener`` hook); ``B = -1`` writes the whole frame and *then* dies,
     exercising the journaled-but-never-applied window.

3. The parent recovers in-process from the same directory.  The journal
   sequence number says exactly how many script operations became
   durable (one frame per operation; a torn frame is an operation that
   never happened).  It replays the remainder of the script and
   fingerprints the result.
4. The fingerprint must equal that of an uninterrupted reference run of
   the full script — schedule pairs, global stats, and per-client stats,
   compared as canonical JSON.

A durable-mode leg kills at op boundaries too and recovers with
``recovery="durable"``, which keeps the clock, the client table and the
budget but no scheduling state: it compares those with an uninterrupted
run at the same journal seq (:func:`check_durable_recovery`).

This file is intentionally *not* named ``test_*`` so the tier-1 suite
stays fast; the CI ``crash-recovery`` job runs it by explicit path with
a seed matrix (``REPRO_CRASH_SEEDS``), and ``tests/test_durability.py``
imports one representative cell.

Run directly for a quick local sweep::

    PYTHONPATH=src python -m pytest tests/crash_harness.py -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
if str(SRC_ROOT) not in sys.path:  # direct --child execution
    sys.path.insert(0, str(SRC_ROOT))

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.proxy.durability import DurabilityConfig, DurableStreamingProxy

NUM_OPS = 28
NUM_RESOURCES = 5
EXIT_KILLED = 87


# ---------------------------------------------------------------------------
# Deterministic operation scripts
# ---------------------------------------------------------------------------


def make_script(seed: int, num_ops: int = NUM_OPS) -> list[dict]:
    """A deterministic churn script: JSON-able ops, identical everywhere.

    Cancel targets are chosen by global submission ordinal, which is the
    identity that survives process death.  The script tracks ownership
    so cancels are always legal: an unregistered client's needs leave
    ``alive`` with it, and a dropped name registers again with none.
    It ends with a tick burst so killed and reference runs have a
    post-churn schedule to diverge in (if the recovery were wrong).
    """
    rng = random.Random(seed)
    ops: list[dict] = []
    alive: dict[str, list[int]] = {}
    dropped: list[str] = []
    next_client = 0
    next_ordinal = 0
    for _ in range(num_ops - 4):
        roll = rng.random()
        if not alive or roll < 0.15:
            if dropped and rng.random() < 0.5:
                name = dropped.pop(rng.randrange(len(dropped)))
            else:
                name = f"client-{next_client}"
                next_client += 1
            alive[name] = []
            ops.append({"op": "register", "client": name})
        elif roll < 0.55:
            client = rng.choice(sorted(alive))
            windows = []
            for _ in range(rng.randint(1, 3)):
                rank = rng.randint(1, 2)
                cei = []
                for _ in range(rank):
                    start = rng.randint(0, 18)
                    cei.append(
                        [
                            rng.randrange(NUM_RESOURCES),
                            start,
                            start + rng.randint(0, 6),
                        ]
                    )
                windows.append(cei)
            ordinals = list(
                range(next_ordinal, next_ordinal + len(windows))
            )
            next_ordinal += len(windows)
            alive[client].extend(ordinals)
            ops.append({"op": "submit", "client": client, "ceis": windows})
        elif roll < 0.70:
            candidates = [c for c in sorted(alive) if alive[c]]
            if not candidates:
                ops.append({"op": "tick", "n": 1})
                continue
            client = rng.choice(candidates)
            count = rng.randint(1, min(2, len(alive[client])))
            picked = rng.sample(alive[client], count)
            for ordinal in picked:
                alive[client].remove(ordinal)
            ops.append(
                {"op": "cancel", "client": client, "ordinals": sorted(picked)}
            )
        elif roll < 0.78:
            ops.append(
                {"op": "budget", "value": rng.choice([0.5, 1.0, 1.5, 2.0])}
            )
        elif roll < 0.84:
            client = rng.choice(sorted(alive))
            del alive[client]
            dropped.append(client)
            ops.append({"op": "unregister", "client": client})
        else:
            ops.append({"op": "tick", "n": rng.randint(1, 3)})
    ops.extend({"op": "tick", "n": 2} for _ in range(4))
    return ops


def _cei_from_windows(windows: list[list[int]]) -> ComplexExecutionInterval:
    return ComplexExecutionInterval(
        eis=tuple(
            ExecutionInterval(resource=r, start=s, finish=f)
            for r, s, f in windows
        )
    )


def apply_op(proxy: DurableStreamingProxy, op: dict) -> None:
    kind = op["op"]
    if kind == "register":
        proxy.register_client(op["client"])
    elif kind == "unregister":
        proxy.unregister_client(op["client"])
    elif kind == "submit":
        proxy.submit_ceis(
            op["client"], [_cei_from_windows(w) for w in op["ceis"]]
        )
    elif kind == "cancel":
        all_ceis = proxy.submitted_ceis()
        proxy.cancel_ceis(
            op["client"], [all_ceis[ordinal] for ordinal in op["ordinals"]]
        )
    elif kind == "budget":
        proxy.set_budget(op["value"])
    elif kind == "tick":
        proxy.tick(op["n"])
    else:  # pragma: no cover - script generator bug
        raise AssertionError(f"unknown op {kind!r}")


def make_proxy(
    root: str, *, opener=None, recovery: str = "exact"
) -> DurableStreamingProxy:
    return DurableStreamingProxy(
        DurabilityConfig(
            root=root, fsync="never", snapshot_every=5, recovery=recovery
        ),
        budget=1.0,
        opener=opener,
    )


def fingerprint(proxy: DurableStreamingProxy) -> str:
    """Canonical JSON of everything that must be bit-identical."""
    stats = {
        k: v
        for k, v in proxy.stats().items()
        if k not in ("wal_seq", "degraded")
    }
    return json.dumps(
        {
            "pairs": [list(p) for p in proxy.monitor.schedule.pairs()],
            "stats": stats,
            "clients": {
                name: proxy.client_stats(name)
                for name in proxy.client_names
            },
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Child: replay the script and die on cue
# ---------------------------------------------------------------------------


class TornWriteOpener:
    """An ``opener`` whose files die partway through the N-th frame write.

    Every journal frame is exactly one ``write()`` call, so "die
    ``torn_bytes`` into frame K" is literal.  ``torn_bytes = -1``
    completes the write first — the frame is durable but the process
    dies before applying it.  The write counter lives on the opener, not
    the file, so it survives the reopen that follows every journal
    truncation.
    """

    def __init__(self, kill_at_write: int, torn_bytes: int) -> None:
        self.kill_at_write = kill_at_write
        self.torn_bytes = torn_bytes
        self.writes = 0

    def __call__(self, path: str, mode: str) -> "TornWriteFile":
        return TornWriteFile(open(path, mode), self)


class TornWriteFile:
    def __init__(self, inner, opener: TornWriteOpener) -> None:
        self._inner = inner
        self._opener = opener

    def write(self, data: bytes) -> int:
        self._opener.writes += 1
        if self._opener.writes == self._opener.kill_at_write:
            torn = self._opener.torn_bytes
            self._inner.write(data if torn < 0 else data[:torn])
            self._inner.flush()
            os._exit(EXIT_KILLED)
        return self._inner.write(data)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def child_main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kill-after", type=int, default=None)
    parser.add_argument("--kill-frame", type=int, default=None)
    parser.add_argument("--torn-bytes", type=int, default=1)
    parser.add_argument("--recovery", default="exact")
    args = parser.parse_args(argv)

    opener = None
    if args.kill_frame is not None:
        opener = TornWriteOpener(args.kill_frame, args.torn_bytes)

    proxy = make_proxy(args.root, opener=opener, recovery=args.recovery)
    for index, op in enumerate(make_script(args.seed)):
        if args.kill_after is not None and index == args.kill_after:
            os._exit(EXIT_KILLED)
        apply_op(proxy, op)
    # Survived every op: the kill point was past the script. The parent
    # treats this as a completed run (exit 0) and only checks equality.
    proxy.close()
    return 0


# ---------------------------------------------------------------------------
# Parent: kill, recover, compare
# ---------------------------------------------------------------------------


def run_child(root: str, seed: int, *extra: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            "--root",
            root,
            "--seed",
            str(seed),
            *extra,
        ],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode in (0, EXIT_KILLED), result.stderr
    return result.returncode


def reference_fingerprint(seed: int) -> str:
    with tempfile.TemporaryDirectory() as root:
        proxy = make_proxy(root)
        for op in make_script(seed):
            apply_op(proxy, op)
        mark = fingerprint(proxy)
        proxy.close()
        return mark


def recover_and_finish(root: str, seed: int) -> str:
    """Recover the killed service, finish the script, fingerprint it."""
    proxy = make_proxy(root)
    applied = proxy.journal_seq  # one journal record per applied op
    script = make_script(seed)
    assert applied <= len(script)
    for op in script[applied:]:
        apply_op(proxy, op)
    mark = fingerprint(proxy)
    proxy.close()
    return mark


def check_durable_recovery(recovered, reference) -> None:
    """Assert durable-mode recovery kept what it promises.

    The clock, the budget, the client names and each client's needs
    equal the reference's.  So do the withdrawals, except for a need one
    side had already closed (satisfied or failed) when the cancel came.
    Recovery restores needs without their captures: a need the live run
    satisfied comes back open and its later cancel withdraws it, and a
    restored need whose window passed fails before a later cancel.
    """
    before, after = reference.snapshot(), recovered.snapshot()
    assert after["now"] == before["now"]
    assert recovered.monitor.budget == reference.monitor.budget
    assert list(after["clients"]) == list(before["clients"])
    for name, needs in before["clients"].items():
        again = after["clients"][name]
        assert [n["cei"] for n in again] == [n["cei"] for n in needs]
        kept = zip(
            needs,
            again,
            reference.registry.ceis_of(name),
            recovered.registry.ceis_of(name),
        )
        for need, restored, live_cei, restored_cei in kept:
            if need["cancelled"] != restored["cancelled"]:
                keeper, cei = (
                    (recovered, restored_cei)
                    if need["cancelled"]
                    else (reference, live_cei)
                )
                view = keeper.monitor.pool.state_of(cei)
                assert view is not None and (view.satisfied or view.failed)


def crash_seeds() -> list[int]:
    spec = os.environ.get("REPRO_CRASH_SEEDS", "0,1,2")
    return [int(s) for s in spec.split(",") if s.strip()]


@pytest.mark.parametrize("seed", crash_seeds())
def test_kill_at_op_boundaries(seed: int) -> None:
    """os._exit between ops, early / middle / late: recovery is exact."""
    reference = reference_fingerprint(seed)
    rng = random.Random(1000 + seed)
    kill_points = sorted(
        {2, NUM_OPS // 2, NUM_OPS - 3, rng.randrange(1, NUM_OPS)}
    )
    for kill_after in kill_points:
        with tempfile.TemporaryDirectory() as root:
            code = run_child(root, seed, "--kill-after", str(kill_after))
            assert code == EXIT_KILLED
            assert recover_and_finish(root, seed) == reference, (
                f"seed {seed}: divergence after kill at op {kill_after}"
            )


@pytest.mark.parametrize("seed", crash_seeds())
def test_kill_at_op_boundaries_durable_mode(seed: int) -> None:
    """os._exit between ops, then ``recovery="durable"``: the recovered
    proxy keeps the uninterrupted run's clock, clients, needs,
    withdrawals and budget at the same journal seq, and again once both
    finish the script."""
    script = make_script(seed)
    rng = random.Random(3000 + seed)
    kill_points = sorted(
        {2, NUM_OPS // 2, NUM_OPS - 3, rng.randrange(1, NUM_OPS)}
    )
    for kill_after in kill_points:
        with tempfile.TemporaryDirectory() as root, \
                tempfile.TemporaryDirectory() as reference_root:
            code = run_child(
                root, seed, "--kill-after", str(kill_after),
                "--recovery", "durable",
            )
            assert code == EXIT_KILLED
            recovered = make_proxy(root, recovery="durable")
            reference = make_proxy(reference_root)
            applied = recovered.journal_seq
            assert applied == kill_after
            for op in script[:applied]:
                apply_op(reference, op)
            check_durable_recovery(recovered, reference)
            for op in script[applied:]:
                apply_op(recovered, op)
                apply_op(reference, op)
            check_durable_recovery(recovered, reference)
            recovered.close()
            reference.close()


@pytest.mark.parametrize("seed", crash_seeds())
def test_kill_mid_frame_torn_write(seed: int) -> None:
    """Die partway through a journal frame: the torn tail is dropped and
    recovery is still exact."""
    reference = reference_fingerprint(seed)
    rng = random.Random(2000 + seed)
    cases = [
        (rng.randrange(2, NUM_OPS), 1),  # one byte of the header
        (rng.randrange(2, NUM_OPS), 11),  # header + part of the payload
        (rng.randrange(2, NUM_OPS), -1),  # full frame, then die unapplied
    ]
    for kill_frame, torn_bytes in cases:
        with tempfile.TemporaryDirectory() as root:
            code = run_child(
                root,
                seed,
                "--kill-frame",
                str(kill_frame),
                "--torn-bytes",
                str(torn_bytes),
            )
            assert code == EXIT_KILLED
            assert recover_and_finish(root, seed) == reference, (
                f"seed {seed}: divergence after torn write "
                f"(frame {kill_frame}, {torn_bytes} bytes)"
            )


@pytest.mark.parametrize("seed", crash_seeds())
def test_double_crash(seed: int) -> None:
    """Kill, recover, kill again later, recover again: still exact."""
    reference = reference_fingerprint(seed)
    first, second = 3, NUM_OPS - 4
    with tempfile.TemporaryDirectory() as root:
        assert run_child(root, seed, "--kill-after", str(first)) == EXIT_KILLED
        # The second incarnation recovers in-directory, continues from
        # wherever the journal actually got to, and dies again.
        assert _resume_child(root, seed, second) == EXIT_KILLED
        assert recover_and_finish(root, seed) == reference, (
            f"seed {seed}: divergence after double crash"
        )


def _resume_child(root: str, seed: int, kill_after: int) -> int:
    """Run a child that recovers, continues the script, and dies again."""
    code = (
        "import sys; sys.path.insert(0, {src!r});"
        "import os;"
        "from tests.crash_harness import make_proxy, make_script, apply_op;"
        "proxy = make_proxy({root!r});"
        "script = make_script({seed});"
        "applied = proxy.journal_seq;"
        "ops = list(enumerate(script))[applied:];"
        "[os._exit({exit_code}) if i == {kill} else apply_op(proxy, op)"
        " for i, op in ops];"
        "proxy.close()"
    ).format(
        src=str(SRC_ROOT),
        root=root,
        seed=seed,
        kill=kill_after,
        exit_code=EXIT_KILLED,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode in (0, EXIT_KILLED), result.stderr
    return result.returncode


if __name__ == "__main__":
    if "--child" in sys.argv:
        argv = [a for a in sys.argv[1:] if a != "--child"]
        sys.exit(child_main(argv))
    sys.exit(pytest.main([__file__, "-q", *sys.argv[1:]]))
