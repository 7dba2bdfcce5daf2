"""Tests for repro.campaign.recovery — fault-tolerant campaign execution.

Covers the crash-consistent journal (checksums, torn-record tolerance,
plan-fingerprint rejection, serial and parallel resume), the recovery
policy knobs, the fsync sink mode, and the chaos paths of the parallel
executor: a SIGKILLed worker, a hung worker caught by the watchdog, a
poisoned chunk quarantined after K attempts, and a whole fleet dying
through its respawn budget.  The invariant asserted throughout is the
ISSUE's acceptance criterion: a disturbed campaign produces
bitwise-identical outcomes, per-layer vulnerability, trace events, and
perf tallies to an undisturbed serial run — only the recovery counters
(zero when nothing went wrong) may differ.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignInterrupted,
    CampaignJournal,
    InjectionCampaign,
    InjectionTrace,
    JournalMismatchError,
    RecoveryPolicy,
    load_journal,
    plan_fingerprint,
)
from repro.campaign.recovery import JournalError, coerce_policy
from repro.core import SingleBitFlip
from repro.observe import JsonlEventSink, load_events

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

#: Perf fields that legally differ between disturbed and undisturbed runs.
_NONDETERMINISTIC = ("elapsed_seconds", "injections_per_sec")
_RECOVERY = ("chunk_retries", "chunks_requeued", "chunks_quarantined",
             "worker_failures", "worker_respawns")


def _campaign(model, dataset, rng=11, **kwargs):
    return InjectionCampaign(
        model, dataset, error_model=SingleBitFlip(), criterion="top1",
        batch_size=4, pool_size=16, rng=rng, **kwargs)


def _science_tallies(campaign):
    """Perf counters minus wall clock and the recovery ledger."""
    d = campaign.perf.as_dict()
    for key in _NONDETERMINISTIC + _RECOVERY:
        d.pop(key)
    return d


def _assert_matches_serial(result, campaign, baseline_result, baseline_campaign,
                           trace=None, baseline_trace=None):
    assert result.injections == baseline_result.injections
    assert result.corruptions == baseline_result.corruptions
    assert np.array_equal(result.per_layer_injections,
                          baseline_result.per_layer_injections)
    assert np.array_equal(result.per_layer_corruptions,
                          baseline_result.per_layer_corruptions)
    assert _science_tallies(campaign) == _science_tallies(baseline_campaign)
    if trace is not None:
        assert trace.events == baseline_trace.events


# ---------------------------------------------------------------------- #
# RecoveryPolicy
# ---------------------------------------------------------------------- #

class TestRecoveryPolicy:
    def test_defaults_are_sane(self):
        policy = RecoveryPolicy()
        assert policy.max_chunk_attempts == 3
        assert policy.max_respawns == 2
        assert policy.watchdog_s is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_chunk_attempts"):
            RecoveryPolicy(max_chunk_attempts=0)
        with pytest.raises(ValueError, match="max_respawns"):
            RecoveryPolicy(max_respawns=-1)
        with pytest.raises(ValueError, match="watchdog_s"):
            RecoveryPolicy(watchdog_s=0)

    def test_coercion(self):
        assert coerce_policy(None) == RecoveryPolicy()
        assert coerce_policy({"max_respawns": 5}).max_respawns == 5
        policy = RecoveryPolicy(watchdog_s=9.0)
        assert coerce_policy(policy) is policy
        with pytest.raises(TypeError, match="recovery must be"):
            coerce_policy(42)


# ---------------------------------------------------------------------- #
# Sinks: fsync mode and torn final records
# ---------------------------------------------------------------------- #

class TestFsyncSink:
    def test_fsync_mode_flushes_to_disk_per_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        sink = JsonlEventSink(path, fsync=True)
        sink.emit({"n": 1})
        # Durable before close: another reader sees the record already.
        assert load_events(path) == [{"n": 1}]
        sink.close()

    def test_torn_final_record_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlEventSink(path, fsync=True) as sink:
            sink.emit({"n": 1})
            sink.emit({"n": 2})
        with path.open("a") as fh:
            fh.write('{"n": 3, "torn')  # kill -9 mid-write
        with pytest.warns(RuntimeWarning, match="corrupt event log line"):
            events = load_events(path)
        assert events == [{"n": 1}, {"n": 2}]


# ---------------------------------------------------------------------- #
# Journal format
# ---------------------------------------------------------------------- #

class TestJournalFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.write_header("f" * 64, {"network": "m", "n_injections": 8})
            journal.write_chunk(0, {"layer": 1, "positions": [0, 1],
                                    "injections": 2, "corruptions": 1,
                                    "perf": {"forwards": 1}})
        header, chunks, complete = load_journal(path)
        assert header["fingerprint"] == "f" * 64
        assert chunks[0]["injections"] == 2
        assert not complete

    def test_bad_checksum_record_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.write_header("f" * 64, {})
            journal.write_chunk(0, {"layer": 0, "positions": [0],
                                    "injections": 1, "corruptions": 0,
                                    "perf": {}})
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["corruptions"] = 1  # tampered tally, stale crc
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="bad checksum"):
            _, chunks, _ = load_journal(path)
        assert chunks == {}

    def test_torn_trailing_record_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.write_header("f" * 64, {})
            journal.write_chunk(0, {"layer": 0, "positions": [0],
                                    "injections": 1, "corruptions": 0,
                                    "perf": {}})
        with path.open("a") as fh:
            fh.write('{"type": "chunk_done", "chunk": 1, "inj')  # kill -9
        with pytest.warns(RuntimeWarning, match="corrupt event log"):
            header, chunks, _ = load_journal(path)
        assert header is not None
        assert list(chunks) == [0]

    def test_missing_file_is_empty_journal(self, tmp_path):
        header, chunks, complete = load_journal(tmp_path / "absent.jsonl")
        assert header is None and chunks == {} and not complete


# ---------------------------------------------------------------------- #
# Serial journal resume
# ---------------------------------------------------------------------- #

class TestSerialJournal:
    def test_interrupted_run_resumes_bitwise(self, trained_tiny_model, tmp_path):
        model, dataset, _ = trained_tiny_model
        n = 40
        base = _campaign(model, dataset)
        base_trace = InjectionTrace()
        base_result = base.run(n, trace=base_trace)

        # A full journaled run, then truncate it to simulate a crash that
        # left only the header and the first three chunk records durable.
        path = tmp_path / "j.jsonl"
        _campaign(model, dataset).run(n, journal=path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "journal_end"
        path.write_text("\n".join(lines[:4]) + "\n")

        resumed = _campaign(model, dataset)
        trace = InjectionTrace()
        result = resumed.run(n, journal=path, trace=trace)
        _assert_matches_serial(result, resumed, base_result, base,
                               trace, base_trace)
        # RNG stream equality: planning consumed identical draws.
        assert (resumed.rng.bit_generator.state
                == base.rng.bit_generator.state)
        _, chunks, complete = load_journal(path)
        assert complete
        first = _campaign(model, dataset)
        assert len(chunks) == len(first._chunks(first._plan(n)[1], n))

    def test_complete_journal_reruns_without_executing(self, trained_tiny_model,
                                                       tmp_path):
        model, dataset, _ = trained_tiny_model
        path = tmp_path / "j.jsonl"
        base = _campaign(model, dataset)
        base_result = base.run(24, journal=path)
        rerun = _campaign(model, dataset)
        result = rerun.run(24, journal=path)
        assert result.corruptions == base_result.corruptions
        assert _science_tallies(rerun) == _science_tallies(base)

    def test_mismatched_fingerprint_is_rejected(self, trained_tiny_model,
                                                tmp_path):
        model, dataset, _ = trained_tiny_model
        path = tmp_path / "j.jsonl"
        _campaign(model, dataset, rng=11).run(16, journal=path)
        other = _campaign(model, dataset, rng=12)  # different plan
        with pytest.raises(JournalMismatchError, match="different campaign"):
            other.run(16, journal=path)

    def test_mismatched_n_injections_is_rejected(self, trained_tiny_model,
                                                 tmp_path):
        model, dataset, _ = trained_tiny_model
        path = tmp_path / "j.jsonl"
        _campaign(model, dataset).run(16, journal=path)
        with pytest.raises(JournalMismatchError):
            _campaign(model, dataset).run(32, journal=path)

    def test_schema_version_is_enforced(self, trained_tiny_model, tmp_path):
        model, dataset, _ = trained_tiny_model
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.write_header("f" * 64, {})
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["v"] = 99
        from repro.campaign.recovery import _checksum

        record["crc"] = _checksum(record)
        path.write_text(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        with pytest.raises(JournalError, match="schema v99"):
            _campaign(model, dataset).run(16, journal=path)

    def test_fingerprint_is_plan_sensitive(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        c1 = _campaign(model, dataset, rng=11)
        c2 = _campaign(model, dataset, rng=11)
        c3 = _campaign(model, dataset, rng=12)
        f1 = plan_fingerprint(c1, 16, c1._plan(16))
        f2 = plan_fingerprint(c2, 16, c2._plan(16))
        f3 = plan_fingerprint(c3, 16, c3._plan(16))
        assert f1 == f2
        assert f1 != f3


def _rewrite_in_older_shape(path):
    """Rewrite a journal's chunk records as older builds wrote them.

    Those records repeated each lane row twice more: per-lane ``[layer,
    corrupted]`` ``tallies`` and the chunk's plan ``positions``, beside the
    same ``v: 1`` header.  Checksums are recomputed so the records load.
    """
    from repro.campaign.recovery import _checksum

    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "journal_start":
            assert record["v"] == 1
        if record["type"] == "chunk_done":
            rows = record["trace_events"]
            record["positions"] = [p for p, _ in rows]
            record["tallies"] = [[row["layer"], int(row["corrupted"])]
                                 for _, row in rows]
            record["crc"] = _checksum(record)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


class TestOlderRecordShape:
    """A journal whose chunk records carry ``tallies`` and ``positions`` too
    resumes bitwise: the fold reads only the lane rows."""

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_killed_run_resumes_bitwise(self, trained_tiny_model, tmp_path,
                                        monkeypatch, workers):
        from repro.campaign.runner import _CampaignRun

        model, dataset, _ = trained_tiny_model
        n = 40
        base = _campaign(model, dataset)
        base_trace = InjectionTrace()
        base_result = base.run(n, trace=base_trace)

        plan_of = _campaign(model, dataset)
        n_chunks = len(plan_of._chunks(plan_of._plan(n)[1], n))
        path = tmp_path / "j.jsonl"
        fold = _CampaignRun.fold

        def killed_after_three(self, cid, record, *args, **kwargs):
            folded = fold(self, cid, record, *args, **kwargs)
            if folded and len(self.done) == 3:
                raise KeyboardInterrupt
            return folded

        monkeypatch.setattr(_CampaignRun, "fold", killed_after_three)
        with pytest.raises(CampaignInterrupted):
            _campaign(model, dataset).run(n, journal=path, workers=workers)
        monkeypatch.setattr(_CampaignRun, "fold", fold)
        _rewrite_in_older_shape(path)
        _, chunks, complete = load_journal(path)
        # A fleet drains its in-flight chunks into the journal on interrupt.
        killed_at = len(chunks)
        assert 3 <= killed_at < n_chunks and not complete
        assert all("tallies" in r and "positions" in r for r in chunks.values())

        resumed = _campaign(model, dataset)
        trace = InjectionTrace()
        result = resumed.run(n, journal=path, trace=trace, workers=workers)
        _assert_matches_serial(result, resumed, base_result, base,
                               trace, base_trace)
        _, chunks, complete = load_journal(path)
        assert complete
        # Records appended by the resumed run carry the lane rows only.
        assert len(chunks) == n_chunks
        assert (sum("tallies" not in r for r in chunks.values())
                == n_chunks - killed_at)


class TestInterruptedPerf:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_interrupted_run_counts_its_completed_injections(
            self, trained_tiny_model, monkeypatch, workers):
        from repro.campaign.runner import _CampaignRun

        model, dataset, _ = trained_tiny_model
        orig = _CampaignRun.fold

        def interrupting(self, cid, record, *args, **kwargs):
            folded = orig(self, cid, record, *args, **kwargs)
            if folded and len(self.done) == 2:  # true for one fold only
                raise KeyboardInterrupt
            return folded

        monkeypatch.setattr(_CampaignRun, "fold", interrupting)
        campaign = _campaign(model, dataset)
        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(40, workers=workers)
        partial = info.value.partial
        assert 0 < partial["completed_injections"] < partial["n_injections"]
        assert campaign.perf.injections == partial["completed_injections"]
        assert campaign.perf.injections_per_sec > 0


# ---------------------------------------------------------------------- #
# Parallel chaos: worker death, hangs, poisoned chunks
# ---------------------------------------------------------------------- #

def _kill_once_in_worker(campaign, flagdir, parent_pid):
    """Monkeypatch ``_execute_chunk`` to SIGKILL the first worker that runs it.

    Forked workers inherit the patched bound method; the flag file makes
    the kill once-only across the fleet, and the parent pid guard keeps
    the parent process (and serial fallbacks) unharmed.
    """
    orig = type(campaign)._execute_chunk

    def chaotic(self, layer_idx, positions, *args, **kwargs):
        if os.getpid() != parent_pid:
            try:
                (flagdir / "killed").touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return orig(self, layer_idx, positions, *args, **kwargs)

    campaign._execute_chunk = chaotic.__get__(campaign)


@needs_fork
class TestParallelChaos:
    def test_sigkilled_worker_campaign_matches_serial(self, trained_tiny_model,
                                                      tmp_path):
        model, dataset, _ = trained_tiny_model
        n = 48
        base = _campaign(model, dataset)
        base_trace = InjectionTrace()
        base_result = base.run(n, trace=base_trace)

        campaign = _campaign(model, dataset)
        _kill_once_in_worker(campaign, tmp_path, os.getpid())
        trace = InjectionTrace()
        with pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(n, workers=2, trace=trace,
                                  journal=tmp_path / "j.jsonl")
        _assert_matches_serial(result, campaign, base_result, base,
                               trace, base_trace)
        info = campaign.parallel_info
        assert info["worker_failures"] == 1
        assert info["retries"] + info["requeued_chunks"] >= 1
        assert campaign.perf.worker_failures == 1
        _, _, complete = load_journal(tmp_path / "j.jsonl")
        assert complete

    def test_hung_worker_is_caught_by_the_watchdog(self, trained_tiny_model,
                                                   tmp_path):
        model, dataset, _ = trained_tiny_model
        n = 48
        base = _campaign(model, dataset)
        base_result = base.run(n)

        campaign = _campaign(model, dataset)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()
        flag = tmp_path / "hang"

        def hanging(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent:
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    time.sleep(600)
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = hanging.__get__(campaign)
        with pytest.warns(RuntimeWarning, match="watchdog"):
            result = campaign.run(n, workers=2,
                                  recovery={"watchdog_s": 2.0})
        _assert_matches_serial(result, campaign, base_result, base)
        info = campaign.parallel_info
        assert info["worker_failures"] >= 1
        assert info["retries"] >= 1

    def test_poisoned_chunk_is_quarantined_after_k_attempts(self,
                                                            trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        n = 48
        campaign = _campaign(model, dataset)
        probe = _campaign(model, dataset)
        plan_layers = probe._plan(n)[1]
        poisoned_chunk = probe._chunks(plan_layers, n)[0]
        bad = set(poisoned_chunk)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()

        def poisoned(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent and set(positions) & bad:
                raise RuntimeError("poisoned chunk")
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = poisoned.__get__(campaign)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = campaign.run(n, workers=2)
        info = campaign.parallel_info
        assert info["quarantined_chunks"] == 1
        # max_chunk_attempts=3 → two retries, then the terminal quarantine.
        assert info["retries"] == 2
        assert info["quarantined"][0]["error"].splitlines()[-1].endswith(
            "poisoned chunk")
        assert info["quarantined"][0]["positions"] == poisoned_chunk
        assert info["quarantined"][0]["layers"] == sorted(
            {int(plan_layers[p]) for p in bad})
        assert result.injections == n - len(bad)
        assert campaign.perf.chunks_quarantined == 1
        # The healthy remainder still matches the serial per-layer tallies.
        base = _campaign(model, dataset)
        base_result = base.run(n)
        healthy = np.array(base_result.per_layer_injections, copy=True)
        assert result.per_layer_injections.sum() == healthy.sum() - len(bad)

    def test_fleet_exhaustion_raises_with_journal_pointer(self,
                                                          trained_tiny_model,
                                                          tmp_path):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()

        def always_dies(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = always_dies.__get__(campaign)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="fleet exhausted"):
                campaign.run(48, workers=2,
                             recovery={"max_respawns": 1,
                                       "respawn_backoff_s": 0.01},
                             journal=tmp_path / "j.jsonl")

    def test_respawned_worker_finishes_the_campaign(self, trained_tiny_model,
                                                    tmp_path):
        model, dataset, _ = trained_tiny_model
        n = 48
        base = _campaign(model, dataset)
        base_result = base.run(n)

        # Kill *both* initial workers (one flag file each), emptying the
        # fleet so only a respawned replacement can finish the work.
        campaign = _campaign(model, dataset)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()

        def kill_first_two(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent:
                for slot in ("a", "b"):
                    try:
                        (tmp_path / slot).touch(exist_ok=False)
                    except FileExistsError:
                        continue
                    os.kill(os.getpid(), signal.SIGKILL)
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = kill_first_two.__get__(campaign)
        with pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(n, workers=2,
                                  recovery={"respawn_backoff_s": 0.01})
        _assert_matches_serial(result, campaign, base_result, base)
        assert campaign.parallel_info["worker_respawns"] >= 1
        assert campaign.perf.worker_respawns >= 1


# ---------------------------------------------------------------------- #
# Parallel journal resume and graceful shutdown (subprocess chaos)
# ---------------------------------------------------------------------- #

def _cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, **kwargs)


def _wait_for_journal(path, min_chunks, deadline_s=120.0):
    """Poll until the journal holds ``min_chunks`` chunk records."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if path.exists():
            done = sum(1 for line in path.read_text().splitlines()
                       if '"type":"chunk_done"' in line)
            if done >= min_chunks:
                return done
        time.sleep(0.02)
    raise AssertionError(f"journal never reached {min_chunks} chunks")


_SCIENCE_KEYS = ("injections", "corruptions", "corruption_rate")


def _science(record):
    out = {k: record[k] for k in _SCIENCE_KEYS}
    perf = dict(record["perf"])
    for key in _NONDETERMINISTIC + _RECOVERY:
        perf.pop(key)
    out["perf"] = perf
    return out


@needs_fork
class TestInterruptAndResume:
    N = 1200
    CAMPAIGN = ["inject", "alexnet", "--dataset", "cifar10", "--scale", "smoke",
                "--campaign", str(N), "--batch-size", "1", "--json"]

    @pytest.fixture(scope="class")
    def undisturbed(self):
        proc = _cli(self.CAMPAIGN + ["--workers", "2"])
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        return json.loads(out)

    def _interrupt_then_resume(self, tmp_path, sig, workers=2):
        campaign = self.CAMPAIGN + ["--workers", str(workers)]
        journal = tmp_path / "j.jsonl"
        proc = _cli(campaign + ["--journal", str(journal)],
                    start_new_session=True)
        try:
            _wait_for_journal(journal, min_chunks=5)
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        interrupted = load_journal(journal)
        assert interrupted[1], "no chunks were journaled before the signal"
        assert not interrupted[2], "campaign finished before the signal landed"

        resume = _cli(campaign + ["--journal", str(journal)])
        out2, err2 = resume.communicate(timeout=600)
        assert resume.returncode == 0, err2
        record = json.loads(out2)
        # batch_size=1 → one chunk per injection; the resumed run must end
        # with every chunk journaled exactly once and the footer written.
        _, chunks, complete = load_journal(journal)
        assert complete and len(chunks) == self.N
        return proc.returncode, out, record

    @pytest.mark.parametrize("workers", [2, 1])
    def test_sigterm_drains_and_resume_matches_undisturbed(self, tmp_path,
                                                           undisturbed, workers):
        rc, out, resumed = self._interrupt_then_resume(tmp_path, signal.SIGTERM,
                                                       workers)
        # Graceful shutdown: rc 130, a partial-progress JSON record, and no
        # orphan workers (communicate() returning at all proves the parent
        # exited; orphans would have kept its stdout pipe open).
        assert rc == 130
        partial = json.loads(out)
        assert partial["interrupted"] is True
        assert 0 < partial["completed_injections"] < partial["n_injections"]
        assert _science(resumed) == _science(undisturbed)

    def test_sigkill_journal_survives_and_resume_matches(self, tmp_path,
                                                         undisturbed):
        rc, _, resumed = self._interrupt_then_resume(tmp_path, signal.SIGKILL)
        assert rc == -signal.SIGKILL
        assert _science(resumed) == _science(undisturbed)

    def test_degraded_campaign_exits_rc3(self, monkeypatch, capsys, tmp_path):
        # A campaign that completes only by quarantining a chunk exits 3
        # and reports the recovery ledger in its --json record.
        from repro import cli
        from repro.campaign import InjectionCampaign

        orig = InjectionCampaign._execute_chunk
        parent = os.getpid()

        def poisoned(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent and 0 in positions:
                raise RuntimeError("poisoned chunk")
            return orig(self, layer_idx, positions, *args, **kwargs)

        # Forked workers inherit the patched class attribute.
        monkeypatch.setattr(InjectionCampaign, "_execute_chunk", poisoned)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rc = cli.main(["inject", "alexnet", "--scale", "smoke",
                           "--campaign", "48", "--workers", "2", "--json",
                           "--out-dir", str(tmp_path)])
        # The quarantine's flight dump lands in --out-dir, not the repo.
        assert list(tmp_path.glob("flight_*_quarantine.json"))
        record = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert record["degraded"] is True
        assert record["quarantined_chunks"] == 1
        assert record["retries"] == 2

    def test_journal_flag_requires_campaign(self, capsys):
        from repro import cli

        rc = cli.main(["inject", "alexnet", "--json", "--journal", "/tmp/x"])
        record = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert "requires --campaign" in record["error"]
