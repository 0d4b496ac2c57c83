"""Unit tests for the server's job model, fair queue, and journal."""

import asyncio
import json

import pytest

from repro.server import FairPriorityQueue, JobRecord, JobSpec, JobState, QueueFull
from repro.server.journal import SERVER_SCHEMA, ServerJournal


def _record(job_id="j1", client="a", priority=1, trials=1):
    spec = JobSpec(
        params={"scenario": "office"}, seeds=tuple(range(trials)),
        priority=priority, client=client,
    )
    return JobRecord(
        job_id=job_id, spec=spec, fingerprint=f"fp-{job_id}",
        total_trials=trials,
    )


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_spec_expands_grid_times_seeds(self):
        spec = JobSpec(
            params={"scenario": "office"},
            grid={"duration": (0.1, 0.2)},
            seeds=(0, 1, 2),
        )
        trials = spec.trials()
        assert len(trials) == 6
        assert all("scenario" in params for params, _ in trials)

    def test_fingerprint_ignores_grid_spelling(self):
        # The same fully-resolved work — spelled as a grid or as explicit
        # params — must share one fingerprint (that is what makes the
        # duplicate-submission cache path work).
        a = JobSpec(params={"scenario": "office", "duration": 0.1}, seeds=(0,))
        b = JobSpec(params={"scenario": "office"},
                    grid={"duration": (0.1,)}, seeds=(0,))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_differs_on_seeds(self):
        a = JobSpec(params={"scenario": "office"}, seeds=(0,))
        b = JobSpec(params={"scenario": "office"}, seeds=(1,))
        assert a.fingerprint() != b.fingerprint()

    def test_wire_roundtrip(self):
        spec = JobSpec(
            experiment="scenario", params={"scenario": "office"},
            grid={"duration": (0.1, 0.2)}, seeds=(3, 4),
            priority=0, client="alice",
        )
        assert JobSpec.from_wire(spec.to_wire()) == spec
        record = _record()
        record.transition(JobState.RUNNING)
        clone = JobRecord.from_wire(record.to_wire())
        assert clone.state == JobState.RUNNING
        assert clone.spec == record.spec

    def test_legacy_backend_key_is_ignored(self):
        # Older clients and journals sent a scheduler "backend" with every
        # job; it is accepted and dropped.
        record = _record()
        wire = record.to_wire()
        wire["spec"]["backend"] = "calendar"
        assert JobSpec.from_wire(wire["spec"]) == record.spec
        clone = JobRecord.from_wire(wire)
        assert clone.spec == record.spec
        assert "backend" not in clone.spec.to_wire()

    def test_legal_transitions(self):
        record = _record()
        record.transition(JobState.RUNNING)
        record.transition(JobState.DONE)
        assert record.terminal
        assert record.finished_at is not None

    def test_cache_hit_fast_path_transition(self):
        record = _record()
        record.transition(JobState.DONE)  # queued -> done is legal
        assert record.terminal

    @pytest.mark.parametrize("target", [JobState.QUEUED, JobState.RUNNING])
    def test_terminal_states_are_final(self, target):
        record = _record()
        record.transition(JobState.CANCELLED)
        with pytest.raises(ValueError):
            record.transition(target)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            JobSpec(seeds=())
        with pytest.raises(ValueError):
            JobSpec(priority=-1)


# ----------------------------------------------------------------------
# Fair priority queue
# ----------------------------------------------------------------------
def _drain(queue, n):
    async def take():
        return [await queue.get() for _ in range(n)]

    return asyncio.run(take())


class TestFairPriorityQueue:
    def test_priority_bands_dispatch_lowest_first(self):
        async def scenario():
            queue = FairPriorityQueue(maxsize=8)
            queue.put(_record("low", priority=5))
            queue.put(_record("high", priority=0))
            queue.put(_record("mid", priority=2))
            return [(await queue.get()).job_id for _ in range(3)]

        assert asyncio.run(scenario()) == ["high", "mid", "low"]

    def test_round_robin_within_band(self):
        async def scenario():
            queue = FairPriorityQueue(maxsize=16)
            # Client a floods the band; client b submits one job after.
            for i in range(5):
                queue.put(_record(f"a{i}", client="a"))
            queue.put(_record("b0", client="b"))
            return [(await queue.get()).job_id for _ in range(6)]

        order = asyncio.run(scenario())
        # b's single job waits at most one turn, not five.
        assert order.index("b0") == 1
        # a's own jobs stay FIFO.
        a_jobs = [j for j in order if j.startswith("a")]
        assert a_jobs == [f"a{i}" for i in range(5)]

    def test_backpressure_raises_queue_full(self):
        queue = FairPriorityQueue(maxsize=2)
        queue.put(_record("j1"))
        queue.put(_record("j2"))
        with pytest.raises(QueueFull) as excinfo:
            queue.put(_record("j3"), retry_after=7.5)
        assert excinfo.value.retry_after == 7.5
        assert excinfo.value.depth == 2
        # force=True (journal replay) bypasses the bound.
        queue.put(_record("j3"), force=True)
        assert queue.depth == 3

    def test_remove_queued_job(self):
        queue = FairPriorityQueue(maxsize=4)
        queue.put(_record("j1"))
        queue.put(_record("j2"))
        removed = queue.remove("j1")
        assert removed is not None and removed.job_id == "j1"
        assert queue.remove("j1") is None
        assert [r.job_id for r in _drain(queue, 1)] == ["j2"]

    def test_queued_trials_counts_totals(self):
        queue = FairPriorityQueue(maxsize=4)
        queue.put(_record("j1", trials=3))
        queue.put(_record("j2", trials=2))
        assert queue.queued_trials() == 5

    def test_get_blocks_until_put(self):
        async def scenario():
            queue = FairPriorityQueue(maxsize=4)
            getter = asyncio.create_task(queue.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            queue.put(_record("late"))
            return (await asyncio.wait_for(getter, timeout=1.0)).job_id

        assert asyncio.run(scenario()) == "late"


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestServerJournal:
    def test_replay_demotes_interrupted_jobs(self, tmp_path):
        journal = ServerJournal(tmp_path / "jobs.jsonl")
        journal.write_header()
        queued = _record("j1")
        running = _record("j2")
        running.transition(JobState.RUNNING)
        done = _record("j3")
        done.transition(JobState.DONE)
        for record in (queued, running, done):
            journal.record_job(record)
        journal.close()

        restored = {r.job_id: r for r in ServerJournal(journal.path).replay()}
        assert restored["j1"].state == JobState.QUEUED
        assert restored["j2"].state == JobState.QUEUED  # demoted
        assert restored["j2"].started_at is None
        assert restored["j3"].state == JobState.DONE  # terminal survives

    def test_last_state_wins(self, tmp_path):
        journal = ServerJournal(tmp_path / "jobs.jsonl")
        record = _record("j1")
        journal.record_job(record)
        record.transition(JobState.RUNNING)
        record.transition(JobState.DONE)
        journal.record_job(record)
        journal.close()
        restored = ServerJournal(journal.path).replay()
        assert [r.state for r in restored] == [JobState.DONE]

    def test_torn_trailing_line_tolerated(self, tmp_path):
        journal = ServerJournal(tmp_path / "jobs.jsonl")
        journal.write_header()
        journal.record_job(_record("j1"))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "job", "job_id": "j2", "sta')  # torn
        restored = ServerJournal(journal.path).replay()
        assert [r.job_id for r in restored] == ["j1"]

    def test_schema_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"kind": "header", "schema": SERVER_SCHEMA + 1}
            ) + "\n")
            handle.write(json.dumps(
                {"kind": "job", "job_id": "j1", "state": "queued"}
            ) + "\n")
        assert ServerJournal(path).replay() == []
