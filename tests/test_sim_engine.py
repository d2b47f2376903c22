"""Tests for the discrete-event kernel (clock, engine, processes)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Clock, Engine, Timeout


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_advance_to(self):
        c = Clock()
        c.advance_to(1.5)
        assert c.now == 1.5

    def test_advance_by(self):
        c = Clock(1.0)
        c.advance_by(0.25)
        assert c.now == 1.25

    def test_no_time_travel(self):
        c = Clock(2.0)
        with pytest.raises(SimulationError):
            c.advance_to(1.0)
        with pytest.raises(SimulationError):
            c.advance_by(-0.1)


class TestEngineScheduling:
    def test_events_run_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule_at(3.0, lambda: seen.append(3))
        eng.schedule_at(1.0, lambda: seen.append(1))
        eng.schedule_at(2.0, lambda: seen.append(2))
        eng.run()
        assert seen == [1, 2, 3]

    def test_fifo_for_simultaneous_events(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.schedule_at(1.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_schedule_after(self):
        eng = Engine()
        eng.clock.advance_to(10.0)
        times = []
        eng.schedule_after(0.5, lambda: times.append(eng.clock.now))
        eng.run()
        assert times == [10.5]

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(1.0, lambda: seen.append("a"))
        eng.schedule_at(2.0, lambda: seen.append("b"))
        ev.cancel()
        eng.run()
        assert seen == ["b"]

    def test_run_until_leaves_future_events(self):
        eng = Engine()
        seen = []
        eng.schedule_at(1.0, lambda: seen.append(1))
        eng.schedule_at(5.0, lambda: seen.append(5))
        eng.run(until=2.0)
        assert seen == [1]
        assert eng.clock.now == 2.0
        assert eng.pending == 1
        eng.run()
        assert seen == [1, 5]

    def test_events_scheduled_during_run(self):
        eng = Engine()
        seen = []

        def first():
            seen.append("first")
            eng.schedule_after(1.0, lambda: seen.append("second"))

        eng.schedule_at(0.5, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.clock.now == 1.5

    def test_event_budget(self):
        eng = Engine()

        def rearm():
            eng.schedule_after(1.0, rearm)

        eng.schedule_at(0.0, rearm)
        with pytest.raises(SimulationError, match="budget"):
            eng.run(max_events=100)

    def test_events_executed_counter(self):
        eng = Engine()
        for t in (1.0, 2.0, 3.0):
            eng.schedule_at(t, lambda: None)
        eng.run()
        assert eng.events_executed == 3

    def test_lifetime_event_cap(self):
        eng = Engine(max_events=100)

        def rearm():
            eng.schedule_after(1.0, rearm)

        eng.schedule_at(0.0, rearm)
        with pytest.raises(SimulationError, match="event cap"):
            eng.run()
        assert eng.events_executed == 100

    def test_lifetime_cap_spans_run_calls(self):
        """The cap is cumulative over the engine's life, not per run()."""
        eng = Engine(max_events=3)
        for t in (1.0, 2.0, 3.0, 4.0):
            eng.schedule_at(t, lambda: None)
        eng.run(until=2.5)  # 2 events
        with pytest.raises(SimulationError, match="event cap"):
            eng.run()  # the 4th event trips the cap

    def test_uncapped_engine_unaffected(self):
        eng = Engine()
        for t in (1.0, 2.0, 3.0):
            eng.schedule_at(t, lambda: None)
        eng.run()
        assert eng.clock.now == 3.0

    def test_invalid_cap_rejected(self):
        with pytest.raises(SimulationError):
            Engine(max_events=0)

    def test_cap_then_resume_round_trip(self):
        """The cap error must leave the queue intact: the event that
        tripped it stays queued, and raising the cap resumes exactly
        where the simulation stopped (no event is silently lost)."""
        eng = Engine(max_events=2)
        seen = []
        for t in (1.0, 2.0, 3.0):
            eng.schedule_at(t, lambda t=t: seen.append(t))
        with pytest.raises(SimulationError, match="event cap"):
            eng.run()
        assert seen == [1.0, 2.0]
        assert eng.pending == 1  # the tripping event was NOT popped
        eng.max_events = 3
        eng.run()
        assert seen == [1.0, 2.0, 3.0]
        assert eng.pending == 0

    def test_cap_tightened_mid_run_is_honored(self):
        """A watchdog callback that lowers max_events mid-run() must stop
        the loop at the new cap (run() reads the cap per event, like
        step()-driven loops do)."""
        eng = Engine(max_events=1000)
        seen = []

        def watchdog():
            # inside the callback events_executed does not yet include the
            # watchdog event itself, so this allows 2 further events
            eng.max_events = eng.events_executed + 3

        eng.schedule_at(0.5, watchdog)
        for t in range(1, 20):
            eng.schedule_at(float(t), lambda t=t: seen.append(t))
        with pytest.raises(SimulationError, match="event cap"):
            eng.run()
        assert seen == [1, 2]  # watchdog + 2 events reach the cap of 3

    def test_cap_error_repeats_until_raised(self):
        """Catching the cap error and calling run() again re-raises with
        the queue still intact (a consistent, inspectable engine)."""
        eng = Engine(max_events=1)
        eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        for _ in range(3):
            with pytest.raises(SimulationError, match="event cap"):
                eng.run()
            assert eng.pending == 1
            assert eng.events_executed == 1


class TestNonFiniteRejection:
    def test_schedule_at_rejects_nan(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="finite"):
            eng.schedule_at(float("nan"), lambda: None)

    def test_schedule_at_rejects_inf(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="finite"):
            eng.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_at(float("-inf"), lambda: None)

    def test_schedule_after_rejects_non_finite_delay(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="finite"):
            eng.schedule_after(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            eng.schedule_after(float("inf"), lambda: None)

    def test_nan_does_not_corrupt_heap_order(self):
        """Regression: a NaN time used to pass the `t < now` guard (NaN
        comparisons are all false) and silently corrupt heap ordering."""
        eng = Engine()
        seen = []
        eng.schedule_at(1.0, lambda: seen.append(1))
        with pytest.raises(SimulationError):
            eng.schedule_at(float("nan"), lambda: seen.append("nan"))
        eng.schedule_at(2.0, lambda: seen.append(2))
        eng.run()
        assert seen == [1, 2]

    def test_process_nan_timeout_rejected(self):
        eng = Engine()

        def bad():
            yield Timeout(float("nan"))

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_process_inf_timeout_rejected(self):
        eng = Engine()

        def bad():
            yield Timeout(float("inf"))

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()


class TestCancellation:
    def test_cancel_churn_keeps_the_heap_bounded(self):
        """Cancel-heavy churn must not accumulate dead entries in the heap."""
        eng = Engine()
        for i in range(10_000):
            eng.schedule_at(float(i) + 0.5, lambda: None).cancel()
        # lazy compaction keeps cancelled entries at most half the queue
        assert len(eng._queue) <= 2 * max(1, eng.pending)
        assert eng.pending == 0

    def test_cancel_is_idempotent(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(1.0, lambda: seen.append("x"))
        ev.cancel()
        ev.cancel()
        assert ev.cancelled
        eng.run()
        assert seen == []
        assert eng.pending == 0

    def test_cancel_after_execution_is_noop(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(1.0, lambda: seen.append("x"))
        eng.run()
        assert seen == ["x"]
        ev.cancel()  # late cancel must not corrupt pending bookkeeping
        assert not ev.cancelled  # the handle reports the truth: it ran
        assert eng.pending == 0
        eng.schedule_at(2.0, lambda: seen.append("y"))
        assert eng.pending == 1
        eng.run()
        assert seen == ["x", "y"]

    def test_pending_tracks_cancellations(self):
        eng = Engine()
        events = [eng.schedule_at(float(t), lambda: None) for t in range(1, 11)]
        assert eng.pending == 10
        for ev in events[:4]:
            ev.cancel()
        assert eng.pending == 6

    def test_compaction_shrinks_heap(self):
        """Once cancelled entries outnumber live ones, the heap is
        compacted eagerly — dead entries must not accumulate."""
        eng = Engine()
        events = [eng.schedule_at(float(t), lambda: None) for t in range(1, 101)]
        for ev in events[:60]:
            ev.cancel()
        assert eng.pending == 40
        assert len(eng._queue) <= 60  # dead entries dropped, not retained
        seen_cancelled = [ev for ev in events[:60] if not ev.cancelled]
        assert seen_cancelled == []  # handles still report cancellation

    def test_compaction_preserves_order(self):
        eng = Engine()
        seen = []
        events = []
        for t in range(1, 101):
            events.append(eng.schedule_at(float(t), lambda t=t: seen.append(t)))
        for ev in events[1::2]:  # cancel every even-index time
            ev.cancel()
        for ev in events[0:40:2]:
            ev.cancel()
        eng.run()
        assert seen == list(range(41, 101, 2))

    def test_cancelled_pops_count_against_run_budget(self):
        """A cancel-heavy queue must not spin run() outside its budget."""
        eng = Engine()
        events = [eng.schedule_at(float(t), lambda: None) for t in range(1, 11)]
        for ev in events[:5]:  # exactly half: below the compaction trigger
            ev.cancel()
        assert eng.pending == 5
        with pytest.raises(SimulationError, match="budget"):
            eng.run(max_events=5)  # 5 cancelled head pops exhaust it
        eng.run()  # plenty of budget: the 5 live events drain fine
        assert eng.events_executed == 5

    def test_step_skips_cancelled_without_counting(self):
        eng = Engine()
        seen = []
        ev = eng.schedule_at(1.0, lambda: seen.append("a"))
        eng.schedule_at(2.0, lambda: seen.append("b"))
        ev.cancel()
        assert eng.step() is True
        assert seen == ["b"]
        assert eng.events_executed == 1

    def test_cancel_inside_callback_triggering_compaction(self):
        """Regression: compaction rebinding self._queue used to strand a
        running run() on a stale list — cancelled callbacks executed
        anyway, post-compaction schedules vanished, and live events were
        duplicated (a later run() crashed moving the clock backwards)."""
        eng = Engine()
        seen = []
        victims = []

        def killer():
            seen.append("killer")
            for ev in victims:
                ev.cancel()  # mass-cancel: trips compaction mid-run
            eng.schedule_at(1.5, lambda: seen.append("late"))

        eng.schedule_at(1.0, killer)
        victims.extend(
            eng.schedule_at(2.0 + i, lambda i=i: seen.append(i)) for i in range(27)
        )
        eng.schedule_at(50.0, lambda: seen.append("survivor"))
        eng.run()
        assert seen == ["killer", "late", "survivor"]
        assert eng.clock.now == 50.0
        assert eng.pending == 0
        eng.run()  # no duplicated events left behind
        assert seen == ["killer", "late", "survivor"]

    def test_handle_exposes_time_and_seq(self):
        eng = Engine()
        ev = eng.schedule_at(3.5, lambda: None)
        assert ev.time == 3.5
        assert isinstance(ev.seq, int)
        assert not ev.cancelled


class TestProcesses:
    def test_periodic_process(self):
        eng = Engine()
        samples = []

        def sampler():
            for _ in range(4):
                samples.append(eng.clock.now)
                yield Timeout(0.25)

        eng.spawn(sampler(), name="sampler")
        eng.run()
        assert samples == [0.0, 0.25, 0.5, 0.75]

    def test_process_return_value(self):
        eng = Engine()

        def worker():
            yield Timeout(1.0)
            return 42

        proc = eng.spawn(worker())
        eng.run()
        assert not proc.alive
        assert proc.result == 42

    def test_kill_stops_process(self):
        eng = Engine()
        ticks = []

        def ticker():
            while True:
                ticks.append(eng.clock.now)
                yield Timeout(1.0)

        proc = eng.spawn(ticker())
        eng.run(until=2.5)
        proc.kill()
        eng.run(until=10.0)
        assert len(ticks) == 3  # t=0,1,2 then killed
        assert not proc.alive

    def test_negative_timeout_rejected(self):
        eng = Engine()

        def bad():
            yield Timeout(-1.0)

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_bad_yield_rejected(self):
        eng = Engine()

        def bad():
            yield "nonsense"

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()
