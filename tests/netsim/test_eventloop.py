"""Discrete-event scheduler semantics."""

import pytest

from repro.netsim.eventloop import EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(0.3, lambda: fired.append("c"))
    loop.schedule(0.1, lambda: fired.append("a"))
    loop.schedule(0.2, lambda: fired.append("b"))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_schedule_order():
    loop = EventLoop()
    fired = []
    for name in "abc":
        loop.schedule(0.5, lambda n=name: fired.append(n))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_monotonically():
    loop = EventLoop()
    times = []
    loop.schedule(0.1, lambda: times.append(loop.now))
    loop.schedule(0.4, lambda: times.append(loop.now))
    loop.run()
    assert times == [pytest.approx(0.1), pytest.approx(0.4)]


def test_nested_scheduling():
    loop = EventLoop()
    fired = []

    def outer():
        fired.append(("outer", loop.now))
        loop.schedule(0.5, lambda: fired.append(("inner", loop.now)))

    loop.schedule(1.0, outer)
    loop.run()
    assert fired[0][0] == "outer"
    assert fired[1] == ("inner", pytest.approx(1.5))


def test_run_until_leaves_future_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(3.0, lambda: fired.append(3))
    loop.run(until=2.0)
    assert fired == [1]
    loop.run()
    assert fired == [1, 3]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        EventLoop().schedule(-0.1, lambda: None)


def test_runaway_guard():
    loop = EventLoop()
    fired = []

    def recur():
        fired.append(loop.now)
        loop.schedule(0.0, recur)

    loop.schedule(0.0, recur)
    with pytest.raises(RuntimeError, match="runaway"):
        loop.run(max_events=1000)
    # the budget is the number of events allowed; the one past it raises
    assert len(fired) == 1001


def test_event_at_exactly_until_fires():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, lambda: fired.append(loop.now))
    loop.schedule(2.5, lambda: fired.append(loop.now))
    loop.run(until=2.0)
    assert fired == [2.0]
    assert loop.now == 2.0


def test_run_until_on_an_empty_queue_moves_the_clock():
    loop = EventLoop()
    loop.run(until=1.5)
    assert loop.now == 1.5
    loop.run(until=0.5)                     # the clock never goes back
    assert loop.now == 1.5


def test_a_cancelled_event_never_runs_and_leaves_the_clock():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(loop.now))
    loop.cancel(loop.schedule(2.0, lambda: fired.append(loop.now)))
    loop.run()
    assert fired == [1.0]
    assert loop.now == 1.0


def test_cancelled_events_do_not_count_toward_max_events():
    loop = EventLoop()
    fired = []
    for _ in range(5):
        loop.cancel(loop.schedule(0.5, lambda: fired.append("cancelled")))
    loop.schedule(1.0, lambda: fired.append("live"))
    loop.run(max_events=1)
    assert fired == ["live"]


def test_cancel_of_none_or_of_an_event_that_ran_is_a_no_op():
    loop = EventLoop()
    fired = []
    ran = loop.schedule(1.0, lambda: fired.append(1))
    loop.run()
    loop.cancel(ran)
    loop.cancel(None)
    loop.schedule(1.0, lambda: fired.append(2))
    loop.run()
    assert fired == [1, 2]


def test_cancelling_keeps_the_schedule_order_of_remaining_ties():
    loop = EventLoop()
    fired = []
    events = [loop.schedule(0.5, lambda n=name: fired.append(n))
              for name in "abcde"]
    loop.cancel(events[1])
    loop.cancel(events[3])
    loop.run()
    assert fired == ["a", "c", "e"]


def test_handles_are_distinct_across_schedules():
    loop = EventLoop()
    handles = [loop.schedule(0.5, lambda: None) for _ in range(3)]
    loop.run()
    handles.append(loop.schedule(0.0, lambda: None))
    assert len(set(handles)) == len(handles)


def test_a_drained_run_leaves_no_cancelled_handles():
    loop = EventLoop()
    fired = []
    ran = loop.schedule(1.0, lambda: fired.append(1))
    loop.cancel(loop.schedule(2.0, lambda: fired.append(2)))
    loop.run()
    assert fired == [1] and not loop._cancelled
    # a cancel of an event that already ran leaves nothing behind either
    pending = loop.schedule(1.0, lambda: fired.append(3))
    loop.cancel(ran)
    loop.run()
    loop.cancel(pending)
    assert fired == [1, 3] and not loop._cancelled


def test_a_cancelled_tie_at_the_horizon_neither_fires_nor_moves_the_clock():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(loop.now))
    loop.cancel(loop.schedule(2.0, lambda: fired.append("cancelled")))
    loop.schedule(2.0, lambda: fired.append(loop.now))
    loop.cancel(loop.schedule(2.0, lambda: fired.append("cancelled")))
    loop.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert loop.now == 2.0 and not loop._queue and not loop._cancelled
    # alone at the horizon, with a live event past it: skipped, and the
    # clock reads the horizon, not the next event
    loop.cancel(loop.schedule(1.0, lambda: fired.append("cancelled")))
    loop.schedule(1.5, lambda: fired.append(loop.now))
    loop.run(until=3.0)
    assert fired == [1.0, 2.0] and loop.now == 3.0
    loop.run()
    assert fired == [1.0, 2.0, 3.5] and not loop._cancelled
