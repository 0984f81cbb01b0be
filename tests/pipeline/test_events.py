"""Tests of the per-run event stream (events.jsonl)."""

import json

import numpy as np
import pytest

from repro.pipeline.events import EVENTS_FILE, EventLog, read_events


class TestEventLog:
    def test_emit_and_read(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        with EventLog(path) as log:
            log.emit("run_begin", recipe="baseline")
            log.emit("epoch", epoch=1, loss=0.5)
        events = read_events(path)
        assert [e["event"] for e in events] == ["run_begin", "epoch"]
        assert events[1]["epoch"] == 1
        assert all("ts" in e for e in events)

    def test_null_log_drops_everything(self, tmp_path):
        log = EventLog.null()
        log.emit("anything", x=1)  # must not raise, must not write
        log.close()
        assert list(tmp_path.iterdir()) == []

    def test_append_across_attempts(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        with EventLog(path) as log:
            log.emit("first")
        with EventLog(path) as log:
            log.emit("second")
        assert [e["event"] for e in read_events(path)] == ["first",
                                                          "second"]

    def test_torn_tail_healed_on_append(self, tmp_path):
        # A SIGKILL mid-write leaves a truncated final line with no
        # newline; the next attempt must start on a fresh line.
        path = tmp_path / EVENTS_FILE
        with EventLog(path) as log:
            log.emit("whole")
        with open(path, "a") as fh:
            fh.write('{"ts": 1, "event": "torn')
        with EventLog(path) as log:
            log.emit("after_crash")
        events = read_events(path)
        assert [e["event"] for e in events] == ["whole", "after_crash"]

    def test_reader_skips_garbage_lines(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        path.write_text('{"ts": 1, "event": "ok"}\n'
                        'not json at all\n'
                        '[1, 2, 3]\n'
                        '\n'
                        '{"ts": 2, "event": "also_ok"}\n')
        assert [e["event"] for e in read_events(path)] == ["ok", "also_ok"]

    def test_numpy_values_serialized(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        with EventLog(path) as log:
            log.emit("metrics", loss=np.float64(0.25), n=np.int64(3))
        event = read_events(path)[0]
        assert event["loss"] == 0.25
        assert event["n"] == 3
        # The file is plain JSON lines.
        json.loads(path.read_text().splitlines()[0])

    def test_unserializable_value_stringified(self, tmp_path):
        path = tmp_path / EVENTS_FILE

        class Odd:
            def __repr__(self):
                return "<odd>"

        with EventLog(path) as log:
            log.emit("odd", value=Odd())
        assert read_events(path)[0]["value"] == "<odd>"

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        log = EventLog(path)
        log.emit("one")
        log.close()
        log.emit("two")
        assert [e["event"] for e in read_events(path)] == ["one"]

    def test_failing_sink_drops_event_not_run(self, tmp_path):
        # Something closes the handle under the log (disk full behaves
        # the same via OSError): emit must swallow it, disable the log,
        # and never raise — observability must not take the run down.
        path = tmp_path / EVENTS_FILE
        log = EventLog(path)
        log.emit("before")
        log._fh.close()  # simulate the handle dying under us
        log.emit("during")  # must not raise
        assert log._fh is None  # log disabled, not retried per event
        log.emit("after")  # still a no-op
        log.close()
        assert [e["event"] for e in read_events(path)] == ["before"]

    def test_oserror_on_write_drops_event(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        log = EventLog(path)

        class FailingHandle:
            def write(self, line):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass

            def close(self):
                pass

        log._fh.close()
        log._fh = FailingHandle()
        log.emit("lost")  # must not raise
        assert log._fh is None
