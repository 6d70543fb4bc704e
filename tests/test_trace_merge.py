"""Tests for cross-process trace aggregation.

The contract of :func:`repro.obs.chrome_trace`: align traces on the
shared monotonic clock (wall fallback when a trace lacks it), renumber real pids to stable virtual
pids ``1..N`` so re-merging is byte-identical, keep the OS pid in the
``process_name`` metadata, and always emit something
:func:`repro.obs.validate_chrome_trace` accepts.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.merge import TRACE_FILE_KEY


def _trace(label: str, pid: int, wall: float, mono: float,
           spans=((0.0, 0.5, "work"),)) -> obs.Trace:
    t = obs.Trace(label=label, pid=pid, wall_epoch=wall, mono_epoch=mono)
    for t_start, t_end, name in spans:
        t.spans.append(obs.Span(name=name, t_start=t_start, t_end=t_end))
    return t


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def test_trace_dict_round_trip():
    t = _trace("cell", pid=41, wall=100.0, mono=7.5)
    t.spans[0].counters["backtracks"] = 3.0
    t.spans[0].gauges["budget"] = 0.5
    t.spans[0].children.append(obs.Span(name="inner", t_start=0.1,
                                        t_end=0.2))
    t.counters["cells"] = 2.0
    t.gauges["util"] = 0.9
    back = obs.trace_from_dict(obs.trace_to_dict(t))
    assert back == t


def test_trace_from_dict_tolerates_missing_mono_epoch():
    data = obs.trace_to_dict(_trace("old", 1, 5.0, 9.0))
    del data["mono_epoch"]
    assert obs.trace_from_dict(data).mono_epoch == 0.0


def test_write_and_read_trace_file(tmp_path):
    path = tmp_path / "a.trace.json"
    traces = [_trace("x", 1, 1.0, 1.0), None, _trace("y", 2, 2.0, 2.0)]
    assert obs.write_trace_file(path, traces) == 2  # None skipped
    back = obs.read_trace_file(path)
    assert [t.label for t in back] == ["x", "y"]
    assert json.loads(path.read_text()).keys() == {TRACE_FILE_KEY}


def test_read_trace_file_accepts_bare_trace(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obs.trace_to_dict(_trace("solo", 3,
                                                        1.0, 1.0))))
    (only,) = obs.read_trace_file(path)
    assert only.label == "solo" and only.pid == 3


def test_read_trace_file_rejects_junk(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"not": "a trace"}')
    with pytest.raises(ValueError):
        obs.read_trace_file(path)


def test_collect_trace_files_expands_directories(tmp_path):
    (tmp_path / "b.trace.json").write_text("{}")
    (tmp_path / "a.trace.json").write_text("{}")
    (tmp_path / "ignored.json").write_text("{}")
    loose = tmp_path / "loose.json"
    loose.write_text("{}")
    got = obs.collect_trace_files([str(tmp_path), str(loose)])
    assert got == [str(tmp_path / "a.trace.json"),
                   str(tmp_path / "b.trace.json"),
                   str(loose)]


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def test_merge_assigns_stable_virtual_pids():
    traces = [
        _trace("worker-b", pid=9001, wall=10.0, mono=100.0),
        _trace("worker-a", pid=4242, wall=10.0, mono=100.0),
        _trace("worker-b2", pid=9001, wall=10.5, mono=100.5),
    ]
    merged = obs.chrome_trace(traces)
    assert obs.validate_chrome_trace(merged) == []
    meta = [e for e in merged["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"]
    # Real pids 4242 and 9001 become virtual pids 1 and 2 (sorted by
    # (pid, epoch, label)); the OS pid survives in the metadata args.
    by_os_pid = {m["args"]["os_pid"]: m["pid"] for m in meta}
    assert by_os_pid == {4242: 1, 9001: 2}
    # Same process twice -> same vpid, distinct tids.
    tids = sorted(m["tid"] for m in meta if m["args"]["os_pid"] == 9001)
    assert tids == [1, 2]


def test_merge_is_deterministic_regardless_of_input_order():
    traces = [_trace(f"t{i}", pid=100 + i, wall=float(i),
                     mono=50.0 + i) for i in range(4)]
    a = json.dumps(obs.chrome_trace(traces), sort_keys=True)
    b = json.dumps(obs.chrome_trace(list(reversed(traces))),
                   sort_keys=True)
    assert a == b


def test_merge_aligns_on_monotonic_clock():
    # Same machine: mono epochs 2s apart, wall epochs wildly skewed.
    early = _trace("early", pid=1, wall=1000.0, mono=500.0)
    late = _trace("late", pid=2, wall=10.0, mono=502.0)
    merged = obs.chrome_trace([early, late])
    assert merged["otherData"]["clock"] == "monotonic"
    spans = {e["pid"]: e for e in merged["traceEvents"]
             if e.get("ph") == "X"}
    # late's offset is (502-500)s = 2e6 us despite its "older" wall.
    assert spans[1]["ts"] == pytest.approx(0.0)
    assert spans[2]["ts"] == pytest.approx(2e6)


def test_merge_falls_back_to_wall_clock():
    # One trace without mono_epoch forces wall alignment.
    a = _trace("new", pid=1, wall=100.0, mono=50.0)
    b = _trace("old", pid=2, wall=101.0, mono=0.0)
    merged = obs.chrome_trace([a, b])
    assert merged["otherData"]["clock"] == "wall"
    old_span = [e for e in merged["traceEvents"]
                if e.get("ph") == "X" and e["pid"] == 2][0]
    assert old_span["ts"] == pytest.approx(1e6)
    assert obs.validate_chrome_trace(merged) == []


def test_merge_empty_input():
    merged = obs.chrome_trace([None, None])
    assert merged["traceEvents"] == []
    assert obs.validate_chrome_trace(merged) == []


def test_merge_carries_trace_totals():
    t = _trace("tot", pid=1, wall=1.0, mono=1.0)
    t.counters["cells_done"] = 3.0
    merged = obs.chrome_trace([t])
    instant = [e for e in merged["traceEvents"] if e.get("ph") == "I"]
    assert instant and instant[0]["args"]["cells_done"] == 3.0


def test_write_merged_trace(tmp_path):
    path = tmp_path / "merged.json"
    obj = obs.write_chrome_trace(path, [_trace("w", 1, 1.0, 1.0)])
    assert json.loads(path.read_text()) == obj


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_summarize_merged_lists_tracks_and_spans():
    traces = [
        _trace("cell a", pid=10, wall=1.0, mono=1.0,
               spans=((0.0, 1.0, "atpg"), (1.0, 1.5, "route"))),
        _trace("cell b", pid=11, wall=1.0, mono=1.0,
               spans=((0.0, 0.25, "atpg"),)),
    ]
    text = obs.summarize_merged(obs.chrome_trace(traces))
    assert "track pid=1 tid=1 (cell a)" in text
    assert "track pid=2 tid=1 (cell b)" in text
    assert "atpg" in text and "route" in text


def test_summarize_merged_empty():
    assert obs.summarize_merged({"traceEvents": []}) == (
        "(no complete events)")
