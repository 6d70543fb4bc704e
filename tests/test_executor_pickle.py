"""Picklability lint: nothing unpicklable may escape a worker boundary.

The sweep executor ships :class:`_LevelTask` specs *into* worker
processes and :class:`FlowSummary` objects *out of* them (and into the
on-disk result cache).  Every type on that boundary must pickle; this
module is the import-time gate CI runs (with ``-p no:cacheprovider``)
so a config or summary field regressing to something unpicklable —
a lambda, an open handle, a netlist back-reference — fails fast, not
deep inside a pool worker.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import pytest

from repro.atpg import AtpgConfig
from repro.circuits import s38417_like
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    FlowConfig,
    FlowSummary,
    PathSummary,
    StaSummary,
    TestDataMetrics,
)
from repro.core.executor import _LevelTask
from repro.sta.analysis import StaConfig


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def make_summary() -> FlowSummary:
    """A fully populated summary, worst case for the boundary."""
    path = PathSummary(
        domain="clk", endpoint="ff1", startpoint="ff0",
        t_wires_ps=10.0, t_intrinsic_ps=20.0, t_load_dep_ps=30.0,
        t_setup_ps=40.0, t_skew_ps=-5.0, total_ps=95.0, slack_ps=5.0,
        n_test_points=2,
    )
    return FlowSummary(
        tp_percent=2.0,
        n_test_points=3,
        test=TestDataMetrics(
            n_test_points=3, n_flip_flops=40, n_chains=2, l_max=20,
            n_faults=1000, fault_coverage=0.97, fault_efficiency=0.99,
            n_patterns=80,
        ),
        area={"core_area_um2": 1234.5, "chip_area_um2": 2345.6},
        sta=StaSummary(paths={"clk": (path,)}, slow_nodes=("g1",),
                       hold_violations=0),
        stage_seconds={"tpi_scan": 0.1, "atpg": 1.0},
        log=("pid 1: atpg: 1000.0 ms",),
        cache_key="ab" * 32,
        worker_pid=1,
    )


@pytest.mark.parametrize("obj", [
    AtpgConfig(),
    StaConfig(),
    FlowConfig(exclude_nets={"n1", "n2"}),
    ExecutorConfig(jobs=4, cache_dir="/tmp/x"),
    TestDataMetrics(n_test_points=0, n_flip_flops=1, n_chains=1, l_max=1,
                    n_faults=1, fault_coverage=1.0, fault_efficiency=1.0,
                    n_patterns=1),
], ids=lambda o: type(o).__name__)
def test_configs_and_metrics_roundtrip(obj):
    assert roundtrip(obj) == obj


def test_flow_summary_roundtrips_exactly():
    summary = make_summary()
    assert roundtrip(summary) == summary


def test_flow_summary_fields_hold_no_heavy_objects():
    # The summary must never grow a netlist/placement back-reference:
    # that is the exact mistake this gate exists to catch.
    banned = {"circuit", "placement", "routed", "parasitics", "plan"}
    fields = {f.name for f in dataclasses.fields(FlowSummary)}
    assert not fields & banned
    blob = pickle.dumps(make_summary(), pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 16 * 1024  # summaries stay kilobytes, not netlists


def test_level_task_with_partial_factory_roundtrips():
    task = _LevelTask(
        name="s38417",
        tp_percent=1.0,
        circuit_factory=functools.partial(s38417_like, scale=0.01),
        flow=FlowConfig(),
        library=None,
        cache_key="cd" * 32,
    )
    clone = roundtrip(task)
    assert clone.name == task.name
    assert clone.flow == task.flow
    # The factory survives the trip and still builds the same netlist.
    assert clone.circuit_factory().stats() == task.circuit_factory().stats()


def test_experiment_config_with_partial_is_poolable():
    config = ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=0.01),
        tp_percents=(0.0, 1.0),
        flow=FlowConfig(),
    )
    clone = roundtrip(config)
    assert clone.tp_percents == config.tp_percents


# ----------------------------------------------------------------------
# Back-compat: pickles written before the resilience layer still load
# ----------------------------------------------------------------------
def strip_fields(obj, *names):
    """Clone ``obj`` as an older pickle would deserialise it: without
    the named (newer) instance attributes, so loading must fall back
    to the dataclass's class-level defaults."""
    import copy

    clone = copy.copy(obj)
    for name in names:
        clone.__dict__.pop(name, None)
    return clone


def test_old_executor_config_pickle_without_resilience_knobs():
    from repro.core.resilience import RetryPolicy

    config = ExecutorConfig(jobs=4, cache_dir="/tmp/x")
    old = roundtrip(strip_fields(
        config, "retries", "task_timeout_s", "backoff_base_s",
        "backoff_max_s", "fail_fast", "resume", "chaos",
    ))
    assert old.retries == 2
    assert old.task_timeout_s is None
    assert old.fail_fast is False and old.resume is False
    assert old.chaos is None
    assert isinstance(old.retry_policy, RetryPolicy)


def test_task_failure_and_sweep_report_roundtrip():
    from repro.core.resilience import SweepReport, TaskFailure

    failure = TaskFailure.from_exception(
        "s38417", 2.0, attempts=3, exc=OSError("disk hiccup"),
        cache_key="ab" * 32,
    )
    clone = roundtrip(failure)
    assert clone == failure  # exception excluded from equality
    assert clone.chain == ("OSError: disk hiccup",)
    report = SweepReport(failures=(failure,), retries=1, timeouts=2)
    clone = roundtrip(report)
    assert clone.failures == (failure,)
    assert (clone.retries, clone.timeouts) == (1, 2)


def test_old_task_failure_pickle_without_newer_fields():
    from repro.core.resilience import SweepReport, TaskFailure

    failure = TaskFailure("s38417", 2.0, 1, "OSError", "boom")
    old = roundtrip(strip_fields(failure, "chain", "cache_key",
                                 "retryable", "exception"))
    assert old.chain == () and old.cache_key == ""
    assert old.retryable is False and old.exception is None
    report = roundtrip(strip_fields(SweepReport(), "journal_path",
                                    "worker_crashes"))
    assert report.journal_path is None and report.worker_crashes == 0
