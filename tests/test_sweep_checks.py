"""The ``tests/sweep_checks.py`` subcommands CI runs without a daemon."""

from __future__ import annotations

import json

import pytest

from repro.chaos import FaultPlan, FaultSpec
from tests.sweep_checks import main


def test_fault_plan_kills_every_attempt_of_one_cell(tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert main(["fault-plan", str(path), "--tp", "2"]) == 0
    assert "kill s38417 2% at scan_reorder" in capsys.readouterr().out
    plan = FaultPlan.load(str(path))
    assert plan.faults == (
        FaultSpec(kind="kill", circuit="s38417", tp_percent=2.0,
                  stage="scan_reorder", times=-1),
    )


def _metrics(tmp_path, **changes):
    metrics = {"cache_hits": 2, "cache_hit_rate": 0.5, "queue_depth": 0}
    metrics.update(changes)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics))
    return str(path)


def test_metrics_dedup_accepts_a_deduplicated_idle_daemon(tmp_path,
                                                          capsys):
    assert main(["metrics-dedup", _metrics(tmp_path), "--hits", "2"]) == 0
    assert "2 cache hits" in capsys.readouterr().out


@pytest.mark.parametrize("changes", [
    {"cache_hits": 1},
    {"cache_hit_rate": 0.0},
    {"queue_depth": 1},
])
def test_metrics_dedup_rejects(tmp_path, changes):
    with pytest.raises(AssertionError):
        main(["metrics-dedup", _metrics(tmp_path, **changes),
              "--hits", "2"])
