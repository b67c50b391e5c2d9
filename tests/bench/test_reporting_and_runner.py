"""Tests for the bench harness plumbing (no heavy simulations)."""

import inspect

import pytest

from repro.bench import ExperimentResult, Testbed, Windows, format_table
from repro.bench.__main__ import main
from repro.bench.experiments import ALL_EXPERIMENTS, run_table1


# -- reporting -----------------------------------------------------------------

def test_experiment_result_rows_and_lookup():
    r = ExperimentResult("x", "t", columns=["a", "config", "value"])
    r.add_row(a=1, config="SW", value=10.0)
    r.add_row(a=1, config="QTLS", value=90.0)
    assert r.value(a=1, config="QTLS") == 90.0
    with pytest.raises(KeyError):
        r.value(a=2, config="SW")


def test_checks_accumulate_and_gate():
    r = ExperimentResult("x", "t", columns=["value"])
    r.add_check("claim1", "e", "m", True)
    assert r.all_checks_pass
    r.add_check("claim2", "e", "m", False)
    assert not r.all_checks_pass
    rendered = r.render()
    assert "[PASS] claim1" in rendered
    assert "[MISS] claim2" in rendered


def test_format_table_alignment():
    text = format_table(["name", "value"],
                        [dict(name="x", value=1234.5),
                         dict(name="longer", value=2.0)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1,234" in text or "1234" in text


def test_format_table_empty():
    text = format_table(["a"], [])
    assert "a" in text


# -- experiment registry --------------------------------------------------------

def test_registry_covers_every_table_and_figure():
    expected = {"table1", "fig7a", "fig7b", "fig7c", "fig8", "fig9a",
                "fig9b", "fig10", "fig11", "fig12a", "fig12b", "fig12c"}
    assert expected <= set(ALL_EXPERIMENTS)


def test_registry_includes_ablations():
    assert any(k.startswith("ablation-") for k in ALL_EXPERIMENTS)


def test_every_experiment_takes_only_quick_and_seed():
    for name, fn in ALL_EXPERIMENTS.items():
        params = list(inspect.signature(fn).parameters)
        assert params == ["quick", "seed"], name


def test_cli_stdout_is_the_deterministic_result(capsys):
    outs = []
    for _ in range(2):
        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert "took" in captured.err
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert "took" not in outs[0]


def test_table1_is_fast_and_passes():
    result = run_table1()
    assert result.all_checks_pass
    assert len(result.rows) == 4


# -- testbed -----------------------------------------------------------------------

def test_windows_end():
    w = Windows(warmup=0.1, measure=0.2)
    assert w.end == pytest.approx(0.3)


def test_testbed_builds_all_configs():
    for name in ("SW", "QAT+S", "QAT+A", "QAT+AH", "QTLS"):
        bed = Testbed(name, workers=1)
        assert (bed.device is not None) == bed.config.uses_qat
        assert len(bed.server.workers) == 1


def test_testbed_default_clients_scale():
    assert Testbed("SW", workers=2).default_clients() == 32
    assert Testbed("QTLS", workers=2).default_clients() == 200


def test_testbed_seed_reproducibility():
    a = Testbed("QTLS", workers=1, seed=3)
    cps_a = a.measure_cps(Windows(0.02, 0.04), n_clients=10)
    b = Testbed("QTLS", workers=1, seed=3)
    cps_b = b.measure_cps(Windows(0.02, 0.04), n_clients=10)
    assert cps_a == cps_b  # bit-identical simulation


def test_testbed_different_seeds_vary():
    a = Testbed("QTLS", workers=1, seed=3)
    cps_a = a.measure_cps(Windows(0.02, 0.04), n_clients=10)
    b = Testbed("QTLS", workers=1, seed=4)
    cps_b = b.measure_cps(Windows(0.02, 0.04), n_clients=10)
    # Identical values are possible but astronomically unlikely.
    assert cps_a != cps_b
