import json

import pytest

from mmnlearn import harness
from mmnlearn.cli import main as cli_main
from mmnlearn.componentwise import CaBlowupError, CaParams
from mmnlearn.harness import (
    ERROR,
    ConfigError,
    ExperimentConfig,
    VALIDATED,
    format_count,
    report,
    run_batch,
    run_experiment,
    thm_bound_check,
)


def cfg_binctr_ccwl(**kw):
    base = dict(
        benchmark="binctr:5", algorithm="ccwl", ca_params=CaParams(),
        seed=1, validate=True,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig("binctr:5", "ccwl")  # missing CA params
    with pytest.raises(ConfigError):
        ExperimentConfig("binctr:5", "magic")
    with pytest.raises(ConfigError):
        ExperimentConfig("binctr:5", "mnl", instances=0)


def test_run_experiment_binary_counter_table_row():
    res = run_experiment(cfg_binctr_ccwl())
    assert (res.states, res.transitions) == (14, 25)
    assert res.eq_count == 1
    assert res.oq_resets == 30 and res.oq_steps == 45
    assert res.validation == VALIDATED
    assert res.sul_total_states == 15 and res.sul_components == 5


def test_run_experiment_cwl_row():
    res = run_experiment(ExperimentConfig("binctr:5", "cwl", seed=1))
    assert (res.states, res.transitions, res.eq_count) == (15, 30, 6)


def test_timeout_zero_reports_timeout():
    res = run_experiment(cfg_binctr_ccwl(timeout_s=0.0))
    assert res.validation == "timeout"


def test_determinism_same_seed():
    a = run_experiment(cfg_binctr_ccwl())
    b = run_experiment(cfg_binctr_ccwl())
    ignore = {"learner_time_seconds", "wall_time_seconds"}
    da = {k: v for k, v in a.to_json().items() if k not in ignore}
    db = {k: v for k, v in b.to_json().items() if k not in ignore}
    assert da == db


def test_accounting_partition():
    res = run_experiment(cfg_binctr_ccwl())
    assert res.oq_steps + res.eq_steps == 45 + 100 * 260


def test_validation_independence():
    a = run_experiment(cfg_binctr_ccwl(validate=True))
    b = run_experiment(cfg_binctr_ccwl(validate=False))
    for field in ("oq_resets", "oq_steps", "eq_count", "eq_resets", "eq_steps",
                  "states", "transitions"):
        assert getattr(a, field) == getattr(b, field)


def test_run_batch_seeds_and_interrupt_safety():
    results = run_batch(cfg_binctr_ccwl(instances=3))
    assert [r.seed for r in results] == [1, 2, 3]
    assert all(r.validation == VALIDATED for r in results)


@pytest.mark.parametrize("error", [
    CaBlowupError, harness.SpuriousCounterexampleError, harness.OracleContractError,
])
def test_run_batch_learner_error_is_per_instance_verdict(monkeypatch, error):
    learner = harness.ccwl

    def failing_on_seed_2(sul, *args, **kwargs):
        if sul.eq_config.seed == 2:
            raise error("boom")
        return learner(sul, *args, **kwargs)

    monkeypatch.setattr(harness, "ccwl", failing_on_seed_2)
    results = run_batch(cfg_binctr_ccwl(instances=3))
    assert [r.seed for r in results] == [1, 2, 3]
    assert [r.validation for r in results] == [VALIDATED, ERROR, VALIDATED]
    assert results[1].error == "%s: boom" % error.__name__
    assert results[0].error == results[2].error == ""
    # the mean row averages the two learned models only
    aggregate = json.loads(report(results, "json"))["aggregate"]
    assert aggregate["st."] == 14
    assert aggregate["valid?"] == "2/0/0/1"


def test_cli_learner_error_reports_then_exit_4(monkeypatch, tmp_path, capsys):
    def blowup(*args, **kwargs):
        raise CaBlowupError("too many outputs")

    monkeypatch.setattr(harness, "ccwl", blowup)
    out = tmp_path / "res.json"
    code = cli_main([
        "learn", "--bench", "binctr:5", "--algo", "ccwl", "--seed", "1",
        "--format", "json", "--out", str(out),
    ])
    assert code == 4
    blob = json.loads(out.read_text())
    assert blob["instances"][0]["validation"] == ERROR
    assert "too many outputs" in blob["instances"][0]["error"]
    assert "finer abstraction" in capsys.readouterr().err


def test_format_count_matches_table_style():
    assert format_count(26000) == "26K"
    assert format_count(212) == "212"
    assert format_count(5900) == "5.9K"
    assert format_count(1_400_000) == "1.4M"
    assert format_count(18_000_000) == "18M"
    assert format_count(46.9) == "46.9"
    assert format_count(2.0) == "2"


def test_report_formats():
    results = run_batch(cfg_binctr_ccwl(instances=2))
    table = report(results, "table")
    assert "valid?" in table and "mean" in table
    csv = report(results, "csv")
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + 2 + 1  # header, rows, aggregate
    assert lines[-1].endswith("2/0/0/0")
    blob = json.loads(report(results, "json"))
    assert len(blob["instances"]) == 2
    assert blob["aggregate"]["valid?"] == "2/0/0/0"
    roundtrip = json.dumps(blob)
    assert json.loads(roundtrip) == blob


def test_report_empty():
    assert report([], "csv").count("\n") == 1


def test_profiles_structurally_valid():
    from mmnlearn.harness import ci_profile, table1_profile

    ci = ci_profile()
    full = table1_profile()
    assert ci and full
    for cfg in ci + full:
        assert cfg.algorithm in ("mnl", "cwl", "ccwl")
        if cfg.algorithm == "ccwl":
            assert cfg.ca_params is not None
    assert all(c.timeout_s <= 120 for c in ci)
    assert any(c.benchmark == "rand:star7:lean" for c in full)


def test_run_batch_worker_pool_matches_sequential():
    cfg = cfg_binctr_ccwl(instances=2)
    seq = run_batch(cfg, workers=1)
    par = run_batch(cfg, workers=2)
    ignore = {"learner_time_seconds", "wall_time_seconds"}
    strip = lambda r: {k: v for k, v in r.to_json().items() if k not in ignore}
    assert [strip(r) for r in seq] == [strip(r) for r in par]


def test_thm_bound_check():
    res = run_experiment(cfg_binctr_ccwl())
    assert thm_bound_check(res, constant=10.0, sound=True)
    assert not thm_bound_check(res, constant=0.0, sound=True)
    mnl_res = run_experiment(ExperimentConfig("binctr:5", "mnl", seed=1))
    mnl_res.sul_total_states = 243  # reachable configurations
    assert thm_bound_check(mnl_res, constant=10.0)


# -- CLI ------------------------------------------------------------------------


def test_cli_learn_and_exit_code(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = cli_main([
        "learn", "--bench", "binctr:5", "--algo", "ccwl", "--ca-e", "eq",
        "--ca-r", "dinf", "--seed", "1", "--validate", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    assert "validated" in out.read_text()


@pytest.mark.parametrize("flags, verdict", [
    ([], "validated"),
    (["--no-validate"], "not-validated"),
])
def test_cli_validates_by_default(tmp_path, capsys, flags, verdict):
    out = tmp_path / "res.csv"
    code = cli_main([
        "learn", "--bench", "binctr:5", "--algo", "ccwl", "--seed", "1",
        "--format", "csv", "--out", str(out),
    ] + flags)
    assert code == 0
    assert out.read_text().splitlines()[1].split(",")[-1] == verdict


def test_cli_bench_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.mmn"
    assert cli_main(["bench", "export", "binctr:2", str(path)]) == 0
    from mmnlearn.serialize import read_mmn

    m = read_mmn(str(path))
    assert len(m.components) == 2


def test_cli_bad_spec_exit_4(capsys):
    assert cli_main(["bench", "export", "bogus:9", "x.mmn"]) == 4


def test_cli_timeout_exit_3(tmp_path, capsys):
    code = cli_main([
        "learn", "--bench", "binctr:5", "--algo", "mnl", "--timeout", "0",
        "--seed", "1",
    ])
    assert code == 3


def test_cli_ca_parse_error_exit_4(capsys):
    code = cli_main([
        "learn", "--bench", "binctr:5", "--algo", "ccwl", "--ca-e", "what",
    ])
    assert code == 4
