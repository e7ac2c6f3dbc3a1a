import json

import pytest

from mmnlearn import cli, harness, oracles
from mmnlearn.cli import main as cli_main
from mmnlearn.componentwise import CaBlowupError, CaParams
from mmnlearn.harness import (
    ERROR,
    INCORRECT,
    TIMEOUT,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    VALIDATED,
    ci_profile,
    format_count,
    report,
    run_batch,
    run_experiment,
    thm_bound_check,
)
from mmnlearn.oracles import EqTestConfig


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
    for algorithm in ("mnl", "cwl"):
        with pytest.raises(ConfigError):
            ExperimentConfig("mqtt", algorithm, ca_params=CaParams())
    with pytest.raises(ConfigError):
        ExperimentConfig("binctr:5", "magic")
    with pytest.raises(ConfigError):
        ExperimentConfig("binctr:5", "mnl", instances=0)
    # EQs draw from the instance seed: a seed in eq_config would be ignored.
    with pytest.raises(ConfigError, match="ExperimentConfig.seed"):
        ExperimentConfig("binctr:5", "mnl", eq_config=EqTestConfig(seed=3))
    ExperimentConfig("binctr:5", "mnl", eq_config=EqTestConfig(7, 11), seed=3)


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


@pytest.mark.parametrize("timeout", [float("nan"), -1.0])
def test_timeout_must_be_nonnegative(timeout):
    # NaN would switch the budget off: no time compares greater than it.
    with pytest.raises(ConfigError, match="timeout"):
        cfg_binctr_ccwl(timeout_s=timeout)
    cfg_binctr_ccwl(timeout_s=float("inf"))


@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_cli_bad_timeout_exit_4(capsys, timeout):
    code = cli_main([
        "learn", "--bench", "binctr:3", "--algo", "mnl", "--timeout", timeout,
    ])
    assert code == 4
    assert "timeout must be >= 0" in capsys.readouterr().err


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


def test_cwl_validation_skips_the_system_product(monkeypatch):
    # binctr:10's cwl components match the hidden ones one by one, so
    # validation never builds the product of its 1,024 configurations.
    calls = []
    product = oracles.equivalent
    monkeypatch.setattr(oracles, "equivalent", lambda *a: calls.append(a) or product(*a))
    res = run_experiment(ExperimentConfig("binctr:10", "cwl"))
    assert res.validation == VALIDATED
    assert calls == []


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
    # the unit is picked after rounding
    assert format_count(9_999) == "10K"
    assert format_count(999_600) == "1.0M"
    assert format_count(999_999) == "1.0M"


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


def _fixed_results():
    def res(seed, validation, **kw):
        return ExperimentResult(
            "binctr:5", "ccwl", "(eq,dinf)", seed, validation=validation, **kw
        )

    return [
        res(3, VALIDATED, states=15, transitions=30, oq_resets=1234,
            oq_steps=26000, eq_count=2, eq_resets=150, eq_steps=9999,
            learner_time_seconds=0.125),
        res(4, INCORRECT, states=14, transitions=28, oq_resets=999,
            oq_steps=1_500_000, eq_count=3, eq_resets=300, eq_steps=30000,
            learner_time_seconds=2.5),
        res(5, TIMEOUT, oq_resets=10, oq_steps=20, learner_time_seconds=7.0),
        res(6, ERROR, oq_resets=5, error="CaBlowupError: cap"),
    ]


HEAD = "      st.       tr.  OQ reset   OQ step        EQ  EQ reset   EQ step   L. time    valid?\n"


def test_report_table_text_pinned():
    assert report(_fixed_results(), "table") == (
        "binctr:5 ccwl(eq,dinf)" + " " * 11 + HEAD
        + "seed=3                                  15        30      1.2K       26K         2       150       10K      0.12 validated\n"
        "seed=4                                  14        28       999      1.5M         3       300       30K      2.50 incorrect\n"
        "seed=5                                   0         0        10        20         0         0         0      7.00   timeout\n"
        "seed=6                                   0         0         5         0         0         0         0      0.00     error\n"
        "mean                                  14.5        29      1.1K      763K       2.5       225       20K      1.31   1/1/1/1\n"
    )
    assert report([], "table") == " " * 33 + HEAD


def test_report_csv_text_pinned():
    header = "benchmark,algorithm,ca,seed,st.,tr.,OQ reset,OQ step,EQ,EQ reset,EQ step,L. time,valid?\n"
    assert report(_fixed_results(), "csv") == header + (
        "binctr:5,ccwl,(eq,dinf),3,15,30,1234,26000,2,150,9999,0.125,validated\n"
        "binctr:5,ccwl,(eq,dinf),4,14,28,999,1500000,3,300,30000,2.5,incorrect\n"
        "binctr:5,ccwl,(eq,dinf),5,0,0,10,20,0,0,0,7.0,timeout\n"
        "binctr:5,ccwl,(eq,dinf),6,0,0,5,0,0,0,0,0.0,error\n"
        "binctr:5,ccwl,(eq,dinf),mean,14.5,29.0,1116.5,763000.0,2.5,225.0,19999.5,1.3125,1/1/1/1\n"
    )
    assert report([], "csv") == header


def test_report_json_text_pinned():
    results = _fixed_results()
    aggregate = {
        "st.": 14.5, "tr.": 29.0, "OQ reset": 1116.5, "OQ step": 763000.0,
        "EQ": 2.5, "EQ reset": 225.0, "EQ step": 19999.5, "L. time": 1.3125,
        "valid?": "1/1/1/1",
    }
    assert report(results, "json") == json.dumps(
        {"instances": [r.to_json() for r in results], "aggregate": aggregate},
        indent=2,
    ) + "\n"
    assert report([], "json") == '{\n  "instances": [],\n  "aggregate": {}\n}\n'


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
    assert sorted({str(c.ca_params) for c in full if c.ca_params}) == [
        "(eq,d:0)", "(eq,dinf)", "(eq,dmax)", "(eq,dmin)", "(eq,dsum)",
        "(eqk:0,d:0)", "(eqk:0,dinf)", "(uni,d:0)",
    ]


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


@pytest.mark.parametrize("spec, algorithm, ca, resets, steps", [
    ("binctr:5", "mnl", None, 217, 6126),
    ("binctr:5", "cwl", None, 47, 374),
    ("mqtt", "ccwl", CaParams(), 289, 9368),
])
def test_no_memoize_counts(spec, algorithm, ca, resets, steps):
    # Without the shared cache every analyzer probe is charged, but a table
    # still never asks one word twice.
    r = run_experiment(ExperimentConfig(spec, algorithm, ca, memoize=False))
    assert (r.validation, r.oq_resets, r.oq_steps) == (VALIDATED, resets, steps)


@pytest.mark.parametrize("algorithm, ca", [
    ("mnl", None), ("cwl", None), ("ccwl", CaParams()),
])
def test_exact_eq_runs_no_words(algorithm, ca):
    r = run_experiment(ExperimentConfig("binctr:5", algorithm, ca,
                                        eq_config=EqTestConfig(exact=True)))
    assert r.validation == VALIDATED
    assert r.eq_count > 0 and r.eq_resets == r.eq_steps == 0


def test_build_sul_replaces_only_the_eq_seed():
    eq_config = EqTestConfig(7, 11, exact=True)
    sul = harness.build_sul(ExperimentConfig("binctr:5", "cwl", eq_config=eq_config), 5)
    assert sul.eq_config == EqTestConfig(7, 11, 5, exact=True)
    assert eq_config == EqTestConfig(7, 11, 0, exact=True)


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


def test_cli_eq_options_reach_the_sul(monkeypatch, tmp_path, capsys):
    # --eq-words and --eq-len size the EQs; their words are drawn from the
    # instance seed.
    built, build_sul = [], harness.build_sul

    def recording_build_sul(cfg, seed):
        built.append(build_sul(cfg, seed))
        return built[-1]

    monkeypatch.setattr(harness, "build_sul", recording_build_sul)
    out = tmp_path / "res.json"
    assert cli_main([
        "learn", "--bench", "binctr:3", "--algo", "mnl", "--seed", "4",
        "--eq-words", "7", "--eq-len", "11", "--format", "json", "--out", str(out),
    ]) == 0
    (sul,) = built
    assert (sul.eq_config.words_per_eq, sul.eq_config.word_length) == (7, 11)
    assert sul.eq_config.seed == 4
    (row,) = json.loads(out.read_text())["instances"]
    assert row["eq_steps"] == 11 * row["eq_resets"] > 0
    assert row["eq_resets"] <= 7 * row["eq_count"]


def test_cli_exact_eq_runs_no_words(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert cli_main([
        "learn", "--bench", "binctr:5", "--algo", "cwl", "--exact-eq",
        "--format", "json", "--out", str(out),
    ]) == 0
    (row,) = json.loads(out.read_text())["instances"]
    assert row["validation"] == VALIDATED
    assert row["eq_count"] > 0 and row["eq_resets"] == row["eq_steps"] == 0


def test_cli_bench_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.mmn"
    assert cli_main(["bench", "export", "binctr:2", str(path)]) == 0
    from mmnlearn.serialize import read_mmn

    m = read_mmn(str(path))
    assert len(m.components) == 2


@pytest.mark.parametrize("argv", [
    ["learn", "--bench", "binctr:5", "--algo", "ccwl", "--out"],
    ["suite", "--preset", "ci", "--out"],
    ["bench", "export", "binctr:5"],
])
def test_cli_unwritable_path_is_one_error_line_before_learning(monkeypatch, tmp_path,
                                                                 capsys, argv):
    def no_batch(*args, **kwargs):
        raise AssertionError("learning ran before the output path was checked")

    monkeypatch.setattr(cli, "run_batch", no_batch)
    assert cli_main(argv + [str(tmp_path / "missing" / "out.txt")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_config_error_keeps_an_existing_report(tmp_path, capsys):
    out = tmp_path / "res.csv"
    out.write_text("an earlier report")
    assert cli_main(["learn", "--bench", "bogus:9", "--algo", "mnl", "--out", str(out)]) == 4
    assert out.read_text() == "an earlier report"


def test_cli_bad_spec_exit_4(capsys):
    assert cli_main(["bench", "export", "bogus:9", "x.mmn"]) == 4


def test_cli_learn_malformed_spec_is_config_error(capsys):
    assert cli_main(["learn", "--bench", "binctr", "--algo", "mnl"]) == 4
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("verdicts, code", [
    ([VALIDATED], 0),
    ([VALIDATED, INCORRECT], 2),
    ([INCORRECT, TIMEOUT], 3),
    ([TIMEOUT, ERROR, INCORRECT], 4),
])
def test_cli_suite_exit_code(monkeypatch, capsys, verdicts, code):
    def stub_batch(cfg):
        return [
            ExperimentResult(cfg.benchmark, cfg.algorithm, "", seed, validation=v)
            for seed, v in enumerate(verdicts)
        ]

    monkeypatch.setattr(cli, "run_batch", stub_batch)
    assert cli_main(["suite", "--preset", "ci", "--format", "csv"]) == code



def test_cli_suite_writes_report_to_out(monkeypatch, tmp_path, capsys):
    def stub_batch(cfg):
        return [ExperimentResult(cfg.benchmark, cfg.algorithm, "", 1, validation=VALIDATED)]

    monkeypatch.setattr(cli, "run_batch", stub_batch)
    out = tmp_path / "suite.csv"
    assert cli_main(["suite", "--preset", "ci", "--format", "csv", "--out", str(out)]) == 0
    expected = "\n".join(report(stub_batch(cfg), "csv") for cfg in ci_profile())
    assert out.read_text() == expected
    assert capsys.readouterr().out == ""

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
