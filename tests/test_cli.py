import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronos
from chronos.cli import (_COMMON, _FAMILY, _RUNNERS, Report, emit_plot_script,
                         main, parse_config, run, selftest)
from chronos.errors import ConfigError
from chronos.path_sum import PathSumConfig, bubble_counts
from helpers import numerical_stack


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_parse_config_basic():
    cfg, lines = parse_config("experiment = yosida\nsweep.z = 10, 100\n# comment\n")
    assert cfg == {"experiment": "yosida", "sweep.z": "10, 100"}
    assert lines == {"experiment": 1, "sweep.z": 2}


def test_parse_config_inline_comments_and_blanks():
    cfg, lines = parse_config("\nkey = value  # trailing\n\n")
    assert cfg == {"key": "value"}
    assert lines == {"key": 2}


def test_parse_config_rejects_bare_lines():
    with pytest.raises(ConfigError):
        parse_config("not a key value pair\n")


def test_parse_config_rejects_repeated_keys():
    with pytest.raises(ConfigError, match="order is set on line 2 and again on line 4"):
        parse_config("experiment = asymptotic\norder = 1\n\norder = 2\n")


def test_run_asymptotic_experiment(tmp_path):
    out = tmp_path / "asym.csv"
    cfg = write(tmp_path / "a.cfg",
                f"experiment = asymptotic\nq.diag = -1, -2\norder = 1\n"
                f"output = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# chronos ")
    assert "config_digest=" in lines[0]
    assert lines[1] == "w,residual_norm,ratio"
    rows = [l.split(",") for l in lines[2:]]
    # Order ~2: successive residual ratios approach 4 under w halving.
    assert float(rows[-1][2]) == pytest.approx(4.0, rel=0.1)


def test_run_film_verify(tmp_path):
    out = tmp_path / "film.csv"
    cfg = write(tmp_path / "f.cfg",
                f"experiment = film-verify\nslots = 4\nbase_dim = 2\n"
                f"output = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    for line in lines[2:]:
        check, detail, residual = line.split(",")
        assert float(residual) <= 1e-9


def test_run_film_verify_nine_slots_exact(tmp_path):
    # 72 slot pairs on a 512-dimensional film: the identity-column checks
    # stay exact, so every exchange and commutation residual is 0.0.
    out = tmp_path / "film9.csv"
    cfg = write(tmp_path / "f9.cfg",
                f"experiment = film-verify\nslots = 9\noutput = {out}\n")
    assert run(cfg) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    pairs = [r for r in rows if r[0] in ("exchange_transport", "exchange_involution",
                                         "slot_commutation")]
    assert len(pairs) == 3 * 9 * 8
    assert all(residual == "0.0" for _, _, residual in pairs)


def test_run_rejects_unknown_experiment(tmp_path):
    cfg = write(tmp_path / "bad.cfg", "experiment = warp\n")
    assert run(cfg) == 2


def test_run_rejects_negative_lambda(tmp_path):
    cfg = write(tmp_path / "bad.cfg",
                "experiment = monte-carlo\nlambda = -2\n")
    assert run(cfg) == 2


def test_run_rejects_missing_family_csv(tmp_path):
    cfg = write(tmp_path / "bad.cfg",
                "experiment = lambda-sweep\nfamily.csv = /nonexistent.csv\n")
    assert run(cfg) == 2


def test_run_malformed_family_csv_is_config_error(tmp_path, capsys):
    table = write(tmp_path / "family.csv", "t,re,im\n0,1,0\n1,x,0\n")
    cfg = write(tmp_path / "bad.cfg",
                f"experiment = lambda-sweep\nfamily.csv = {table}\n"
                f"output = {tmp_path / 'bad.csv'}\n")
    assert run(cfg) == 2
    assert "line 3" in capsys.readouterr().err
    cfg = write(tmp_path / "gone.cfg",
                f"experiment = lambda-sweep\nfamily.csv = {tmp_path / 'nope.csv'}\n"
                f"output = {tmp_path / 'gone.csv'}\n")
    assert run(cfg) == 2
    assert "config error: family.csv: " in capsys.readouterr().err
    assert not (tmp_path / "gone.csv").exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_run_dyson_convergence_on_a_non_finite_family_csv_exits_2(tmp_path, capsys, cell):
    header = "t," + ",".join(f"c{k}" for k in range(8))
    table = write(tmp_path / "family.csv", f"{header}\n0,0,-1,0,0,0,0,0,1\n"
                                           f"0.5,0,-1,{cell},0,0,0,0,1\n1,0,-1,0,0,0,0,0,1\n")
    out = tmp_path / "d.csv"
    cfg = write(tmp_path / "d.cfg", f"experiment = dyson-convergence\n"
                                    f"family.csv = {table}\noutput = {out}\n")
    assert run(cfg) == 2
    err = capsys.readouterr().err
    assert "line 3: non-finite cell" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_missing_config_file():
    assert run("/does/not/exist.cfg") == 2


def test_run_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("experiment = lambda-sweep\nfamily.name = two_level_driven\n"
            "sweep.lambdas = 10, 40\n")
    cfg1 = write(tmp_path / "1.cfg", base + f"output = {out1}\n")
    cfg2 = write(tmp_path / "2.cfg", base + f"output = {out2}\n")
    assert run(cfg1) == 0
    assert run(cfg2) == 0
    # Identical apart from the header digest covering the output line.
    assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]


def test_run_timing_off_by_default(tmp_path):
    out = tmp_path / "s.csv"
    cfg = write(tmp_path / "s.cfg",
                f"experiment = smatrix-sweep\nsweep.lambdas = 5, 20\n"
                f"output = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",") == ["lambda", "T", "err_vs_oracle",
                                   "unitarity_defect", "seconds"]
    for line in lines[2:]:
        assert line.split(",")[-1] == "0.0"


def test_run_smatrix_sweep_three_level(tmp_path):
    # d = 3 uses the same hopping interaction as d = 2, which does not
    # commute with H0, so the error falls with the bubble rate.
    out = tmp_path / "s3.csv"
    cfg = write(tmp_path / "s3.cfg",
                f"experiment = smatrix-sweep\nh0.diag = 1, 0, -1\n"
                f"sweep.lambdas = 5, 20, 80\noutput = {out}\n")
    assert run(cfg) == 0
    errs = [float(line.split(",")[2]) for line in out.read_text().splitlines()[2:]]
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("experiment, line", [
    ("smatrix-sweep", "order = abc"),
    ("smatrix-sweep", "half_window = x"),
    ("smatrix-sweep", "coupling = x"),
    ("asymptotic", "oracle_tol = x"),
    ("asymptotic", "order = abc"),
    ("asymptotic", "q.diag = -1, y"),
    ("asymptotic", "sweep.w = 0.1, w"),
    ("asymptotic", "seed = s"),
    ("dyson-convergence", "interval = 0, x"),
    ("dyson-convergence", "family.params = p"),
    ("yosida", "sweep.z = 10, z"),
    ("lambda-sweep", "horizon = h"),
    ("lambda-sweep", "tail_tol = t"),
    ("film-verify", "base_dim = 2.5"),
    ("film-verify", "slots = n"),
    ("film-verify", "z = z"),
    ("monte-carlo", "trials = 1e3"),
    ("monte-carlo", "count_draws = many"),
    ("monte-carlo", "lambda = l"),
    ("monte-carlo", "seed = -1"),
    ("monte-carlo", "count_draws = 0"),
    # The path sum runs on [a, a + horizon] inside the family's interval.
    ("lambda-sweep", "horizon = 2"),
    ("monte-carlo", "horizon = 2"),
    ("yosida", "interval = 0"),
    ("yosida", "interval = 0, 1, 2"),
    ("lambda-sweep", "timing = yes"),
    ("asymptotic", "q.diag ="),
    ("smatrix-sweep", "h0.diag ="),
])
def test_run_malformed_number_is_config_error(tmp_path, capsys, experiment, line):
    out = tmp_path / "bad.csv"
    cfg = write(tmp_path / "bad.cfg",
                f"experiment = {experiment}\n{line}\noutput = {out}\n")
    assert run(cfg) == 2
    assert line.split("=")[0].strip() in capsys.readouterr().err
    assert not out.exists()


# Few rates, trials and draws keep the path sums cheap.
_SMALL_PATH_SUM_KEYS = {"sweep.lambdas": "5, 20", "trials": "100",
                        "count_draws": "100"}


def _small_path_sum_keys(experiment):
    return {key: value for key, value in _SMALL_PATH_SUM_KEYS.items()
            if key in _RUNNERS[experiment][1]}


@pytest.mark.parametrize("experiment", ["lambda-sweep", "monte-carlo"])
def test_run_path_sum_away_from_time_0(tmp_path, capsys, experiment):
    """The path sum starts where its family starts: on interval 1, 2 it runs
    on [1, 1 + horizon], and a horizon past b - a = 1 is a config error."""
    out = tmp_path / "late.csv"
    small = "".join(f"{key} = {value}\n"
                    for key, value in _small_path_sum_keys(experiment).items())
    base = f"experiment = {experiment}\ninterval = 1, 2\n{small}output = {out}\n"
    for horizon in ("", "horizon = 0.5\n", "horizon = 1\n"):
        assert run(write(tmp_path / "late.cfg", base + horizon)) == 0
        assert out.exists()
        out.unlink()
    assert run(write(tmp_path / "far.cfg", base + "horizon = 2\n")) == 2
    assert "horizon must be in (0, 1.0], got 2.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, line", [
    ("film-verify", "base_dim = 0"),
    ("film-verify", "base_dim = 3"),
    ("film-verify", "slots = 0"),
    ("film-verify", "z = -1"),
    ("dyson-convergence", "order = -1"),
    ("yosida", "sweep.z = -5, 10"),
    ("asymptotic", "sweep.w = -0.1, 0.05"),
    ("asymptotic", "order = -2"),
    ("smatrix-sweep", "sweep.lambdas = 5, -20"),
    ("monte-carlo", "lambda = inf"),
    ("smatrix-sweep", "half_window = inf"),
    ("smatrix-sweep", "half_window = 0"),
    ("dyson-convergence", "oracle_tol = nan"),
    ("asymptotic", "sweep.w = 0.1"),
    ("yosida", "sweep.z = 10"),
    # Sweeps the probes reject: fewer than four w, w not strictly
    # decreasing, z not strictly increasing.
    ("asymptotic", "sweep.w = 0.1, 0.05"),
    ("asymptotic", "sweep.w = 0.1, 0.2, 0.3, 0.4"),
    ("asymptotic", "sweep.w = 0.1, 0.05, 0.05, 0.01"),
    ("yosida", "sweep.z = 100, 10"),
])
def test_run_out_of_range_value_is_config_error(tmp_path, capsys, experiment,
                                                line):
    out = tmp_path / "bad.csv"
    cfg = write(tmp_path / "bad.cfg",
                f"experiment = {experiment}\n{line}\noutput = {out}\n")
    assert run(cfg) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["lambda-sweep", "smatrix-sweep"])
def test_run_rejects_misspelled_key(tmp_path, capsys, experiment):
    out = tmp_path / "typo.csv"
    cfg = write(tmp_path / "typo.cfg",
                f"experiment = {experiment}\nsweep.lambdas = 5, 20\n"
                f"sweep.ww = 1\noutput = {out}\n")
    assert run(cfg) == 2
    assert f"{experiment} reads no key sweep.ww (line 3)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["family.name = constant", "interval = 0, 2"])
def test_run_rejects_keys_a_family_csv_replaces(tmp_path, capsys, line):
    csv = write(tmp_path / "h.csv", "t,re,im\n0,1,0\n1,1,0\n")
    out = tmp_path / "y.csv"
    cfg = write(tmp_path / "y.cfg", f"experiment = yosida\nfamily.csv = {csv}\n"
                                    f"{line}\noutput = {out}\n")
    assert run(cfg) == 2
    assert "family.csv replaces" in capsys.readouterr().err
    assert not out.exists()


_NUMERIC_KEYS = [(name, key) for name, (_, keys) in _RUNNERS.items()
                 for key, default in {**_COMMON, **keys}.items()
                 if default in (int, float, tuple)
                 or type(default) in (int, float, tuple)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("experiment, key", _NUMERIC_KEYS)
def test_run_non_finite_number_is_config_error(tmp_path, capsys, experiment, key,
                                               value):
    out = tmp_path / "bad.csv"
    cfg = write(tmp_path / "bad.cfg",
                f"experiment = {experiment}\n{key} = {value}\noutput = {out}\n")
    assert run(cfg) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# Each asks for more than a documented cap: film-verify's identity-column
# batch of d^N <= 4096, and Poisson windows and bubble counts of 10^6.
@pytest.mark.parametrize("experiment, line, named", [
    ("film-verify", "slots = 13", "slots"),
    ("lambda-sweep", "sweep.lambdas = 10, 1e9", "lambda"),
    ("smatrix-sweep", "sweep.lambdas = 10, 1e9", "lambda"),
    ("monte-carlo", "lambda = 1e9", "lambda"),
])
def test_run_over_a_resource_cap_is_config_error(tmp_path, capsys, experiment,
                                                 line, named):
    out = tmp_path / "big.csv"
    cfg = write(tmp_path / "big.cfg",
                f"experiment = {experiment}\n{line}\noutput = {out}\n")
    assert run(cfg) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_run_non_finite_result_is_an_invariant_violation(tmp_path, capfd):
    # At delta = 800 the classical bound of the constant family overflows;
    # the run says so itself, with no numpy warning before it.
    out = tmp_path / "inf.csv"
    cfg = write(tmp_path / "inf.cfg",
                "experiment = dyson-convergence\nfamily.name = constant\n"
                f"family.params = 800\noutput = {out}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capfd.readouterr().err
    assert "non-finite classical_bound = inf" in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


# Each overflows somewhere inside the library; the run reports it only as
# its own invariant violation.
@pytest.mark.parametrize("text", [
    "experiment = asymptotic\nq.diag = 10000\n",
    "experiment = film-verify\nfamily.name = constant\nfamily.params = 1e300\n",
    "experiment = smatrix-sweep\ncoupling = 1e300\n",
    "experiment = dyson-convergence\nfamily.name = random_smooth\n"
    "family.params = 0, 3, -1e300\n",
])
def test_run_prints_no_numpy_warning(tmp_path, capfd, text):
    out = tmp_path / "over.csv"
    cfg = write(tmp_path / "over.cfg", text + f"output = {out}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg) == 1
    assert caught == []
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invariant violation: ")
    assert not out.exists()


@pytest.mark.parametrize("params", ["0, 2.5, 0.2", "1.7, 3, 0.2"])
def test_run_random_smooth_params_that_are_not_integers(tmp_path, capsys, params):
    out = tmp_path / "rs.csv"
    cfg = write(tmp_path / "rs.cfg",
                "experiment = dyson-convergence\nfamily.name = random_smooth\n"
                f"family.params = {params}\norder = 1\noutput = {out}\n")
    assert run(cfg) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("draws", [40, 100, 250])
def test_run_monte_carlo_counts_are_bubble_counts(tmp_path, draws):
    # The first trials' counts come from the samples, the rest are drawn:
    # together they are bubble_counts over all draws, so the mean keeps its bits.
    out = tmp_path / "mc.csv"
    cfg = write(tmp_path / "mc.cfg",
                f"experiment = monte-carlo\nlambda = 6\ntrials = 100\n"
                f"count_draws = {draws}\nseed = 11\noutput = {out}\n")
    assert run(cfg) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[2:])
    counts = bubble_counts(PathSumConfig(lam=6.0, t=1.0, trials=100, seed=11), draws)
    assert rows["count_mean"] == repr(float(counts.mean()))


def test_run_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"experiment = asymptotic\n\xff\xfe = 1\n")
    assert run(str(cfg)) == 2
    assert "error: " in capsys.readouterr().err


def test_run_rejects_repeated_key(tmp_path, capsys):
    out = tmp_path / "twice.csv"
    cfg = write(tmp_path / "twice.cfg", f"experiment = asymptotic\n"
                                        f"experiment = yosida\noutput = {out}\n")
    assert run(cfg) == 2
    assert "experiment is set on line 1 and again on line 2" in capsys.readouterr().err
    assert not out.exists()


def test_readme_key_list_matches_the_table():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("### Config format\n", 1)[1].split("\n### ", 1)[0]
    # Each key entry starts a bullet with its backquoted name before " — ".
    heads = [line.split(" — ", 1)[0] for line in section.splitlines()
             if line.startswith("- ")]
    named = {key for head in heads for key in re.findall(r"`([^`]+)`", head)}
    table = set(_COMMON).union(*(keys for _, keys in _RUNNERS.values()))
    assert named == table


# With q.diag given, asymptotic reads no family key.
_ASYMPTOTIC_READS = {"experiment", "output", "seed", "q.diag", "order", "sweep.w"}


@settings(max_examples=50, deadline=None)
@given(key=st.from_regex(r"[a-z0-9._]{1,12}", fullmatch=True).filter(
    lambda k: k not in _ASYMPTOTIC_READS))
def test_run_rejects_every_key_the_experiment_does_not_read(tmp_path_factory,
                                                            key):
    where = tmp_path_factory.mktemp("key")
    out = where / "asym.csv"
    cfg = write(where / "a.cfg", f"experiment = asymptotic\nq.diag = -1, -2\n"
                                 f"{key} = 1\noutput = {out}\n")
    assert run(cfg) == 2
    assert not out.exists()


# Small magnitudes keep every run cheap; the extremes still overflow.
_NUMBERS = st.one_of(st.integers(-2, 9), st.floats(-5.0, 5.0),
                     st.sampled_from([0.0, 64, 1e-300, 1e300, -1e300, 1.5e308]))
_TEXTS = st.one_of(st.text("abcdefghijklmnopqrstuvwxyz_.-", max_size=8),
                   st.sampled_from(["", "constant", "random_smooth",
                                    "damped_two_level", "on", "off"]))
# family.params lists with a seed or dim that is not an integer, or both.
_FAMILY_PARAMS = st.sampled_from(["0, 2.5, 0.2", "1.7, 3, 0.2", "2.5", "0.5, 1.5"])
_CONFIG_VALUES = st.one_of(
    _NUMBERS.map(str), _TEXTS, _FAMILY_PARAMS,
    st.lists(st.one_of(_NUMBERS.map(str), _TEXTS), max_size=5).map(", ".join))


# Real diagonals of a tabulated H(t); 10 is the default z of film-verify and
# the first of yosida, where zI - H(t) is singular.
_DIAGONALS = st.lists(st.tuples(*[st.sampled_from([10.0, -1.0, 0.0, 2.5])] * 2),
                      min_size=2, max_size=3)


def _family_table(path, diagonals, start=0.0):
    rows = [f"{start + k},{h11},0,0,0,0,0,{h22},0\n"
            for k, (h11, h22) in enumerate(diagonals)]
    return write(path, "t,re11,im11,re12,im12,re21,im21,re22,im22\n" + "".join(rows))


# Family intervals a, a + w for the path sums, most of them away from 0.
_INTERVALS = st.tuples(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]),
                       st.sampled_from([0.5, 1.0, 2.0])).map(
    lambda aw: f"{aw[0]}, {aw[0] + aw[1]}")


# smatrix-sweep is left out: half_window = 64 with a 5 x 5 h0.diag runs for
# 37-39 s, so the property could not stay cheap.  yosida, film-verify and the
# path sums also draw a tabulated family in place of the built-in ones, with
# its times from 0 or from elsewhere.
@settings(max_examples=100, deadline=None)
@given(experiment=st.sampled_from(["asymptotic", "yosida", "dyson-convergence",
                                   "film-verify", "lambda-sweep", "monte-carlo"]),
       data=st.data())
def test_run_any_config_exits_0_1_or_2(tmp_path_factory, experiment, data):
    where = tmp_path_factory.mktemp("any")
    keys = sorted(_RUNNERS[experiment][1])
    path_sum = experiment in ("lambda-sweep", "monte-carlo")
    table = ((path_sum or experiment in ("yosida", "film-verify"))
             and data.draw(st.booleans(), label="table"))
    if table:
        keys = sorted(set(keys) - set(_FAMILY))
    values = data.draw(st.dictionaries(st.sampled_from(keys), _CONFIG_VALUES,
                                       max_size=4))
    if table:
        values["family.csv"] = _family_table(
            where / "family.csv", data.draw(_DIAGONALS),
            data.draw(st.sampled_from([0.0, 1.5, -2.0]), label="start"))
    elif path_sum and "interval" not in values:
        values["interval"] = data.draw(_INTERVALS, label="interval")
    if path_sum:
        # Drawn rates, trials and draws win over the small ones.
        values = {**_small_path_sum_keys(experiment), **values}
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    cfg = write(where / "any.cfg", f"experiment = {experiment}\n{text}"
                                   f"output = {where / 'any.csv'}\n")
    assert run(cfg) in (0, 1, 2)


@pytest.mark.parametrize("experiment", ["lambda-sweep", "smatrix-sweep"])
def test_run_rejects_empty_lambda_sweep(tmp_path, capsys, experiment):
    out = tmp_path / "empty.csv"
    cfg = write(tmp_path / "empty.cfg",
                f"experiment = {experiment}\nsweep.lambdas =\noutput = {out}\n")
    assert run(cfg) == 2
    assert "sweep.lambdas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["lambda-sweep", "smatrix-sweep"])
def test_run_rejects_single_lambda_sweep(tmp_path, capsys, experiment):
    # "Error strictly decreasing" over one value would check nothing.
    out = tmp_path / "single.csv"
    cfg = write(tmp_path / "single.cfg",
                f"experiment = {experiment}\nsweep.lambdas = 10\noutput = {out}\n")
    assert run(cfg) == 2
    assert "sweep.lambdas" in capsys.readouterr().err
    assert not out.exists()


def test_run_dyson_convergence(tmp_path):
    out = tmp_path / "d.csv"
    cfg = write(tmp_path / "d.cfg",
                f"experiment = dyson-convergence\norder = 3\noutput = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    for line in lines[2:]:
        _, tail, bound = line.split(",")
        assert float(tail) <= float(bound) + 1e-12


def test_run_dyson_convergence_reads_no_grid(tmp_path, capsys):
    # The series sizes its own panels; the old cap on them is no key.
    out = tmp_path / "d.csv"
    cfg = write(tmp_path / "d.cfg", f"experiment = dyson-convergence\n"
                                    f"grid = 1024\noutput = {out}\n")
    assert run(cfg) == 2
    assert "dyson-convergence reads no key grid (line 2)" in capsys.readouterr().err
    assert not out.exists()


def test_run_asymptotic_fits_only_residuals_above_cancellation(tmp_path, capfd):
    # At order 6 the two smallest w lose their residual to cancellation.
    out = tmp_path / "a6.csv"
    cfg = write(tmp_path / "a6.cfg",
                f"experiment = asymptotic\nq.diag = -1, -2\norder = 6\n"
                f"output = {out}\n")
    assert run(cfg) == 0
    captured = capfd.readouterr()
    assert "fitted order 6.987 (expected 7) on 3 of 5 points" in captured.out
    assert captured.err == ""
    assert emit_plot_script(str(out)) == 0
    assert "title 'slope 6.99'" in (tmp_path / "a6.csv.gp").read_text()


def test_run_yosida_zero_generator_is_exact(tmp_path, capsys):
    out = tmp_path / "y0.csv"
    cfg = write(tmp_path / "y0.cfg",
                f"experiment = yosida\nfamily.name = constant\n"
                f"family.params = 0\noutput = {out}\n")
    assert run(cfg) == 0
    assert "convergence slope -inf" in capsys.readouterr().out
    assert [line.split(",")[1:] for line in out.read_text().splitlines()[2:]] == [
        ["0.0", "0.0"]] * 4


@pytest.mark.parametrize("experiment,key", [("yosida", "sweep.z = 10, 100"),
                                            ("film-verify", "z = 10")])
def test_run_singular_yosida_step_exits_1_without_traceback(tmp_path, experiment,
                                                             key):
    # H(t) = 10 I makes zI - H(t) singular at z = 10.
    table = _family_table(tmp_path / "family.csv", [(10.0, 10.0)] * 2)
    out = tmp_path / "singular.csv"
    cfg = write(tmp_path / "s.cfg", f"experiment = {experiment}\n"
                                    f"family.csv = {table}\n{key}\noutput = {out}\n")
    src = os.path.dirname(os.path.dirname(chronos.__file__))
    done = subprocess.run([sys.executable, "-m", "chronos.cli", "run", cfg],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "invariant violation: zI - H(t) is singular at z=10.0"]
    assert not out.exists()


def test_run_overflowing_norm_exits_1_without_traceback(tmp_path):
    # Every entry is finite, but the 1-norm of -i H(t) sums past 1.8e308.
    out = tmp_path / "ovf.csv"
    cfg = write(tmp_path / "ovf.cfg",
                "experiment = yosida\nfamily.name = two_level_driven\n"
                f"family.params = 1.5e308, 1.5e308, 1\noutput = {out}\n")
    src = os.path.dirname(os.path.dirname(chronos.__file__))
    done = subprocess.run([sys.executable, "-m", "chronos.cli", "run", cfg],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("invariant violation: ")
    assert not out.exists()


def test_run_yosida(tmp_path):
    out = tmp_path / "y.csv"
    cfg = write(tmp_path / "y.cfg",
                f"experiment = yosida\nfamily.name = damped_two_level\n"
                f"sweep.z = 10, 100, 1000\noutput = {out}\n")
    assert run(cfg) == 0


def test_plot_lambda_sweep(tmp_path):
    out = tmp_path / "l.csv"
    cfg = write(tmp_path / "l.cfg",
                "experiment = lambda-sweep\nsweep.lambdas = 10, 40\n"
                f"output = {out}\n")
    assert run(cfg) == 0
    assert emit_plot_script(str(out)) == 0
    script = (tmp_path / "l.csv.gp").read_text()
    assert "set logscale xy" in script
    assert "err_normalized" in script


def test_plot_asymptotic_has_reference_slope(tmp_path):
    out = tmp_path / "a.csv"
    cfg = write(tmp_path / "a.cfg",
                f"experiment = asymptotic\nq.diag = -1, -2\noutput = {out}\n")
    assert run(cfg) == 0
    assert emit_plot_script(str(out)) == 0
    script = (tmp_path / "a.csv.gp").read_text()
    assert "ref(x)" in script


@pytest.mark.parametrize("bad_row", ["0.05,abc,1.0", "0.05,0.004"])
def test_plot_malformed_asymptotic_row_exits_2(tmp_path, capsys, bad_row):
    """A non-numeric cell or a short row is named; no script is written."""
    out = tmp_path / "a.csv"
    cfg = write(tmp_path / "a.cfg",
                f"experiment = asymptotic\nq.diag = -1, -2\noutput = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    lines[3] = bad_row
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["plot", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: {out} line 4: expected 3 numbers, got {bad_row!r}"]
    assert not (tmp_path / "a.csv.gp").exists()


def test_plot_reference_fit_skips_points_off_log_axes(tmp_path):
    out = tmp_path / "a.csv"
    cfg = write(tmp_path / "a.cfg",
                f"experiment = asymptotic\nq.diag = -1, -2\noutput = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    lines[3], lines[4] = "0,0.004,1.0", "0.025,inf,1.0"
    out.write_text("\n".join(lines) + "\n")
    assert emit_plot_script(str(out)) == 0
    assert "ref(x)" in (tmp_path / "a.csv.gp").read_text()


def test_plot_empty_csv(tmp_path):
    empty = write(tmp_path / "e.csv", "")
    assert emit_plot_script(empty) == 2


def test_plot_unknown_schema(tmp_path):
    weird = write(tmp_path / "w.csv", "alpha,beta\n1,2\n")
    assert emit_plot_script(weird) == 2


def test_plot_missing_file():
    assert emit_plot_script("/does/not/exist.csv") == 2


def test_selftest_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert selftest(str(d1), seed=12345) == 0
    assert selftest(str(d2), seed=12345) == 0
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


PINNED = os.path.join(os.path.dirname(__file__), "data", "selftest_sha256.json")


@pytest.mark.parametrize("seed", [12345, 777])
def test_selftest_bytes_match_the_pinned_digests(tmp_path, seed):
    with open(PINNED) as fh:
        pinned = json.load(fh)
    stack = numerical_stack()
    made_on = {k: pinned[k] for k in stack}
    if stack != made_on:
        pytest.skip(f"digests were made on {made_on}, this is {stack}")
    assert selftest(str(tmp_path), seed=seed) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(tmp_path))}
    assert got == pinned["sha256"][str(seed)]


def test_pinned_digests_hash_to_the_published_listing():
    # sha256 of the `sha256sum *` listing of the seed-12345 battery.
    with open(PINNED) as fh:
        digests = json.load(fh)["sha256"]["12345"]
    listing = "".join(f"{h}  {name}\n" for name, h in sorted(digests.items()))
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "787d84f313510ffedbbf4894d012c7a6bd98b41afcc951bb99536a02128d5b7b")


def test_main_dispatch(tmp_path, capsys):
    out = tmp_path / "m.csv"
    cfg = write(tmp_path / "m.cfg",
                f"experiment = asymptotic\nq.diag = -1\noutput = {out}\n")
    assert main(["run", cfg]) == 0
    assert main(["plot", str(out)]) == 0
    captured = capsys.readouterr()
    assert "asymptotic" in captured.out


def test_report_rejects_a_row_of_the_wrong_width():
    report = Report(["a", "b"], 0, "digest")
    with pytest.raises(ConfigError, match="row width"):
        report.add(1.0)


def test_run_timing_on_times_every_lambda(tmp_path):
    out = tmp_path / "t.csv"
    cfg = write(tmp_path / "t.cfg",
                "experiment = lambda-sweep\nfamily.name = two_level_driven\n"
                f"sweep.lambdas = 10, 40\ntiming = on\noutput = {out}\n")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[-1] == "seconds"
    seconds = [float(line.split(",")[-1]) for line in lines[2:]]
    assert len(seconds) == 2
    assert all(math.isfinite(s) and s > 0 for s in seconds)
