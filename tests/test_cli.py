"""Command-line interface: artifact schemas, reproducibility, and error
handling."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinctrl import (BoundWeight, ControlSignal, ExperimentConfig,
                       MomentProblem, Propagator, SobolevNorm, SpectralModel,
                       basis_state, coefficient_table, dirichlet_example,
                       eigenvalue, half_line_step, index_window, indicator,
                       load_config, moments, neumann_example,
                       neumann_obstruction_scan, periodic_example, solve,
                       sobolev_weights)
from bilinctrl.cli import _CSV_BLOCK, main, read_csv, read_json, write_csv
from bilinctrl.errors import IllConditionedError

FAST = {
    "spectrum": ["--N", "8"],
    "gaps": ["--K", "10"],
    "resonance": ["--l", "1", "--K", "50"],
    "coeffs": ["--K", "10"],
    "bound-check": ["--K", "10"],
    "obstruction-scan": ["--model", "neumann", "--preset", "neumann_example",
                         "--K", "50"],
    "simulate": ["--N", "8", "--n-steps", "128", "--T", "0.1"],
    "steer": ["--N", "10", "--K", "10", "--n-steps", "512", "--T", "0.4"],
    "derivative-check": ["--N", "16", "--n-steps", "256", "--T", "0.3"],
    "hermite-check": ["--kmax", "5"],
}

ARTIFACTS = {
    "spectrum": ["spectrum.csv"],
    "gaps": ["gaps.json"],
    "resonance": ["resonance.json"],
    "coeffs": ["coefficients.csv"],
    "bound-check": ["bound_check.json"],
    "obstruction-scan": ["obstruction.csv"],
    "simulate": ["trajectory.csv", "norms.csv"],
    "steer": ["steering.json"],
    "derivative-check": ["derivative_check.json"],
    "hermite-check": ["hermite_identity.csv", "hermite_bound.csv"],
}


def _run(args):
    return main(args)


@pytest.mark.parametrize("verb", sorted(FAST))
def test_verb_writes_artifacts(verb, tmp_path):
    out = str(tmp_path / "out")
    assert _run([verb, *FAST[verb], "-o", out]) == 0
    for name in ARTIFACTS[verb]:
        assert (tmp_path / "out" / name).exists()


def test_moments_solve_from_config(tmp_path):
    cfg = {
        "task": {
            "T": 1.0,
            "frequencies": [0.0, 3.0, 8.0],
            "targets_re": [0.5, 0.1, -0.2],
            "targets_im": [0.0, 0.2, 0.3],
        },
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(["moments-solve", "--config", str(path)]) == 0
    doc = read_json(str(tmp_path / "moments.json"))
    assert doc["residual_max"] < 1e-8
    assert "config_hash" in doc
    # the symmetrized problem that was solved, and its grid
    assert doc["T"] == 1.0
    assert doc["frequencies"] == [-8.0, -3.0, 0.0, 3.0, 8.0]
    assert doc["targets_re"] == [-0.2, 0.1, 0.5, 0.1, -0.2]
    assert doc["targets_im"] == [-0.3, -0.2, 0.0, 0.2, 0.3]
    assert doc["n_steps"] == 4096


def _transition_family(model, l, K, seed):
    """lambda_k - lambda_l one mode at a time over the window, with targets
    drawn in order: real N(0,1) at frequency 0, else N(0,1) + i N(0,1)."""
    freqs = tuple(float(eigenvalue(model, int(k)) - eigenvalue(model, l))
                  for k in index_window(model, K))
    rng = np.random.default_rng(seed)
    targets = tuple(complex(rng.standard_normal()) if w == 0.0
                    else rng.standard_normal() + 1j * rng.standard_normal()
                    for w in freqs)
    return freqs, targets


def test_moments_solve_defaults_to_the_transition_family(tmp_path):
    assert _run(["moments-solve", "-o", str(tmp_path)]) == 0
    doc = read_json(str(tmp_path / "moments.json"))
    cfg = ExperimentConfig()
    freqs, targets = _transition_family(cfg.spectral_model(), cfg.model.l,
                                        cfg.numerics.K, cfg.task.seed)
    sol = solve(MomentProblem(cfg.task.T, freqs, targets),
                condition_cap=cfg.numerics.condition_cap,
                n_steps=cfg.numerics.n_steps)
    assert doc["coefficients_re"] == sol.coefficients.real.tolist()
    assert doc["coefficients_im"] == sol.coefficients.imag.tolist()
    assert doc["gram_condition"] == sol.gram_condition
    assert round(doc["gram_condition"], 3) == 1.449
    assert doc["control_l2_norm"] == sol.control.l2_norm()
    misfit = np.abs(moments(sol.control, np.asarray(freqs))
                    - np.asarray(targets))
    assert doc["moment_misfit"] == float(misfit.max())


def test_moments_solve_harmonic_horizon_row(tmp_path):
    # one row of a horizon sweep: the harmonic gaps are 2, resolvable
    # beyond T = pi
    assert _run(["moments-solve", "--model", "harmonic", "--K", "30",
                 "--l", "0", "--T", repr(1.2 * np.pi),
                 "-o", str(tmp_path)]) == 0
    doc = read_json(str(tmp_path / "moments.json"))
    assert doc["gram_condition"] == pytest.approx(2.0000000000000027,
                                                  rel=1e-12)
    assert doc["control_l2_norm"] == pytest.approx(5.155752676739135,
                                                   rel=1e-12)
    assert doc["moment_misfit"] < 1e-13


def test_singular_gram_condition_reads_inf(tmp_path, capsys):
    # on [0, 0.01] the Gram matrix of the default family rounds to a
    # negative smallest eigenvalue: singular, so the condition is inf
    assert _run(["moments-solve", "--T", "0.01", "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Gram condition inf (smallest eigenvalue -" in err
    cfg = ExperimentConfig()
    freqs, targets = _transition_family(cfg.spectral_model(), cfg.model.l,
                                        cfg.numerics.K, cfg.task.seed)
    with pytest.raises(IllConditionedError) as exc:
        solve(MomentProblem(0.01, freqs, targets))
    assert exc.value.condition == math.inf


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run(["coeffs", "--K", "12", "--seed", "3",
                     "-o", str(out)]) == 0
    assert (a / "coefficients.csv").read_bytes() == \
        (b / "coefficients.csv").read_bytes()


def test_steer_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run(["steer", *FAST["steer"], "--seed", "4",
                     "-o", str(out)]) == 0
    assert (a / "steering.json").read_bytes() == \
        (b / "steering.json").read_bytes()


def test_csv_headers_and_hash_stamp(tmp_path):
    out = str(tmp_path)
    assert _run(["coeffs", "--K", "8", "-o", out]) == 0
    config_hash, header, rows = read_csv(str(tmp_path / "coefficients.csv"))
    assert header == ["k", "re", "im", "abs", "weighted_abs"]
    assert len(config_hash) == 16
    assert len(rows) == 8

    assert _run(["simulate", *FAST["simulate"], "-o", out]) == 0
    _, header, _ = read_csv(str(tmp_path / "trajectory.csv"))
    assert header == ["t", "k", "re", "im"]
    _, header, _ = read_csv(str(tmp_path / "norms.csv"))
    assert header == ["t", "l2", "h1"]


def test_hash_changes_with_configuration(tmp_path):
    out = str(tmp_path)
    assert _run(["spectrum", "--N", "8", "-o", out]) == 0
    first, _, _ = read_csv(str(tmp_path / "spectrum.csv"))
    assert _run(["spectrum", "--N", "9", "-o", out]) == 0
    second, _, _ = read_csv(str(tmp_path / "spectrum.csv"))
    assert first != second


def test_resonant_mode_reports_violations_with_exit_zero(tmp_path):
    out = str(tmp_path)
    assert _run(["resonance", "--l", "5", "--K", "200", "-o", out]) == 0
    doc = read_json(str(tmp_path / "resonance.json"))
    assert not doc["ok"]
    assert [7, 1] in doc["violations"]


def test_resonance_reads_the_model(tmp_path, capsys):
    # lambda_k = 2k + 1 is equally spaced, so mode 2 resonates
    assert _run(["resonance", "--model", "harmonic", "--l", "2", "--K", "10",
                 "-o", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "l=2: resonance violated by pairs [(4, 0), (3, 1), (1, 3), (0, 4)]\n")
    doc = read_json(str(tmp_path / "resonance.json"))
    assert not doc["ok"]
    assert doc["violations"] == [[4, 0], [3, 1], [1, 3], [0, 4]]


@pytest.mark.parametrize("model", ["neumann", "harmonic"])
def test_resonance_accepts_mode_zero(model, tmp_path, capsys):
    assert _run(["resonance", "--model", model, "--l", "0", "--K", "50",
                 "-o", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "l=0: no resonant pairs up to K=50\n")


# every (model, weight) pair whose multiplier is not finite and positive on
# the model's index set, with flags selecting the model and a potential
_REJECTED_WEIGHTS = [
    (flags, weight) for flags, weights in [
        (["--model", "periodic_magnetic", "--drift", "1", "--preset",
          "periodic_example", "--l", "0"],
         ["inverse_k", "inverse_sqrt_lambda"]),
        (["--model", "neumann", "--preset", "neumann_example", "--l", "0"],
         ["inverse_k", "inverse_sqrt_lambda"]),
        (["--model", "harmonic", "--preset", "half_line_step", "--l", "0"],
         ["inverse_k"]),
    ] for weight in weights]


@pytest.mark.parametrize("verb", ["coeffs", "bound-check"])
@pytest.mark.parametrize("flags, weight", _REJECTED_WEIGHTS,
                         ids=lambda p: p if isinstance(p, str) else p[1])
def test_a_weight_the_model_rejects_exits_one(verb, flags, weight, tmp_path,
                                              capsys):
    out = tmp_path / "out"
    assert _run([verb, *flags, "--K", "50", "--weight", weight,
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bound weight {weight} ")
    assert f" the {flags[1]} model" in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("task, message", [
    ({"frequencies": [float("nan"), 2.0], "targets_re": [1.0, 1.0]},
     "non-finite moment frequency"),
    ({"frequencies": [1.0, 2.0], "targets_re": [float("inf"), 1.0]},
     "non-finite moment target"),
    ({"T": float("nan")}, "horizon must be positive and finite"),
], ids=["nan-frequency", "inf-target", "nan-horizon"])
def test_non_finite_moment_data_is_a_domain_error(task, message, tmp_path,
                                                  capsys):
    # Python's json reads NaN and Infinity
    task = {"T": 1.0, "frequencies": [1.0, 2.0], "targets_re": [1.0, 1.0],
            "targets_im": [0.0, 0.0], **task}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": task}))
    assert _run(["moments-solve", "--config", str(path),
                 "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_moment_data_of_different_lengths_is_a_config_error(tmp_path,
                                                           capsys):
    task = {"T": 1.0, "frequencies": [1.0, 2.0], "targets_re": [1.0, 1.0],
            "targets_im": [0.0, 0.0, 5.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": task}))
    assert _run(["moments-solve", "--config", str(path),
                 "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: task frequencies, targets_re and targets_im have lengths "
        "2, 2 and 3\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"numerics": {"N": 8, "bogus": 1}}))
    assert _run(["spectrum", "--config", str(path),
                 "-o", str(tmp_path)]) == 1


_INDICATOR = {"preset": None, "breakpoints": [0.5], "domain": "unit_interval"}


@pytest.mark.parametrize("verb, doc, message", [
    (verb, {"numerics": {"N": "abc"}},
     "bad value 'abc' for key 'N' in section 'numerics'")
    for verb in ("simulate", "steer", "spectrum")
] + [
    ("steer", {"numerics": {"K": 2.5}},
     "bad value 2.5 for key 'K' in section 'numerics'"),
    ("steer", {"numerics": {"N": True}},
     "bad value True for key 'N' in section 'numerics'"),
    ("steer", {"task": {"T": "x"}},
     "bad value 'x' for key 'T' in section 'task'"),
    ("coeffs", {"model": {"l": None}},
     "bad value None for key 'l' in section 'model'"),
    ("coeffs", {"potential": {**_INDICATOR, "pieces": [[1.0, "x"], [0.0]]}},
     "bad value [[1.0, 'x'], [0.0]] for key 'pieces' in section "
     "'potential'"),
    ("coeffs", {"potential": {**_INDICATOR, "pieces": [1.0, 0.0]}},
     "bad value [1.0, 0.0] for key 'pieces' in section 'potential'"),
    ("moments-solve", {"task": {"frequencies": 2.0}},
     "bad value 2.0 for key 'frequencies' in section 'task'"),
], ids=["N-simulate", "N-steer", "N-spectrum", "K-float", "N-bool", "T",
        "l-null", "piece-string", "piece-scalar", "frequencies-scalar"])
def test_a_value_of_the_wrong_type_is_a_config_error(verb, doc, message,
                                                     tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert _run([verb, "--config", str(path), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_values_are_checked_not_converted():
    # an integer horizon stays an integer, so the config hashes as written
    cfg = load_config({"task": {"T": 1}})
    assert cfg.task.T == 1 and isinstance(cfg.task.T, int)
    assert cfg.hash() == "861c256791875f54"
    assert load_config({"task": {"T": 1.0}}).hash() == "8269925be980eac7"


def test_malformed_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert _run(["spectrum", "--config", str(path),
                 "-o", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert _run(["steer", "--config", str(path), "-o", str(tmp_path)]) == 1
    assert (capsys.readouterr().err
            == f"error: config {path}: No such file or directory\n")


@pytest.mark.parametrize("control, message", [
    ({"type": "ramp"}, "unknown control type 'ramp'"),
    ({"type": [1]}, "unknown control type [1]"),
    ({"type": "zero", "value": 1.0}, "unknown control key(s) ['value']"),
    ({"type": "constant", "value": 1.0, "slope": 2},
     "unknown control key(s) ['slope']"),
    ({"type": "constant", "value": "abc"},
     "bad value 'abc' for key 'value' in section 'task.control'"),
    ({"type": "terms", "terms": [[1.0, "x", 0.0]]},
     "bad value [[1.0, 'x', 0.0]] for key 'terms' in section "
     "'task.control'"),
    ({"type": "terms", "terms": [[1.0, 0.5]]},
     "bad value [[1.0, 0.5]] for key 'terms' in section 'task.control'"),
    ({"type": "terms", "terms": 1.0},
     "bad value 1.0 for key 'terms' in section 'task.control'"),
], ids=["type", "unhashable-type", "zero-key", "constant-key",
        "value-string", "term-string", "term-pair", "terms-scalar"])
def test_malformed_control_is_a_config_error(control, message, tmp_path,
                                             capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": {"control": control}}))
    assert _run(["simulate", "--config", str(path), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert _run(["spectrum", "--config", str(path), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: ")
    assert "can't decode byte 0xff in position 0" in err


def test_invalid_model_error_exits_one(tmp_path, capsys):
    # Dirichlet has no mode 0
    assert _run(["spectrum", "--l", "0", "--N", "4", "--K", "4",
                 "-o", str(tmp_path)]) == 0  # spectrum ignores l
    assert _run(["coeffs", "--l", "0", "--K", "4",
                 "-o", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BILINCTRL_OUT", str(target))
    assert _run(["spectrum", "--N", "4"]) == 0
    assert (target / "spectrum.csv").exists()


def test_flag_beats_env_var(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("BILINCTRL_OUT", str(env_dir))
    assert _run(["spectrum", "--N", "4", "-o", str(flag_dir)]) == 0
    assert (flag_dir / "spectrum.csv").exists()
    assert not env_dir.exists()


def test_config_file_output_dir_respected(tmp_path):
    out = tmp_path / "cfg_out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": str(out),
                                "numerics": {"N": 4}}))
    assert _run(["spectrum", "--config", str(path)]) == 0
    assert (out / "spectrum.csv").exists()


# -- the CSV cell format ------------------------------------------------------

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf,
                  -math.inf, math.nan, 0.1, 1 / 3]
INT64 = np.iinfo(np.int64)
SPECIAL_INTS = [0, 1, -1, INT64.max, INT64.min, INT64.max - 1, 2**53 + 1]
ROW_COUNTS = [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
              2 * _CSV_BLOCK + 3]


def _oracle_csv(header, columns, config_hash) -> bytes:
    """The artifact format one cell at a time: decimal integers, shortest
    round-trip float repr, \\n line ends."""
    lines = [f"# config_hash={config_hash}", header]
    for row in zip(*columns):
        lines.append(",".join(
            str(int(c)) if isinstance(c, (int, np.integer))
            else repr(float(c)) for c in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def _columns(draw):
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for is_int in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        if is_int:
            pool = np.array(SPECIAL_INTS + draw(st.lists(
                st.integers(INT64.min, INT64.max), max_size=8)),
                dtype=np.int64)
        else:
            pool = np.array(SPECIAL_FLOATS + draw(st.lists(st.floats(),
                                                           max_size=8)))
        # each drawn value fills a run of cells, some longer than a block
        run = draw(st.sampled_from([1, 2, 64, _CSV_BLOCK + 1]))
        draws = pool[rng.integers(pool.size, size=-(-n_rows // run))]
        columns.append(np.repeat(draws, run)[:n_rows])
    return columns


@settings(max_examples=30, deadline=None)
@given(columns=_columns(), one_shot=st.booleans())
def test_write_csv_matches_per_cell_oracle_and_round_trips(columns,
                                                           one_shot):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        # a one-shot generator, as a wrapper that counts columns passes it
        write_csv(path, header, (c for c in columns) if one_shot else columns,
                  "0123456789abcdef")
        with open(path, "rb") as fh:
            data = fh.read()
        config_hash, names, rows = read_csv(path)
    assert data == _oracle_csv(header, columns, "0123456789abcdef")
    assert config_hash == "0123456789abcdef"
    assert names == header.split(",")
    assert len(rows) == columns[0].size
    for j, column in enumerate(columns):
        cells = [row[j] for row in rows]
        if column.dtype.kind == "i":
            assert np.array_equal(np.array([int(c) for c in cells],
                                           dtype=np.int64), column)
        else:
            back = np.array([float(c) for c in cells])
            nan = np.isnan(column)
            assert np.array_equal(np.isnan(back), nan)
            # bitwise, so -0.0 and the subnormals come back as written
            assert back[~nan].tobytes() == column[~nan].tobytes()


def test_write_csv_formats_runs_as_the_oracle(tmp_path):
    """Runs of bit-identical cells, as in the t column of trajectory.csv
    and the running minimum of obstruction.csv, beside a column without
    runs."""
    n = 2 * _CSV_BLOCK + 3
    floats = np.array(SPECIAL_FLOATS)
    # one run across the first block boundary, then nan and inf runs
    across = np.full(n, 0.25)
    across[_CSV_BLOCK - 5:_CSV_BLOCK + 9] = 1 / 3
    across[_CSV_BLOCK + 9:_CSV_BLOCK + 200] = math.nan
    across[_CSV_BLOCK + 200:-7] = math.inf
    across[-7:] = -math.inf
    extremes = np.array([INT64.min, INT64.max, 0, INT64.min], dtype=np.int64)
    # the imaginary part of a complex array is a strided view
    states = np.zeros(n, dtype=complex)
    states.imag = np.resize(np.repeat(floats, 700), n)
    columns = [np.repeat(np.linspace(0.0, 1.0, n), 5)[:n],
               np.resize(np.arange(7), n),
               np.resize(np.repeat(floats, 64), n),
               np.resize(np.repeat([-0.0, 0.0], 3), n),
               across,
               np.resize(np.repeat(extremes, 1000), n),
               states.imag]
    assert not columns[-1].flags.contiguous
    header = ",".join(f"c{j}" for j in range(len(columns)))
    path = str(tmp_path / "runs.csv")
    write_csv(path, header, columns, "0123456789abcdef")
    with open(path, "rb") as fh:
        assert fh.read() == _oracle_csv(header, columns, "0123456789abcdef")


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "x.csv"), "a,b",
                  (np.arange(3), np.zeros(4)), "0" * 16)


# -- row order of the CLI artifacts -------------------------------------------

def test_simulate_trajectory_rows_are_time_major(tmp_path):
    doc = {"model": {"kind": "periodic_magnetic", "drift": 1.0, "l": 0},
           "potential": {"preset": "periodic_example"},
           "numerics": {"N": 3, "n_steps": 1500},
           "task": {"T": 0.2, "control": {
               "type": "terms",
               "terms": [[4.0, 0.5, 0.25], [-4.0, 0.5, -0.25]]}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert _run(["simulate", "--config", str(path),
                 "-o", str(tmp_path)]) == 0

    cfg = load_config(doc)
    model = cfg.spectral_model()
    u = ControlSignal.from_terms([(4.0, 0.5 + 0.25j), (-4.0, 0.5 - 0.25j)],
                                 0.2, 1500)
    traj = Propagator(model, cfg.piecewise_potential(), 3).propagate(
        basis_state(model, 3, 0), u)
    ks = index_window(model, 3)
    expected = [[repr(float(t)), str(int(k)), repr(float(c.real)),
                 repr(float(c.imag))]
                for t, row in zip(traj.times, traj.states)
                for k, c in zip(ks, row)]
    _, _, rows = read_csv(str(tmp_path / "trajectory.csv"))
    assert len(expected) > _CSV_BLOCK
    assert rows == expected
    _, _, norm_rows = read_csv(str(tmp_path / "norms.csv"))
    assert [r[0] for r in norm_rows] == [repr(float(t)) for t in traj.times]
    assert [float(r[1]) for r in norm_rows] == [
        float(np.linalg.norm(c)) for c in traj.states]
    weights = sobolev_weights(model, 3, SobolevNorm.H1)
    assert [float(r[2]) for r in norm_rows] == [
        float(np.linalg.norm(weights * c)) for c in traj.states]


def test_obstruction_scan_rows_match_the_scan(tmp_path):
    K = _CSV_BLOCK + 7
    assert _run(["obstruction-scan", "--model", "neumann", "--preset",
                 "neumann_example", "--K", str(K), "-o", str(tmp_path)]) == 0
    report = neumann_obstruction_scan(neumann_example(), K)
    _, header, rows = read_csv(str(tmp_path / "obstruction.csv"))
    assert header == ["k", "weighted_abs", "running_min"]
    assert [int(r[0]) for r in rows] == report.indices.tolist()
    assert [float(r[1]) for r in rows] == report.weighted.tolist()
    assert [float(r[2]) for r in rows] == report.running_min.tolist()


# the per-index multipliers, one Python float each
_MULTIPLIERS = {
    BoundWeight.INVERSE_K: lambda k: float(abs(k)),
    BoundWeight.INVERSE_K_PLUS_1: lambda k: float(abs(k) + 1),
    BoundWeight.INVERSE_SQRT_LAMBDA: lambda k: float(np.sqrt(2.0 * k + 1.0)),
}


# a model that accepts each weight: the model, its potential, the mode l and
# the flags that select them
_WEIGHT_SETUPS = {
    BoundWeight.INVERSE_K: (
        SpectralModel.dirichlet(), dirichlet_example(), 1,
        ["--preset", "dirichlet_example", "--l", "1"]),
    BoundWeight.INVERSE_K_PLUS_1: (
        SpectralModel.periodic(1.0), periodic_example(), 0,
        ["--model", "periodic_magnetic", "--drift", "1", "--preset",
         "periodic_example", "--l", "0"]),
    BoundWeight.INVERSE_SQRT_LAMBDA: (
        SpectralModel.harmonic(), half_line_step(0.3), 0,
        ["--model", "harmonic", "--preset", "half_line_step", "--a", "0.3",
         "--l", "0"]),
}


@pytest.mark.parametrize("weight", list(BoundWeight), ids=lambda w: w.value)
def test_weighted_coefficients_match_a_per_index_reference(weight, tmp_path):
    K = 5000
    model, mu, l, flags = _WEIGHT_SETUPS[weight]
    args = [*flags, "--K", str(K), "--weight", weight.value,
            "-o", str(tmp_path)]
    assert _run(["coeffs", *args]) == 0
    assert _run(["bound-check", *args]) == 0
    table = coefficient_table(mu, model, l, K)
    multiplier = _MULTIPLIERS[weight]
    ref = [(int(k), complex(v), abs(complex(v)),
            abs(complex(v)) * multiplier(int(k)))
           for k, v in zip(table.indices, table.values)]
    _, _, rows = read_csv(str(tmp_path / "coefficients.csv"))
    assert rows == [[str(k), repr(v.real), repr(v.imag), repr(a), repr(w)]
                    for k, v, a, w in ref]
    constants = [w for *_, w in ref]
    i = int(np.argmin(constants))
    doc = read_json(str(tmp_path / "bound_check.json"))
    assert repr(doc["worst_constant"]) == repr(constants[i])
    assert doc["argmin_index"] == ref[i][0]


def _indicator_config(a, b):
    """The potential section of indicator(a, b) on the unit interval."""
    if a > 0.0:
        return {"preset": None, "breakpoints": [a, b],
                "pieces": [[0.0], [1.0], [0.0]]}
    return {"preset": None, "breakpoints": [b], "pieces": [[1.0], [0.0]]}


@pytest.mark.parametrize("a, b, summary", [
    (0.0, 0.41421356, "no exact zeros found"),
    (1 / 3, 2 / 3, "6548 exact zeros, first few: [1, 3, 5, 6, 7, 9, 11, 12]"),
], ids=["irrational", "thirds"])
def test_obstruction_scan_of_an_indicator(a, b, summary, tmp_path, capsys):
    K = 10_000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": _indicator_config(a, b),
                                "numerics": {"K": K}}))
    assert _run(["obstruction-scan", "--config", str(path),
                 "-o", str(tmp_path)]) == 0
    report = neumann_obstruction_scan(indicator(a, b), K)
    _, _, rows = read_csv(str(tmp_path / "obstruction.csv"))
    assert [float(r[1]) for r in rows] == report.weighted.tolist()
    assert [float(r[2]) for r in rows] == report.running_min.tolist()
    out = capsys.readouterr().out
    if a == 0.0:
        ratio = report.final_min / report.initial_level
        assert f"running minimum / initial level {ratio:.3e}" in out
    else:
        # k = 1 is an exact zero of the thirds indicator: no ratio to it
        assert "k = 1 is an exact zero" in out
        assert "running minimum / initial level" not in out
    assert summary in out


def test_obstruction_scan_prints_no_ratio_to_an_exact_zero(tmp_path, capsys):
    # the README example: k = 1 vanishes, so its level is roundoff
    assert _run(["obstruction-scan", "--model", "neumann", "--preset",
                 "neumann_example", "--K", "1000", "-o", str(tmp_path)]) == 0
    report = neumann_obstruction_scan(neumann_example(), 1000)
    assert 0.0 < report.initial_level < 1e-12
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"initial level {report.initial_level:.6g}, running "
                      f"minimum {report.final_min:.6g} after K=1000")
    assert out[1] == ("k = 1 is an exact zero (below 1e-12), so no ratio to "
                      "the initial level")
    assert not any("running minimum /" in line for line in out)
    _, _, rows = read_csv(str(tmp_path / "obstruction.csv"))
    assert float(rows[0][1]) == report.initial_level


# -- steering on each model ---------------------------------------------------

@pytest.mark.parametrize("args", [
    ["--model", "harmonic", "--preset", "half_line_step", "--a", "0.3",
     "--l", "0", "--T", repr(1.2 * np.pi)],
    ["--model", "periodic_magnetic", "--drift", "1", "--preset",
     "periodic_example", "--l", "0", "--T", "0.4"],
], ids=["harmonic", "periodic"])
def test_steer_converges_off_dirichlet(args, tmp_path):
    assert _run(["steer", *args, "--N", "20", "--K", "20",
                 "-o", str(tmp_path)]) == 0
    doc = read_json(str(tmp_path / "steering.json"))
    assert doc["converged"]
    assert doc["final_error"] < 1e-8


def test_bare_steer_stops_when_only_the_tail_is_left(tmp_path, capsys):
    # the defaults (Dirichlet, N = 64, K = 20, T = 0.5) control 20 of 64
    # modes: the window converges, the tail plateaus, and the verb reports
    # that unconverged outcome with exit 0
    assert _run(["steer", "-o", str(tmp_path)]) == 0
    assert "converged=False" in capsys.readouterr().out
    doc = read_json(str(tmp_path / "steering.json"))
    assert not doc["converged"]
    for key in ("residual_window_h1", "residual_tail_h1"):
        assert len(doc[key]) == len(doc["residual_h1"])
    assert doc["residual_window_h1"][-1] <= 1e-8 < doc["residual_tail_h1"][-1]


def test_steer_names_the_vanishing_neumann_mode(tmp_path, capsys):
    # neumann_example is the obstruction: its coupling to mode 1 vanishes
    assert _run(["steer", "--model", "neumann", "--preset", "neumann_example",
                 "--l", "0", "--N", "20", "--K", "20", "--T", "0.4",
                 "-o", str(tmp_path)]) == 1
    assert "mode 1 vanishes" in capsys.readouterr().err
