import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from mtot import predict
from mtot.cli import main
from mtot.io import load_dataset, load_model, read_ten


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "mtot", *argv],
                          capture_output=True, text=True)


def strip_time_columns(path):
    rows = list(csv.reader(open(path)))
    drop = [i for i, name in enumerate(rows[0]) if name.endswith("_time_s")]
    return [[c for i, c in enumerate(row) if i not in drop] for row in rows]


def test_simulate_writes_expected_shapes(tmp_path):
    out = tmp_path / "jump"
    assert run_cli("simulate", "--kind", "jump", "--sigma", "0.1", "--seed", "7",
                   "--out", str(out)) == 0
    ds, truth, meta = load_dataset(out / "train.json")
    assert ds.y.shape == (400, 200)
    assert [x.shape for x in ds.xs] == [(400, 5), (400, 51)]
    assert truth is not None
    assert meta["kind"] == "jump" and meta["seed"] == 7
    test_ds, _, _ = load_dataset(out / "test.json")
    assert test_ds.y.shape == (100, 200)


def test_simulate_no_test_manifest_when_empty(tmp_path):
    out = tmp_path / "data"
    assert run_cli("simulate", "--kind", "jump", "--train-size", "20",
                   "--test-size", "0", "--out", str(out)) == 0
    assert (out / "train.json").exists()
    assert not (out / "test.json").exists()


def test_simulate_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("simulate", "--kind", "waveform", "--sigma", "0.2", "--seed", "3",
            "--train-size", "20", "--test-size", "5")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fit_and_predict_round_trip(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "1", "--train-size", "60",
            "--test-size", "10", "--out", str(out))
    model_path = tmp_path / "model.zip"
    assert run_cli("fit", "--data", str(out / "train.json"), "--ranks", "3,5,6",
                   "--out", str(model_path)) == 0
    pred_path = tmp_path / "pred.ten"
    assert run_cli("predict", "--model", str(model_path),
                   "--data", str(out / "test.json"), "--out", str(pred_path)) == 0

    model = load_model(model_path)
    test_ds, _, _ = load_dataset(out / "test.json")
    assert np.array_equal(read_ten(pred_path), predict(model, test_ds.xs))


def test_fit_noiseless_reaches_reported_loss(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "waveform", "--sigma", "0", "--seed", "2",
            "--train-size", "60", "--test-size", "0", "--out", str(out))
    model_path = tmp_path / "model.zip"
    assert run_cli("fit", "--data", str(out / "train.json"), "--ranks", "2,3,3",
                   "--out", str(model_path)) == 0
    model = load_model(model_path)
    ds, _, _ = load_dataset(out / "train.json")
    assert model.loss_trace[-1] <= 1e-8 * float(np.vdot(ds.y, ds.y))


def test_fit_pcr_archive_kind_tag(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "4", "--train-size", "30",
            "--test-size", "0", "--out", str(out))
    model_path = tmp_path / "pcr.zip"
    assert run_cli("fit", "--data", str(out / "train.json"), "--method", "pcr",
                   "--v", "0.95", "--out", str(model_path)) == 0
    import zipfile
    with zipfile.ZipFile(model_path) as zf:
        manifest = json.loads(zf.read("manifest.json").decode())
    assert manifest["kind"] == "pcr"
    assert manifest["variance_fraction"] == 0.95


def test_refit_same_seed_identical_archive(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "5", "--train-size", "40",
            "--test-size", "0", "--out", str(out))
    m1, m2 = tmp_path / "m1.zip", tmp_path / "m2.zip"
    for target in (m1, m2):
        run_cli("fit", "--data", str(out / "train.json"), "--ranks", "2,4,5",
                "--out", str(target))
    assert m1.read_bytes() == m2.read_bytes()


def test_cv_report_csv(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "6", "--train-size", "40",
            "--test-size", "0", "--out", str(out))
    report = tmp_path / "cv.csv"
    assert run_cli("cv", "--data", str(out / "train.json"), "--k", "4",
                   "--out", str(report)) == 0
    rows = list(csv.reader(open(report)))
    assert rows[0] == ["rank_in_0", "rank_in_1", "rank_out", "mean_rss", "folds_used"]
    assert all(row[-1] == "4" for row in rows[1:])

    pcr_report = tmp_path / "pcr_cv.csv"
    assert run_cli("cv", "--data", str(out / "train.json"), "--method", "pcr",
                   "--out", str(pcr_report)) == 0
    rows = list(csv.reader(open(pcr_report)))
    assert rows[0] == ["v", "chosen"]
    assert sum(int(r[1]) for r in rows[1:]) == 1


def test_benchmark_csv_layout_and_determinism(tmp_path):
    table1 = tmp_path / "t1.csv"
    table2 = tmp_path / "t2.csv"
    args = ("benchmark", "--kind", "jump", "--sigma", "0.1,0.2", "--reps", "2",
            "--method", "mtot,pcr", "--ranks", "3,5,6", "--seed", "9",
            "--train-size", "50", "--test-size", "20")
    assert run_cli(*args, "--out", str(table1)) == 0
    assert run_cli(*args, "--out", str(table2)) == 0
    rows = list(csv.reader(open(table1)))
    assert rows[0] == ["sigma", "mtot_smspe", "mtot_time_s", "pcr_smspe", "pcr_time_s"]
    assert [r[0] for r in rows[1:]] == ["0.1", "0.2"]
    assert "(" in rows[1][1]  # mean (sd) cell
    assert strip_time_columns(table1) == strip_time_columns(table2)

    log = tmp_path / "t1_runs.csv"
    log_rows = list(csv.reader(open(log)))
    assert log_rows[0] == ["sigma", "replication", "seed", "method", "metric", "value", "seconds"]
    assert len(log_rows) == 1 + 2 * 2 * 2  # sigmas x reps x methods


def test_benchmark_single_rep_has_no_sd(tmp_path):
    table = tmp_path / "t.csv"
    assert run_cli("benchmark", "--kind", "jump", "--sigma", "0.1", "--reps", "1",
                   "--method", "pcr", "--train-size", "40", "--test-size", "10",
                   "--out", str(table)) == 0
    rows = list(csv.reader(open(table)))
    assert "(" not in rows[1][1]


def test_benchmark_failure_identifies_cell(tmp_path):
    result = run_subprocess("benchmark", "--kind", "jump", "--sigma", "0.1",
                            "--reps", "1", "--method", "mtot", "--ranks", "99,5,6",
                            "--train-size", "30", "--test-size", "5",
                            "--out", str(tmp_path / "t.csv"))
    assert result.returncode == 2
    assert "rep=0" in result.stderr and "method=mtot" in result.stderr


def test_exit_codes():
    assert run_subprocess("simulate", "--bogus").returncode == 2
    assert run_subprocess("fit", "--data", "/nonexistent.json",
                          "--out", "/tmp/x.zip").returncode == 2
    assert run_subprocess("benchmark", "--kind", "jump", "--reps", "0",
                          "--out", "/tmp/x.csv").returncode == 2


def test_exit_code_numerical_failure(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "8", "--train-size", "20",
            "--test-size", "0", "--out", str(out))
    # poison one value in the response tensor
    ten = out / "train_response.ten"
    text = ten.read_text().splitlines()
    text[1] = "nan " + " ".join(text[1].split()[1:])
    ten.write_text("\n".join(text) + "\n")
    result = run_subprocess("fit", "--data", str(out / "train.json"),
                            "--ranks", "2,4,5", "--out", str(tmp_path / "m.zip"))
    assert result.returncode == 3


def _fitted_model(tmp_path):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "3", "--train-size", "20",
            "--test-size", "0", "--out", str(out))
    model = tmp_path / "model.zip"
    assert run_cli("fit", "--data", str(out / "train.json"), "--ranks", "2,3,4",
                   "--out", str(model)) == 0
    return model


def _other_layout(tmp_path):
    out = tmp_path / "other"
    run_cli("simulate", "--kind", "curve_on_curve", "--seed", "3", "--train-size", "10",
            "--test-size", "0", "--out", str(out))
    return out / "train.json"


def _list_manifest(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]\n")
    return path


def _role_without_path(tmp_path):
    path = tmp_path / "nopath.json"
    path.write_text(json.dumps({"roles": [{"name": "response", "kind": "output"}]}))
    return path


def _non_numeric_token(tmp_path):
    (tmp_path / "y.ten").write_text("TEN1 2 2 1\n1.5\nabc\n")
    (tmp_path / "x.ten").write_text("TEN1 2 2 1\n1\n2\n")
    path = tmp_path / "bad_token.json"
    path.write_text(json.dumps({"roles": [{"name": "response", "path": "y.ten", "kind": "output"},
                                          {"name": "x", "path": "x.ten", "kind": "input"}]}))
    return path


@pytest.mark.parametrize("make_data,needle", [
    (_other_layout, "fitted on"),
    (_list_manifest, "not a JSON object"),
    (_role_without_path, "'path'"),
    (_non_numeric_token, "non-numeric"),
])
def test_predict_malformed_input_exits_2_without_traceback(tmp_path, make_data, needle):
    model = _fitted_model(tmp_path)
    result = run_subprocess("predict", "--model", str(model), "--data", str(make_data(tmp_path)),
                            "--out", str(tmp_path / "pred.ten"))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0]


@pytest.mark.parametrize("fit_args", [("--ranks", "2,3,4"), ("--method", "pcr", "--v", "0.95")])
def test_predict_non_finite_input_exits_3(tmp_path, fit_args):
    out = tmp_path / "data"
    run_cli("simulate", "--kind", "jump", "--seed", "3", "--train-size", "20",
            "--test-size", "5", "--out", str(out))
    model = tmp_path / "model.zip"
    assert run_cli("fit", "--data", str(out / "train.json"), *fit_args, "--out", str(model)) == 0
    ten = out / "test_dense_weights.ten"
    text = ten.read_text().splitlines()
    text[1] = "nan " + " ".join(text[1].split()[1:])
    ten.write_text("\n".join(text) + "\n")
    pred = tmp_path / "pred.ten"
    result = run_subprocess("predict", "--model", str(model), "--data", str(out / "test.json"),
                            "--out", str(pred))
    assert result.returncode == 3, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
    assert not pred.exists()
