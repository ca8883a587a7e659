import hashlib
import json

import numpy as np
import pytest

from rsl.cli import main
from rsl.data import DatasetStore


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    assert run_cli("gen-data", "--seed", "7", "--years", "2", "--grid", "16x8",
                   "--vars", "custom:3", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def cli_run(cli_store, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "runs"
    code = run_cli("train", "--data", str(cli_store), "--arch", "sfno",
                   "--layers", "1", "--dim", "8", "--m-steps", "1",
                   "--seed", "597", "--vars", "custom:3",
                   "--train-start", "2006-01-01", "--train-end", "2006-10-31",
                   "--val-start", "2006-11-01", "--val-end", "2006-11-30",
                   "--batch-size", "64", "--epochs", "1",
                   "--run-root", str(root))
    assert code == 0
    run_dirs = [d for d in root.iterdir() if d.is_dir()]
    assert len(run_dirs) == 1
    return run_dirs[0]


# ----------------------------------------------------------------- gen-data

def test_gen_data_layout(cli_store):
    store = DatasetStore.open(cli_store)
    assert store.manifest["format_version"] == "RSL-DS-1"
    assert (cli_store / "manifest.json").exists()
    assert (cli_store / "stats.json").exists()
    assert (cli_store / "constants.bin").exists()
    first = store.prognostic[0]
    assert (cli_store / first / "2006.bin").exists()
    assert (cli_store / "tisr" / "2007.bin").exists()
    # 2 years of 6-hourly steps
    assert store.n_steps == (365 + 365) * 4


def test_gen_data_refuses_overwrite(cli_store, capsys):
    assert run_cli("gen-data", "--out", str(cli_store)) == 2
    assert "force" in capsys.readouterr().err


def test_gen_data_force_is_bit_identical(cli_store, tmp_path):
    other = tmp_path / "copy"
    assert run_cli("gen-data", "--seed", "7", "--years", "2", "--grid", "16x8",
                   "--vars", "custom:3", "--out", str(other)) == 0
    first = DatasetStore.open(cli_store).prognostic[0]
    for rel in (f"{first}/2006.bin", f"{first}/2007.bin", "constants.bin"):
        assert (other / rel).read_bytes() == (cli_store / rel).read_bytes()


def test_gen_data_rejects_odd_width(tmp_path, capsys):
    assert run_cli("gen-data", "--grid", "7x4", "--out", str(tmp_path / "x")) == 2
    assert "even" in capsys.readouterr().err


def test_gen_data_three_years_vars8_step_count(tmp_path):
    out = tmp_path / "v8"
    assert run_cli("gen-data", "--seed", "7", "--years", "3", "--grid", "32x16",
                   "--vars", "vars8", "--out", str(out)) == 0
    store = DatasetStore.open(out)
    assert len(store.prognostic) == 8
    # 2006 + 2007 + 2008 (leap) = 1096 days of 4 steps
    assert store.n_steps == 4384


# ----------------------------------------------------------------- train

def test_train_artifacts(cli_run):
    for name in ("config.json", "record.json", "best.ckpt", "last.ckpt",
                 "log.txt", "stats.json"):
        assert (cli_run / name).exists()
    record = json.loads((cli_run / "record.json").read_text())
    assert record["status"] == "ok"


def test_train_replay_identical_record(cli_store, tmp_path):
    args = ("train", "--data", str(cli_store), "--arch", "sfno",
            "--layers", "1", "--dim", "8", "--m-steps", "1",
            "--seed", "597", "--vars", "custom:3",
            "--train-start", "2006-01-01", "--train-end", "2006-06-30",
            "--val-start", "2006-07-01", "--val-end", "2006-07-31",
            "--batch-size", "64", "--epochs", "1")
    hashes = []
    for sub in ("a", "b"):
        assert run_cli(*args, "--run-dir", str(tmp_path / sub)) == 0
        hashes.append(hashlib.sha256(
            (tmp_path / sub / "record.json").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_train_replication_mode_validates(cli_store, tmp_path, capsys):
    code = run_cli("train", "--data", str(cli_store), "--arch", "sfno",
                   "--layers", "1", "--dim", "8", "--replication",
                   "--run-dir", str(tmp_path / "r"))
    assert code == 2
    assert "replication" in capsys.readouterr().err


def test_train_nonfinite_loss_exit3(cli_store, tmp_path):
    code = run_cli("train", "--data", str(cli_store), "--arch", "sfno",
                   "--layers", "1", "--dim", "8", "--m-steps", "1",
                   "--seed", "1", "--vars", "custom:3", "--lr", "1e9",
                   "--train-start", "2006-01-01", "--train-end", "2006-03-31",
                   "--val-start", "2006-04-01", "--val-end", "2006-04-30",
                   "--batch-size", "64", "--epochs", "2",
                   "--run-dir", str(tmp_path / "boom"))
    assert code == 3
    record = json.loads((tmp_path / "boom" / "record.json").read_text())
    assert record["status"] == "failed"


def test_train_on_truncated_year_file_exit2(cli_store, tmp_path, capsys):
    import shutil
    store = tmp_path / "ds"
    shutil.copytree(cli_store, store)
    year = store / DatasetStore.open(store).prognostic[0] / "2006.bin"
    year.write_bytes(year.read_bytes()[:-4096])      # as if gen-data was killed
    code = run_cli("train", "--data", str(store), "--arch", "sfno",
                   "--layers", "1", "--dim", "8", "--vars", "custom:3",
                   "--train-start", "2006-01-01", "--train-end", "2006-06-30",
                   "--val-start", "2006-07-01", "--val-end", "2006-07-31",
                   "--epochs", "1", "--run-dir", str(tmp_path / "r"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(year) in err and "truncated" in err


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"training": {"bogus_key": 1}}))
    assert run_cli("train", "--config", str(cfg), "--data", "nowhere") == 2
    assert "bogus_key" in capsys.readouterr().err
    cfg.write_text(json.dumps({"not_a_section": {}}))
    assert run_cli("train", "--config", str(cfg), "--data", "nowhere") == 2


# ----------------------------------------------------------------- rollout

def test_rollout_and_score(cli_run, cli_store):
    code = run_cli("rollout", "--run", str(cli_run), "--reference",
                   str(cli_store), "--start", "2007-06-01T00:00:00",
                   "--steps", "240")
    assert code == 0
    score = json.loads((cli_run / "score.json").read_text())
    assert score["finite"] is True
    assert score["steps"] == 240
    assert isinstance(score["scores"]["mean"]["aggregate"], float)
    assert isinstance(score["climatology"]["mean"]["aggregate"], float)
    assert (cli_run / "rollout" / "meta.json").exists()
    assert (cli_run / "rollout" / "timeseries.csv").exists()


def test_rollout_missing_checkpoint_exit2(tmp_path, cli_store):
    assert run_cli("rollout", "--run", str(tmp_path / "ghost"),
                   "--reference", str(cli_store)) == 2


def test_rollout_years_flag_calendar_steps(cli_run, cli_store, tmp_path):
    import shutil
    cp = tmp_path / "yr_run"
    shutil.copytree(cli_run, cp, dirs_exist_ok=True)
    assert run_cli("rollout", "--run", str(cp), "--reference", str(cli_store),
                   "--start", "2007-01-01T00:00:00", "--years", "1") == 0
    meta = json.loads((cp / "rollout" / "meta.json").read_text())
    assert meta["steps"] == 1460      # 365 days x 4 in 2007


def test_rollout_blowup_contract(cli_run, cli_store, tmp_path):
    # amplifying "model": scale the decoder enormously so the state explodes
    import shutil
    bad = tmp_path / "bad_run"
    shutil.copytree(cli_run, bad)
    from rsl import autodiff as ad
    params = ad.load_checkpoint(bad / "best.ckpt")
    rng = np.random.default_rng(0)
    params["dec.w"] = rng.standard_normal(params["dec.w"].shape).astype(np.float32) * 50.0
    params["dec.b"] = rng.standard_normal(params["dec.b"].shape).astype(np.float32) * 50.0
    ad.save_checkpoint(params, bad / "best.ckpt")
    assert run_cli("rollout", "--run", str(bad), "--reference", str(cli_store),
                   "--start", "2007-06-01T00:00:00", "--steps", "400") == 0
    score = json.loads((bad / "score.json").read_text())
    assert score["finite"] is False
    assert score["blowup_step"] is not None
    assert score["scores"]["mean"]["aggregate"] == "inf"


def test_rollout_truncated_checkpoint_exit2(cli_run, cli_store, tmp_path, capsys):
    import shutil
    cut = tmp_path / "cut_run"
    shutil.copytree(cli_run, cut)
    ckpt = cut / "best.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    assert run_cli("rollout", "--run", str(cut), "--reference", str(cli_store),
                   "--steps", "8") == 2
    assert "truncated or corrupt checkpoint" in capsys.readouterr().err
    ckpt.write_bytes(b"RSL-CKPT-1\n\x05")
    assert run_cli("rollout", "--run", str(cut), "--reference", str(cli_store),
                   "--steps", "8") == 2
    assert "truncated checkpoint header" in capsys.readouterr().err


def test_rollout_checkpoint_of_another_shape_exit2(cli_run, cli_store, tmp_path, capsys):
    import shutil
    from rsl import autodiff as ad
    other = tmp_path / "other_run"
    shutil.copytree(cli_run, other)
    params = ad.load_checkpoint(other / "best.ckpt")
    params["enc.w"] = np.zeros(params["enc.w"].shape[:-1] + (16,), np.float32)
    ad.save_checkpoint(params, other / "best.ckpt")
    assert run_cli("rollout", "--run", str(other), "--reference", str(cli_store),
                   "--steps", "8") == 2
    assert "'enc.w' has shape" in capsys.readouterr().err


def test_score_json_survives_a_failed_write(cli_run, cli_store, tmp_path, monkeypatch):
    import shutil
    import types
    from rsl import atomic
    run = tmp_path / "atomic_run"
    shutil.copytree(cli_run, run)
    args = ("rollout", "--run", str(run), "--reference", str(cli_store),
            "--start", "2007-06-01T00:00:00", "--steps", "40")
    assert run_cli(*args) == 0
    before = (run / "score.json").read_bytes()
    names = sorted(p.name for p in run.iterdir())

    def dump_half_then_fail(doc, f, **kw):
        f.write(json.dumps(doc, **kw)[:200])
        raise OSError("disk full")

    monkeypatch.setattr(atomic, "json", types.SimpleNamespace(dump=dump_half_then_fail))
    with pytest.raises(OSError, match="disk full"):
        run_cli(*args[:-1], "80")
    assert (run / "score.json").read_bytes() == before
    assert json.loads(before)["steps"] == 40
    assert sorted(p.name for p in run.iterdir()) == names


# ----------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def cli_sweep(cli_store, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "sweeproot"
    cfg = tmp_path_factory.mktemp("cli") / "sweep.json"
    cfg.write_text(json.dumps({"sweep": {
        "archs": ["sfno"], "variable_sets": ["custom:3"], "m_steps": [1],
        "layers": [1], "dims": [8], "seeds": [597, 1152],
        "train_start": "2006-01-01", "train_end": "2006-06-30",
        "val_start": "2006-07-01", "val_end": "2006-07-31",
        "batch_size": 64, "epochs": 1}}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(root)) == 0
    manifest = json.loads((root / "sweep.json").read_text())
    for entry in manifest["runs"]:
        assert run_cli("rollout", "--run", str(root / entry["id"]),
                       "--reference", str(cli_store),
                       "--start", "2007-06-01T00:00:00", "--steps", "160",
                       "--run-root", str(root)) == 0
    return root


def test_sweep_manifest(cli_sweep):
    manifest = json.loads((cli_sweep / "sweep.json").read_text())
    assert len(manifest["runs"]) == 2
    seeds = sorted(r["config"]["seed"] for r in manifest["runs"])
    assert seeds == [597, 1152]
    assert all(r["status"] == "ok" for r in manifest["runs"])


def test_report_summary_schema(cli_sweep, tmp_path):
    out = tmp_path / "report"
    assert run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(out),
                   "--svg") == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == ("config,arch,variable_set,kp,m_steps,layers,dim,"
                        "score_mean,score_std,finite_count,n_seeds,per_seed")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[1] == "sfno" and row[9] == "2" and row[10] == "2"
    assert (out / "scores.svg").exists()
    assert len(list((out / "timeseries").iterdir())) == 2


def test_report_matches_aggregate_oracle(cli_sweep, tmp_path):
    out = tmp_path / "rep2"
    run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(out))
    row = (out / "summary.csv").read_text().strip().splitlines()[1].split(",")
    manifest = json.loads((cli_sweep / "sweep.json").read_text())
    scores = []
    for entry in manifest["runs"]:
        sj = json.loads((cli_sweep / entry["id"] / "score.json").read_text())
        scores.append(sj["scores"]["mean"]["aggregate"])
    from rsl.evaluate import aggregate_seeds
    agg = aggregate_seeds(scores)
    assert float(row[7]) == pytest.approx(agg["mean"], rel=1e-6)
    assert float(row[8]) == pytest.approx(agg["std"], rel=1e-6, abs=1e-12)


def test_report_idempotent(cli_sweep, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(a))
    run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(b))
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_report_empty_sweep_exit2(tmp_path):
    assert run_cli("report", "--sweep-root", str(tmp_path)) == 2


def test_report_difference_maps(cli_sweep, cli_store, tmp_path):
    out = tmp_path / "maps_rep"
    assert run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(out),
                   "--reference", str(cli_store)) == 0
    maps = list((out / "maps").iterdir())
    assert len(maps) == 2 * 3      # two runs x three variables
    arr = np.loadtxt(maps[0], delimiter=",")
    assert arr.shape == (8, 16)


# ----------------------------------------------------------------- verify

def test_verify_command_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
