import dataclasses
import hashlib
import json
import re
import shutil
from datetime import datetime

import numpy as np
import pytest

from rsl.cli import _SECTIONS, _calendar_steps, _train_config_from, build_parser, main
from rsl.data import DatasetStore, SyntheticConfig
from rsl.errors import ConfigError
from rsl.train import run_id


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


@pytest.mark.parametrize("spelled", ["custom:x", "custom:", "vars8:3"])
def test_gen_data_malformed_custom_vars_exit2(tmp_path, capsys, spelled):
    assert run_cli("gen-data", "--vars", spelled, "--out", str(tmp_path / "x")) == 2
    assert spelled in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_every_generator_field_is_a_dataset_key():
    # A SyntheticConfig field exists only if a config key and a flag set it;
    # grid and vars are spelled as strings, and out is a path, not a field.
    keys = _SECTIONS["dataset"][1]
    assert keys == {"seed": "seed", "years": "years", "start_year": "start_year",
                    "grid": "grid", "vars": "variable_set", "out": None}
    assert {f.name for f in dataclasses.fields(SyntheticConfig)} == set(keys.values()) - {None}
    args = build_parser().parse_args(["gen-data"])
    assert all(hasattr(args, key) for key in keys)


def test_gen_data_defaults_are_pinned(tmp_path):
    # Seed 0, 3 years from 2006, 32x16, vars8: SyntheticConfig's defaults are
    # gen-data's. The digest covers every file's path and sha256 and was taken
    # when gen-data kept defaults of its own (numpy 2.4, OpenBLAS 0.3.31, x86-64).
    out = tmp_path / "world"
    assert run_cli("gen-data", "--out", str(out)) == 0
    listing = "".join(f"{p.relative_to(out).as_posix()} "
                      f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                      for p in sorted(out.rglob("*")) if p.is_file())
    assert hashlib.sha256(listing.encode()).hexdigest() == \
        "8d0a255bacf540a9880d829822fee282c19220678cfc222c038a41a121b69919"


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
    for name in ("config.json", "record.json", "best.ckpt", "log.txt", "stats.json"):
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
    assert not (tmp_path / "r").exists()     # a refused run writes nothing


@pytest.mark.parametrize("argv, key", [
    (("train", "--seed", "-1"), "seed"),
    (("train", "--lr", "-0.001"), "lr"),
    (("train", "--grad-clip", "-1"), "grad_clip_norm"),
    (("train", "--patience", "0"), "early_stop_patience"),
    (("gen-data", "--seed", "-1"), "seed"),
    (("gen-data", "--start-year", "0"), "start_year"),
    (("gen-data", "--start-year", "1", "--years", "1"), "start_year"),   # TISR from year 0
    (("gen-data", "--start-year", "9998"), "start_year"),    # ends in year 10001
    (("sweep",), "seed"),                      # the second of the grid's seeds is -1
], ids=["train-seed", "train-lr", "train-grad-clip", "train-patience", "gen-data-seed",
        "gen-data-start-year-0", "gen-data-start-year-1", "gen-data-start-year-9998",
        "sweep-seed"])
def test_bad_training_and_generator_values_exit2(cli_store, tmp_path, capsys, argv, key):
    command, *flags = argv
    out = tmp_path / "out"
    if command == "train":
        argv = (command, "--data", str(cli_store), "--arch", "sfno", "--layers", "1",
                "--dim", "8", "--train-start", "2006-01-01", "--train-end", "2006-01-31",
                "--val-start", "2006-02-01", "--val-end", "2006-02-07",
                "--batch-size", "64", "--epochs", "2", *flags, "--run-dir", str(out))
    elif command == "sweep":
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, seeds=[597, -1]),
                                   "training": SHORT_TRAINING}))
        argv = (command, "--config", str(cfg), "--data", str(cli_store),
                "--run-root", str(out))
    else:
        argv = (command, "--grid", "16x8", "--vars", "custom:3", *flags, "--out", str(out))
    assert run_cli(*argv) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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


def test_path_flag_naming_a_file_exit2(cli_store, tmp_path, capsys, monkeypatch):
    from rsl import cli
    monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained"))
    monkeypatch.setattr(cli, "write_report", lambda *a, **k: pytest.fail("reported"))
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("swept"))
    afile = tmp_path / "a_file"
    afile.write_text("kept")
    train = ("train", "--data", str(cli_store), "--arch", "sfno", "--layers", "1",
             "--dim", "8", "--vars", "custom:3", "--train-start", "2006-01-01",
             "--train-end", "2006-01-31", "--val-start", "2006-02-01",
             "--val-end", "2006-02-28", "--epochs", "1")
    rid = run_id(_train_config_from(build_parser().parse_args(train), {},
                                    DatasetStore.open(cli_store)))
    config = tmp_path / "sweep.json"          # a 2-run sweep whose seed-597 run is rid
    config.write_text(json.dumps({"sweep": SWEEP_GRID, "training": {
        "train_start": "2006-01-01", "train_end": "2006-01-31",
        "val_start": "2006-02-01", "val_end": "2006-02-28", "epochs": 1}}))
    sweep_run = ("sweep", "--config", str(config), "--data", str(cli_store))
    root, sweep = tmp_path / "root", tmp_path / "sweep"
    for taken in (root / rid, sweep / "report"):      # a file where an output goes
        taken.parent.mkdir()
        taken.write_text("kept")

    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = tree()
    for argv, named in ((("gen-data", "--years", "1", "--out", str(afile)), f"--out {afile}"),
                        (("gen-data", "--years", "1", "--out", str(afile / "ds")),
                         f"--out {afile / 'ds'}"),
                        (train + ("--run-dir", str(afile)), f"--run-dir {afile}"),
                        (train + ("--run-root", str(afile)), f"--run-root {afile}"),
                        (train + ("--run-root", str(root)), f"--run-root {root / rid}"),
                        (sweep_run + ("--run-root", str(root)), f"--run-root {root / rid}"),
                        (("report", "--sweep-root", str(sweep), "--out", str(afile)),
                         f"--out {afile}"),
                        (("report", "--sweep-root", str(sweep)),
                         f"the default --out {sweep / 'report'}")):
        assert run_cli(*argv) == 2, argv
        assert named in capsys.readouterr().err
    monkeypatch.setenv("RSL_RUN_ROOT", str(root))
    for argv in (train, sweep_run):
        assert run_cli(*argv) == 2, argv
        assert f"RSL_RUN_ROOT {root / rid}" in capsys.readouterr().err
    assert tree() == before


@pytest.mark.parametrize("command, flag, kind", [
    ("train", "--data", "file"), ("train", "--config", "directory"),
    ("rollout", "--reference", "file"), ("sweep", "--data", "file"),
    ("sweep", "--config", "directory")])
def test_path_of_the_wrong_kind_exit2(cli_store, cli_run, tmp_path, capsys,
                                      command, flag, kind):
    wrong = tmp_path / "wrong"
    wrong.mkdir() if kind == "directory" else wrong.write_text("{}")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": SWEEP_GRID, "training": SHORT_TRAINING}))
    root = tmp_path / "root"
    flags = {"train": {"--data": cli_store, "--arch": "sfno", "--layers": "1",
                       "--dim": "8", "--run-root": root},
             "rollout": {"--run": cli_run, "--reference": cli_store, "--steps": "4"},
             "sweep": {"--config": config, "--data": cli_store, "--run-root": root}}[command]
    flags[flag] = wrong
    assert run_cli(command, *(str(a) for kv in flags.items() for a in kv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(wrong) in err and "Traceback" not in err
    assert not root.exists()


@pytest.mark.parametrize("key, value, named", [
    ("evaluation_subset", ["zzz"], "evaluation subset variables ['zzz']"),
    ("set_name", None, "missing key 'set_name'")])
def test_manifest_variable_set_is_checked_when_the_store_opens(cli_store, tmp_path, capsys,
                                                               key, value, named):
    store = tmp_path / "ds"
    shutil.copytree(cli_store, store)
    manifest = store / "manifest.json"
    doc = json.loads(manifest.read_text())
    if value is None:
        del doc["variables"][key]
    else:
        doc["variables"][key] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(f"{manifest}: {named}")):
        DatasetStore.open(store)
    assert run_cli("train", "--data", str(store), "--arch", "sfno", "--layers", "1",
                   "--dim", "8", "--vars", "custom:3", "--train-start", "2006-01-01",
                   "--train-end", "2006-01-31", "--val-start", "2006-02-01",
                   "--val-end", "2006-02-07", "--epochs", "1",
                   "--run-root", str(tmp_path / "runs")) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and named in err
    assert not (tmp_path / "runs").exists()


def poison(store, var, year, step):
    """Put a NaN at `step` of the 16x8 store's `var`/`year`.bin; returns its mender."""
    path = store / var / f"{year}.bin"
    good = path.read_bytes()
    a = np.frombuffer(good, "<f4").copy()
    a[step * 16 * 8 + 5] = np.nan
    a.tofile(path)
    return lambda: path.write_bytes(good)


def test_non_finite_store_values_exit2(cli_run, cli_store, tmp_path, capsys):
    """A NaN in the store refuses the rollout or training that reads it,
    naming the store, the variable and the window, and writes nothing."""
    store = tmp_path / "nan_ds"
    shutil.copytree(cli_store, store)
    run = tmp_path / "nan_run"
    shutil.copytree(cli_run, run)
    args = ("rollout", "--run", str(run), "--reference", str(store),
            "--start", "2007-01-01T00:00:00", "--steps", "40")
    assert run_cli(*args) == 0

    def files():
        return {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}

    before = files()
    v00 = DatasetStore.open(store).prognostic[0]
    # the forcing of rollout step 10, then the scored window of a finite rollout
    for var, step, window in (("tisr", 10, "2007-01-03 12:00..2007-01-03 12:00"),
                              (v00, 20, "2007-01-01 00:00..2007-01-10 18:00")):
        mend = poison(store, var, 2007, step)
        assert run_cli(*args) == 2, var
        assert (f"the store {store} holds non-finite values of {var} in {window}"
                in capsys.readouterr().err)
        assert files() == before
        mend()
    poison(store, v00, 2006, 100)
    assert run_cli("train", "--data", str(store), "--arch", "sfno", "--layers", "1",
                   "--dim", "8", "--vars", "custom:3", "--train-start", "2006-01-01",
                   "--train-end", "2006-10-31", "--val-start", "2006-11-01",
                   "--val-end", "2006-11-30", "--epochs", "1",
                   "--run-dir", str(tmp_path / "r")) == 2
    assert (f"non-finite values of {v00} in 2006-01-01 00:00..2006-10-31 18:00"
            in capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_rollout_refuses_its_scored_window_before_the_first_step(cli_run, cli_store, tmp_path,
                                                                capsys, monkeypatch):
    from rsl import cli
    store, run = tmp_path / "nan_ds", tmp_path / "nan_run"
    shutil.copytree(cli_store, store)
    shutil.copytree(cli_run, run)
    v00 = DatasetStore.open(store).prognostic[0]
    poison(store, v00, 2007, 100)                   # inside a 200-step rollout
    monkeypatch.setattr(cli, "rollout", lambda *a, **k: pytest.fail("rolled out"))
    before = {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
    assert run_cli("rollout", "--run", str(run), "--reference", str(store),
                   "--start", "2007-01-01T00:00:00", "--steps", "200") == 2
    assert (f"the store {store} holds non-finite values of {v00} in "
            f"2007-01-01 00:00..2007-02-19 18:00" in capsys.readouterr().err)
    assert {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()} == before


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"training": {"bogus_key": 1}}))
    assert run_cli("train", "--config", str(cfg), "--data", "nowhere") == 2
    assert "bogus_key" in capsys.readouterr().err
    cfg.write_text(json.dumps({"not_a_section": {}}))
    assert run_cli("train", "--config", str(cfg), "--data", "nowhere") == 2
    # Sections and keys that nothing reads are not accepted either.
    for doc, key in (({"rollout": {"years": 10}}, "rollout"),
                     ({"evaluation": {"modes": ["mean"]}}, "evaluation"),
                     ({"dataset": {"path": "ds"}}, "path"),
                     ({"variable_set": {"name": "vars8", "n_prognostic": 8}}, "n_prognostic"),
                     ({"model": {"arch": "sfno", "decoder_depth": 2}}, "decoder_depth"),
                     ({"model": {"arch": "sfno", "big_skip": True}}, "big_skip"),
                     ({"sweep": {"epochs": 1}}, "epochs")):    # moved to 'training'
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg), "--data", "nowhere") == 2, key
        assert key in capsys.readouterr().err


def test_config_file_model_keys_reach_the_spec(cli_store, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "variable_set": {"name": "custom:3"},
        "model": {"arch": "climax", "layers": 1, "dim": 8, "patch": [1, 2],
                  "heads": 2, "mlp_ratio": 2.0, "pos_embed": False},
        "training": {"epochs": 1, "batch_size": 64, "train_start": "2006-01-01",
                     "train_end": "2006-01-31", "val_start": "2006-02-01",
                     "val_end": "2006-02-07"}}))
    run = tmp_path / "r"
    assert run_cli("train", "--config", str(cfg), "--data", str(cli_store),
                   "--run-dir", str(run)) == 0
    model = json.loads((run / "config.json").read_text())["model"]
    assert (model["arch"], model["n_layers"], model["hidden_dim"]) == ("climax", 1, 8)
    assert model["patch_size"] == [1, 2] and model["n_heads"] == 2
    assert model["mlp_ratio"] == 2.0 and model["use_pos_embed"] is False


@pytest.mark.parametrize("section, key, value, expected", [
    ("model", "patch", 3, "a list of 2 ints"),
    ("model", "layers", "4", "an int"),
    ("training", "lr", "fast", "a number or null"),
    ("model", "pos_embed", 1, "a bool"),
    ("sweep", "seeds", [1.5], "a list of ints"),
    ("dataset", "grid", 5, "a string")])
def test_config_value_of_the_wrong_type_exit2(cli_store, tmp_path, capsys,
                                              section, key, value, expected):
    doc = {"model": {"arch": "climax", "layers": 1, "dim": 8}}
    doc.setdefault(section, {})[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "runs")
    argv = (["gen-data", "--out", out] if section == "dataset" else
            ["sweep" if section == "sweep" else "train", "--data", str(cli_store),
             "--run-root", out])
    assert run_cli(*argv, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"config section {section!r}: key {key!r}: expected {expected}" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("arch, key, value, field", [
    ("sfno", "layers", 0, "n_layers"), ("sfno", "dim", 0, "hidden_dim"),
    ("climax", "heads", 0, "n_heads"), ("fcn", "blocks", 0, "n_blocks"),
    ("climax", "patch", [0, 2], "patch_size"), ("climax", "patch", [2, 0], "patch_size"),
    ("fcn", "mlp_ratio", 0.0, "mlp_ratio"),
    ("sfno", "mlp_ratio", 0.1, "mlp_ratio"),                   # int(0.1 * 8) == 0
    ("fcn", "hard_threshold_fraction", 1.5, "hard_threshold_fraction"),
    ("sfno", "hard_threshold_fraction", 0.0, "hard_threshold_fraction"),
    ("fcn", "sparsity_threshold", -0.01, "sparsity_threshold")])
def test_degenerate_model_value_exit2(cli_store, tmp_path, capsys, arch, key, value, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"arch": arch, "layers": 1, "dim": 8, key: value}}))
    run = tmp_path / "r"
    assert run_cli("train", "--config", str(cfg), "--data", str(cli_store),
                   "--run-dir", str(run)) == 2
    assert field in capsys.readouterr().err
    assert not run.exists()


# Date windows a 2006-2007 store cannot serve, each named by its keys; one that
# lies outside the store is named with M and the store's span.
@pytest.mark.parametrize("dates, m, named", [
    ({"train_start": "2006-13-01"}, 1, "train_start '2006-13-01'"),
    ({"val_start": "2006-02-30"}, 1, "val_start '2006-02-30'"),
    ({"val_end": "2006-01-15"}, 1, "val_end 2006-01-15 is before val_start 2006-02-01"),
    ({"val_start": "2008-01-01", "val_end": "2008-12-31"}, 1,     # the default val year
     "val_start..val_end 2008-01-01..2008-12-31 at M=1"),
    ({"val_start": "2005-12-01", "val_end": "2006-01-31"}, 1,
     "val_start..val_end 2005-12-01..2006-01-31 at M=1"),
    ({"train_end": "2008-01-31"}, 1, "train_start..train_end 2006-01-01..2008-01-31 at M=1"),
    ({"train_end": "9999-12-31"}, 1, "train_start..train_end 2006-01-01..9999-12-31 at M=1"),
    ({"val_start": "2007-12-31", "val_end": "2007-12-31"}, 4,     # horizon ends 2008-01-01
     "val_start..val_end 2007-12-31..2007-12-31 at M=4"),
], ids=["bad-month", "bad-day", "val-reversed", "val-after-store", "val-before-store",
        "train-past-store", "train-end-9999", "val-horizon-past-store"])
def test_bad_date_window_exit2(cli_store, tmp_path, capsys, dates, m, named):
    training = dict(SHORT_TRAINING, **dates)
    flags = [arg for key, v in training.items() for arg in (f"--{key.replace('_', '-')}", str(v))]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, m_steps=[m]), "training": training}))
    out = tmp_path / "out"
    for argv in (["train", "--arch", "sfno", "--layers", "1", "--dim", "8",
                  "--m-steps", str(m), *flags, "--run-dir", str(out)],
                 ["sweep", "--config", str(cfg), "--run-root", str(out)]):
        assert run_cli(*argv, "--data", str(cli_store)) == 2, argv[0]
        err = capsys.readouterr().err
        assert named in err, err
        if "M=" in named:
            assert "spans 2006-01-01 00:00..2007-12-31 18:00" in err
        assert not out.exists()      # no run directory, no sweep.json


def test_val_end_on_the_last_representable_day_is_clipped_to_the_store(cli_store, tmp_path,
                                                                       capsys):
    # datetime's last day: the val window is clipped to the store like any other
    records = []
    for val_end in ("2007-12-31", "9999-12-31"):
        out = tmp_path / val_end
        assert run_cli("train", "--data", str(cli_store), "--arch", "sfno", "--layers", "1",
                       "--dim", "8", "--train-start", "2006-01-01", "--train-end", "2006-01-31",
                       "--val-start", "2007-12-01", "--val-end", val_end,
                       "--batch-size", "64", "--epochs", "1", "--run-dir", str(out)) == 0
        record = json.loads((out / "record.json").read_text())
        records.append((record["best_val"], record["persistence_val"]))
    assert records[0] == records[1]
    # the default rollout start, the day after val_end, is past datetime's last day
    files = sorted(out.iterdir())
    capsys.readouterr()
    assert run_cli("rollout", "--run", str(out), "--reference", str(cli_store),
                   "--steps", "8") == 2
    err = capsys.readouterr().err
    assert "from the day after val_end 9999-12-31 ends after 9999" in err
    assert "Traceback" not in err
    assert sorted(out.iterdir()) == files


def test_quick_start_run_id_is_pinned(small_store):
    # The README quick-start `rsl train` on a vars8 store, in full and without
    # the flags that repeat the defaults. A change that re-keys run ids (a new
    # spec or config field, another default) fails here.
    full = ("train --data world --arch sfno --layers 2 --dim 32 --m-steps 2 "
            "--seed 597 --vars vars8 --train-start 2006-01-01 --train-end 2007-12-31 "
            "--val-start 2008-01-01 --val-end 2008-12-31 --batch-size 32 --epochs 5 "
            "--run-root runs")
    short = "train --data world --arch sfno --layers 2 --dim 32 --m-steps 2"
    loose = short + " --train-start 2006-1-1 --val-start 2008-1-01 --val-end 2008-12-31"
    for argv in (full, short, loose):
        cfg = _train_config_from(build_parser().parse_args(argv.split()), {}, small_store)
        assert run_id(cfg) == "c3c1676a4916", argv


def test_train_without_vars_takes_the_store_set(cli_store, tmp_path):
    run = tmp_path / "r"
    assert run_cli("train", "--data", str(cli_store), "--arch", "sfno",
                   "--layers", "1", "--dim", "8", "--train-start", "2006-01-01",
                   "--train-end", "2006-01-31", "--val-start", "2006-02-01",
                   "--val-end", "2006-02-07", "--epochs", "1",
                   "--run-dir", str(run)) == 0
    assert json.loads((run / "config.json").read_text())["variable_set"] == "custom:3"


def test_variable_set_must_match_the_store(cli_store, cli_run, tmp_path, capsys):
    def assert_exit2_naming(*argv, sets=("vars8", "custom:3")):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert all(s in err for s in sets), err

    assert_exit2_naming("train", "--data", str(cli_store), "--arch", "sfno",
                        "--layers", "1", "--dim", "8", "--vars", "vars8",
                        "--run-dir", str(tmp_path / "t"))
    assert not (tmp_path / "t").exists()     # a refused run writes nothing
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, variable_sets=["vars8"])}))
    assert_exit2_naming("sweep", "--config", str(cfg), "--data", str(cli_store),
                        "--run-root", str(tmp_path / "s"))
    assert not (tmp_path / "s").exists()
    # a run whose config names vars8, rolled out on the custom:3 reference
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    doc = json.loads((run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps(dict(doc, variable_set="vars8")))
    assert_exit2_naming("rollout", "--run", str(run), "--reference", str(cli_store),
                        "--steps", "8")
    # the run's own set on the reference, another set on --data
    (run / "config.json").write_text(json.dumps(doc))
    other = tmp_path / "ds4"
    assert run_cli("gen-data", "--seed", "7", "--years", "1", "--grid", "16x8",
                   "--vars", "custom:4", "--out", str(other)) == 0
    assert_exit2_naming("rollout", "--run", str(run), "--reference", str(cli_store),
                        "--data", str(other), "--steps", "8",
                        sets=("custom:3", "custom:4"))
    assert not (run / "score.json").exists()


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


def test_calendar_steps_from_a_leap_day():
    # 2008-02-29 to 2018-02-28: 3652 days; to 2012-02-29: 1461 days.
    assert _calendar_steps(datetime(2008, 2, 29), 10) == 14608
    assert _calendar_steps(datetime(2008, 2, 29, 18), 4) == 5844
    assert _calendar_steps(datetime(2007, 1, 1), 1) == 1460


def test_rollout_of_a_run_this_version_did_not_write_exit2(cli_run, cli_store, tmp_path,
                                                            capsys):
    old = tmp_path / "old_run"
    shutil.copytree(cli_run, old)
    args = ("rollout", "--run", str(old), "--reference", str(cli_store), "--steps", "8")
    doc = json.loads((cli_run / "config.json").read_text())
    doc["model"].update(decoder_depth=2, big_skip=False)      # keys an older rsl wrote
    (old / "config.json").write_text(json.dumps(doc))
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "decoder_depth" in err and "big_skip" in err
    del doc["seed"]
    (old / "config.json").write_text(json.dumps(doc))
    assert run_cli(*args) == 2
    assert "missing required keys ['seed']" in capsys.readouterr().err
    doc = json.loads((cli_run / "config.json").read_text())
    (old / "config.json").write_text(json.dumps(dict(doc, m_steps=0)))
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "m_steps must be >= 1" in err
    (old / "config.json").write_text((cli_run / "config.json").read_text()[:-40])
    assert run_cli(*args) == 2
    assert "config.json" in capsys.readouterr().err
    shutil.copy(cli_run / "config.json", old / "config.json")
    (old / "stats.json").write_text('{"range": null}')
    assert run_cli(*args) == 2
    assert "stats.json" in capsys.readouterr().err
    (old / "stats.json").write_text((cli_run / "stats.json").read_text()[:-10])
    assert run_cli(*args) == 2
    assert "stats.json" in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    (lambda d: d["values"]["v00"].update(std=-d["values"]["v00"]["std"]), "values.v00"),
    (lambda d: d["values"]["v00"].update(std=0), "values.v00"),
    (lambda d: d["values"]["v00"].update(mean=float("nan")), "values.v00"),
    (lambda d: d["values"]["v00"].update(mean=True), "values.v00"),
    (lambda d: d["values"]["v00"].update(std="x"), "values.v00"),
    (lambda d: d["values"].pop("tisr"), "holds ['tisr', 'v00', 'v01', 'v02']"),
], ids=["negative-std", "zero-std", "nan-mean", "bool-mean", "string-std", "no-tisr"])
def test_rollout_refuses_stats_it_cannot_normalize_with(cli_run, cli_store, tmp_path, capsys,
                                                         edit, named):
    run = tmp_path / "edited_run"
    shutil.copytree(cli_run, run)
    doc = json.loads((run / "stats.json").read_text())
    edit(doc)
    (run / "stats.json").write_text(json.dumps(doc))
    before = sorted(p.name for p in run.iterdir())
    assert run_cli("rollout", "--run", str(run), "--reference", str(cli_store),
                   "--steps", "20") == 2
    err = capsys.readouterr().err
    assert "stats.json" in err and named in err, err
    assert sorted(p.name for p in run.iterdir()) == before     # no rollout/, no score.json


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


def test_refused_rollout_writes_nothing(cli_run, cli_store, tmp_path, capsys):
    run = tmp_path / "refused_run"
    shutil.copytree(cli_run, run)
    args = ("rollout", "--run", str(run), "--reference", str(cli_store),
            "--start", "2007-06-01T00:00:00")
    assert run_cli(*args, "--steps", "40") == 0

    def files():
        return {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}

    before = files()
    other = tmp_path / "ds32x16"
    assert run_cli("gen-data", "--seed", "7", "--years", "2", "--grid", "32x16",
                   "--vars", "custom:3", "--out", str(other)) == 0
    later = tmp_path / "ds2007"      # the reference's grid, without the training window
    assert run_cli("gen-data", "--seed", "7", "--years", "1", "--grid", "16x8",
                   "--vars", "custom:3", "--start-year", "2007", "--out", str(later)) == 0
    span = f"the store {cli_store} spans 2006-01-01 00:00..2007-12-31 18:00 in steps of 6 h"
    # 856 steps are left in the store from the start
    for flags, named in ((("--steps", "-5"), "--steps"), (("--steps", "0"), "--steps"),
                         (("--years", "0"), "--years"),
                         (("--steps", "857"), "a rollout of 857 steps from --start "
                          "2007-06-01T00:00:00 needs 2007-06-01 00:00..2008-01-01 00:00, "
                          f"but {span}"),
                         (("--start", "2008-06-01", "--steps", "8"), "a rollout of 8 steps "
                          "from --start 2008-06-01T00:00:00 needs 2008-06-01 00:00..2008-06-02 "
                          f"18:00, but {span}"),
                         (("--start", "2007-06-01T03:00", "--steps", "8"), "a rollout of 8 "
                          "steps from --start 2007-06-01T03:00:00 needs 2007-06-01 03:00.."
                          f"2007-06-02 21:00, but {span}"),
                         (("--years", "8000"), "from --start 2007-06-01T00:00:00 ends after 9999"),
                         (("--steps", "8", "--data", str(later)), "train_start..train_end "
                          "2006-01-01..2006-10-31 needs 2006-01-01 00:00..2006-10-31 18:00, "
                          f"but the store {later} spans 2007-01-01 00:00..2007-12-31 18:00"),
                         (("--start", "2008-02-30", "--steps", "8"), "--start '2008-02-30'"),
                         (("--start", "2007-06-01T00:00:00+00:00", "--steps", "8"),
                          "--start '2007-06-01T00:00:00+00:00' has a UTC offset"),
                         (("--steps", "8", "--data", str(other)), "different grids")):
        assert run_cli(*args, *flags) == 2, flags
        assert named in capsys.readouterr().err
        assert files() == before
    assert run_cli(*args, "--steps", "856") == 0


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

    monkeypatch.setattr(atomic, "json", types.SimpleNamespace(dump=dump_half_then_fail,
                                                              load=json.load))
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
    cfg.write_text(json.dumps({
        "sweep": {"archs": ["sfno"], "variable_sets": ["custom:3"], "m_steps": [1],
                  "layers": [1], "dims": [8], "seeds": [597, 1152]},
        "training": {"train_start": "2006-01-01", "train_end": "2006-06-30",
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


# One run of one architecture; the tests below add keys around it.
SWEEP_GRID = {"archs": ["sfno"], "variable_sets": ["custom:3"], "m_steps": [1],
              "layers": [1], "dims": [8], "seeds": [597, 1152]}
SHORT_TRAINING = {"train_start": "2006-01-01", "train_end": "2006-01-31",
                  "val_start": "2006-02-01", "val_end": "2006-02-07",
                  "batch_size": 64, "epochs": 1}


def test_sweep_reads_every_model_and_training_key(cli_store, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "sweep": SWEEP_GRID, "model": {"mlp_ratio": 3.0},
        "training": dict(SHORT_TRAINING, lr=5e-4, patience=1, grad_clip=0.5)}))
    root = tmp_path / "root"
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(root)) == 0
    runs = json.loads((root / "sweep.json").read_text())["runs"]
    assert len(runs) == 2
    for entry in runs:
        got = json.loads((root / entry["id"] / "config.json").read_text())
        assert (got["lr_init"], got["early_stop_patience"], got["grad_clip_norm"],
                got["model"]["mlp_ratio"]) == (5e-4, 1, 0.5, 3.0)
        assert got["batch_size"] == 64 and got["train_end"] == "2006-01-31"


@pytest.mark.parametrize("section, key, value", [
    ("training", "m_steps", 1), ("training", "seed", 1), ("model", "arch", "sfno"),
    ("model", "layers", 1), ("model", "dim", 8), ("variable_set", "name", "custom:3")])
def test_sweep_axis_key_outside_the_grid_exit2(cli_store, tmp_path, capsys,
                                               section, key, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": SWEEP_GRID, section: {key: value}}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("axis, values", [("seeds", [597, 597]),
                                          ("variable_sets", ["custom:3", "custom:03"])])
def test_sweep_naming_one_run_twice_exit2(cli_store, tmp_path, capsys, axis, values):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, **{axis: values}),
                               "training": SHORT_TRAINING}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    assert f"sweep axis {axis!r} names one value twice in {values}" \
        in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("axis", ["seeds", "archs"])
def test_sweep_empty_axis_exit2(cli_store, tmp_path, capsys, axis):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, **{axis: []}),
                               "training": SHORT_TRAINING}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    assert f"sweep axis {axis!r} is empty" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit2(cli_store, tmp_path, capsys, jobs):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": SWEEP_GRID, "training": SHORT_TRAINING}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root"), "--jobs", jobs) == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


def test_sweep_patches_that_do_not_tile_the_grid_exit2(cli_store, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, archs=["climax"]),
                               "model": {"patch": [3, 3]}, "training": SHORT_TRAINING}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    assert "model.patch [3, 3] (lat, lon) does not divide the 16x8 grid" \
        in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


def test_sweep_model_key_an_architecture_does_not_read_exit2(cli_store, tmp_path,
                                                              capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": dict(SWEEP_GRID, archs=["climax", "sfno"]),
                               "model": {"heads": 2}}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    err = capsys.readouterr().err
    assert "sfno" in err and "n_heads" in err
    assert not (tmp_path / "root").exists()


def test_sweep_section_missing_keys_exit2(cli_store, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": {
        "archs": ["sfno"], "variable_sets": ["custom:3"], "m_steps": [1],
        "layers": [1], "dims": [8]}}))
    assert run_cli("sweep", "--config", str(cfg), "--data", str(cli_store),
                   "--run-root", str(tmp_path / "root")) == 2
    assert "missing required keys ['seeds']" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


def test_sweep_manifest(cli_sweep):
    manifest = json.loads((cli_sweep / "sweep.json").read_text())
    assert len(manifest["runs"]) == 2
    seeds = sorted(r["config"]["seed"] for r in manifest["runs"])
    assert seeds == [597, 1152]
    # the ids the same grid got when its training settings sat in 'sweep'
    assert [r["id"] for r in manifest["runs"]] == ["c81685a30ff7", "fe71a186f8ea"]
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
    assert len(list((out / "timeseries").iterdir())) == 2
    # Taken when the SVG re-parsed the per_seed column (numpy 2.4, OpenBLAS
    # 0.3.31, x86-64): the table and the plot of this sweep are unchanged.
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.csv", "scores.svg")}
    assert digests == {
        "summary.csv": "2a3004495966b14d875a351373e594e92ca6cd2363a72e9fc390e4160daa87d4",
        "scores.svg": "4ea83d68252f8db542bd98d2450927ebb71bfe543b6505bb3a3647fb68e9235d"}


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


def test_report_empty_sweep_exit2(tmp_path, capsys):
    # no sweep.json, then one that lists no runs: refused before report/ is made
    for manifest, named in ((None, "no sweep.json"), ({"runs": []}, "lists no runs")):
        if manifest is not None:
            (tmp_path / "sweep.json").write_text(json.dumps(manifest))
        assert run_cli("report", "--sweep-root", str(tmp_path)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


def test_report_counts_unstable_seeds(cli_sweep, cli_store, tmp_path):
    """A blown-up rollout and a failed training are non-finite seeds of their
    configuration; a run not yet rolled out is left out of it."""
    root = tmp_path / "root"
    shutil.copytree(cli_sweep, root)
    manifest = json.loads((root / "sweep.json").read_text())
    blown, unscored = (root / e["id"] for e in manifest["runs"])     # seeds 597, 1152
    from rsl import autodiff as ad
    params = ad.load_checkpoint(blown / "best.ckpt")
    params["dec.w"] = params["dec.w"] * np.float32(1e4)           # the state explodes
    ad.save_checkpoint(params, blown / "best.ckpt")
    assert run_cli("rollout", "--run", str(blown), "--reference", str(cli_store),
                   "--start", "2007-06-01T00:00:00", "--steps", "160") == 0
    assert json.loads((blown / "score.json").read_text())["finite"] is False
    shutil.rmtree(unscored / "rollout")
    (unscored / "score.json").unlink()
    assert run_cli("train", "--data", str(cli_store), "--arch", "sfno", "--layers", "1",
                   "--dim", "8", "--vars", "custom:3", "--seed", "1826", "--lr", "1e9",
                   "--train-start", "2006-01-01", "--train-end", "2006-01-31",
                   "--val-start", "2006-02-01", "--val-end", "2006-02-07",
                   "--epochs", "1", "--run-root", str(root)) == 3
    (failed,) = set(root.iterdir()) - {blown, unscored, root / "sweep.json"}
    manifest["runs"].append({"id": failed.name, "status": "failed",
                             "config": json.loads((failed / "config.json").read_text())})
    (root / "sweep.json").write_text(json.dumps(manifest))
    assert run_cli("report", "--sweep-root", str(root)) == 0
    header, row = (root / "report" / "summary.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert (cols["finite_count"], cols["n_seeds"]) == ("0", "2")
    assert cols["score_mean"] == cols["score_std"] == "nan"
    assert cols["per_seed"] == "597=inf|1826=inf"


@pytest.mark.parametrize("artefact", ["score.json", "sweep.json", "means.bin",
                                      "manifest.json"])
def test_report_on_a_truncated_artefact_exit2(cli_sweep, cli_store, tmp_path, capsys,
                                              artefact):
    root, store = tmp_path / "root", tmp_path / "ds"
    shutil.copytree(cli_sweep, root)
    shutil.copytree(cli_store, store)
    run = root / json.loads((root / "sweep.json").read_text())["runs"][0]["id"]
    path = {"score.json": run / "score.json", "sweep.json": root / "sweep.json",
            "means.bin": run / "rollout" / "means.bin",
            "manifest.json": store / "manifest.json"}[artefact]
    path.write_bytes(path.read_bytes()[:-10])       # as if a copy was cut short
    assert run_cli("report", "--sweep-root", str(root), "--out", str(tmp_path / "rep"),
                   "--reference", str(store)) == 2
    assert str(path) in capsys.readouterr().err


def test_report_difference_maps(cli_sweep, cli_store, tmp_path):
    out = tmp_path / "maps_rep"
    assert run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(out),
                   "--reference", str(cli_store)) == 0
    maps = list((out / "maps").iterdir())
    assert len(maps) == 2 * 3      # two runs x three variables
    arr = np.loadtxt(maps[0], delimiter=",")
    assert arr.shape == (8, 16)


@pytest.mark.parametrize("grid, year, refusal", [
    ("32x16", "2006", " was rolled out on the 16x8 grid, but the reference {other} is on "
                      "the 32x16 grid"),
    ("16x8", "2008", "'s rollout needs 2007-06-01 00:00..2007-07-10 18:00, but the store "
                     "{other} spans 2008-01-01 00:00..2008-12-31 18:00 in steps of 6 h")],
    ids=["another-grid", "another-span"])
def test_report_reference_that_does_not_hold_a_run_exit2(cli_sweep, tmp_path, capsys,
                                                         grid, year, refusal):
    other = tmp_path / "ds"
    assert run_cli("gen-data", "--seed", "7", "--years", "1", "--grid", grid,
                   "--start-year", year, "--vars", "custom:3", "--out", str(other)) == 0
    assert run_cli("report", "--sweep-root", str(cli_sweep), "--out", str(tmp_path / "rep"),
                   "--reference", str(other)) == 2
    run = json.loads((cli_sweep / "sweep.json").read_text())["runs"][0]["id"]
    assert f"run {run}" + refusal.format(other=other) in capsys.readouterr().err


# ----------------------------------------------------------------- verify

def test_verify_command_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "14/14 checks passed" in out
