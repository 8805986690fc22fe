"""End-to-end runs of the command line entry point, in process.

Every test calls main(argv) directly so exit codes, stdout summaries and
stderr messages are checked without spawning subprocesses, except the
huge-k estimate and oversized-config checks, which need a timeout that an
in-process call cannot enforce. Output trees live under tmp_path.
"""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import uscrl
from uscrl import cli
from uscrl.cli import main
from uscrl.dataset import GaussianSpec, generate_gaussian
from uscrl.errors import NumericError
from uscrl.fileio import atomic_write
from uscrl.model import LinearModel, load_checkpoint, save_checkpoint
from uscrl.tuples import count_all_tuples

# drawn with seed 6 this pool has class sizes (3, 3, 2): 72 valid tuples at k=1
TOY_DS = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.2,
          "priors": [0.375, 0.375, 0.25], "n": 8}
TOY_SEED = 6


def toy_pool():
    spec = GaussianSpec.random(num_classes=3, dim=4, sigma=0.2, seed=0,
                               priors=[0.375, 0.375, 0.25])
    return generate_gaussian(spec, 8, seed=TOY_SEED)


def run(tmp_path, sub, cfg, *extra, out_name="out"):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / out_name
    argv = list(sub) if isinstance(sub, (list, tuple)) else [sub]
    code = main(argv + ["--config", str(cfg_path), "--out", str(out)]
                + list(extra))
    return code, out


def run_subprocess(tmp_path, sub, cfg):
    """One CLI run in a fresh interpreter with one BLAS thread, killed
    after 20 s; returns the CompletedProcess."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(uscrl.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    argv = list(sub) if isinstance(sub, (list, tuple)) else [sub]
    return subprocess.run(
        [sys.executable, "-m", "uscrl.cli", *argv, "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=20)


def read_manifest(out):
    with open(out / "manifest.json") as f:
        return json.load(f)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def write_idx_pair(tmp_path, labels, rows=2, cols=2, seed=0):
    """Minimal MNIST-container files: n images of rows x cols."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    pixels = rng.integers(0, 256, size=n * rows * cols, dtype=np.uint8)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols)
                    + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n)
                    + bytes(int(v) for v in labels))
    return str(img), str(lab)


class TestSample:
    def test_enumeration_line_count_matches_pool(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples", "seed": TOY_SEED}
        code, out = run(tmp_path, "sample", cfg)
        assert code == 0
        lines = (out / "tuples.jsonl").read_text().splitlines()
        assert len(lines) == 72
        total, _ = count_all_tuples(toy_pool(), 1)
        assert total == 72
        stdout = capsys.readouterr().out
        assert "sampled 72 tuple(s)" in stdout
        assert "wrote 1 output(s)" in stdout

    def test_manifest_records_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        monkeypatch.delenv("BLIS_NUM_THREADS", raising=False)
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples", "seed": TOY_SEED}
        code, out = run(tmp_path, "sample", cfg)
        assert code == 0
        man = read_manifest(out)
        assert man["tool"] == "uscrl"
        assert man["subcommand"] == "sample"
        assert man["seed"] == TOY_SEED
        assert man["outputs"] == ["tuples.jsonl"]
        assert man["config"] == cfg
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert man["config_hash"] == hashlib.sha256(canon.encode()).hexdigest()
        assert man["csv_schemas"] == {"bounds_sweep": "bounds-sweep-v1",
                                      "regimes": "regimes-v1",
                                      "complexity": "complexity-v1"}
        env = man["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert set(env["blas"]) == {"name", "version"}
        assert all(v is None or isinstance(v, str)
                   for v in env["blas"].values())
        assert env["blas_threads"] == {v: os.environ.get(v)
                                       for v in cli.BLAS_THREAD_VARS}
        assert len(env["blas_threads"]) == 6
        assert env["blas_threads"]["MKL_NUM_THREADS"] == "3"
        assert env["blas_threads"]["BLIS_NUM_THREADS"] is None
        assert env["peak_rss_mb"] > 0

    def test_manifest_blas_is_null_where_numpy_cannot_say(self, monkeypatch):
        def old_show_config(mode=None):  # numpy < 1.26 takes no mode
            if mode is not None:
                raise TypeError("show_config() got an unexpected keyword")

        monkeypatch.setattr(np, "show_config", old_show_config)
        assert cli._environment()["blas"] == {"name": None, "version": None}

    def test_iid_lines_are_globally_disjoint(self, tmp_path, capsys):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 40}
        cfg = {"dataset": ds, "k": 2, "regime": "iid_disjoint", "seed": 1}
        code, out = run(tmp_path, "sample", cfg)
        assert code == 0
        recs = [json.loads(line) for line in
                (out / "tuples.jsonl").read_text().splitlines()]
        used = [i for r in recs
                for i in [r["anchor"], r["positive"], *r["negatives"]]]
        assert len(set(used)) == len(used) == 4 * len(recs)
        assert 0 < len(recs) <= 40 // 4
        assert f"sampled {len(recs)} tuple(s)" in capsys.readouterr().out

    def test_subsampled_lines_parse(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 40}
        cfg = {"dataset": ds, "k": 2, "regime": "subsampled", "m_tuples": 25,
               "seed": 1}
        code, out = run(tmp_path, "sample", cfg)
        assert code == 0
        lines = (out / "tuples.jsonl").read_text().splitlines()
        assert len(lines) == 25
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"class", "anchor", "positive", "negatives"}
            assert len(rec["negatives"]) == 2

    def test_zero_tuples_writes_empty_file(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "subsampled", "m_tuples": 0,
               "seed": TOY_SEED}
        code, out = run(tmp_path, "sample", cfg)
        assert code == 0
        assert (out / "tuples.jsonl").read_text() == ""
        assert "sampled 0 tuple(s)" in capsys.readouterr().out

    def test_sub_regime_needs_m_tuples(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "subsampled"}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "m_tuples" in err

    def test_bad_regime_names_the_field(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "bogus"}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        assert "config field regime" in capsys.readouterr().err

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{not json")
        code = main(["sample", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples", "seed": TOY_SEED}
        (tmp_path / "out").write_text("not a directory")
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert (tmp_path / "out").read_text() == "not a directory"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples", "bogus": 1}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        assert "config field" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "regime": "all_tuples"}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config field <root>" in err and "'k'" in err

    def test_infeasible_pool_is_a_precondition_failure(self, tmp_path, capsys):
        # 3 samples, k=5: no class can supply 5 out-of-class negatives
        ds = {"type": "gaussian", "num_classes": 2, "dim": 3, "n": 3}
        cfg = {"dataset": ds, "k": 5, "regime": "subsampled", "m_tuples": 4}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 3
        assert "precondition error:" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", ["iid_disjoint", "all_tuples"])
    def test_k_above_pool_size_exits_3(self, tmp_path, capsys, regime):
        # numpy refuses even an empty (0, 2**62) index array
        cfg = {"dataset": TOY_DS, "k": 2**62, "regime": regime}
        code, out = run(tmp_path, "sample", cfg)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "exceeds the pool size 8" in err and "Traceback" not in err
        assert not (out / "tuples.jsonl").exists()

    def test_out_of_memory_is_a_precondition_failure(self, tmp_path, capsys):
        # 10**16 tuples ask for about 80 PB, past any 64-bit address space,
        # so the allocation fails at once without touching memory
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "subsampled",
               "m_tuples": 10**16}
        code, _ = run(tmp_path, "sample", cfg)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "precondition error: out of memory:" in err
        assert "Traceback" not in err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples"}
        code, _ = run(tmp_path, "sample", cfg, "--jobs", "0")
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 30}
        base = {"dataset": ds, "k": 2, "regime": "subsampled", "m_tuples": 10}
        code, out_a = run(tmp_path, "sample", {**base, "seed": 0},
                          "--seed", "7", out_name="a")
        assert code == 0
        code, out_b = run(tmp_path, "sample", {**base, "seed": 123},
                          "--seed", "7", out_name="b")
        assert code == 0
        assert read_manifest(out_a)["seed"] == 7
        assert ((out_a / "tuples.jsonl").read_bytes()
                == (out_b / "tuples.jsonl").read_bytes())

    @pytest.mark.parametrize("field", ["seed", "centers_seed"])
    def test_negative_config_seed_is_a_config_error(self, tmp_path, capsys,
                                                    field):
        ds = dict(TOY_DS)
        cfg = {"dataset": ds, "k": 1, "regime": "all_tuples"}
        (ds if field == "centers_seed" else cfg)[field] = -1
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples"}
        code, _ = run(tmp_path, "sample", cfg, "--seed", "-1")
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    def test_seed_flag_outside_int64_is_a_config_error(self, tmp_path,
                                                        capsys):
        cfg = {"dataset": TOY_DS, "k": 1, "regime": "all_tuples"}
        code, _ = run(tmp_path, "sample", cfg, "--seed", str(2**63))
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        code, _ = run(tmp_path, "sample", cfg, "--seed", str(2**63 - 1))
        assert code == 0


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as f:
                f.write("partial")
                f.flush()
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_write_replaces_with_umask_permissions(self, tmp_path):
        path = tmp_path / "result.bin"
        path.write_bytes(b"old")
        with atomic_write(str(path), "wb") as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_cli_result_survives_a_failed_rerun(self, tmp_path, monkeypatch):
        cfg = {"theorem": "basic", "n": 200, "num_classes": 3, "k": 2,
               "delta": 0.05, "loss_bound": 4.0, "class_k": 2.0}
        code, out = run(tmp_path, "bounds", cfg)
        assert code == 0
        before = (out / "bounds.json").read_bytes()

        def broken_dump(obj, f, **kw):
            f.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", broken_dump)
        code, _ = run(tmp_path, "bounds", cfg)
        assert code == 2
        assert (out / "bounds.json").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["bounds.json",
                                                         "manifest.json"]


class TestFiniteOutputs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_estimate_exits_4_naming_the_field(self, tmp_path,
                                                         capsys):
        # sigma 1e300 is finite, but the scores of its samples overflow
        prefix = str(tmp_path / "ck")
        save_checkpoint(LinearModel(0.4 * np.eye(3, 4), max_col_sum=8.0,
                                    max_spectral=2.0), prefix)
        code, out = run(tmp_path, "estimate", {
            "dataset": {**TOY_DS, "sigma": 1e300}, "k": 1,
            "estimator": "ustat_exact", "checkpoint": prefix})
        err = capsys.readouterr().err
        assert code == 4, err
        assert "estimate.json: field value is not finite" in err
        assert not (out / "estimate.json").exists()

    def test_csv_writer_names_the_row_and_column(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        with pytest.raises(NumericError, match=r"rows\.csv: field 1\.b "):
            cli._write_csv(path, ["a", "b"], [[1, 0.5], [2, float("-inf")]])
        assert list(tmp_path.iterdir()) == []


class TestEstimate:
    def _checkpoint(self, tmp_path, dim=4, out_dim=3, zero=False, seed=2):
        if zero:
            a = np.zeros((out_dim, dim))
        else:
            a = np.random.default_rng(seed).standard_normal((out_dim, dim)) * 0.4
        model = LinearModel(a, max_col_sum=8.0, max_spectral=2.0)
        prefix = str(tmp_path / "ck")
        save_checkpoint(model, prefix)
        return prefix

    def test_exact_ustat_matches_independent_enumeration(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
              "n": 24}
        prefix = self._checkpoint(tmp_path)
        base = {"dataset": ds, "k": 2, "checkpoint": prefix, "seed": 3}
        code, out_u = run(tmp_path, "estimate",
                          {**base, "estimator": "ustat_exact"}, out_name="u")
        assert code == 0
        code, out_e = run(tmp_path, "estimate",
                          {**base, "estimator": "enumeration_mean"},
                          out_name="e")
        assert code == 0
        with open(out_u / "estimate.json") as f:
            ust = json.load(f)
        with open(out_e / "estimate.json") as f:
            enu = json.load(f)
        assert ust["estimator"] == "ustat_exact"
        assert enu["estimator"] == "enumeration_mean"
        assert ust["value"] == pytest.approx(enu["value"], rel=1e-9)

    def test_zero_weights_give_exact_collision_loss(self, tmp_path):
        # all scores vanish, so every draw costs log(1 + k) regardless of data
        prefix = self._checkpoint(tmp_path, zero=True)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.2}
        cfg = {"dataset": ds, "k": 2, "estimator": "population_mc",
               "checkpoint": prefix, "mc_draws": 500, "seed": 1}
        code, out = run(tmp_path, "estimate", cfg)
        assert code == 0
        with open(out / "estimate.json") as f:
            est = json.load(f)
        assert est["value"] == pytest.approx(math.log(3.0), rel=1e-12)
        assert est["n_terms"] == 500

    def test_population_estimator_rejects_empirical_pool(self, tmp_path,
                                                         capsys):
        img, lab = write_idx_pair(tmp_path, labels=[0, 1, 0, 1, 2, 2])
        prefix = self._checkpoint(tmp_path, dim=4)
        cfg = {"dataset": {"type": "idx", "images": img, "labels": lab},
               "k": 1, "estimator": "population_mc", "checkpoint": prefix}
        code, _ = run(tmp_path, "estimate", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "population_mc needs a gaussian dataset" in err

    def test_checkpoint_dim_mismatch(self, tmp_path, capsys):
        prefix = self._checkpoint(tmp_path, dim=5)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 24}
        cfg = {"dataset": ds, "k": 1, "estimator": "ustat_exact",
               "checkpoint": prefix}
        code, _ = run(tmp_path, "estimate", cfg)
        assert code == 2
        assert "input dim 5" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1, None])
    def test_population_checkpoint_dim_mismatch(self, tmp_path, capsys, dim):
        prefix = self._checkpoint(tmp_path, dim=4)
        ds = {"type": "gaussian", "num_classes": 3}
        if dim is not None:
            ds["dim"] = dim
        cfg = {"dataset": ds, "k": 1, "estimator": "population_mc",
               "checkpoint": prefix, "mc_draws": 10}
        code, _ = run(tmp_path, "estimate", cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        # an omitted dim is GaussianSpec.random's default of 128
        assert f"input dim 4, dataset has {dim or 128}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("estimator", [
        "ustat_exact", "ustat_mc", "vstat_exact", "vstat_mc", "subsampled",
        "population_mc", "enumeration_mean"])
    def test_written_estimator_name_is_the_configured_one(self, tmp_path,
                                                          estimator):
        prefix = self._checkpoint(tmp_path)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
              "n": 18}
        cfg = {"dataset": ds, "k": 2, "estimator": estimator,
               "checkpoint": prefix, "m_tuples": 50, "mc_draws": 50,
               "seed": 4}
        code, out = run(tmp_path, "estimate", cfg)
        assert code == 0
        with open(out / "estimate.json") as f:
            assert json.load(f)["estimator"] == estimator

    @pytest.mark.parametrize("meta,needle", [
        ("{not json", "not valid JSON"),
        (json.dumps({"family": "linear", "max_col_sum": 8.0,
                     "max_spectral": 2.0}), "missing key(s) shapes"),
        # full network metadata under an unknown family is refused, not
        # loaded as a network
        *[(json.dumps({"family": family, "shapes": [[3, 4]],
                       "spectral_caps": [2.0], "activations": ["identity"]}),
           "family must be") for family in ("cnn", 7)],
    ])
    def test_malformed_checkpoint_metadata_exits_2(self, tmp_path, capsys,
                                                    meta, needle):
        prefix = self._checkpoint(tmp_path)
        Path(prefix + ".json").write_text(meta)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 24}
        cfg = {"dataset": ds, "k": 1, "estimator": "ustat_exact",
               "checkpoint": prefix}
        code, _ = run(tmp_path, "estimate", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert needle in err and prefix + ".json" in err

    @pytest.mark.parametrize("estimator", [
        "vstat_exact", "vstat_mc", "population_mc", "ustat_exact", "ustat_mc",
        "subsampled", "enumeration_mean"])
    def test_huge_k_exits_3_within_seconds(self, tmp_path, estimator):
        # 2**62 negatives: refused before any array is shaped by k and, for
        # the V-statistic, before n_neg**k is formed
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
              "n": 24}
        cfg = {"dataset": ds, "k": 2**62, "estimator": estimator,
               "checkpoint": self._checkpoint(tmp_path), "m_tuples": 5}
        proc = run_subprocess(tmp_path, "estimate", cfg)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "estimate.json").exists()

    def test_vstat_k_above_pool_size_still_estimates(self, tmp_path):
        prefix = self._checkpoint(tmp_path)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
              "n": 24}
        cfg = {"dataset": ds, "k": 30, "estimator": "vstat_mc",
               "checkpoint": prefix, "mc_draws": 40, "seed": 2}
        code, out = run(tmp_path, "estimate", cfg)
        assert code == 0
        with open(out / "estimate.json") as f:
            assert json.load(f)["n_terms"] == 120

    def test_subsampled_estimate_reports_spread(self, tmp_path):
        prefix = self._checkpoint(tmp_path)
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
              "n": 40}
        cfg = {"dataset": ds, "k": 2, "estimator": "subsampled",
               "m_tuples": 60, "checkpoint": prefix, "seed": 4}
        code, out = run(tmp_path, "estimate", cfg)
        assert code == 0
        with open(out / "estimate.json") as f:
            est = json.load(f)
        assert est["n_terms"] == 60
        assert est["std_error"] is not None and est["std_error"] > 0


class TestBounds:
    BASE = {"theorem": "basic", "n": 1000, "num_classes": 10, "k": 3,
            "delta": 0.05, "loss_bound": 4.0, "class_k": 2.0}

    def test_single_report(self, tmp_path):
        code, out = run(tmp_path, "bounds", self.BASE)
        assert code == 0
        with open(out / "bounds.json") as f:
            rep = json.load(f)
        assert {"theorem", "n_tilde", "lambda", "terms", "total",
                "flags"} <= set(rep)
        assert rep["theorem"] == "basic"
        terms = dict(rep["terms"])
        assert rep["total"] == pytest.approx(sum(terms.values()), rel=1e-12)

    def test_sweep_rows_and_header(self, tmp_path):
        cfg = {**self.BASE, "sweep": {"n": [1000, 2000], "k": [2, 3]}}
        code, out = run(tmp_path, "bounds", cfg)
        assert code == 0
        header, rows = read_csv(out / "bounds.csv")
        assert header == ["k", "n", "n_tilde", "lambda", "term_complexity",
                          "term_confidence", "total", "vacuous",
                          "lambda_ge_1"]
        assert len(rows) == 4
        # cartesian order follows the sorted parameter names
        assert [(r[0], r[1]) for r in rows] == [("2", "1000"), ("2", "2000"),
                                                ("3", "1000"), ("3", "2000")]
        for r in rows:
            total = float(r[header.index("total")])
            assert total == pytest.approx(
                float(r[4]) + float(r[5]), rel=1e-12)

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        cfg = {**self.BASE, "sweep": {"n": [500, 1000, 2000]}}
        code, out_a = run(tmp_path, "bounds", cfg, out_name="a")
        assert code == 0
        code, out_b = run(tmp_path, "bounds", cfg, out_name="b")
        assert code == 0
        assert ((out_a / "bounds.csv").read_bytes()
                == (out_b / "bounds.csv").read_bytes())

    def test_delta_out_of_range(self, tmp_path, capsys):
        cfg = {**self.BASE, "delta": 1.5}
        code, _ = run(tmp_path, "bounds", cfg)
        assert code == 2
        assert "config field delta" in capsys.readouterr().err

    def test_subsampled_theorem_needs_emp_rad(self, tmp_path, capsys):
        cfg = {"theorem": "subsampled", "n": 1000, "num_classes": 5, "k": 2,
               "delta": 0.1, "loss_bound": 4.0, "m_tuples": 500}
        code, _ = run(tmp_path, "bounds", cfg)
        assert code == 2
        assert "config error:" in capsys.readouterr().err


class TestFamilyParams:
    LINEAR = {"theorem": "basic_linear", "n": 1000, "num_classes": 5, "k": 2,
              "delta": 0.1, "loss_bound": 4.0,
              "family_params": {"eta": 1.0, "s": 2.0, "a": 1.0, "b": 1.0,
                                "d": 16}}
    NN = {"theorem": "basic_nn", "n": 1000, "num_classes": 5, "k": 2,
          "delta": 0.1, "loss_bound": 4.0,
          "family_params": {"eta": 1.0, "b": 1.2, "caps": [2.0, 1.5],
                            "xis": [1.0, 1.0], "widths": [16, 14]}}

    def test_valid_configs_pass(self, tmp_path):
        for i, cfg in enumerate((self.LINEAR, self.NN)):
            code, _ = run(tmp_path, "bounds", cfg, out_name=f"o{i}")
            assert code == 0

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        fam = {**self.LINEAR["family_params"], "d": "x"}
        code, _ = run(tmp_path, "bounds", {**self.LINEAR,
                                           "family_params": fam})
        assert code == 2
        assert "family_params['d']" in capsys.readouterr().err

    def test_layer_lists_of_unequal_length_exit_2(self, tmp_path, capsys):
        fam = {**self.NN["family_params"], "caps": [1, 2], "xis": [1],
               "widths": [3]}
        code, _ = run(tmp_path, "bounds", {**self.NN, "family_params": fam})
        assert code == 2
        assert "one entry per layer" in capsys.readouterr().err

    def test_overflowing_network_product_exits_4_without_warning(
            self, tmp_path, capsys):
        # caps^2 overflows a double: the complexity term is infinite, which
        # the writer refuses, and no numpy overflow warning comes first
        fam = {**self.NN["family_params"], "caps": [1e300, 1e300]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "bounds",
                            {**self.NN, "family_params": fam})
        err = capsys.readouterr().err
        assert code == 4, err
        assert err == ("numeric error: " + str(out / "bounds.json")
                       + ": field terms.complexity is not finite\n")

    def test_empty_layer_list_exits_2(self, tmp_path, capsys):
        fam = {**self.NN["family_params"], "caps": [], "xis": [],
               "widths": []}
        code, _ = run(tmp_path, "bounds", {**self.NN, "family_params": fam})
        assert code == 2
        assert "nonempty" in capsys.readouterr().err

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=3)
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=6)
    NAMES = ("eta", "s", "a", "b", "d", "caps", "xis", "widths", "extra")

    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from(["linear", "nn"]),
           sub=st.booleans(),
           updates=st.dictionaries(st.sampled_from(NAMES), JSON, max_size=3),
           drops=st.sets(st.sampled_from(NAMES), max_size=2))
    def test_mutated_family_params_exit_0_or_2(self, base, sub, updates,
                                               drops):
        cfg = dict(self.LINEAR if base == "linear" else self.NN)
        if sub:
            cfg["theorem"] = cfg["theorem"].replace("basic", "subsampled")
            cfg["m_tuples"] = 500
        fam = {key: v for key, v in {**cfg["family_params"],
                                     **updates}.items() if key not in drops}
        cfg["family_params"] = fam
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["bounds", "--config", str(path), "--out",
                             str(Path(tmp) / "out")])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


README = Path(__file__).resolve().parents[1] / "README.md"
# the schema section of each README json block, in README order
README_SECTIONS = ["sample", "estimate", "bounds", "experiment_regimes",
                   "experiment_complexity", "train"]


def readme_configs():
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(),
                        flags=re.S | re.M)
    return [json.loads(b) for b in blocks]


class TestReadmeConfigs:
    def test_every_block_validates_against_its_section(self):
        configs = readme_configs()
        assert len(configs) == len(README_SECTIONS)
        for section, cfg in zip(README_SECTIONS, configs):
            cli._validate_config(cfg, section)

    @pytest.mark.parametrize("sub", ["sample", "bounds"])
    def test_example_runs(self, tmp_path, sub):
        cfg = readme_configs()[README_SECTIONS.index(sub)]
        code, _ = run(tmp_path, sub, cfg)
        assert code == 0


def _huge_int_config(tmp_path):
    """A sample config whose k has 5,001 digits, over the int-parse limit."""
    cfg = json.dumps({"dataset": TOY_DS, "regime": "subsampled",
                      "m_tuples": 5, "k": 0})
    return "sample", cfg.replace('"k": 0', '"k": ' + "1" * 5001)


def _overflowing_float_config(tmp_path):
    """A sample config whose sigma literal 1e400 overflows a double."""
    cfg = json.dumps({"dataset": {**TOY_DS, "sigma": 0.0}, "k": 1,
                      "regime": "all_tuples"})
    return "sample", cfg.replace('"sigma": 0.0', '"sigma": 1e400')


def _checkpoint_meta_config(**updates):
    def build(tmp_path):
        prefix = str(tmp_path / "ck")
        save_checkpoint(LinearModel(0.4 * np.eye(3, 4), max_col_sum=8.0,
                                    max_spectral=2.0), prefix)
        meta = json.loads(Path(prefix + ".json").read_text())
        Path(prefix + ".json").write_text(json.dumps({**meta, **updates}))
        return "estimate", json.dumps({
            "dataset": {"type": "gaussian", "num_classes": 3, "dim": 4,
                        "n": 24},
            "k": 1, "estimator": "ustat_exact", "checkpoint": prefix})
    return build


DEEP = 100_000  # nesting levels, far past the JSON parser's stack


def _deeply_nested_config(tmp_path):
    return "sample", "[" * DEEP + "]" * DEEP


def _deeply_nested_checkpoint_meta(tmp_path):
    sub, cfg = _checkpoint_meta_config()(tmp_path)
    Path(json.loads(cfg)["checkpoint"] + ".json").write_text(
        '{"family": "linear", "shapes": ' + "[" * DEEP + "]" * DEEP + "}")
    return sub, cfg


def _config(sub, cfg):
    return lambda tmp_path: (sub, json.dumps(cfg))


BOUNDS_CFG = {"theorem": "basic", "n": 100, "num_classes": 3, "k": 1,
              "delta": 0.1, "loss_bound": 2.0, "class_k": 1.0}
HUGE = 10**400  # a JSON integer that float() cannot hold


def _pixelless_idx_config(tmp_path):
    """A train config on IDX images of 0 rows: a pool with no features."""
    img, lab = write_idx_pair(tmp_path, labels=[0, 1, 0, 1, 0, 1], rows=0)
    return "train", json.dumps({
        "dataset": {"type": "idx", "images": img, "labels": lab}, "k": 1,
        "train": {"family": "linear", "out_dim": 2, "epochs": 1}})


def _overflowing_idx_config(tmp_path):
    """An images header claiming 0xFFFFFFFF images of 0xFFFFFFFF^2 pixels."""
    img, lab = write_idx_pair(tmp_path, labels=[0, 1, 0, 1])
    Path(img).write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3))
    return "sample", json.dumps({
        "dataset": {"type": "idx", "images": img, "labels": lab},
        "k": 1, "regime": "all_tuples"})


BIG = 2**62
BIG_DS = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
          "n": 24}
BIG_TRAIN = {"family": "linear", "out_dim": 2, "epochs": 1, "batch_size": 8,
             "eval_draws": 30}
BIG_REGIMES = {"dataset": BIG_DS, "n_disjoint": 2, "k": 1, "m_grid": [3],
               "seeds": [0], "train": BIG_TRAIN}
BIG_COMPLEXITY = {"dataset": BIG_DS, "k": 1, "eps": 0.5, "lo": 8, "hi": 16,
                  "seeds": [0], "train": BIG_TRAIN}


class TestMalformedInputExitCodes:
    @pytest.mark.parametrize("build", [
        _huge_int_config,
        _checkpoint_meta_config(shapes=[3]),
        _checkpoint_meta_config(max_col_sum="x"),
        _checkpoint_meta_config(max_spectral=None),
        _checkpoint_meta_config(shapes=[[3, -4]]),
        _overflowing_idx_config,
        _deeply_nested_config,
        _deeply_nested_checkpoint_meta,
        _config("bounds", {**BOUNDS_CFG, "n": HUGE}),
        _config("bounds", {**BOUNDS_CFG, "k": HUGE}),
        _config("bounds", {**BOUNDS_CFG, "theorem": "subsampled",
                           "emp_rad": 0.1, "m_tuples": HUGE}),
        _config("bounds", {**BOUNDS_CFG, "loss_bound": HUGE}),
        _config("bounds", {**BOUNDS_CFG, "class_k": HUGE}),
        _config("sample", {"dataset": TOY_DS, "k": 10**30,
                           "regime": "iid_disjoint"}),
        _config("sample", {"dataset": {**TOY_DS, "sigma": HUGE}, "k": 1,
                           "regime": "all_tuples"}),
        _config("sample", {"dataset": {**TOY_DS, "centers_seed": 10**50},
                           "k": 1, "regime": "all_tuples"}),
        _config("sample", {"dataset": TOY_DS, "k": 1, "regime": "all_tuples",
                           "seed": 2**63}),
        _config("train", {"dataset": TOY_DS, "k": 1,
                          "train": {"lr": HUGE}}),
        _config("sample", {"dataset": TOY_DS, "k": 2.0,
                           "regime": "all_tuples"}),
        _config("bounds", {**BOUNDS_CFG, "n": 1000.0}),
        _config("sample", {"dataset": {**TOY_DS, "priors": [math.nan, 0.5, 0.5]},
                           "k": 1, "regime": "all_tuples"}),
        _config("sample", {"dataset": {**TOY_DS, "sigma": math.inf}, "k": 1,
                           "regime": "all_tuples"}),
        _overflowing_float_config,
        _config("train", {"dataset": TOY_DS, "k": 1, "holdout_fraction": 0.25,
                          "train": {"family": "linear", "out_dim": 2,
                                    "epochs": 1, "m_tuples": 3,
                                    "eval_draws": 3}}),
        # within 1e-9 of one, but the pool's multinomial draw refuses them
        _config("sample", {"dataset": {**TOY_DS, "n": 24,
                                       "priors": [0.5, 0.5000000004, 1e-10]},
                           "k": 1, "regime": "iid_disjoint"}),
        _pixelless_idx_config,
        _config("bounds", {**BOUNDS_CFG, "sweep": {"n": [], "k": [1, 2]}}),
    ], ids=["config-int-over-digit-limit", "checkpoint-shapes-not-pairs",
            "checkpoint-cap-string", "checkpoint-cap-null",
            "checkpoint-negative-shape", "idx-header-overflow",
            "config-nested-too-deep", "checkpoint-meta-nested-too-deep",
            "bounds-n-over-int64", "bounds-k-over-int64",
            "bounds-m-tuples-over-int64", "bounds-loss-bound-over-int64",
            "bounds-class-k-over-int64", "iid-k-over-int64",
            "sigma-over-int64", "centers-seed-over-int64",
            "seed-over-int64", "lr-over-int64", "k-integral-float",
            "bounds-n-integral-float", "priors-nan-token",
            "sigma-infinity-token", "sigma-literal-overflows-double",
            "gaussian-holdout-fraction", "priors-past-multinomial-slack",
            "idx-images-without-pixels", "bounds-empty-sweep-axis"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, build):
        sub, text = build(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        code = main([sub, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "error:" in err and "Traceback" not in err

    # train keys that the run would ignore: the protocol sets the tuples
    # itself, or the chosen model family has no such part
    @pytest.mark.parametrize("sub,cfg,key", [
        (["experiment", "regimes"], {**BIG_REGIMES,
         "train": {**BIG_TRAIN, "regime": "all_tuples"}}, "regime"),
        (["experiment", "regimes"], {**BIG_REGIMES,
         "train": {**BIG_TRAIN, "m_tuples": 5}}, "m_tuples"),
        (["experiment", "regimes"], {**BIG_REGIMES,
         "train": {**BIG_TRAIN, "resample_per_epoch": False}},
         "resample_per_epoch"),
        (["experiment", "complexity"], {**BIG_COMPLEXITY,
         "train": {**BIG_TRAIN, "regime": "all_tuples"}}, "regime"),
        (["experiment", "complexity"], {**BIG_COMPLEXITY,
         "train": {**BIG_TRAIN, "m_tuples": 5}}, "m_tuples"),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "hidden": [4]}}, "hidden"),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "activations": None}},
         "activations"),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "family": "mlp",
                             "max_col_sum": 8.0}}, "max_col_sum"),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {"out_dim": 2, "epochs": 1,
                             "max_col_sum": 8.0}}, "max_col_sum"),
        (["experiment", "regimes"], {**BIG_REGIMES,
         "train": {**BIG_TRAIN, "hidden": [4]}}, "hidden"),
        (["experiment", "complexity"], {**BIG_COMPLEXITY,
         "train": {**BIG_TRAIN, "family": "mlp", "max_col_sum": 8.0}},
         "max_col_sum"),
    ], ids=["regimes-regime", "regimes-m-tuples", "regimes-resample",
            "complexity-regime", "complexity-m-tuples", "linear-hidden",
            "linear-activations", "mlp-max-col-sum", "default-max-col-sum",
            "regimes-linear-hidden", "complexity-mlp-max-col-sum"])
    def test_ignored_train_key_exits_2_naming_it(self, tmp_path, capsys,
                                                 sub, cfg, key):
        code, _ = run(tmp_path, sub, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: config field train.{key}: ")
        assert "Traceback" not in err




class TestOversizedConfigs:
    @pytest.mark.parametrize("sub,cfg", [
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "out_dim": BIG}}),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "family": "mlp",
                             "hidden": [BIG]}}),
        ("train", {"dataset": BIG_DS, "k": 1,
                   "train": {**BIG_TRAIN, "regime": "subsampled",
                             "m_tuples": BIG}}),
        ("sample", {"dataset": {**BIG_DS, "dim": BIG}, "k": 1,
                    "regime": "iid_disjoint"}),
        ("sample", {"dataset": {**BIG_DS, "num_classes": BIG}, "k": 1,
                    "regime": "iid_disjoint"}),
        ("sample", {"dataset": {**BIG_DS, "n": BIG}, "k": 1,
                    "regime": "iid_disjoint"}),
        ("sample", {"dataset": BIG_DS, "k": 1, "regime": "subsampled",
                    "m_tuples": BIG}),
        (["experiment", "regimes"], {**BIG_REGIMES, "n_disjoint": BIG}),
        (["experiment", "regimes"], {**BIG_REGIMES, "m_grid": [BIG]}),
        # the reference pool of ref_mult * hi samples overflows a C long
        (["experiment", "complexity"],
         {"dataset": {"type": "gaussian", "num_classes": 3, "dim": 4,
                      "sigma": 0.5},
          "k": 2, "eps": 0.01, "lo": 8, "hi": BIG, "seeds": [0],
          "train": BIG_TRAIN}),
    ], ids=["train-out-dim", "train-hidden", "train-m-tuples", "sample-dim",
            "sample-num-classes", "sample-n", "sample-m-tuples",
            "regimes-n-disjoint", "regimes-m-grid", "complexity-hi"])
    def test_size_numpy_refuses_exits_3(self, tmp_path, sub, cfg):
        # 2**62 is a valid config integer, but numpy cannot shape an array
        # of that many elements or pass it as a C long
        proc = run_subprocess(tmp_path, sub, cfg)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error: out of memory: ")
        assert "Traceback" not in proc.stderr


FUZZ_VALUES = (-1, 0, 1, 2, 3, 2**63, 10**400, 2.0, 1.5, -0.5, "x", None,
               True, [], {}, float("nan"), float("inf"), [0])
# a huge count in these fields is valid and asks for hours of real work, so
# they draw only values <= 3 and the non-numeric ones; nor is a field that
# holds one deleted or emptied, which would bring back a large default
LOOP_COUNTS = {"epochs", "eval_draws", "mc_draws", "m_tuples", "m_cap", "n",
               "lo", "hi", "ref_mult", "n_disjoint", "m_grid"}
SMALL_VALUES = tuple(v for v in FUZZ_VALUES
                     if not isinstance(v, (int, float)) or isinstance(v, bool)
                     or v <= 3)
FUZZ_TRAIN = {"family": "linear", "out_dim": 2, "epochs": 1, "batch_size": 8,
              "lr": 0.1, "eval_draws": 3, "m_tuples": 3}
# the experiments set each run's tuple count themselves and refuse m_tuples
FUZZ_PROTOCOL_TRAIN = {k: v for k, v in FUZZ_TRAIN.items() if k != "m_tuples"}


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Tiny valid configs, one per subcommand variant, by name."""
    tmp = tmp_path_factory.mktemp("fuzz")
    prefix = str(tmp / "ck")
    save_checkpoint(LinearModel(0.4 * np.eye(3, 4), max_col_sum=8.0,
                                max_spectral=2.0), prefix)
    img, lab = write_idx_pair(tmp, labels=[0, 1, 2] * 4)
    ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.4,
          "priors": [0.25, 0.25, 0.5], "n": 12}
    bases = {f"sample-{r}": ("sample", {"dataset": ds, "k": 1, "regime": r,
                                        "m_tuples": 3, "seed": 1})
             for r in ("iid_disjoint", "subsampled", "all_tuples")}
    for est in ("subsampled", "ustat_exact", "ustat_mc", "vstat_exact",
                "vstat_mc", "population_mc", "enumeration_mean"):
        bases[f"estimate-{est}"] = ("estimate", {
            "dataset": ds, "k": 1, "estimator": est, "checkpoint": prefix,
            "m_tuples": 3, "mc_draws": 3, "seed": 1})
    bases["bounds-basic"] = ("bounds", BOUNDS_CFG)
    bases["bounds-sweep"] = ("bounds", {
        **BOUNDS_CFG, "theorem": "subsampled_linear", "m_tuples": 50,
        "family_params": TestFamilyParams.LINEAR["family_params"],
        "sweep": {"n": [50, 100], "k": [1, 2]}})
    bases["regimes"] = (["experiment", "regimes"], {
        "dataset": {**ds, "n": 24}, "n_disjoint": 2, "k": 1, "m_grid": [3],
        "seeds": [0], "train": FUZZ_PROTOCOL_TRAIN, "seed": 0})
    bases["complexity"] = (["experiment", "complexity"], {
        "dataset": ds, "k": 1, "eps": 100.0, "lo": 8, "hi": 16, "seeds": [0],
        "search_tol": 8, "ref_mult": 1, "m_cap": 3,
        "train": FUZZ_PROTOCOL_TRAIN, "seed": 0})
    bases["train-linear"] = ("train", {"dataset": ds, "k": 1,
                                       "train": FUZZ_TRAIN, "seed": 2})
    bases["train-mlp"] = ("train", {
        "dataset": {"type": "idx", "images": img, "labels": lab}, "k": 1,
        "holdout_fraction": 0.25, "with_probe": True, "seed": 2,
        "train": {**FUZZ_TRAIN, "family": "mlp", "hidden": [3]}})
    return bases


def _paths(node, path=()):
    """Every (path, field name) below node; a list item takes its list's name."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        name = key if isinstance(key, str) else path[-1][1]
        yield path + ((key, name),)
        yield from _paths(child, path + ((key, name),))


@st.composite
def _mutated(draw, bases):
    """A base config with one or two fields replaced or deleted."""
    name = draw(st.sampled_from(sorted(bases)))
    sub, cfg = bases[name]
    cfg = json.loads(json.dumps(cfg))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key, _field in path[:-1]:
            parent = parent[key]
        key, field = path[-1]
        holds_count = not LOOP_COUNTS.isdisjoint(
            [field] + [p[-1][1] for p in _paths(parent[key], path)])
        values = SMALL_VALUES if field in LOOP_COUNTS else FUZZ_VALUES
        if not holds_count and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in values if not holds_count or v != {}])))
    return name, sub, cfg


def _no_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _parse_strictly(out):
    """Parse every JSON, JSON-lines and CSV file a run wrote, failing on a
    NaN or infinity in any of them."""
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_no_constant)
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_no_constant)
        elif path.suffix == ".csv":
            with open(path, newline="") as f:
                cells = {c for row in csv.reader(f) for c in row}
            assert not {"nan", "inf", "-inf"} & cells, path.name


def _run_quietly(sub, cfg):
    """Exit code and stderr of one in-process run in a scratch directory;
    the outputs of a successful run must parse strictly."""
    argv = list(sub) if isinstance(sub, list) else [sub]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(path), "--out",
                                str(Path(tmp) / "out")])
        if code == 0:
            _parse_strictly(Path(tmp) / "out")
    return code, err.getvalue()


class TestWholeConfigFuzz:
    def test_bases_succeed(self, fuzz_bases):
        for name, (sub, cfg) in fuzz_bases.items():
            code, err = _run_quietly(sub, cfg)
            assert code == 0, (name, err)

    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutated_config_keeps_exit_contract(self, fuzz_bases, data):
        name, sub, cfg = data.draw(_mutated(fuzz_bases))
        code, err = _run_quietly(sub, cfg)
        assert code in (0, 2, 3, 4), (name, err)
        assert "Traceback" not in err


class TestExperiments:
    TRAIN = {"family": "linear", "out_dim": 3, "epochs": 1, "batch_size": 16,
             "lr": 0.1, "eval_draws": 300}

    def test_regimes_csv_shape(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 24}
        cfg = {"dataset": ds, "n_disjoint": 3, "k": 1, "m_grid": [12],
               "seeds": [0, 1], "train": self.TRAIN, "seed": 0}
        code, out = run(tmp_path, ["experiment", "regimes"], cfg)
        assert code == 0
        header, rows = read_csv(out / "regimes.csv")
        assert header == ["regime", "m_count", "seed", "n_disjoint", "k",
                          "final_train_loss", "final_risk", "final_risk_se",
                          "probe_accuracy"]
        assert len(rows) == 6  # (iid + one sub budget + all) x 2 seeds
        assert {r[0] for r in rows} == {"iid_disjoint", "subsampled", "all_tuples"}
        assert {r[2] for r in rows} == {"0", "1"}
        sub_rows = [r for r in rows if r[0] == "subsampled"]
        assert all(r[1] == "12" for r in sub_rows)
        man = read_manifest(out)
        assert man["subcommand"] == "experiment:regimes"

    def test_regimes_pool_matches_serial_bytes(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 24}
        cfg = {"dataset": ds, "n_disjoint": 3, "k": 1, "m_grid": [12],
               "seeds": [0, 1], "train": self.TRAIN, "seed": 0}
        code, serial = run(tmp_path, ["experiment", "regimes"], cfg,
                           "--jobs", "1", out_name="serial")
        assert code == 0
        code, pooled = run(tmp_path, ["experiment", "regimes"], cfg,
                           "--jobs", "2", out_name="pooled")
        assert code == 0
        assert ((serial / "regimes.csv").read_bytes()
                == (pooled / "regimes.csv").read_bytes())

    def test_regimes_error_carries_job_index(self, tmp_path, capsys):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 24}
        cfg = {"dataset": ds, "n_disjoint": 50, "k": 1, "m_grid": [12],
               "seeds": [0], "train": self.TRAIN}
        code, _ = run(tmp_path, ["experiment", "regimes"], cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert "job 0 (seed 0)" in err

    def test_regimes_k_above_pool_size_exits_3(self, tmp_path, capsys):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 24}
        cfg = {"dataset": ds, "n_disjoint": 2, "k": 2**62, "m_grid": [12],
               "seeds": [0], "train": self.TRAIN}
        code, _ = run(tmp_path, ["experiment", "regimes"], cfg)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "exceeds the pool size 24" in err and "Traceback" not in err

    def test_complexity_outputs(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.5}
        cfg = {"dataset": ds, "k": 2, "eps": 100.0, "lo": 8, "hi": 16,
               "seeds": [0], "search_tol": 8, "m_cap": 400, "ref_mult": 4,
               "train": self.TRAIN, "seed": 0}
        code, out = run(tmp_path, ["experiment", "complexity"], cfg)
        assert code == 0
        header, rows = read_csv(out / "complexity.csv")
        assert header == ["k", "num_classes", "eps", "seed", "reached",
                          "n_eps", "gap_at_hi", "reference_risk",
                          "mean_n_eps"]
        assert len(rows) == 1
        assert rows[0][0] == "2" and rows[0][1] == "3"
        assert rows[0][4] == "True"  # eps=100 is hit immediately
        with open(out / "complexity.json") as f:
            result = json.load(f)
        assert result["reference_n"] == 64
        assert result["mean_n_eps"] == 8.0
        man = read_manifest(out)
        assert sorted(man["outputs"]) == ["complexity.csv",
                                          "complexity.json"]


class TestTrain:
    def test_gaussian_train_outputs(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 60}
        cfg = {"dataset": ds, "k": 2, "seed": 5,
               "train": {"family": "linear", "out_dim": 3, "epochs": 2,
                         "batch_size": 32, "lr": 0.2, "eval_draws": 400,
                         "regime": "subsampled", "m_tuples": 80}}
        code, out = run(tmp_path, "train", cfg)
        assert code == 0
        man = read_manifest(out)
        assert sorted(man["outputs"]) == ["checkpoint.bin", "checkpoint.json",
                                          "report.json"]
        with open(out / "report.json") as f:
            rep = json.load(f)
        assert rep["final_risk"] is not None
        assert np.isfinite(rep["epoch_losses"][-1])
        assert "wall_seconds" not in rep
        model = load_checkpoint(str(out / "checkpoint"))
        assert model.in_dim == 4 and model.weights[0].shape == (3, 4)

    def test_train_rerun_checkpoint_identical(self, tmp_path):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "sigma": 0.3,
              "n": 40}
        cfg = {"dataset": ds, "k": 1, "seed": 9,
               "train": {"family": "linear", "out_dim": 3, "epochs": 1,
                         "batch_size": 16, "lr": 0.1, "eval_draws": 200}}
        code, out_a = run(tmp_path, "train", cfg, out_name="a")
        assert code == 0
        code, out_b = run(tmp_path, "train", cfg, out_name="b")
        assert code == 0
        assert ((out_a / "checkpoint.bin").read_bytes()
                == (out_b / "checkpoint.bin").read_bytes())

    def test_iid_k_above_pool_size_exits_3(self, tmp_path, capsys):
        ds = {"type": "gaussian", "num_classes": 3, "dim": 4, "n": 24}
        cfg = {"dataset": ds, "k": 2**62,
               "train": {"family": "linear", "out_dim": 3, "epochs": 1,
                         "regime": "iid_disjoint"}}
        code, out = run(tmp_path, "train", cfg)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "exceeds the pool size 24" in err and "Traceback" not in err
        assert not (out / "checkpoint.bin").exists()

    def test_idx_pool_with_holdout(self, tmp_path):
        labels = [0, 1, 2] * 8
        img, lab = write_idx_pair(tmp_path, labels=labels)
        cfg = {"dataset": {"type": "idx", "images": img, "labels": lab},
               "k": 1, "holdout_fraction": 0.25, "seed": 2,
               "train": {"family": "linear", "out_dim": 3, "epochs": 1,
                         "batch_size": 8, "lr": 0.1, "eval_draws": 200}}
        code, out = run(tmp_path, "train", cfg)
        assert code == 0
        assert (out / "checkpoint.bin").exists()
        with open(out / "report.json") as f:
            rep = json.load(f)
        assert np.isfinite(rep["epoch_losses"][-1])
