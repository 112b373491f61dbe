import numpy as np
import pytest

import memxl.cli as cli
from memxl.cli import main
from helpers import save_trainer_checkpoint
from memxl.train import load_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus, a config, and a finished training run shared by the
    checkpoint-consuming commands."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text(("the quick brown fox jumps over the lazy dog. " * 30)[:1200])
    cfg = root / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"corpus = {corpus}",
                "n_layers = 2",
                "d_model = 16",
                "d_inner = 32",
                "n_heads = 2",
                "d_head = 8",
                "mem_len = 8",
                "block_len = 8",
                "steps = 30",
                "base_lr = 0.002",
                "eval_interval = 10",
                "eval_context = 16",
                "eval_block = 8",
                "window = 1000",
                "schedule = uniform",
                "schedule_p = 0.2",
                f"checkpoint = {root / 'run.ckpt'}",
                f"log = {root / 'run.log'}",
            ]
        )
        + "\n"
    )
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    return root, corpus, cfg


class TestTrain:
    def test_writes_checkpoint_and_log(self, workspace, capsys):
        root, _, _ = workspace
        capsys.readouterr()
        assert (root / "run.ckpt").exists()
        log = (root / "run.log").read_text().strip().split("\n")
        assert log[0].startswith("step\tphase")
        assert len(log) == 31

    def test_a_second_run_replaces_the_log(self, workspace, tmp_path, capsys):
        _, _, cfg = workspace
        argv = ["train", "--config", str(cfg), "--set", "steps=5", "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
                "--set", f"log={tmp_path / 'r.log'}"]
        for _ in range(2):
            assert main(argv) == 0
            log = (tmp_path / "r.log").read_text().splitlines()
            assert log[0].startswith("step\tphase")
            assert [int(row.split("\t")[0]) for row in log[1:]] == [1, 2, 3, 4, 5]

    def test_checkpoint_is_loadable(self, workspace):
        root, _, _ = workspace
        model, vocab = load_model(root / "run.ckpt")
        assert model.config.n_layers == 2
        assert vocab is not None and vocab.level == "char"

    def test_overrides_change_the_run(self, workspace, tmp_path, capsys):
        _, corpus, cfg = workspace
        rc = main(
            [
                "train", "--config", str(cfg),
                "--set", "steps=3",
                "--set", f"checkpoint={tmp_path / 'o.ckpt'}",
                "--set", f"log={tmp_path / 'o.log'}",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained 3 steps" in out
        assert (tmp_path / "o.ckpt").exists()

    def test_calls_share_no_overrides(self, monkeypatch, capsys):
        """The parser is built once per process; ``--set``'s append action
        still starts each call from an empty list."""
        seen = []

        def record(args):
            seen.append(args.set)
            raise ValueError("recorded")

        monkeypatch.setattr(cli, "_kv", record)
        for argv in (["--set", "steps=1"], ["--set", "seed=2", "--set", "steps=3"], []):
            assert main(["train", *argv]) == 1
        assert seen == [["steps=1"], ["seed=2", "steps=3"], None]
        assert cli.build_parser() is cli.build_parser()

    def test_missing_corpus_fails_cleanly(self, capsys):
        rc = main(["train", "--set", "steps=1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_fails_cleanly(self, workspace, capsys):
        _, _, cfg = workspace
        rc = main(["train", "--config", str(cfg), "--set", "stepz=3"])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestEval:
    def test_reports_and_writes_tsv(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        out = tmp_path / "eval.tsv"
        rc = main(
            [
                "eval", "--checkpoint", str(root / "run.ckpt"), "--corpus", str(corpus),
                "--context", "16", "--block", "8", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "ppl" in stdout and "bpc" in stdout
        header, row = out.read_text().strip().split("\n")
        assert header.split("\t") == ["nll", "ppl", "bpc", "tokens", "context"]
        values = row.split("\t")
        assert float(values[1]) > 1.0
        assert int(values[4]) == 16

    def test_overflowing_perplexity_reported_as_inf(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        model, vocab = load_model(root / "run.ckpt")
        model.ln_out_g.data = np.full_like(model.ln_out_g.data, 1e4)
        ckpt = tmp_path / "hot.ckpt"
        save_trainer_checkpoint(ckpt, model, vocab)
        out = tmp_path / "eval.tsv"
        rc = main(
            [
                "eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--context", "16", "--block", "8", "--out", str(out),
            ]
        )
        assert rc == 0
        assert "ppl inf" in capsys.readouterr().out
        nll, ppl, bpc = (float(v) for v in out.read_text().strip().split("\n")[1].split("\t")[:3])
        assert nll > 710 and np.isfinite(bpc)
        assert ppl == np.inf

    def test_bad_checkpoint_path_fails_cleanly(self, workspace, capsys):
        _, corpus, _ = workspace
        rc = main(["eval", "--checkpoint", "/nonexistent.ckpt", "--corpus", str(corpus)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPrune:
    def test_table_and_tsv(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        out = tmp_path / "prune.tsv"
        rc = main(
            [
                "prune", "--checkpoint", str(root / "run.ckpt"), "--corpus", str(corpus),
                "--context", "16", "--block", "8", "--ref", "0.5,0.5", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "baseline PPL" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["layer", "h1", "h2", "stddev", "pct_change"]
        assert len(lines) == 3


    def test_zero_reference_fails_cleanly(self, workspace, capsys):
        root, corpus, _ = workspace
        rc = main(
            [
                "prune", "--checkpoint", str(root / "run.ckpt"), "--corpus", str(corpus),
                "--context", "16", "--block", "8", "--ref", "0.5,0",
            ]
        )
        assert rc == 1
        assert "error: reference value is zero" in capsys.readouterr().err


class TestAudit:
    def test_synthetic_stream_and_tsv(self, tmp_path, capsys):
        out = tmp_path / "audit.tsv"
        rc = main(
            [
                "audit",
                "--set", "n_layers=2", "--set", "d_model=8", "--set", "d_inner=16",
                "--set", "n_heads=2", "--set", "d_head=4", "--set", "mem_len=4",
                "--set", "block_len=4", "--set", "vocab_size=11",
                "--set", "eval_context=8", "--set", "eval_block=4",
                "--set", "schedule=uniform", "--set", "schedule_p=0.5",
                "--steps", "20", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "phase1" in stdout and "max offset" in stdout
        rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
        sections = {r[0] for r in rows}
        assert sections == {"phase1", "phase2", "eval"}
        phase2_max = max(int(r[2]) for r in rows if r[0] == "phase2")
        assert phase2_max == 7  # mem_len + block_len - 1
        phase1_max = max(int(r[2]) for r in rows if r[0] == "phase1")
        assert phase1_max > 7  # stale layers reach further back

    def test_corpus_driven_audit(self, workspace, capsys):
        _, _, cfg = workspace
        rc = main(["audit", "--config", str(cfg), "--steps", "5"])
        assert rc == 0
        assert "eval" in capsys.readouterr().out


class TestContext:
    def test_linear_schedule_numbers(self, tmp_path, capsys):
        out = tmp_path / "ctx.tsv"
        rc = main(
            ["context", "--layers", "12", "--mem", "512", "--samples", "20000", "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "2304.0000" in stdout  # closed-form estimate for N=12, M=512
        table = dict(line.split("\t") for line in out.read_text().strip().split("\n")[1:])
        assert float(table["approx"]) == 2304.0
        assert float(table["exact"]) == pytest.approx(2304 + 512 / 12, rel=1e-9)
        assert abs(float(table["sim_mean"]) - float(table["exact"])) < 4 * float(table["sim_stderr"])

    def test_parametric_schedule(self, capsys):
        rc = main(["context", "--schedule", "protect_both", "--p", "0.25", "--layers", "6", "--mem", "8"])
        assert rc == 0
        # 4 unprotected layers x 0.25 x 2M = 16
        assert "16.0000" in capsys.readouterr().out

    def test_negative_memory_fails_cleanly(self, capsys):
        rc = main(["context", "--layers", "4", "--mem", "-5"])
        assert rc == 1
        assert "mem_len must be nonnegative" in capsys.readouterr().err

    def test_invalid_schedule_fails_cleanly(self, capsys):
        rc = main(["context", "--schedule", "linear", "--p", "0.5", "--layers", "4", "--mem", "8"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_writes_tsv(self, tmp_path, capsys, monkeypatch, seed0_gradcheck):
        def gate(*args, **kwargs):
            assert not args and kwargs == {"seed": 0, "step": 1e-5, "tol": 1e-5}
            return seed0_gradcheck[0]

        monkeypatch.setattr(cli, "grad_check_model", gate)
        out = tmp_path / "grad.tsv"
        rc = main(["gradcheck", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        for regime in ("baseline", "skip", "cross", "skip_cross"):
            assert regime in stdout
        rows = [line.split("\t") for line in out.read_text().strip().split("\n")[1:]]
        assert all(r[2] == "pass" for r in rows)
        assert all(float(r[1]) < 1e-5 for r in rows)
