"""Command-line surface: train, eval, prune, audit, context, gradcheck.

Every command prints a human-readable summary; ``--out`` additionally
writes a tab-delimited file with a one-line header.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .analysis import (
    SECTIONS,
    expected_context_report,
    grad_check_model,
    position_audit,
    run_prune_experiment,
)
from .config import apply_overrides, build_configs, read_config
from .data import load_corpus
from .model import MemoryLM
from .rng import RngHub
from .skip import SkipSchedule
from .train import evaluate, load_model, train


def _write_tsv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as f:
        f.write("\t".join(header) + "\n")
        for row in rows:
            f.write("\t".join(str(cell) for cell in row) + "\n")


def _kv(args) -> dict[str, str]:
    kv = read_config(args.config) if args.config else {}
    return apply_overrides(kv, args.set or [])


def cmd_train(args) -> int:
    kv = _kv(args)
    corpus_path = kv.get("corpus")
    if corpus_path is None:
        raise ValueError("training needs a corpus path (config key 'corpus')")
    corpus = load_corpus(corpus_path, kv.get("level", "char"))
    model_cfg, train_cfg, run_cfg = build_configs(kv, vocab_size=corpus.vocab.size)

    ids = corpus.ids
    if run_cfg.eval_split > 0:
        n_eval = max(int(len(ids) * run_cfg.eval_split), train_cfg.eval_block + 1)
        if n_eval >= len(ids):
            raise ValueError(f"eval_split {run_cfg.eval_split} leaves no training tokens")
        train_ids, eval_ids = ids[:-n_eval], ids[-n_eval:]
    else:
        train_ids = eval_ids = ids

    hub = RngHub(train_cfg.seed)
    model = MemoryLM(model_cfg, hub["init"])
    trainer = train(
        model,
        train_ids,
        train_cfg,
        hub,
        eval_ids=eval_ids,
        vocab=corpus.vocab,
        log_path=run_cfg.log,
        checkpoint_path=run_cfg.checkpoint,
        checkpoint_every=run_cfg.checkpoint_every,
    )
    if run_cfg.checkpoint:
        trainer.save(run_cfg.checkpoint)

    last = trainer.log[-1]
    print(f"trained {trainer.step} steps; final train nll {last.train_nll:.4f}; phase {trainer.phase}")
    if trainer.controller.transition_step is not None:
        print(f"phase transition at step {trainer.controller.transition_step}")
    if run_cfg.checkpoint:
        print(f"checkpoint: {run_cfg.checkpoint}")
    if run_cfg.log:
        print(f"loss log: {run_cfg.log}")
    return 0


def cmd_eval(args) -> int:
    model, vocab = load_model(args.checkpoint)
    level = vocab.level if vocab is not None else args.level
    corpus = load_corpus(args.corpus, level, vocab)
    report = evaluate(model, corpus.ids, args.context, args.block)
    print(f"tokens {report.tokens}  context {report.context}")
    print(f"nll {report.nll:.6f} nats/token  ppl {report.ppl:.4f}  bpc {report.bpc:.6f}")
    if args.out:
        _write_tsv(
            args.out,
            ["nll", "ppl", "bpc", "tokens", "context"],
            [[f"{report.nll:.8f}", f"{report.ppl:.8f}", f"{report.bpc:.8f}", report.tokens, report.context]],
        )
    return 0


def cmd_prune(args) -> int:
    model, vocab = load_model(args.checkpoint)
    level = vocab.level if vocab is not None else args.level
    corpus = load_corpus(args.corpus, level, vocab)
    reference = None
    if args.ref:
        reference = np.array([float(x) for x in args.ref.split(",")])
    report = run_prune_experiment(model, corpus.ids, args.context, args.block, reference_stddev=reference)
    print(report.table())
    if args.out:
        n_heads = report.delta.shape[1]
        header = ["layer"] + [f"h{h + 1}" for h in range(n_heads)] + ["stddev", "pct_change"]
        _write_tsv(args.out, header, report.rows())
    return 0


def cmd_audit(args) -> int:
    kv = _kv(args)
    corpus = None
    if "corpus" in kv:
        corpus = load_corpus(kv["corpus"], kv.get("level", "char"))
    model_cfg, train_cfg, _ = build_configs(kv, vocab_size=corpus.vocab.size if corpus else 26)
    hub = RngHub(train_cfg.seed)
    model = MemoryLM(model_cfg, hub["init"])
    if corpus is not None:
        ids = corpus.ids
    else:
        # content-free stream: the audit only cares about positions
        ids = hub["data"].integers(0, model_cfg.vocab_size, size=args.steps * model_cfg.block_len + 1)
    audit = position_audit(
        model,
        ids,
        train_cfg.schedule,
        hub,
        steps=args.steps,
        eval_context=train_cfg.eval_context,
        eval_block=train_cfg.eval_block,
    )
    for name in SECTIONS:
        for layer in range(model_cfg.n_layers):
            hist = audit.section(name)[layer]
            print(
                f"{name:>6}  layer {layer + 1}  pairs {sum(hist.values())}  "
                f"max offset {audit.max_offset(name, layer)}"
            )
    if args.out:
        _write_tsv(args.out, ["section", "layer", "offset", "count"], audit.rows())
    return 0


def cmd_context(args) -> int:
    schedule = SkipSchedule(args.schedule, args.p)
    report = expected_context_report(
        schedule, args.layers, args.mem, samples=args.samples, rng=np.random.default_rng(args.seed)
    )
    print(report.table())
    if args.out:
        rows = [[f"p_skip_{i + 1}", f"{p:.6f}"] for i, p in enumerate(report.probs)]
        rows += [
            ["exact", f"{report.exact:.6f}"],
            ["approx", f"{report.approx:.6f}"],
            ["sim_mean", f"{report.sim_mean:.6f}"],
            ["sim_stderr", f"{report.sim_stderr:.6f}"],
        ]
        _write_tsv(args.out, ["quantity", "value"], rows)
    return 0


def cmd_gradcheck(args) -> int:
    reports = grad_check_model(seed=args.seed, step=args.step, tol=args.tol)
    failed = []
    for name, rep in reports.items():
        print(f"{name}: {rep.summary()}")
        if not rep.passed:
            failed.append((name, rep.failures()))
    if args.out:
        _write_tsv(
            args.out,
            ["regime", "max_rel_error", "status"],
            [[name, f"{rep.max_rel_error:.3e}", "pass" if rep.passed else "fail"] for name, rep in reports.items()],
        )
    for name, params in failed:
        print(f"FAIL {name}: {', '.join(params)}", file=sys.stderr)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each ``parse_args`` starts from fresh defaults."""
    parser = argparse.ArgumentParser(prog="memxl", description="memory-recurrent language model tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")

    t = sub.add_parser("train", help="train per the config file")
    with_config(t)
    t.set_defaults(fn=cmd_train)

    def eval_args(sp):
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--corpus", required=True)
        sp.add_argument("--level", default="char", choices=("char", "word"))
        sp.add_argument("--context", type=int, default=640)
        sp.add_argument("--block", type=int, default=64)
        sp.add_argument("--out", help="write a tab-delimited report here")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    eval_args(e)
    e.set_defaults(fn=cmd_eval)

    pr = sub.add_parser("prune", help="single-head pruning sweep")
    eval_args(pr)
    pr.add_argument("--ref", help="comma-separated reference stddevs for the % change column")
    pr.set_defaults(fn=cmd_prune)

    a = sub.add_parser("audit", help="relative-position histograms per phase")
    with_config(a)
    a.add_argument("--steps", type=int, default=50)
    a.add_argument("--out", help="write a tab-delimited report here")
    a.set_defaults(fn=cmd_audit)

    c = sub.add_parser("context", help="expected-context table for a schedule")
    c.add_argument("--schedule", default="linear")
    c.add_argument("--p", type=float, default=None, help="schedule probability, where applicable")
    c.add_argument("--layers", type=int, required=True)
    c.add_argument("--mem", type=int, required=True)
    c.add_argument("--samples", type=int, default=100_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="write a tab-delimited report here")
    c.set_defaults(fn=cmd_context)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--tol", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write a tab-delimited report here")
    g.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
