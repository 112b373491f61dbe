"""Span tracer for the benchmark's traced run.

The tracer wraps memxl's public functions at the names their callers bind
(``memxl.model.encode_offsets``, not ``memxl.relpos.encode_offsets``, since
``model.py`` imported the name) and records one span per call: name, start,
end, parent span, run id and a small per-call count.  Wrappers are installed
only inside a traced section and removed when it ends, so untraced rounds
run the unmodified program.  Spans stay in memory and are written as JSONL
when the run ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# per-step self time: metric name -> span name
PER_STEP_MS = {
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.layer_norm_ms": "autodiff.layer_norm",
    "autodiff.cross_entropy_ms": "autodiff.cross_entropy",
    "model.forward_ms": "model.forward",
    "model.update_memory_ms": "model.update_memory",
    "attention.multi_head_forward_ms": "attention.multi_head_forward",
    "relpos.encode_offsets_ms": "relpos.encode_offsets",
    "optim.adam_ms": "optim.adam_update",
    "optim.clip_ms": "optim.clip_global_norm",
}
# mean time per call, over every traced section (set-up and checks included)
PER_CALL_MS = {
    "train.evaluate_ms": "train.evaluate",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "data.load_corpus_ms": "data.load_corpus",
    "data.batchify_ms": "data.batchify",
}
N_LAYERS = 4  # every workload's model has four layers

PER_LAYER_UNITS = {
    **{name: "ms" for name in PER_STEP_MS},
    **{name: "ms" for name in PER_CALL_MS},
    "autodiff.nodes_per_step": "count",
    "model.layers_run": "count",
    "attention.cross_active_layers": "count",
    "relpos.distinct_offsets": "count",
    **{f"relpos.max_offset.{i}": "tokens" for i in range(N_LAYERS)},
    "skip.layers_skipped": "count",
    "skip.max_staleness": "count",
    "checkpoint.bytes": "bytes",
    "trace.overhead_pct": "%",
}


@contextmanager
def patched(targets):
    """Inside the block, each ``(owner, attr, wrap)`` sets ``owner.attr`` to
    ``wrap(original)``; the originals come back when the block ends."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for (owner, attr, wrap), (_, _, fn) in zip(targets, saved):
        setattr(owner, attr, wrap(fn))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _graph_size(loss) -> int:
    """Tensors ``backward`` visits: ``loss`` and every ancestor that requires grad."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run, info]
        self._stack: list[int] = []
        self._run = ""
        self._layer = 0       # layer index inside the current MemoryLM.forward
        self._layers_run = 0  # layers executed so far in that forward
        self._t0 = time.perf_counter()
        model, ad, train, cli = (importlib.import_module(f"memxl.{m}") for m in ("model", "autodiff", "train", "cli"))
        # (owner, attribute, span name, hook(args, result) -> info)
        self._targets = [
            (model, "multi_head_forward", "attention.multi_head_forward", None),
            (model, "encode_offsets", "relpos.encode_offsets", self._on_encode),
            (model, "update_memory", "model.update_memory", self._on_update),
            (model.MemoryLM, "forward", "model.forward", self._on_forward),
            (ad, "backward", "autodiff.backward", lambda args, out: _graph_size(args[0])),
            (ad, "layer_norm", "autodiff.layer_norm", None),
            (ad, "cross_entropy", "autodiff.cross_entropy", None),
            (train, "adam_update", "optim.adam_update", None),
            (train, "clip_global_norm", "optim.clip_global_norm", None),
            (train, "evaluate", "train.evaluate", None),
            (train, "sample_skip_mask", "skip.sample_skip_mask", lambda args, out: int(out.sum())),
            (train, "sample_head_assignment", "attention.sample_head_assignment",
             lambda args, out: int(out.cross_active)),
            (train, "save_checkpoint", "checkpoint.save", lambda args, out: os.path.getsize(args[0])),
            (train, "load_checkpoint", "checkpoint.load", None),
            (train, "batchify", "data.batchify", None),
            (cli, "load_corpus", "data.load_corpus", None),
        ]

    # -- hooks: run after the span has closed, so their cost is not in it --

    def _on_encode(self, args, out):
        return [self._layer, int(out.offsets.size), int(out.offsets.max())]

    def _on_update(self, args, out):
        skipped = bool(args[2])
        self._layer += 1
        self._layers_run += not skipped
        return [skipped, out.staleness]

    def _on_forward(self, args, out):
        info, self._layer, self._layers_run = self._layers_run, 0, 0
        return info

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, out)
            return out

        return traced

    @contextmanager
    def section(self, run: str, traced: bool):
        """Label spans with ``run``; install the wrappers only when ``traced``."""
        if not traced:
            yield
            return
        wraps = [
            (owner, attr, lambda fn, name=name, hook=hook: self._wrap(fn, name, hook))
            for owner, attr, name, hook in self._targets
        ]
        self._run = run
        try:
            with patched(wraps):
                yield
        finally:
            self._run = ""

    # -- reporting ---------------------------------------------------------

    def metrics(self, timed_runs: set[str], steps: int) -> dict[str, float]:
        """Per-layer metrics.  Per-step figures use only spans of ``timed_runs``
        and divide by ``steps`` (train steps, or evaluation blocks)."""
        child = defaultdict(float)
        for name, start, end, parent, run, info in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(list)
        infos = defaultdict(list)
        for idx, (name, start, end, parent, run, info) in enumerate(self.spans):
            calls[name].append(end - start)
            if run in timed_runs:
                self_ms[name] += (end - start - child[idx]) * 1e3
                infos[name].append(info)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        out = {metric: self_ms[span] / steps for metric, span in PER_STEP_MS.items()}
        out.update({metric: mean(calls[span]) * 1e3 for metric, span in PER_CALL_MS.items()})
        out["autodiff.nodes_per_step"] = mean(infos["autodiff.backward"])
        out["model.layers_run"] = mean(infos["model.forward"])
        train_steps = len(infos["skip.sample_skip_mask"]) or 1
        out["attention.cross_active_layers"] = sum(infos["attention.sample_head_assignment"]) / train_steps
        out["skip.layers_skipped"] = sum(infos["skip.sample_skip_mask"]) / train_steps
        out["skip.max_staleness"] = max((s for _, s in infos["model.update_memory"]), default=0)
        encodes = infos["relpos.encode_offsets"]
        out["relpos.distinct_offsets"] = mean([n for _, n, _ in encodes])
        for i in range(N_LAYERS):
            out[f"relpos.max_offset.{i}"] = max((m for layer, _, m in encodes if layer == i), default=0)
        out["checkpoint.bytes"] = mean([info for name, *_, info in self.spans if name == "checkpoint.save"])
        return out

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, run, info in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - self._t0, "end": end - self._t0,
                    "parent": parent, "run": run, "info": info,
                }) + "\n")
