"""Outside-in tracing of embmask's public functions.

The tracer replaces each listed function or method with a wrapper that
records a span (name, start, end, parent, run id) while tracing is active.
A wrapper is installed everywhere the name is looked up: on the defining
module or class, and on every ``embmask`` module that imported the name
(``embmask.cli.load_params`` as well as ``embmask.nn.load_params``). The
program itself is never edited, and ``uninstall`` restores every original.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one operation add up to the time covered by its
top-level spans; the rest of the operation is the benchmark's own code.
Row and byte counts are taken from arguments, results and output files.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _params_bytes(index):
    def measure(args, kwargs, _result):
        path = _arg(args, kwargs, index, "path")
        return _size(path + ".manifest", path + ".params")

    return measure


def _manifest_bytes(args, _kwargs, _result):
    # Bytes hashed by finalize: every artifact its MANIFEST.txt lists.
    run_path = args[0].path
    with open(os.path.join(run_path, "MANIFEST.txt")) as fh:
        names = [line.rstrip("\n").split("  ", 1)[1] for line in fh if line.strip()]
    return _size(*(os.path.join(run_path, n) for n in names))


def _rows_of(index, name):
    return lambda args, kwargs, _result: len(_arg(args, kwargs, index, name))


def _file_bytes(index, name):
    return lambda args, kwargs, _result: _size(_arg(args, kwargs, index, name))


@dataclass(frozen=True)
class Hook:
    """One traced name: ``owner`` is a module path, or ``module:Class``."""

    span: str
    owner: str
    attr: str
    rows: object = None
    nbytes: object = None
    label: object = None


HOOKS = [
    Hook("tensor.backward_grads", "embmask.tensor", "backward_grads"),
    Hook("train.optimizer_step", "embmask.train", "optimizer_step"),
    Hook("train.hard_ce", "embmask.train", "hard_ce"),
    Hook("train.soft_ce", "embmask.train", "soft_ce"),
    Hook("train.train_erm", "embmask.train", "train_erm"),
    Hook("train.train_emg", "embmask.train", "train_emg"),
    Hook("train.pooled_split", "embmask.train", "pooled_split"),
    Hook("nn.Mlp.forward", "embmask.nn:Mlp", "forward"),
    Hook("nn.ParamStore.leaves", "embmask.nn:ParamStore", "leaves"),
    Hook("nn.ParamStore.state_copy", "embmask.nn:ParamStore", "state_copy"),
    Hook("nn.ParamStore.checksum", "embmask.nn:ParamStore", "checksum"),
    Hook("nn.SplitModel.encode_np", "embmask.nn:SplitModel", "encode_np", rows=_rows_of(1, "x")),
    Hook("nn.SplitModel.predict_np", "embmask.nn:SplitModel", "predict_np", rows=_rows_of(1, "z")),
    Hook("nn.save_params", "embmask.nn", "save_params", nbytes=_params_bytes(1)),
    Hook("nn.load_params", "embmask.nn", "load_params", nbytes=_params_bytes(0)),
    Hook("mask.training_mask", "embmask.mask", "training_mask"),
    Hook(
        "mask.gumbel_sample",
        "embmask.mask",
        "gumbel_sample",
        rows=lambda args, kwargs, _r: _arg(args, kwargs, 1, "shape")[0],
    ),
    Hook(
        "mask.inference_mask",
        "embmask.mask",
        "inference_mask",
        rows=_rows_of(0, "p"),
        label=lambda args, kwargs: "mask.inference_mask."
        + _arg(args, kwargs, 1, "cfg").inference_mode,
    ),
    Hook("mask.drop_probabilities", "embmask.mask", "drop_probabilities"),
    Hook("baseline.permutation_importance", "embmask.baseline", "permutation_importance"),
    Hook("baseline.sweep_mask_percent", "embmask.baseline", "sweep_mask_percent"),
    Hook("evaluate.emg_masks", "embmask.evaluate", "emg_masks", rows=_rows_of(1, "x")),
    Hook(
        "evaluate.accuracy",
        "embmask.evaluate",
        "accuracy",
        rows=lambda args, kwargs, _r: _arg(args, kwargs, 1, "data").n,
    ),
    Hook("evaluate.bound_terms", "embmask.evaluate", "bound_terms"),
    Hook("evaluate.export_embeddings", "embmask.evaluate", "export_embeddings", nbytes=_file_bytes(2, "path")),
    Hook("evaluate.export_masks", "embmask.evaluate", "export_masks", nbytes=_file_bytes(1, "path")),
    Hook("synthbench.generate_benchmark", "embmask.synthbench", "generate_benchmark"),
    Hook("synthbench.save_csv_dataset", "embmask.synthbench", "save_csv_dataset", nbytes=_file_bytes(1, "path")),
    Hook(
        "synthbench.load_csv_dataset",
        "embmask.synthbench",
        "load_csv_dataset",
        rows=lambda _a, _k, result: result.n,
    ),
    Hook("synthbench.save_oracle", "embmask.synthbench", "save_oracle"),
    Hook("synthbench.load_oracle", "embmask.synthbench", "load_oracle"),
    Hook("rundir.RunDirectory.finalize", "embmask.rundir:RunDirectory", "finalize", nbytes=_manifest_bytes),
    Hook("config.load_config", "embmask.config", "load_config"),
] + [
    Hook(f"cli.{cmd}", "embmask.cli", cmd)
    for cmd in (
        "cmd_gen_data",
        "cmd_train_erm",
        "cmd_train_emg",
        "cmd_eval",
        "cmd_sweep_global",
        "cmd_bound_check",
        "cmd_export_embeddings",
    )
]

# Rows a parent span is credited with: those of its descendant spans of the
# named kind (permutation importance is measured by what it sends to predict).
ROWS_FROM_DESCENDANTS = {"baseline.permutation_importance": "nn.SplitModel.predict_np"}

# Spans whose returned TrainTrace is kept for the per-epoch metrics.
TRAIN_SPANS = ("train.train_erm", "train.train_emg")

INFERENCE_MODES = ("noise_free", "expected", "sample_avg")


def _measures(span, *measures):
    units = {"calls": "count", "self_s": "s", "rows": "rows", "bytes": "B"}
    return [(f"{span}.{m}", units[m]) for m in measures]


# Every per-layer metric, in report order: (name, unit).
LAYER_METRICS = (
    _measures("tensor.backward_grads", "calls", "self_s")
    + [("tensor.Tensor.calls", "count")]
    + _measures("train.optimizer_step", "calls", "self_s")
    + _measures("train.hard_ce", "self_s")
    + _measures("train.soft_ce", "self_s")
    + _measures("train.train_erm", "self_s")
    + _measures("train.train_emg", "self_s")
    + _measures("train.pooled_split", "self_s")
    + [
        ("train.epoch_s.p50", "s"),
        ("train.epoch_s.p90", "s"),
        ("train.epoch_s.count", "count"),
        ("train.useful_epoch_ratio", "fraction"),
    ]
    + _measures("nn.Mlp.forward", "self_s")
    + _measures("nn.ParamStore.leaves", "calls", "self_s")
    + _measures("nn.ParamStore.state_copy", "calls")
    + _measures("nn.ParamStore.checksum", "self_s")
    + _measures("nn.SplitModel.encode_np", "rows", "self_s")
    + _measures("nn.SplitModel.predict_np", "rows", "self_s")
    + _measures("nn.save_params", "bytes", "self_s")
    + _measures("nn.load_params", "bytes", "self_s")
    + _measures("mask.training_mask", "calls", "self_s")
    + _measures("mask.gumbel_sample", "rows", "self_s")
    + [m for mode in INFERENCE_MODES for m in _measures(f"mask.inference_mask.{mode}", "rows", "self_s")]
    + _measures("mask.drop_probabilities", "self_s")
    + _measures("baseline.permutation_importance", "rows", "self_s")
    + _measures("baseline.sweep_mask_percent", "self_s")
    + _measures("evaluate.emg_masks", "rows", "self_s")
    + _measures("evaluate.accuracy", "rows", "self_s")
    + _measures("evaluate.bound_terms", "self_s")
    + _measures("evaluate.export_embeddings", "bytes", "self_s")
    + _measures("evaluate.export_masks", "bytes", "self_s")
    + _measures("synthbench.generate_benchmark", "self_s")
    + _measures("synthbench.save_csv_dataset", "bytes", "self_s")
    + _measures("synthbench.load_csv_dataset", "calls", "rows", "self_s")
    + _measures("synthbench.save_oracle", "self_s")
    + _measures("synthbench.load_oracle", "self_s")
    + _measures("rundir.RunDirectory.finalize", "bytes", "self_s")
    + _measures("config.load_config", "calls", "self_s")
    + [m for h in HOOKS if h.span.startswith("cli.") for m in _measures(h.span, "self_s")]
    + [
        ("import.s", "s"),
        ("trace.ops", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans_s", "s"),
        ("trace.harness_s", "s"),
    ]
)

SLOC_MODULES = (
    "tensor", "nn", "mask", "train", "baseline", "evaluate",
    "synthbench", "rundir", "config", "cli", "errors",
)


def sloc(src_dir: str) -> dict[str, int]:
    """Non-blank, non-comment lines per embmask module, plus the total."""
    counts = {}
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name)) as fh:
                lines = [ln.strip() for ln in fh]
            counts[name[:-3]] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    out = {f"{m}.sloc": counts.get(m, 0) for m in SLOC_MODULES}
    out["embmask.sloc"] = sum(counts.values())
    return out


SLOC_METRICS = [(f"{m}.sloc", "lines") for m in SLOC_MODULES] + [("embmask.sloc", "lines")]


@dataclass
class Span:
    run: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    child_s: float = 0.0
    rows: int = 0
    nbytes: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Span recorder; records only between ``begin`` and ``end``."""

    spans: list = field(default_factory=list)
    train_traces: list = field(default_factory=list)
    tensors: int = 0
    run: int = -1
    active: bool = False
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def begin(self, run: int) -> None:
        self.run = run
        self.active = True

    def end(self) -> None:
        self.active = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "embmask" or n.startswith("embmask.")]
        for hook in HOOKS:
            module_name, _, cls_name = hook.owner.partition(":")
            owner = sys.modules[module_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, hook.attr, self._wrap(hook, cls.__dict__[hook.attr]))
                continue
            original = getattr(owner, hook.attr)
            wrapper = self._wrap(hook, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                    elif isinstance(value, dict) and any(v is original for v in value.values()):
                        # name -> function tables such as cli.COMMANDS
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, wrapper)
        tensor_cls = sys.modules["embmask.tensor"].Tensor
        original_init = tensor_cls.__init__

        def counting_init(obj, *args, **kwargs):
            if self.active:
                self.tensors += 1
            original_init(obj, *args, **kwargs)

        self._patch(tensor_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, table, key, value) -> None:
        original = table[key]
        table[key] = value
        self._patches.append(lambda: table.__setitem__(key, original))

    def _wrap(self, hook: Hook, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = hook.label(args, kwargs) if hook.label else hook.span
            stack = tracer._stack
            span = Span(tracer.run, len(tracer.spans), stack[-1].id if stack else -1, name, 0.0, 0.0)
            tracer.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
            if hook.rows:
                span.rows = int(hook.rows(args, kwargs, result))
                for ancestor in stack:
                    if ROWS_FROM_DESCENDANTS.get(ancestor.name) == name:
                        ancestor.rows += span.rows
            if hook.nbytes:
                span.nbytes = int(hook.nbytes(args, kwargs, result))
            if name in TRAIN_SPANS:
                tracer.train_traces.append(result[1])
            return result

        return wrapper

    # -- reporting ---------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation means of every span measure, plus the epoch metrics."""
        totals: dict[str, float] = {}
        for s in self.spans:
            for measure, value in (("calls", 1), ("self_s", s.self_s), ("rows", s.rows), ("bytes", s.nbytes)):
                key = f"{s.name}.{measure}"
                totals[key] = totals.get(key, 0.0) + value
        totals["tensor.Tensor.calls"] = float(self.tensors)
        out = {name: totals.get(name, 0.0) / max(n_ops, 1) for name, _ in LAYER_METRICS}

        epochs = sorted(t for tr in self.train_traces for t in tr.wall_clock)
        out["train.epoch_s.p50"] = _quantile(epochs, 0.5)
        out["train.epoch_s.p90"] = _quantile(epochs, 0.9)
        out["train.epoch_s.count"] = float(len(epochs))
        out["train.useful_epoch_ratio"] = (
            sum(tr.selected_epoch + 1 for tr in self.train_traces) / len(epochs) if epochs else 0.0
        )
        return out

    def root_span_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent == -1)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start,end,self_s,rows,bytes\n")
            for s in self.spans:
                fh.write(
                    f"{s.run},{s.id},{s.parent},{s.name},{s.start!r},{s.end!r},"
                    f"{s.self_s!r},{s.rows},{s.nbytes}\n"
                )


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
