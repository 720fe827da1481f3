"""The four benchmark workloads.

Each workload sets up once, then runs numbered operations in a closed loop.
An operation calls embmask's public functions inside ``clock`` sections (the
only code that is timed and, in a traced run, traced) and then checks its
outputs outside them. Operation ``i`` is a pure function of the workload seed
and ``i``, so a rerun, a traced twin or another process reproduces it.

The benchmark's data is the default synthetic benchmark (benchmark seed 0),
and the base models of ``emg_mask`` and ``global_sweep`` are trained with the
training seeds 0..2 of ``scripts/run_pipeline.py``; the CLI chain's data and
base model use seed 0 as well. The workload seed drives everything else: ERM
training seeds, generator seeds, Gumbel and permutation streams, and the
seeds of the chain's later commands. Fixing the data and the frozen models
keeps the accuracy metrics comparable from seed to seed: across benchmark
seeds the unseen accuracy of one model ranges from 0.13 to 0.66.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from embmask import baseline, cli, evaluate, mask, nn, rundir, synthbench, train
from embmask.errors import EmbmaskError

INFERENCE_MODES = ("noise_free", "expected", "sample_avg")


@dataclass(frozen=True)
class Size:
    spec: dict  # BenchmarkSpec fields for training data and the unseen split
    sweep_spec: dict  # BenchmarkSpec fields for the sweep's larger data
    cli_spec: dict  # gen-data settings of the CLI chain
    hidden: int
    erm_epochs: int
    emg_hidden: int
    emg_epochs: int
    cli_erm_epochs: int
    bases: int
    result_ops: dict  # operations that make up each workload's result


SIZES = {
    "full": Size(
        spec={"unseen_samples": 4000},
        # 12000 pooled rows x 64 dims x 8 bytes = 6 MiB of embeddings,
        # larger than a 4 MiB per-core L2.
        sweep_spec={"samples_per_domain": 4000, "unseen_samples": 4000},
        cli_spec={},
        hidden=64,
        erm_epochs=80,
        emg_hidden=32,
        emg_epochs=3,
        cli_erm_epochs=5,
        bases=3,
        result_ops={"erm_fit": 10, "emg_mask": 18, "global_sweep": 8, "cli_artifacts": 5},
    ),
    "tiny": Size(
        spec={"num_classes": 3, "d_shared": 4, "d_specific": 4, "samples_per_domain": 60, "unseen_samples": 60},
        sweep_spec={
            "num_classes": 3, "d_shared": 4, "d_specific": 4, "samples_per_domain": 120, "unseen_samples": 120,
        },
        cli_spec={"num_classes": 3, "d_shared": 4, "d_specific": 4, "samples_per_domain": 60, "unseen_samples": 60},
        hidden=8,
        erm_epochs=3,
        emg_hidden=8,
        emg_epochs=2,
        cli_erm_epochs=2,
        bases=2,
        result_ops={"erm_fit": 2, "emg_mask": 2, "global_sweep": 2, "cli_artifacts": 2},
    ),
}


@dataclass
class Op:
    """What one operation produced: a digest of its outputs, the rows each
    clock section processed, accuracy figures and failed checks; the runner
    adds the section times."""

    digest: str
    rows: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    sections: dict = field(default_factory=dict)

    @property
    def time(self) -> float:
        return sum(self.sections.values())


class Clock:
    """Times named sections of one operation; traces them when given a tracer."""

    def __init__(self, tracer=None, run: int = 0):
        self.tracer = tracer
        self.run = run
        self.sections: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self.tracer is not None:
            self.tracer.begin(self.run)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()
            self.sections[name] = self.sections.get(name, 0.0) + elapsed


class SpeedProbe:
    """A fixed reference computation, timed between operations.

    Host contention on a shared machine slows every process by up to about
    1.5x for seconds to minutes. The probe's median time during a run
    measures that slowdown, so timings can be scaled to a reference speed.
    It mixes the kinds of work the workloads do: small NumPy calls driven by
    the interpreter (training loops), copying and permuting a 3 MiB array
    (permutation importance) and float text formatting and parsing (CSV I/O).
    """

    def __init__(self):
        rng = np.random.default_rng(20230714)
        self.a = rng.normal(size=(64, 16))
        self.b = rng.normal(size=(16, 64))
        self.big = rng.normal(size=(6000, 64))
        self.buf = np.empty_like(self.big)
        self.perm = rng.permutation(len(self.big))
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        acc = {}
        for i in range(600):
            c = self.a @ self.b
            acc[i % 97] = float(np.maximum(c, 0.0).sum())
        for k in range(6):
            np.copyto(self.buf, self.big)
            self.buf[:, k] = self.buf[self.perm, k]
        for row in self.big[:100, :16]:
            [float(t) for t in ",".join(f"{v:.17g}" for v in row).split(",")]
        self.samples.append(time.perf_counter() - start)


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _pooled(datasets) -> synthbench.DomainDataset:
    return synthbench.DomainDataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        -1,
    )


def _mask_in_unit_interval(m) -> bool:
    return bool(np.all(np.isfinite(m)) and m.min() > 0.0 and m.max() < 1.0)


class Workload:
    name = ""
    throughput_section = ""  # the section behind rows_per_s
    rates: dict = {}  # descriptive name -> (section, unit) of a rows-per-second figure
    op_name = ""  # descriptive name of op_s, if the workload has one

    def __init__(self, seed: int, size: Size, work_dir: str):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.result_ops = size.result_ops[self.name]

    def _data(self, **overrides):
        spec = synthbench.BenchmarkSpec(seed=0, **{**self.size.spec, **overrides})
        return synthbench.generate_benchmark(spec)

    def _layers(self, datasets) -> list[int]:
        n_classes = int(max(d.labels.max() for d in datasets)) + 1
        return [datasets[0].dim, self.size.hidden, n_classes]

    def _frozen_bases(self, datasets):
        """The fixed base models: trained, frozen and split."""
        splits = []
        for base_seed in range(self.size.bases):
            cfg = train.TrainConfig(seed=base_seed, max_epochs=self.size.erm_epochs)
            model, _ = train.train_erm(cfg, datasets, self._layers(datasets))
            model.store.freeze()
            splits.append(nn.split_model(model))
        return splits

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, clock: Clock) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ErmFit(Workload):
    """Pooled ERM training: the autodiff tape, the Adam loop and the forward."""

    name = "erm_fit"
    throughput_section = "train"
    rates = {"erm_samples_per_s": ("train", "samples/s")}

    def setup(self):
        self.train_data, self.unseen, _ = self._data()
        self.layers = self._layers(self.train_data)
        self.rows_per_epoch = len(train.pooled_split(self.train_data, 0.2, 0)[0])
        self.first_checksum = None

    def op(self, i, clock):
        # Operation 1 reruns operation 0's seed: its parameters must match.
        seed = op_seed(self.seed, max(i - 1, 0))
        cfg = train.TrainConfig(seed=seed, max_epochs=self.size.erm_epochs)
        with clock("train"):
            model, trace = train.train_erm(cfg, self.train_data, self.layers)
        checksum = model.store.checksum()
        out = Op(checksum, rows={"train": self.rows_per_epoch * len(trace.train_loss)})
        if i == 0:
            self.first_checksum = checksum
        elif i == 1 and checksum != self.first_checksum:
            out.failures.append("rerun of the same seed gave different parameters")
        out.quality["unseen_acc"] = evaluate.accuracy(nn.split_model(model), self.unseen)
        return out


class EmgMask(Workload):
    """Mask-generator training over a frozen model, then mask inference in
    all three modes on the pooled training domains and the unseen domain."""

    name = "emg_mask"
    throughput_section = "infer"
    rates = {"emg_samples_per_s": ("train", "samples/s"), "mask_rows_per_s": ("infer", "rows/s")}

    def setup(self):
        self.train_data, self.unseen, _ = self._data()
        self.pooled = _pooled(self.train_data)
        self.splits = self._frozen_bases(self.train_data)
        self.unmasked = [evaluate.accuracy(s, self.unseen) for s in self.splits]
        self.rows_per_epoch = len(train.pooled_split(self.train_data, 0.2, 0)[0])
        self.mask_cfg = mask.MaskGenConfig(tau=0.1)

    def op(self, i, clock):
        base = i % len(self.splits)
        split = self.splits[base]
        seed = op_seed(self.seed, i)
        gen = nn.Mlp(
            [self.train_data[0].dim, self.size.emg_hidden, split.embedding_dim],
            prefix="g.",
            seed=seed + 1,
        )
        cfg = train.TrainConfig(seed=seed, max_epochs=self.size.emg_epochs)
        frozen = split.model.store.checksum()
        with clock("train"):
            gen, trace = train.train_emg(split, gen, self.train_data, self.mask_cfg, cfg)
        with clock("infer"):
            results = {}
            for mode in INFERENCE_MODES:
                mode_cfg = mask.MaskGenConfig(tau=self.mask_cfg.tau, inference_mode=mode)
                m_train = evaluate.emg_masks(gen, self.pooled.features, mode_cfg, seed=seed)
                m_unseen = evaluate.emg_masks(gen, self.unseen.features, mode_cfg, seed=seed)
                results[mode] = (
                    m_train,
                    m_unseen,
                    evaluate.accuracy(split, self.pooled, m_train),
                    evaluate.accuracy(split, self.unseen, m_unseen),
                )

        digest = hashlib.sha256(gen.store.checksum().encode())
        out = Op("", rows={
            "train": self.rows_per_epoch * len(trace.train_loss),
            "infer": len(INFERENCE_MODES) * 2 * (self.pooled.n + self.unseen.n),
        })
        if split.model.store.checksum() != frozen:
            out.failures.append("frozen base model changed during mask-generator training")
        for mode, (m_train, m_unseen, acc_train, acc_unseen) in results.items():
            for m in (m_train, m_unseen):
                if not _mask_in_unit_interval(m):
                    out.failures.append(f"{mode} mask not finite or not inside (0, 1)")
                digest.update(m.tobytes())
            digest.update(f"{acc_train!r},{acc_unseen!r}".encode())
        out.digest = digest.hexdigest()
        masked = results["noise_free"][3]
        out.quality = {"unseen_acc": masked, "unseen_gain": masked - self.unmasked[base]}
        return out


class GlobalSweep(Workload):
    """Permutation importance and the bottom-p% global-mask sweep: NumPy
    inference only, over embeddings larger than L2."""

    name = "global_sweep"
    throughput_section = "sweep"
    op_name = "sweep_s"
    repeats = 5

    def setup(self):
        train_data, _, _ = self._data()
        self.splits = self._frozen_bases(train_data)
        self.sweep_train, self.sweep_unseen, _ = self._data(**self.size.sweep_spec)
        pooled = _pooled(self.sweep_train)
        self.unmasked = [
            (evaluate.accuracy(s, self.sweep_unseen), evaluate.accuracy(s, pooled)) for s in self.splits
        ]
        self.n_pooled = pooled.n

    def op(self, i, clock):
        base = i % len(self.splits)
        split = self.splits[base]
        rng = np.random.default_rng(op_seed(self.seed, i))
        with clock("sweep"):
            table = baseline.sweep_mask_percent(
                split, self.sweep_train, self.sweep_unseen, repeats=self.repeats, rng=rng
            )
        # Rows sent through the predictor: the unpermuted baseline and
        # d * repeats permutations, then train and unseen per grid point.
        rows = self.n_pooled * (split.embedding_dim * self.repeats + 1) + len(table.rows) * (
            self.n_pooled + self.sweep_unseen.n
        )
        text = "".join(f"{r.percent!r},{r.unseen_accuracy!r},{r.train_accuracy!r};" for r in table.rows)
        out = Op(hashlib.sha256(text.encode()).hexdigest(), rows={"sweep": rows})
        zero = table.rows[0]
        if zero.percent != 0.0 or (zero.unseen_accuracy, zero.train_accuracy) != self.unmasked[base]:
            out.failures.append("p=0 row differs from the unmasked accuracy")
        if not all(math.isfinite(r.unseen_accuracy) and math.isfinite(r.train_accuracy) for r in table.rows):
            out.failures.append("non-finite sweep score")
        best = max(r.unseen_accuracy for r in table.rows)
        out.quality = {"unseen_acc": best, "unseen_gain": best - self.unmasked[base][0]}
        return out


class CliArtifacts(Workload):
    """The seven CLI commands in-process, writing run directories."""

    name = "cli_artifacts"
    throughput_section = "chain"
    op_name = "cli_chain_s"

    def setup(self):
        os.environ.pop("EMBMASK_OUT_DIR", None)
        os.makedirs(self.work_dir, exist_ok=True)
        self.config = os.path.join(self.work_dir, "cfg.txt")
        with open(self.config, "w") as fh:
            fh.write("seed = 0\nout_dir = unused\n")
        self.chain_dir = os.path.join(self.work_dir, "chain")
        self.first_manifests = None
        self.rows_per_pass = None

    def _chain(self):
        """(run directory, argv) for each command of one pass."""
        d = self.chain_dir
        seed = op_seed(self.seed, 0)
        data = {"data.dir": f"{d}/data"}
        base = {**data, "base.model": f"{d}/erm/base_model"}
        emg = {**base, "emg.model": f"{d}/emg/emg_model"}
        hidden = {"emg.hidden": self.size.emg_hidden}
        steps = [
            ("gen-data", "data", 0, {f"benchmark.{k}": v for k, v in self.size.cli_spec.items()}),
            ("train-erm", "erm", 0, {**data, "model.hidden": self.size.hidden,
                                     "train.max_epochs": self.size.cli_erm_epochs}),
            ("train-emg", "emg", seed, {**base, **hidden, "emg.max_epochs": self.size.emg_epochs}),
            ("eval", "eval_none", seed, {**base, "eval.mode": "none"}),
            ("eval", "eval_global", seed, {**base, "eval.mode": "global"}),
            ("eval", "eval_emg", seed, {**emg, "eval.mode": "emg"}),
            ("sweep-global", "sweep", seed, base),
            ("bound-check", "bound", seed, emg),
            ("export-embeddings", "export_train", seed, {**emg, "eval.mode": "emg", "export.which": "train"}),
            ("export-embeddings", "export_unseen", seed, {**emg, "eval.mode": "emg", "export.which": "unseen"}),
        ]
        for command, out, cmd_seed, settings in steps:
            argv = [command, "--config", self.config, "--set", f"out_dir={d}/{out}", "--set", f"seed={cmd_seed}"]
            for key, value in settings.items():
                argv += ["--set", f"{key}={value}"]
            yield os.path.join(d, out), argv

    def op(self, i, clock):
        shutil.rmtree(self.chain_dir, ignore_errors=True)
        steps = list(self._chain())
        with clock("chain"):
            codes = [cli.main(argv) for _, argv in steps]
        out = Op("")
        manifests = {}
        for (run_dir, argv), code in zip(steps, codes):
            name = os.path.basename(run_dir)
            if code != 0:
                out.failures.append(f"{argv[0]} ({name}) exited {code}")
                continue
            with open(os.path.join(run_dir, rundir.STATUS_FILE)) as fh:
                if fh.read().strip() != "complete":
                    out.failures.append(f"{name}: STATUS is not complete")
            try:
                rundir.RunDirectory.verify(run_dir)
            except EmbmaskError as exc:
                out.failures.append(f"{name}: {exc}")
            with open(os.path.join(run_dir, rundir.MANIFEST_FILE)) as fh:
                manifests[name] = fh.read()
        if self.first_manifests is None:
            self.first_manifests = manifests
        elif manifests != self.first_manifests:
            out.failures.append("MANIFEST.txt differs from the first pass")
        out.digest = hashlib.sha256(json.dumps(manifests, sort_keys=True).encode()).hexdigest()
        if not out.failures:
            if self.rows_per_pass is None:
                self.rows_per_pass = self._rows_moved()
            out.rows = {"chain": self.rows_per_pass}
            acc = {}
            for mode in ("none", "emg"):
                with open(os.path.join(self.chain_dir, f"eval_{mode}", "report.json")) as fh:
                    acc[mode] = json.load(fh)["per_domain_mean"]["unseen"]
            out.quality = {"unseen_acc": acc["emg"], "unseen_gain": acc["emg"] - acc["none"]}
        shutil.rmtree(self.chain_dir, ignore_errors=True)
        return out

    def _rows_moved(self) -> int:
        """CSV data rows written by the pass plus dataset rows read back: every
        command after gen-data loads the whole data directory once."""
        written = 0
        for dirpath, _, names in os.walk(self.chain_dir):
            for name in names:
                if name.endswith(".csv"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        written += sum(1 for line in fh if not line.startswith(b"#")) - 1
        data_dir = os.path.join(self.chain_dir, "data")
        data_rows = 0
        for name in os.listdir(data_dir):
            if name.endswith(".csv"):
                with open(os.path.join(data_dir, name), "rb") as fh:
                    data_rows += sum(1 for _ in fh) - 1
        return written + data_rows * (len(list(self._chain())) - 1)

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(self.work_dir))


WORKLOADS = {w.name: w for w in (ErmFit, EmgMask, GlobalSweep, CliArtifacts)}
