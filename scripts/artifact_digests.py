#!/usr/bin/env python3
"""Run the CLI chain into OUT_ROOT and print one manifest digest per run.

Fourteen run directories, all on the default benchmark with seed 0:
gen-data, train-erm (5 epochs), train-emg, eval (none, global, and emg in
each inference mode), sweep-global, bound-check and export-embeddings (emg
train, emg unseen, global, none). Each output line is
``sha256(MANIFEST.txt)  <dir>`` with <dir> relative to OUT_ROOT, so two
checkouts write byte-identical artifacts exactly when ``diff`` finds their
outputs equal:

    PYTHONPATH=src python scripts/artifact_digests.py /tmp/a > a.txt
    PYTHONPATH=../other/src python scripts/artifact_digests.py /tmp/b > b.txt
    diff a.txt b.txt

BLAS runs single-threaded (set before numpy is imported), so matrix
products do not depend on the machine's core count.
"""

import argparse
import hashlib
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from embmask.cli import main  # noqa: E402  (imports numpy)

DATA = {"data.dir": "data"}
BASE = {**DATA, "base.model": "erm/base_model"}
GEN = {**BASE, "emg.model": "emg/emg_model"}
EMG = {**GEN, "eval.mode": "emg"}

# (command, run directory, settings); paths are relative to OUT_ROOT so that
# the config snapshots, and with them the manifests, do not depend on it.
CHAIN = [
    ("gen-data", "data", {}),
    ("train-erm", "erm", {**DATA, "train.max_epochs": 5}),
    ("train-emg", "emg", BASE),
    ("eval", "eval_none", {**BASE, "eval.mode": "none"}),
    ("eval", "eval_global", {**BASE, "eval.mode": "global"}),
    ("eval", "eval_emg", EMG),
    ("eval", "eval_emg_sample_avg", {**EMG, "mask.inference_mode": "sample_avg"}),
    ("eval", "eval_emg_expected", {**EMG, "mask.inference_mode": "expected"}),
    ("sweep-global", "sweep", BASE),
    ("bound-check", "bound", GEN),
    ("export-embeddings", "export_emg_train", {**EMG, "export.which": "train"}),
    ("export-embeddings", "export_emg_unseen", EMG),
    ("export-embeddings", "export_global", {**BASE, "eval.mode": "global"}),
    ("export-embeddings", "export_none", {**BASE, "eval.mode": "none"}),
]


def run_chain() -> list[tuple[str, str]]:
    """Run every command of CHAIN in the working directory; (digest, dir)
    per run."""
    with open("cfg.txt", "w") as fh:
        fh.write("seed = 0\nout_dir = unused\n")
    digests = []
    for command, out, settings in CHAIN:
        argv = [command, "--config", "cfg.txt", "--set", f"out_dir={out}"]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        code = main(argv)
        if code != 0:
            raise SystemExit(f"{command} ({out}) exited {code}")
        with open(os.path.join(out, "MANIFEST.txt"), "rb") as fh:
            digests.append((hashlib.sha256(fh.read()).hexdigest(), out))
    return digests


def main_cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_root", help="directory to write the run directories into")
    args = ap.parse_args()
    os.makedirs(args.out_root, exist_ok=True)
    os.chdir(args.out_root)
    for digest, out in run_chain():
        print(f"{digest}  {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
