"""The benchmark's workloads: set-up, one timed step each, and their checks.

Sizes follow the project's two fixed scales: S is 200 users x 300 items x 5
frames with F=16 and d=8, M is 2000 x 3000 x 8 with F=64 and d=32.  Every
workload uses att/att mode with d1 = d2 = attention hidden = reduced dim = d;
the synthetic teacher keeps its default latent dimension at both sizes.

- ``s_pipeline`` (S): the whole user chain.  At 300 items per-call Python
  overhead, ``sample_epoch``, ``np.add.at`` and the per-pair evaluation loops
  carry the time and the visual table is cheap.
- ``m_train`` (M): one ``sample_epoch`` and a fixed number of 512-triple
  batches, no evaluation.  The full-catalog visual table dominates a batch
  although a batch touches about a quarter of the items.
- ``m_eval`` (M): forward only.  It reads back what set-up wrote and
  evaluates, so it uses the ``model`` layer the opposite way to ``m_train``
  and shows a training-side gain that costs scoring.

Set-up runs in its own process (see ``set_up``), so the timed phase's peak
memory is measured apart from set-up's.  A step's work is fixed; a run
repeats steps until its time is up.
"""

from __future__ import annotations

import json
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framerec import (
    ModelConfig,
    SynthConfig,
    TrainConfig,
    adam_step,
    batch_gradients,
    dataset_digest,
    evaluate_frame_rec,
    evaluate_item_rec,
    fit,
    generate_synthetic,
    init_adam_state,
    init_params,
    item_visual_table,
    load_checkpoint,
    load_dataset,
    load_split,
    random_frame_baseline,
    sample_epoch,
    save_checkpoint,
    save_dataset,
    save_split,
    score_pairs,
    split_ratings,
)
from framerec.data import FEATURES_FILE, FRAMES_FILE, RATINGS_FILE
from spans import Recorder, median

# CLI defaults: ``split`` fractions and the ``eval-items`` test protocol.
TRAIN_FRAC, VALID_FRAC = 0.7, 0.1
TEST_NEGATIVES, TEST_REPEATS = 1000, 10
# fit's per-epoch validation protocol (TrainConfig defaults).
VALID_NEGATIVES, VALID_K = 100, 10
LR = 0.01
S_EPOCHS = 10
M_BATCHES = 32
CHECKPOINT = "checkpoint.json"
HANDOFF = "split.pkl"


@dataclass(frozen=True)
class Size:
    users: int
    items: int
    frames: int
    features: int
    d: int


SIZES = {"S": Size(200, 300, 5, 16, 8), "M": Size(2000, 3000, 8, 64, 32)}


@dataclass(frozen=True)
class Seeds:
    """Every seed a run uses, all derived from the benchmark's ``--seed``."""

    synth: int
    split: int
    model: int
    train: int
    eval: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(x) for x in np.random.SeedSequence(seed).generate_state(5)))


def model_config(size: Size, seeds: Seeds) -> ModelConfig:
    d = size.d
    return ModelConfig(
        d1=d, d2=d, attn_hidden_visual=d, attn_hidden_rating=d,
        reduced_visual_dim=d, visual_mode="att", fusion_mode="att",
        seed=seeds.model,
    )


def peak_rss_mb() -> float:
    """This process image's peak resident set size so far, in MiB.

    Read from VmHWM because ru_maxrss carries the parent's peak across
    fork and exec, which would hide a small set-up behind a large parent.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def set_up(workload: str, seed: int, work: str, layers: bool, rep: int) -> dict:
    """Generate and split the workload's dataset; m_eval also writes its files.

    Runs in a fresh process per repetition (this file's ``__main__``), so the
    reported peak RSS is set-up's own.  The split is handed to the timed
    phase through a pickle written after the clock stops.
    """
    size = SIZES[WORKLOADS[workload].size]
    seeds = Seeds.derive(seed)
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    rec = Recorder(layers, prefix=f"setup{rep}.")
    synth_cfg = SynthConfig(
        num_users=size.users, num_items=size.items, frames_per_item=size.frames,
        feature_dim=size.features, seed=seeds.synth,
    )
    with rec.phase("setup"):
        dataset, likes, _ = rec.call("synth.generate_synthetic", generate_synthetic, synth_cfg)
        split = rec.call(
            "data.split_ratings", split_ratings, dataset, TRAIN_FRAC, VALID_FRAC,
            seed=seeds.split, frame_likes=likes,
        )
        if workload == "m_eval":
            rec.call("data.save_dataset", save_dataset, dataset, work, frame_likes=likes)
            rec.call("data.save_split", save_split, split, work)
            cfg = model_config(size, seeds)
            rec.call(
                "model.save_checkpoint", save_checkpoint, work / CHECKPOINT,
                init_params(cfg, dataset), cfg, dataset_digest(dataset),
            )
    if workload == "m_eval":
        rec.count("model.checkpoint_bytes", (work / CHECKPOINT).stat().st_size)
    else:
        with open(work / HANDOFF, "wb") as fh:
            pickle.dump(split, fh)
    return {
        "seconds": rec.phase_seconds("setup"),
        "peak_rss_mb": peak_rss_mb(),
        "spans": rec.spans,
        "counts": rec.counts,
    }


class Checks:
    """Named correctness checks; a check stays failed once it fails."""

    def __init__(self):
        self.results = {}

    def expect(self, name: str, ok, detail: str = "") -> None:
        if self.results.get(name, (True, ""))[0]:
            self.results[name] = (bool(ok), detail)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def report_in_range(self, name: str, report, n_expected: int) -> None:
        self.expect(f"{name}: n_pairs equals split size", report.n_pairs == n_expected,
                    f"{report.n_pairs} vs {n_expected}")
        values = [*report.hr.values(), *report.ndcg.values()]
        self.expect(f"{name}: HR and NDCG in [0, 1]",
                    all(0.0 <= v <= 1.0 for v in values), repr(values))


def load_handoff(work: Path):
    with open(work / HANDOFF, "rb") as fh:
        return pickle.load(fh)


def train_batch(rec: Recorder, params, cfg, base, state, tcfg, chunk) -> float:
    """One training batch as fit runs it, with the table forward timed apart."""
    table = rec.call("model.item_visual_table", item_visual_table, params, cfg, base)
    if rec.layers:
        with rec.probe("batch"):
            rows = table.x.shape[0]
            rec.sample("model.table_rows", rows)
            rec.sample("model.table_useful_ratio", len(np.unique(chunk[:, 1:3])) / rows)
            # Scoring with the backward cache, timed on its own, so that the
            # backward share of batch_gradients can be derived by difference.
            users = np.concatenate([chunk[:, 0], chunk[:, 0]])
            items = np.concatenate([chunk[:, 1], chunk[:, 2]])
            with rec.probe("score_pairs"):
                score_pairs(users, items, params, cfg, base, table=table, want_cache=True)
    loss, grads = rec.call(
        "training.batch_gradients", batch_gradients, params, cfg, base, chunk,
        reduction=tcfg.loss_reduction, table=table,
    )
    rec.call("training.adam_step", adam_step, params, grads, state, tcfg)
    rec.count("training.batches")
    rec.count("training.triples", len(chunk))
    return loss


def probe_item_eval(rec: Recorder, params, cfg, split, split_name, n_negatives, repeats, seed):
    """Count an item evaluation's candidates; time one scoring of as many.

    The candidate count follows evaluate_item_rec's rule (the positive plus
    min(n_negatives, unrated pool) per pair, per repeat).  The timed
    score_pairs call covers one repeat's worth of random candidates, so
    repeats times its duration estimates the evaluation's scoring time.
    Everything here is a probe: it is not the program's work.
    """
    base = split.base
    with rec.probe("item_eval"):
        pairs = sorted(split.test if split_name == "test" else split.validation)
        per_pair = np.array([
            1 + min(n_negatives, base.num_items - len(base.items_of_user[u])) for u, _ in pairs
        ])
        rec.count("evaluation.candidates_scored", int(per_pair.sum()) * repeats)
        rec.count("evaluation.repeats", repeats)
        users = np.repeat(np.array([u for u, _ in pairs], dtype=np.int64), per_pair)
        items = np.random.default_rng(seed).integers(0, base.num_items, users.size)
        with rec.probe("item_visual_table"):
            table = item_visual_table(params, cfg, base)
        rec.sample("model.table_rows", table.x.shape[0])
        rec.sample("model.table_useful_ratio", len(np.unique(items)) / table.x.shape[0])
        with rec.probe("score_pairs:eval"):
            score_pairs(users, items, params, cfg, base, table=table)


class Workload:
    """A workload's state between steps; subclasses define ``step``."""

    size: str
    # Phases whose sum is the step's end-to-end time.
    step_phases: tuple
    # The item evaluation whose scoring share the traced run estimates.
    probed_eval = None

    def __init__(self, seed: int, work: Path):
        self.seeds = Seeds.derive(seed)
        self.work = work
        self.cfg = model_config(SIZES[self.size], self.seeds)
        self.checks = Checks()

    def step(self, rec: Recorder) -> None:
        raise NotImplementedError

    def final(self, rec: Recorder) -> None:
        """Work done once per run after the steps, when asked for; none by default."""

    def phase_metrics(self, steps, final) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit)."""
        raise NotImplementedError


class SPipeline(Workload):
    size = "S"
    step_phases = ("fit", "eval")
    probed_eval = "test"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.split = load_handoff(work)
        self.digest = dataset_digest(self.split.base)
        self.tcfg = TrainConfig(
            lr=LR, epochs=S_EPOCHS, patience=S_EPOCHS, seed=self.seeds.train,
        )
        self.fit_epochs = None
        self.quality = {}

    def step(self, rec):
        split, cfg = self.split, self.cfg
        with rec.phase("fit"):
            if rec.layers:
                params, epochs = self._traced_fit(rec)
            else:
                params, log = rec.call("training.fit", fit, split, cfg, self.tcfg)
                epochs = [(r.train_loss, r.valid_hr) for r in log.epochs]
        path = self.work / CHECKPOINT
        with rec.phase("eval"):
            rec.call("model.save_checkpoint", save_checkpoint, path, params, cfg, self.digest)
            loaded, loaded_cfg, _ = rec.call("model.load_checkpoint", load_checkpoint, path)
            item = rec.call(
                "evaluation.evaluate_item_rec:test", evaluate_item_rec, loaded, loaded_cfg,
                split, n_negatives=TEST_NEGATIVES, repeats=TEST_REPEATS, seed=self.seeds.eval,
            )
            frame = rec.call(
                "evaluation.evaluate_frame_rec", evaluate_frame_rec, loaded, loaded_cfg, split,
            )
            baseline = rec.call(
                "evaluation.random_frame_baseline", random_frame_baseline, split,
                seed=self.seeds.eval,
            )
        if rec.layers:
            rec.count("model.checkpoint_bytes", path.stat().st_size)
            probe_item_eval(rec, loaded, loaded_cfg, split, "test", TEST_NEGATIVES,
                            TEST_REPEATS, self.seeds.eval)

        checks = self.checks
        checks.expect("fit: train_loss finite every epoch",
                      all(np.isfinite(loss) for loss, _ in epochs))
        if rec.layers:
            checks.expect(
                "traced loop reproduces fit's per-epoch train_loss and valid HR bit for bit",
                self.fit_epochs is not None and epochs == self.fit_epochs,
                f"{epochs} vs {self.fit_epochs}",
            )
        else:
            self.fit_epochs = epochs
        pairs = np.array(sorted(split.test | split.validation), dtype=np.int64)
        before = score_pairs(pairs[:, 0], pairs[:, 1], params, cfg, split.base)
        after = score_pairs(pairs[:, 0], pairs[:, 1], loaded, loaded_cfg, split.base)
        checks.expect("checkpoint round trip reproduces scores bit for bit",
                      np.array_equal(before, after))
        checks.report_in_range("test item evaluation", item, len(split.test))
        checks.report_in_range("frame evaluation", frame, len(split.frame_test))
        checks.report_in_range("random frame baseline", baseline, len(split.frame_test))
        checks.expect("frame_hr1 above the random baseline", frame.hr[1] > baseline.hr[1],
                      f"{frame.hr[1]} vs {baseline.hr[1]}")
        self.quality = {
            "test_hr10": item.hr[10],
            "frame_hr1": frame.hr[1],
            "frame_baseline_hr1": baseline.hr[1],
        }

    def _traced_fit(self, rec):
        """training.fit's loop, calling the same functions with each one spanned.

        Mirrors fit's seeding, loss accumulation, validation and best-epoch
        snapshot; patience never triggers because it equals the epoch count.
        The checks compare its per-epoch figures with fit's bit for bit.
        """
        split, cfg, tcfg = self.split, self.cfg, self.tcfg
        base = split.base
        params = init_params(cfg, base)
        state = init_adam_state(params, cfg)
        sample_seq, valid_seq = np.random.SeedSequence(tcfg.seed).spawn(2)
        sample_rng = np.random.default_rng(sample_seq)
        valid_seed = int(valid_seq.generate_state(1)[0])
        best, best_hr, epochs = None, -np.inf, []
        for _ in range(tcfg.epochs):
            triples = rec.call(
                "training.sample_epoch", sample_epoch, split, tcfg.neg_ratio, sample_rng,
            )
            loss_total = 0.0
            for lo in range(0, len(triples), tcfg.batch_size):
                chunk = triples[lo: lo + tcfg.batch_size]
                loss = train_batch(rec, params, cfg, base, state, tcfg, chunk)
                loss_total += loss * len(chunk)
            report = rec.call(
                "evaluation.evaluate_item_rec:validation", evaluate_item_rec, params, cfg,
                split, k_list=(tcfg.valid_k,), n_negatives=tcfg.valid_negatives, repeats=1,
                seed=valid_seed, split_name="validation",
            )
            valid_hr = report.hr[tcfg.valid_k]
            epochs.append((loss_total / len(triples), valid_hr))
            if valid_hr > best_hr:
                best_hr, best = valid_hr, params.copy()
        return best, epochs

    def phase_metrics(self, steps, final):
        return {
            "fit_s": (median_phase(steps, "fit"), "s"),
            "eval_s": (median_phase(steps, "eval"), "s"),
            "test_hr10": (self.quality["test_hr10"], "ratio"),
            "frame_hr1": (self.quality["frame_hr1"], "ratio"),
            "frame_baseline_hr1": (self.quality["frame_baseline_hr1"], "ratio"),
        }


class MTrain(Workload):
    size = "M"
    step_phases = ("train",)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.split = load_handoff(work)
        self.tcfg = TrainConfig(lr=LR, seed=self.seeds.train)
        self.params = init_params(self.cfg, self.split.base)
        self.state = init_adam_state(self.params, self.cfg)
        self.rng = np.random.default_rng(self.seeds.train)

    def step(self, rec):
        tcfg, bs = self.tcfg, self.tcfg.batch_size
        losses = []
        with rec.phase("train"):
            triples = rec.call(
                "training.sample_epoch", sample_epoch, self.split, tcfg.neg_ratio, self.rng,
            )
            for lo in range(0, M_BATCHES * bs, bs):
                losses.append(train_batch(
                    rec, self.params, self.cfg, self.split.base, self.state, tcfg,
                    triples[lo: lo + bs],
                ))
        self.checks.expect("batch losses finite", np.isfinite(losses).all())
        self.checks.expect(
            "parameters finite",
            all(np.isfinite(t).all() for t in self.params.tensors().values()),
        )

    def phase_metrics(self, steps, final):
        triples = M_BATCHES * self.tcfg.batch_size
        return {"train_triples_per_s": (triples / median_phase(steps, "train"), "1/s")}


class MEval(Workload):
    size = "M"
    step_phases = ("load", "valid_eval", "frame_eval")
    probed_eval = "validation"

    def step(self, rec):
        work, seed = self.work, self.seeds.eval
        with rec.phase("load"):
            dataset = rec.call(
                "data.load_dataset", load_dataset, work / RATINGS_FILE,
                work / FRAMES_FILE, work / FEATURES_FILE,
            )
            split = rec.call("data.load_split", load_split, dataset, work)
            params, cfg, digest = rec.call(
                "model.load_checkpoint", load_checkpoint, work / CHECKPOINT,
            )
        with rec.phase("valid_eval"):
            valid = rec.call(
                "evaluation.evaluate_item_rec:validation", evaluate_item_rec, params, cfg,
                split, k_list=(VALID_K,), n_negatives=VALID_NEGATIVES, repeats=1, seed=seed,
                split_name="validation",
            )
        with rec.phase("frame_eval"):
            frame = rec.call(
                "evaluation.evaluate_frame_rec", evaluate_frame_rec, params, cfg, split,
            )
        if rec.layers:
            probe_item_eval(rec, params, cfg, split, "validation", VALID_NEGATIVES, 1, seed)

        checks = self.checks
        checks.expect("checkpoint digest matches the loaded dataset",
                      digest == dataset_digest(dataset))
        pairs = np.array(sorted(split.validation), dtype=np.int64)
        written = init_params(self.cfg, dataset)
        checks.expect(
            "checkpoint round trip reproduces scores bit for bit",
            cfg == self.cfg and np.array_equal(
                score_pairs(pairs[:, 0], pairs[:, 1], written, self.cfg, dataset),
                score_pairs(pairs[:, 0], pairs[:, 1], params, cfg, dataset),
            ),
        )
        checks.report_in_range("validation item evaluation", valid, len(split.validation))
        checks.report_in_range("frame evaluation", frame, len(split.frame_test))
        self.loaded = split, params, cfg

    def final(self, rec):
        """The CLI's 1000-negative test evaluation, attempted once when asked for.

        It fails today with a MemoryError (a known defect).  It stays out of
        the step so that its fix does not read as a slowdown of the step.
        Its peak RSS (the process's peak so far) is kept apart from the
        steps' peak, which is read before this runs.
        """
        split, params, cfg = self.loaded
        try:
            with rec.phase("test_eval"):
                test = rec.call(
                    "evaluation.evaluate_item_rec:test", evaluate_item_rec, params, cfg,
                    split, n_negatives=TEST_NEGATIVES, repeats=TEST_REPEATS,
                    seed=self.seeds.eval,
                )
            self.checks.report_in_range("test item evaluation", test, len(split.test))
        except MemoryError:
            pass  # recorded as a failed operation
        self.test_eval_peak_rss_mb = peak_rss_mb()

    def phase_metrics(self, steps, final):
        out = {
            "load_s": (median_phase(steps, "load"), "s"),
            "valid_eval_s": (median_phase(steps, "valid_eval"), "s"),
            "frame_eval_s": (median_phase(steps, "frame_eval"), "s"),
        }
        if final.attempted:
            out["test_eval_s"] = (
                None if final.errors else final.phase_seconds("test_eval"), "s",
            )
            out["test_eval_peak_rss_mb"] = (self.test_eval_peak_rss_mb, "MB")
        return out


WORKLOADS = {"s_pipeline": SPipeline, "m_train": MTrain, "m_eval": MEval}


def median_phase(steps, name: str) -> float:
    return median([s.phase_seconds(name) for s in steps])


if __name__ == "__main__":
    name, seed, work, layers, rep = sys.argv[1:]
    print(json.dumps(set_up(name, int(seed), work, layers == "1", int(rep))))
