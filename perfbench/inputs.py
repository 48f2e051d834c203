"""Seeded benchmark inputs: one cached corpus, ordered and driven per seed.

Synthesis is slow (about a second per 25-object scene, dominated by
track association), so it happens once per checkout: the corpus of
``CORPUS_SIZE`` labeled scenes plus the training split are generated
from fixed generator seeds and pickled under
``perfbench/.cache/<generator hash>/``. The generator hash covers the
source files the synthetic world is built from, so a change to the
generator invalidates the cache instead of silently reusing stale
scenes.

``--seed`` drives everything else: the corpus order (and with it the
remote partitions and which scenes the compile LRU holds), which
scenes get edit sessions, every edit, the gateway's scene popularity
and arrival times. The scene set itself is the same for every seed on
purpose: the paper's figure of merit (P@10 of the missing-track audit)
and the per-run work then do not swing with the draw of the corpus,
so the spread between runs is the program's, not the generator's.

The program under test receives only the generated scenes; the
ledger and world ground truth stay in the benchmark for the
precision check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = Path(__file__).resolve().parent / ".cache"

#: Scenes in the corpus: 3x the engine's 16-entry compile LRU.
CORPUS_SIZE = 48
#: Objects per synthesized scene (about 1.8k observations each).
N_OBJECTS = 25
#: Processes used to build the corpus.
SYNTH_PROCS = 2

#: Sources whose change must invalidate the cached corpus.
_GENERATOR_SOURCES = (
    "repro/datasets.py",
    "repro/datagen",
    "repro/labelers",
    "repro/association",
    "repro/geometry",
    "repro/core/model.py",
)


def generator_hash() -> str:
    digest = hashlib.blake2b(digest_size=8)
    digest.update(f"{CORPUS_SIZE}/{N_OBJECTS}/{CACHE_FORMAT}".encode())
    for rel in _GENERATOR_SOURCES:
        path = SRC / rel
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(SRC)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


def _profile():
    from repro.datasets import SYNTHETIC_LYFT

    return SYNTHETIC_LYFT


def _build_corpus_scene(index: int):
    from repro.datagen import SceneConfig, SceneGenerator
    from repro.datasets import build_labeled_scene

    profile = _profile()
    config = SceneConfig(n_objects_range=(N_OBJECTS, N_OBJECTS))
    world = SceneGenerator(config).generate(f"pb-{index:03d}", seed=50_000 + index)
    return build_labeled_scene(
        world, profile.vendor, profile.detector, seed=60_000 + index
    )


def _build_train():
    from repro.datasets import build_dataset

    return build_dataset(_profile(), n_val_scenes=0).train_scenes


def _dump(path: Path, value) -> None:
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


#: Bumped when the cached items change for a reason the generator
#: sources do not show (such as how ids are assigned).
CACHE_FORMAT = 2
#: First observation/error id of corpus scene 0, and the ids per scene.
ID_BASE = 10_000_000
ID_BLOCK = 100_000


def _reset_ids(index: int) -> int:
    """Start the generator's global observation and error id counters
    at a block of their own for corpus item ``index``.

    The ids would otherwise run on from whatever the process built
    before, so the same item would differ between two builds of the
    cache. Blocks keep ids unique across the corpus: the training split
    starts at 0, scene ``i`` at ``ID_BASE + i * ID_BLOCK``."""
    import itertools

    from repro.core import model
    from repro.labelers import errors

    start = 0 if index < 0 else ID_BASE + index * ID_BLOCK
    model._obs_counter = itertools.count(start)
    errors._error_counter = itertools.count(start)
    return start


def _synth(directory: Path, indices: list[int]) -> None:
    """Build and pickle corpus items (``-1`` is the training split)."""
    from repro.core import model

    for index in indices:
        start = _reset_ids(index)
        if index < 0:
            _dump(directory / "train.pkl", _build_train())
        else:
            _dump(directory / f"scene-{index:03d}.pkl", _build_corpus_scene(index))
        used = next(model._obs_counter) - start
        if used > (ID_BASE if index < 0 else ID_BLOCK):
            raise RuntimeError(f"corpus item {index} used {used} ids, past its block")


def ensure_corpus() -> Path:
    """The cache directory, with the corpus and training split built."""
    directory = CACHE / generator_hash()
    directory.mkdir(parents=True, exist_ok=True)
    wanted = [-1] + list(range(CORPUS_SIZE))
    missing = [
        i
        for i in wanted
        if not (
            directory / ("train.pkl" if i < 0 else f"scene-{i:03d}.pkl")
        ).exists()
    ]
    if missing:
        # Plain child processes, each waited for: nothing (such as a
        # multiprocessing resource tracker) outlives the run.
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, str(directory)]
                + [str(i) for i in missing[k::SYNTH_PROCS]]
            )
            for k in range(min(SYNTH_PROCS, len(missing)))
        ]
        try:
            codes = [proc.wait() for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise RuntimeError(f"corpus synthesis failed (exit codes {codes})")
    return directory


def _load(path: Path):
    # Only files this module wrote (see _dump) are ever unpickled.
    with open(path, "rb") as fh:
        return pickle.load(fh)


@dataclasses.dataclass
class Inputs:
    """Everything one run needs, derived from one seed."""

    seed: int
    rng: random.Random
    train: list
    labeled: list  # LabeledScene, corpus order

    @property
    def scenes(self) -> list:
        return [ls.scene for ls in self.labeled]


def load_inputs(seed: int) -> Inputs:
    directory = ensure_corpus()
    rng = random.Random(seed)
    order = rng.sample(range(CORPUS_SIZE), CORPUS_SIZE)
    return Inputs(
        seed=seed,
        rng=rng,
        train=_load(directory / "train.pkl"),
        labeled=[_load(directory / f"scene-{i:03d}.pkl") for i in order],
    )


def copy_scene(scene):
    """An independent deep copy (sessions mutate the scene they own)."""
    from repro.core.model import Scene

    return Scene.from_dict(scene.to_dict())


class EditPlan:
    """Seeded ``ReplaceObservation`` corrections for one scene.

    Targets visit the tracks round robin (in a seeded order, a seeded
    observation each): an edit's cost follows its track's length, so
    every run edits the same mix of short and long tracks and only the
    observations differ. Once every observation was edited the targets
    repeat in the same order; a session's edits are sent one at a time,
    so the program and the client apply them in the same order. Edits
    the program acknowledged are applied to the plan's own copy of the
    scene (the client's view, :meth:`acknowledge`), which the output
    check later compiles from scratch.
    """

    def __init__(self, scene, rng: random.Random):
        self.original = scene
        self.fresh = None  # the session's own copy, per set-up
        self.copy = copy_scene(scene)
        tracks = list(self.copy.tracks)
        rng.shuffle(tracks)
        per_track = []
        for track in tracks:
            obs_ids = [obs.obs_id for obs in track.observations]
            rng.shuffle(obs_ids)
            per_track.append([(track.track_id, o) for o in obs_ids])
        depth = max(len(t) for t in per_track)
        targets = [
            t[i] for i in range(depth) for t in per_track if i < len(t)
        ]
        targets.reverse()  # next_edit pops from the end
        self._order = targets
        self._targets = list(targets)
        self._rng = rng

    def next_edit(self):
        from repro.serving import ReplaceObservation

        if not self._targets:
            self._targets = list(self._order)
        track_id, obs_id = self._targets.pop()
        track = next(t for t in self.copy.tracks if t.track_id == track_id)
        old = next(o for o in track.observations if o.obs_id == obs_id)
        box = dataclasses.replace(
            old.box,
            x=old.box.x + self._rng.uniform(-0.3, 0.3),
            y=old.box.y + self._rng.uniform(-0.3, 0.3),
        )
        return ReplaceObservation(
            track_id=track_id,
            obs_id=obs_id,
            observation=dataclasses.replace(old, box=box),
        )

    def acknowledge(self, edit) -> None:
        """The program applied ``edit``: mirror it in the client's copy."""
        edit.apply(self.copy)


if __name__ == "__main__":
    # Synthesis worker: ``python3 inputs.py DIRECTORY INDEX...``.
    sys.path.insert(0, str(SRC))
    _synth(Path(sys.argv[1]), [int(i) for i in sys.argv[2:]])
