"""Linear probes measure what the frozen activations encode.

Trains a quick segmenter at toy scale, then probes its frozen representation
with three synthetic tasks (tone pitch class, noise tilt, modulation rate).

Run from the repository root:  python demos/06_probing.py
"""

import tempfile
from pathlib import Path

from nmfseg import CorpusSpec, FrontendSettings, SnmfConfig, TrainConfig, generate_corpus, init_model
from nmfseg.probing import build_synthetic_task, eval_probe, train_probe
from nmfseg.training import pretrain_dictionary, train

work = Path(tempfile.mkdtemp(prefix="nmfseg-demo-"))
spec = CorpusSpec(seed=1, train_minutes=2, dev_minutes=0.5, test_minutes=0.5)
manifest = generate_corpus(spec, work)
settings = FrontendSettings()
dictionary = pretrain_dictionary(manifest, settings, SnmfConfig(k=32, mu=0.1, max_iters=150, seed=0))
model = init_model(d=80, k=32, c=4, seed=0)
model.attach_dictionary(dictionary)
model, _ = train(model, manifest, TrainConfig(batch_size=16, epochs=20, seed=0), settings)
print("segmenter trained at toy scale; probing its frozen activations\n")

print(f"{'task':<12} {'classes':>7} {'accuracy':>9} {'uar':>6}")
for task_name in ("tone-class", "noise-color", "am-rate"):
    train_task = build_synthetic_task(model, task_name, n_classes=3, per_class=12,
                                      seed=0, settings=settings)
    eval_task = build_synthetic_task(model, task_name, n_classes=3, per_class=12,
                                     seed=999, settings=settings)
    weights = train_probe(train_task, epochs=300, lr=1e-2, seed=0)
    result = eval_probe(weights, eval_task)
    print(f"{task_name:<12} {train_task.class_count:>7} {result.accuracy:>9.3f} {result.uar:>6.3f}")

print("\nchance level is 0.333; scores above it mean the representation keeps")
print("information the segmentation objective never asked for")
