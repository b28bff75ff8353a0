"""Generate a small corpus, pretrain the codebook, and train the segmenter.

Uses a reduced scale so it finishes in about a minute; see demo 07 for the
full command-line pipeline.

Run from the repository root:  python demos/03_train_segmenter.py
"""

import tempfile
from pathlib import Path

from nmfseg import (CorpusSpec, FrontendSettings, SnmfConfig, TrainConfig, generate_corpus,
                    init_model, save_model)
from nmfseg.training import evaluate_split, pretrain_dictionary, train

work = Path(tempfile.mkdtemp(prefix="nmfseg-demo-"))

spec = CorpusSpec(seed=7, train_minutes=4, dev_minutes=1, test_minutes=1)
manifest = generate_corpus(spec, work / "corpus")
print(f"corpus: {len(manifest.rows)} clips under {work / 'corpus'}")

settings = FrontendSettings()  # 512-point STFT, 80 mel bands, 20 ms hop
dictionary = pretrain_dictionary(manifest, settings, SnmfConfig(k=32, mu=0.1, max_iters=200, seed=0))
print(f"dictionary: {dictionary.freq_bins} bins x {dictionary.components} components, "
      f"{len(dictionary.objective_trace) - 1} training iterations")

model = init_model(d=settings.n_mels, k=dictionary.components, c=4, seed=0)
model.attach_dictionary(dictionary)
print(f"model: {model.parameter_count()} trainable parameters "
      f"({model.n_blocks} blocks x {len(model.dilations)} dilated conv layers)")

cfg = TrainConfig(alpha=10, beta=1, gamma=0.1, batch_size=16, epochs=100, seed=0)
model, trace = train(model, manifest, cfg, settings)
for entry in trace[::20] + [trace[-1]]:
    f1 = " ".join(f"{k}={v:.2f}" for k, v in entry["dev_f1"].items())
    print(f"  epoch {entry['epoch']:3d}: loss {entry['train_total']:9.1f}  dev {f1}")
print(f"best dev epoch: {trace[-1]['best_epoch']}")

report = evaluate_split(model, manifest, "test", settings)
print("held-out test F1:", {k: round(v.f1, 3) for k, v in report.per_class.items()})
print("(scores keep climbing with more audio and epochs; the default desk settings")
print(" use 20 minutes of training audio and 120 epochs)")

save_model(model, work / "model.nsm")
print(f"checkpoint written to {work / 'model.nsm'}")
