"""Explainable-by-design multilabel audio segmentation with an NMF-tied latent space.

A frame-level classifier whose latent representation is a non-negative
activation matrix tied to a pre-trained sparse-NMF frequency dictionary,
trained with a composite classification + spectrogram-reconstruction +
sparsity objective, plus the accompanying analysis suite: frame/segment
evaluation with confidence intervals, component relevance and
modularity/compactness reports, and linear probing of the frozen
representation.
"""

from .corpus import CLASS_NAMES, CorpusSpec, Manifest, generate_corpus, load_manifest
from .errors import (ConfigError, DimensionError, FormatError, IngestionError,
                     NmfsegError, NumericError)
from .evaluate import (ClassF1, F1Report, FrameDecisions, Segment, decide_frames,
                       f1_with_ci, frames_to_segments, rasterize_segments)
from .explain import (ComponentReport, RelevanceRecord, binarize, component_report,
                      component_spectrum, make_record, pool_time, relevance)
from .frontend import (AudioClip, FeatureSequence, FrontendSettings, Spectrogram, WavSamples,
                       featurize, frame_count, load_audio, log_mel, mel_filterbank, read_features,
                       read_wav, save_audio, stft_magnitude, write_features)
from .labels import label_matrix_from_range, read_label_file, write_label_file
from .network import (LabelMatrix, SegModel, bce_masked, encode, forward, init_model,
                      load_model, save_model)
from .nmf import (Activations, Dictionary, SnmfConfig, load_dictionary, nmf_loss,
                  reconstruct, save_dictionary, snmf_objective, train_snmf, update_h,
                  update_w)
from .optim import AdamState, adam_step, init_adam
from .probing import (ProbeResult, ProbeTask, build_synthetic_task, build_synthetic_tasks,
                      eval_probe, load_probe_manifest, train_probe)
from .training import (TrainConfig, encode_rows, evaluate_split, mean_activation_l1,
                       pretrain_dictionary, reconstruction_error, train)

__version__ = "0.1.0"
