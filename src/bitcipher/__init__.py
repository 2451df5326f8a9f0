"""Deterministic bit-cipher word embeddings.

Backprop-free token vectors of user-chosen dimension: tokens are ranked by
corpus frequency, assigned unique b-bit patterns in a discernability order,
blended with a frequency-derived noise distribution, and optionally
aggregated over co-occurrence windows (Sum or Cat), post-processed, and
probed with a small tagging classifier.
"""

__version__ = "0.1.0"

from .cipher import (CapacityError, CipherPair, build_cipher,
                     build_noise_model, cipher_capacity, compute_beta,
                     compute_sigma, load_cipher, noisy_vectors, save_cipher)
from .cooc import (ContextConfig, accumulate_cooccurrence, aggregate,
                   embed_corpus)
from .corpus import (EncodingError, FrequencyTable, TokenizerConfig,
                     Vocabulary, build_vocabulary, count_corpus,
                     count_frequencies, read_frequency_table,
                     stream_documents, stream_tokens, write_frequency_table)
from .embedio import (OOV_TOKEN, read_embeddings, read_embeddings_binary,
                      read_embeddings_text, row_tokens,
                      vocabulary_from_tokens, write_embeddings_binary,
                      write_embeddings_text)
from .manifest import sha256_file, write_manifest
from .postprocess import (PostprocReport, center_and_normalize, pipeline,
                          whiten)
from .probe import (LabeledTokenDataset, ProbeHyperparams, ProbeModel,
                    evaluate_probe, load_conll, train_probe)

__all__ = [
    "__version__",
    "CapacityError", "CipherPair", "build_cipher", "build_noise_model",
    "cipher_capacity", "compute_beta", "compute_sigma", "load_cipher",
    "noisy_vectors", "save_cipher",
    "ContextConfig", "accumulate_cooccurrence", "aggregate", "embed_corpus",
    "EncodingError", "FrequencyTable", "TokenizerConfig", "Vocabulary",
    "build_vocabulary", "count_corpus", "count_frequencies",
    "read_frequency_table", "stream_documents", "stream_tokens",
    "write_frequency_table",
    "OOV_TOKEN", "read_embeddings", "read_embeddings_binary",
    "read_embeddings_text", "row_tokens", "vocabulary_from_tokens",
    "write_embeddings_binary", "write_embeddings_text",
    "sha256_file", "write_manifest",
    "PostprocReport", "center_and_normalize", "pipeline", "whiten",
    "LabeledTokenDataset", "ProbeHyperparams", "ProbeModel",
    "evaluate_probe", "load_conll", "train_probe",
]
