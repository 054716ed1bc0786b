"""Text encoder + frozen molecule decoder + cross-attention adapter stack."""

from chemlinker.adapternet.autograd import Tensor, layer_norm
from chemlinker.adapternet.checkpoint import load_checkpoint, save_checkpoint
from chemlinker.adapternet.model import (
    DecodeCache,
    ModelParams,
    TrainConfig,
    adapter_attend,
    adapter_ffn,
    init_model,
)
from chemlinker.adapternet.training import (
    batch_loss,
    grad_check,
    noam_lr,
    pretrain_decoder,
    teacher_forced_loss,
    train_adapter,
)
from chemlinker.adapternet.vocab import (
    Vocab,
    smiles_char_vocab,
    word_vocab,
)

__all__ = [
    "Tensor", "layer_norm",
    "ModelParams", "TrainConfig", "init_model",
    "adapter_attend", "adapter_ffn",
    "DecodeCache",
    "teacher_forced_loss", "batch_loss", "noam_lr",
    "train_adapter", "pretrain_decoder", "grad_check",
    "save_checkpoint", "load_checkpoint",
    "Vocab", "smiles_char_vocab", "word_vocab",
]
