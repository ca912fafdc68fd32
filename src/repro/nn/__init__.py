"""``repro.nn`` — from-scratch numpy deep-learning substrate.

The ReVeil paper trains PyTorch models; this environment has no PyTorch,
so the reproduction ships its own reverse-mode autograd engine, layer
library, optimizers and schedulers.  The public surface mirrors the
familiar ``torch``/``torch.nn`` split:

- :mod:`repro.nn.tensor` — :class:`Tensor` with autograd, ``no_grad``, and
  the op table every op is defined in (``OPS``, dispatched by ``apply``).
- :mod:`repro.nn.functional` — conv2d / pooling / losses.
- :mod:`repro.nn.layers` — ``Conv2d``, ``BatchNorm2d``, ``Linear``, ...
- :mod:`repro.nn.optim` — ``Adam`` (paper recipe), ``SGD``.
- :mod:`repro.nn.scheduler` — ``CosineAnnealingLR`` (paper recipe).
- :mod:`repro.nn.threading` — intra-op thread pool for the conv kernels.
- :mod:`repro.nn.fold` — eval-time BatchNorm folding (inference fast path).
- :mod:`repro.nn.graph` — compiled inference graphs (``compile`` /
  ``prepare_for_inference``): trace → fuse → arena.
"""

from . import fold
from . import functional
from . import graph
from . import init
from . import threading
from .fold import (FoldedModelCache, fold_batchnorm, inference_mode,
                   shared_folded_cache)
from .graph import CompiledModel, TraceError, compile, prepare_for_inference
from .layers import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Dropout,
                     Flatten, GlobalAvgPool2d, Identity, Linear, MaxPool2d,
                     ReLU, ReLU6, Sigmoid, SiLU, Tanh)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .scheduler import ConstantLR, CosineAnnealingLR, LRScheduler, StepLR
from .serialization import (load_state, restore, save_state, snapshot,
                            state_nbytes)
from .tensor import Tensor, concat, ensure_tensor, is_grad_enabled, no_grad, stack
from .threading import (get_intra_op_threads, intra_op_threads,
                        set_intra_op_threads, shutdown_intra_op_pool)

manual_seed = init.manual_seed

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "ensure_tensor", "stack", "concat",
    "Module", "Parameter", "Sequential", "ModuleList",
    "Linear", "Conv2d", "BatchNorm2d", "BatchNorm1d", "ReLU", "ReLU6",
    "Sigmoid", "SiLU", "Tanh", "Dropout", "MaxPool2d", "AvgPool2d",
    "GlobalAvgPool2d", "Flatten", "Identity",
    "Optimizer", "SGD", "Adam",
    "LRScheduler", "CosineAnnealingLR", "StepLR", "ConstantLR",
    "snapshot", "restore", "save_state", "load_state", "state_nbytes",
    "functional", "init", "manual_seed",
    "threading", "intra_op_threads", "get_intra_op_threads",
    "set_intra_op_threads", "shutdown_intra_op_pool",
    "fold", "fold_batchnorm", "inference_mode",
    "FoldedModelCache", "shared_folded_cache",
    "graph", "compile", "CompiledModel", "TraceError",
    "prepare_for_inference",
]
