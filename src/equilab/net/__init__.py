"""Small dense/conv networks with weight conditioning and normalizers."""

from equilab.net.layers import Conv2dSpec, DenseSpec
from equilab.net.network import Network
from equilab.net.train import TrainTrace, evaluate, loss_and_gradients, train

__all__ = [
    "Conv2dSpec",
    "DenseSpec",
    "Network",
    "TrainTrace",
    "evaluate",
    "loss_and_gradients",
    "train",
]
