"""Navigational Programming runtime: messengers, IR, interpreters."""

from . import ir, kernels
from .interp import Interp, IRMessenger
from .messenger import Messenger

__all__ = [
    "Messenger",
    "Interp",
    "IRMessenger",
    "ir",
    "kernels",
]
