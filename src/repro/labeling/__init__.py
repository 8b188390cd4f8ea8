"""Labeling schemes: the KKKP flow labels used to identify F-light edges."""

from .flow_labels import FlowLabel, build_flow_labels, decode_heaviest

__all__ = ["FlowLabel", "build_flow_labels", "decode_heaviest"]
