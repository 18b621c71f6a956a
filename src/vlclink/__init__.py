"""Serially concatenated FEC/line-code chain for visible light links."""

from .channel import awgn, ebn0_to_sigma2, ook_modulate
from .codes import (FramingError, LutCodeSpec, NO_PUNCTURE, PuncturePattern,
                    RATE_23_PUNCTURE, TrellisSpec, apply_puncture,
                    build_4b6b, build_bmc, build_manchester, build_outer_cc,
                    build_split_phase, encode, encode_lut, insert_erasures)
from .dimming import DimmingConfig, dim_decode, dim_encode, plan_dimming
from .exitchart import (ExitCurve, ThresholdResult, find_threshold,
                        inner_curve, j_function, j_inverse, measure_mi,
                        outer_curve, record_trajectory)
from .pipeline import (ChainConfig, make_chain, make_interleaver, receive,
                       transmit)
from .siso import bcjr_decode, bcjr_extrinsic, map_lut

__version__ = "0.1.0"
