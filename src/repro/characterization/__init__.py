"""Section III characterization tools: reuse intensity and distances."""

from .reuse import (
    NUM_BINS,
    ReuseBins,
    bin_index,
    inter_tb_bins,
    inter_tb_intensity,
    intra_tb_bins,
    intra_tb_intensity,
    tb_page_profiles,
)
from .reuse_distance import (
    FenwickTree,
    ReuseDistanceAnalyzer,
    cdf_points,
    distance_bucket,
    fraction_within,
    interleaved_distances,
    isolated_distances,
)
from .warp_reuse import WarpReuseSummary, intra_warp_bins, warp_reuse_summary

__all__ = [
    "FenwickTree",
    "NUM_BINS",
    "ReuseBins",
    "ReuseDistanceAnalyzer",
    "WarpReuseSummary",
    "bin_index",
    "cdf_points",
    "distance_bucket",
    "fraction_within",
    "inter_tb_bins",
    "inter_tb_intensity",
    "interleaved_distances",
    "intra_tb_bins",
    "intra_tb_intensity",
    "intra_warp_bins",
    "isolated_distances",
    "tb_page_profiles",
    "warp_reuse_summary",
]
