"""Anisotropic Riemannian manifold graphs and spectral operators on SE(2)
and SO(3), with the plane and sphere as single-slice degenerate cases."""

from .groups import GroupKind, Metric
from .sampling import GridKind, GridSpec, VertexSet, build_vertices, grid_se2, icosphere
from .graph import (Laplacian, ManifoldGraph, build_graph, default_knn,
                    edge_weights, fixed_lambda_max, laplacian, make_metric,
                    power_lambda_max, rescale, sample_edges, sample_vertices,
                    slice_neighbor_fractions, xi_from_alpha)
from .spectral import (EigenSystem, cheb_apply, cheb_terms, eigensystem,
                       equivariance_error, heat_coeffs, heat_diffuse,
                       rotation_permutation, slice_anisotropy)
from .network import (ChebConv, Dense, GlobalMaxPool, LogSoftmax,
                      Model, Pool, PoolPlan, ReLU, TrainingDiverged, Unpool,
                      build_demo, coarsen, nll_loss, oriented_bars, train_demo)
from .io import (FormatError, read_graph, read_model, read_signal, write_graph,
                 write_model, write_signal)

__version__ = "0.1.0"
