"""Gaussian RBF kernels and their Fock-space structure, numerically.

The library covers three settings: the complex plane, several complex
variables, and quaternions through slice-regular function theory.  It
provides the kernels in closed form, orthonormal bases, exact Fock inner
products, Gauss-Hermite quadrature, the multiplication isometry between
RBF and Fock spaces, Segal-Bargmann-type transforms, Gram matrices with
positive-semidefiniteness certification, and a property-verification suite
exposed both as a library call and through the ``rbffock verify`` CLI.
"""

from .bases import (hermite_h, hermite_psi, hermite_psi_all, rbf_basis_c,
                    rbf_basis_d, rbf_basis_q, rbf_basis_series,
                    rbf_basis_series_d)
from .gram import (GramMatrix, PsdReport, build_gram, psd_check,
                   quat_matrix_to_complex)
from .hypercomplex import (I_DEFAULT, ImaginaryUnit, Quaternion, SlicePoint,
                           embed_in_slice, intrinsic_exp_sq, slice_decompose,
                           star_exp)
from .kernels import (KERNELS, NORMALIZATIONS, KernelSpec, exponential_kernel,
                      fock_kernel_d, kernel_sum_tail_bound,
                      kernel_sum_truncated, polynomial_kernel, rbf_kernel_c,
                      rbf_kernel_d, rbf_kernel_qslice)
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, gauss_hermite,
                         integrate_rd)
from .series import (CPowerSeries, GaussCSeries, GaussSeries, QPowerSeries,
                     beta_coeffs, cauchy_mul, multi_indices, multi_order,
                     sequential_norm)
from .spaces import (BoundCheckReport, FockCSpace, FockSliceSpace, RBFCSpace,
                     RBFSliceSpace, SliceIndependenceReport, m_operator,
                     pointwise_bound_check, slice_independence_check)
from .transforms import (HermiteCoeffFunction, HermiteCoeffFunctionD,
                         hermite_basis_l2, rbf_sb_kernel, rbf_sb_kernel_d,
                         rbf_sb_image_series, rbf_sb_image_series_d,
                         rbf_sb_transform, rbf_sb_transform_d,
                         sb_image_series, sb_kernel, sb_transform)

__version__ = "0.1.0"
