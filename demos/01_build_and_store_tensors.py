"""
Building curvature tensors and storing them as JSON
====================================================

Algebraic curvature tensors live on R^n with the full symmetries of a
Riemann tensor: antisymmetric in each index pair, symmetric under pair
exchange, and satisfying the first Bianchi identity. This script builds
a few model tensors, reads off components, and round-trips one through
the canonical JSON format.
"""

import os
import tempfile

import numpy as np

import curvop

# The round sphere of curvature 1: every sectional curvature equals 1,
# so R(i,j,i,j) = 1 for every coordinate 2-plane. Components use 1-based
# indices, matching the usual notation R_1212.
sphere = curvop.constant_curvature(4, 1.0)
print("unit S^4:  R_1212 =", sphere.component(1, 2, 1, 2))
print("           R_1234 =", sphere.component(1, 2, 3, 4))

# The Fubini-Study metric on the complex projective plane, normalized so
# holomorphic planes have sectional curvature 4 and totally real planes 1.
# The off-block component R_1234 = 2 is what makes it interesting.
cp2 = curvop.cp2_explicit()
print("CP^2:      R_1212 =", cp2.component(1, 2, 1, 2))
print("           R_1313 =", cp2.component(1, 3, 1, 3))
print("           R_1234 =", cp2.component(1, 2, 3, 4))
print("           Ricci  =", np.diag(curvop.ricci(cp2)))

# Products assemble block curvature: a unit 3-sphere times a flat line
# gives the cylinder-like geometry whose mixed planes are flat.
cyl = curvop.models.product(curvop.constant_curvature(3, 1.0), curvop.flat(1))
print("S^3 x R:   R_1212 =", cyl.component(1, 2, 1, 2),
      "  R_1414 =", cyl.component(1, 4, 1, 4))

# A mini-language builds the same models from strings; products and
# interpolations nest.
halfway = curvop.build_model("interp:(sphere:n=4,k=1)x(cp2),t=0.5")
print("halfway to CP^2: R_1234 =", halfway.component(1, 2, 3, 4))

# Tensors serialize to JSON with only the canonical components (i<j,
# k<l, (i,j) <= (k,l)); everything else is reconstructed from symmetry.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cp2.json")
    curvop.save_tensor(cp2, path)
    back = curvop.load_tensor(path)
print("JSON round trip exact:", np.array_equal(back.array, cp2.array))

# Sanity checks every tensor passes on construction: the Bianchi residual
# measures the cyclic sum, which must vanish.
print("Bianchi residual of CP^2:", cp2.bianchi_residual())
