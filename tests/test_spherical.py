"""Tests for Cartesian -> spherical transformations."""

import numpy as np
import pytest

from conftest import pair_block

from repro.chem.basis.shells import Shell
from repro.integrals.oneelec import overlap
from reference_eri import apply_transforms, shell_transform
from repro.integrals.spherical import transform_matrix


def d_shell(pure, alpha=0.8, center=(0, 0, 0)):
    return Shell(l=2, exps=np.array([alpha]), coefs=np.array([1.0]),
                 center=np.array(center, dtype=float), atom_index=0, pure=pure)


class TestTransformMatrix:
    def test_shapes(self):
        assert transform_matrix(0).shape == (1, 1)
        assert transform_matrix(1).shape == (3, 3)
        assert transform_matrix(2).shape == (5, 6)

    def test_f_unsupported(self):
        with pytest.raises(NotImplementedError):
            transform_matrix(3)

    def test_spherical_d_orthonormal(self):
        """Pure-d self overlap must be the identity."""
        sh = d_shell(pure=True)
        s = pair_block(overlap, sh, sh)
        assert s.shape == (5, 5)
        assert np.allclose(s, np.eye(5), atol=1e-12)

    def test_cartesian_d_overlap_structure(self):
        """Cartesian d self-overlap: 1 on diagonal, 1/3 between xx/yy/zz."""
        sh = d_shell(pure=False)
        s = pair_block(overlap, sh, sh)
        assert s.shape == (6, 6)
        assert np.allclose(np.diag(s), 1.0, atol=1e-12)
        # components: xx, xy, xz, yy, yz, zz -> (0,3), (0,5), (3,5) pairs
        for i, j in ((0, 3), (0, 5), (3, 5)):
            assert s[i, j] == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestShellTransform:
    def test_identity_for_cartesian(self):
        t = shell_transform(d_shell(pure=False))
        assert np.allclose(t, np.eye(6))

    def test_rect_for_pure(self):
        assert shell_transform(d_shell(pure=True)).shape == (5, 6)


class TestApplyTransforms:
    def test_rank_mismatch_raises(self):
        sh = d_shell(pure=False)
        with pytest.raises(ValueError):
            apply_transforms(np.zeros((6, 6)), (sh, sh, sh))

    def test_two_axis(self):
        shp = d_shell(pure=True)
        shc = d_shell(pure=False, center=(0, 0, 1.0))
        block = np.arange(36, dtype=float).reshape(6, 6)
        out = apply_transforms(block, (shp, shc))
        assert out.shape == (5, 6)
        assert np.allclose(out, transform_matrix(2) @ block)

    def test_rotation_invariance_of_pure_norm(self):
        """The 5 pure-d functions stay orthonormal under center shifts."""
        sh = d_shell(pure=True, center=(1.0, -2.0, 0.5))
        s = pair_block(overlap, sh, sh)
        assert np.allclose(s, np.eye(5), atol=1e-12)
