"""Deterministic triangulations of the unit square and unit disk."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MeshError
from ..params import DomainGeometry, UNIT_DISK, UNIT_SQUARE


@dataclass
class Mesh:
    domain: DomainGeometry
    h: float
    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int, CCW
    boundary: np.ndarray  # (nv,) bool
    # rotation group C_N of the mesh: N, and the vertex image under the
    # rotation by 2*pi/N about the domain's centre (None when N = 1)
    rotation_order: int = 1
    rotation: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _orient_ccw(vertices, triangles):
    areas = _signed_areas(vertices, triangles)
    flip = areas < 0
    triangles[flip, 1], triangles[flip, 2] = triangles[flip, 2].copy(), triangles[flip, 1].copy()
    if np.any(_signed_areas(vertices, triangles) <= 0):
        raise MeshError("degenerate triangle (zero area)")
    return triangles


def unit_square_mesh(m: int) -> Mesh:
    """m x m grid of squares, each split along the same diagonal."""
    if m < 2:
        raise MeshError("need at least 2 cells per side")
    xs = np.linspace(0.0, 1.0, m + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) has corners v00 = i (m + 1) + j, v10, v01, v11
    v00 = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    v10, v01, v11 = v00 + m + 1, v00 + 1, v00 + m + 2
    # two triangles per cell, cell by cell
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    triangles = _orient_ccw(vertices, tris.astype(np.int32))
    eps = 1e-12
    boundary = (
        (vertices[:, 0] < eps)
        | (vertices[:, 0] > 1 - eps)
        | (vertices[:, 1] < eps)
        | (vertices[:, 1] > 1 - eps)
    )
    # the half turn about the centre reverses the vertex numbering
    half_turn = np.arange(len(vertices) - 1, -1, -1)
    return Mesh(UNIT_SQUARE, math.sqrt(2.0) / m, vertices, triangles, boundary, 2, half_turn)


def unit_disk_mesh(n_rings: int) -> Mesh:
    """Concentric rings with 6*i vertices on ring i; boundary exactly on the circle."""
    if n_rings < 2:
        raise MeshError("need at least 2 rings")
    # ring i holds 6i vertices from index 1 + 3i(i - 1) on
    ring_start = [0] + [1 + 3 * i * (i - 1) for i in range(1, n_rings + 2)]
    vertices = np.zeros((ring_start[-1], 2))
    # the 60-degree turn maps vertex j of ring i to vertex j + i (mod 6i)
    sixth_turn = np.zeros(len(vertices), dtype=np.int64)
    tris = []
    for i in range(1, n_rings + 1):
        out0, n_out = ring_start[i], 6 * i
        j = np.arange(n_out)
        th = 2.0 * math.pi * j / n_out
        vertices[out0:out0 + n_out] = np.column_stack([i / n_rings * np.cos(th), i / n_rings * np.sin(th)])
        sixth_turn[out0:out0 + n_out] = out0 + (j + i) % n_out
        if i == 1:
            tris.append(np.column_stack([np.zeros(n_out, dtype=np.int64), out0 + j, out0 + (j + 1) % n_out]))
            continue
        in0, n_in = ring_start[i - 1], 6 * (i - 1)
        # merge-walk the two rings by angle: the step past out-vertex j ends
        # at (j + 1)/n_out, the step past in-vertex l at (l + 1)/n_in, and
        # the steps go in the order of their ends, an out step first on a tie
        l = np.arange(n_in)
        out_end, in_end = (j + 1) / n_out, (l + 1) / n_in
        in_before = np.searchsorted(in_end, out_end, side="left")  # in steps before out step j
        out_before = np.searchsorted(out_end, in_end, side="right")  # out steps before in step l
        ring = np.empty((n_out + n_in, 3), dtype=np.int64)
        ring[j + in_before] = np.column_stack([in0 + in_before, out0 + j, out0 + (j + 1) % n_out])
        ring[l + out_before] = np.column_stack([in0 + l, out0 + out_before % n_out, in0 + (l + 1) % n_in])
        tris.append(ring)
    triangles = _orient_ccw(vertices, np.concatenate(tris).astype(np.int32))
    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[ring_start[n_rings]:] = True
    # longest edge over the mesh
    p = vertices[triangles]
    edges = np.concatenate(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]
    )
    h = float(np.max(np.linalg.norm(edges, axis=1)))
    return Mesh(UNIT_DISK, h, vertices, triangles, boundary, 6, sixth_turn)
