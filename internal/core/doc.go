// Package core implements the NUMARCK checkpoint compression algorithm
// (Chen et al., SC 2014): error-bounded lossy compression of iterative
// scientific data by learning the distribution of relative changes
// between consecutive checkpoints.
//
// The pipeline for one checkpoint iteration is (paper §II):
//
//  1. Forward predictive coding: for each point j compute the change
//     ratio ΔD[j] = (cur[j] - prev[j]) / prev[j] (Eq. 1). Points whose
//     previous value is zero cannot form a ratio and are stored exactly.
//
//  2. Data approximation: change ratios with |ΔD| < E (the user error
//     bound) are mapped to the reserved index 0, meaning "unchanged
//     within tolerance". The remaining ratios are partitioned into
//     2^B - 1 groups by one of three strategies — equal-width binning,
//     log-scale binning, or k-means clustering seeded from the
//     equal-width histogram — and each point stores only the B-bit
//     index of its group. A group's representative ratio approximates
//     every member. Whenever |representative − ΔD[j]| > E the point is
//     marked incompressible and its exact value is stored, which is how
//     NUMARCK turns a best-effort approximation into a guaranteed
//     point-wise error bound.
//
//  3. Restart: a reconstructed value is either the stored exact value
//     or prev'[j] · (1 + representative), replayed checkpoint by
//     checkpoint on top of the last full (lossless) checkpoint (§II-D).
//
// The package exposes Encode/Decode on raw float64 slices, and
// EncodeChunks, the one encode driver that Encode runs as a single
// chunk and the streaming encoder (internal/chunk) runs over windows of
// re-readable sources; the higher-level chained checkpoint store lives
// in internal/checkpoint and the public façade in the root numarck
// package.
package core
