// Package repro is a Go reproduction of "Work-efficient Batch-incremental
// Minimum Spanning Trees with Applications to the Sliding Window Model"
// (Anderson, Blelloch, Tangwongsan — SPAA 2020, arXiv:2002.05710).
//
// It exposes the repository's public API by re-exporting the internal
// packages:
//
//   - BatchMSF — the batch-incremental minimum spanning forest of
//     Theorem 1.1 (internal/core): BatchInsert processes l edges in
//     O(l·lg(1+n/l)) expected work via compressed path trees over
//     batch-dynamic rake-compress trees.
//   - The sliding-window structures of Theorem 1.2 (internal/sw):
//     connectivity (lazy and eager), bipartiteness, (1+ε)-approximate MSF
//     weight, k-certificates, cycle-freeness and ε-cut-sparsifiers, all
//     under batch inserts and batch expirations with global timestamps.
//   - The incremental-model structures of Table 1 column 1 (internal/inc).
//   - The streaming service layer (internal/stream): concurrent
//     ingest/query pipelines over the sliding-window structures, many named
//     windows managed by one registry with parallel monitor fan-out, served over HTTP by cmd/swserver and load-tested by
//     cmd/swload.
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// the stream subsystem's batching/concurrency design (§5), and
// EXPERIMENTS.md for running and recording the benchmark sweeps.
package repro

import (
	"repro/internal/core"
	"repro/internal/inc"
	"repro/internal/stream"
	"repro/internal/sw"
	"repro/internal/wgraph"
)

// Edge is a weighted undirected edge. ID must be unique for the lifetime of
// a structure; (W, ID) is the strict total order used everywhere, making
// the minimum spanning forest unique.
type Edge = wgraph.Edge

// EdgeID identifies an edge.
type EdgeID = wgraph.EdgeID

// BatchMSF is the batch-incremental minimum spanning forest (Theorem 1.1).
// It reuses its scratch across batches, so the added, removed and rejected
// slices BatchInsert returns stay valid only until the next BatchInsert or
// BatchDelete on the same instance.
type BatchMSF = core.BatchMSF

// NewBatchMSF returns an empty batch-incremental MSF over n vertices.
func NewBatchMSF(n int, seed uint64) *BatchMSF { return core.New(n, seed) }

// StreamEdge is an unweighted sliding-window edge arrival.
type StreamEdge = sw.StreamEdge

// WeightedStreamEdge is a weighted sliding-window edge arrival.
type WeightedStreamEdge = sw.WeightedStreamEdge

// SWConn is lazy sliding-window connectivity (Theorem 5.1).
type SWConn = sw.Conn

// NewSWConn returns a lazy sliding-window connectivity structure.
func NewSWConn(n int, seed uint64) *SWConn { return sw.NewConn(n, seed) }

// SWConnEager is sliding-window connectivity with O(1) component counting
// (Theorem 5.2): an order-1 k-certificate.
type SWConnEager = sw.KCert

// NewSWConnEager returns an eager sliding-window connectivity structure.
func NewSWConnEager(n int, seed uint64) *SWConnEager { return sw.NewConnEager(n, seed) }

// SWBipartite is sliding-window bipartiteness (Theorem 5.3).
type SWBipartite = sw.Bipartite

// NewSWBipartite returns a sliding-window bipartiteness monitor.
func NewSWBipartite(n int, seed uint64) *SWBipartite { return sw.NewBipartite(n, seed) }

// SWApproxMSF is the sliding-window (1+ε)-approximate MSF weight structure
// (Theorem 5.4).
type SWApproxMSF = sw.ApproxMSF

// NewSWApproxMSF returns an approximate MSF weight monitor for weights in
// [1, maxWeight].
func NewSWApproxMSF(n int, eps float64, maxWeight int64, seed uint64) *SWApproxMSF {
	return sw.NewApproxMSF(n, eps, maxWeight, seed)
}

// SWKCert is the sliding-window k-certificate (Theorem 5.5).
type SWKCert = sw.KCert

// NewSWKCert returns a sliding-window k-certificate structure.
func NewSWKCert(n, k int, seed uint64) *SWKCert { return sw.NewKCert(n, k, seed) }

// SWCycleFree is sliding-window cycle detection (Theorem 5.6): a
// 2-certificate answering HasCycle from its second forest.
type SWCycleFree = sw.KCert

// NewSWCycleFree returns a sliding-window cycle monitor.
func NewSWCycleFree(n int, seed uint64) *SWCycleFree { return sw.NewCycleFree(n, seed) }

// SWSparsifier is the sliding-window ε-cut-sparsifier (Theorem 5.8).
type SWSparsifier = sw.Sparsifier

// SparsifierConfig tunes the sparsifier; zero values select defaults.
type SparsifierConfig = sw.SparsifierConfig

// SparseEdge is a sparsifier output edge.
type SparseEdge = sw.SparseEdge

// NewSWSparsifier returns a sliding-window cut sparsifier.
func NewSWSparsifier(n int, cfg SparsifierConfig, seed uint64) *SWSparsifier {
	return sw.NewSparsifier(n, cfg, seed)
}

// StreamService is the concurrent streaming-graph pipeline
// (producers → ingester → window manager → monitors) of internal/stream.
type StreamService = stream.Service

// StreamServiceConfig assembles a StreamService.
type StreamServiceConfig = stream.ServiceConfig

// StreamWindowConfig describes a managed window (vertex count, monitors,
// count- and/or time-based expiry policy).
type StreamWindowConfig = stream.WindowConfig

// StreamIngesterConfig tunes the re-batching ingester (batch threshold,
// flush deadline, queue depth).
type StreamIngesterConfig = stream.IngesterConfig

// ServiceEdge is one timestamped streaming edge arrival.
type ServiceEdge = stream.Edge

// NewStreamService builds and starts a streaming service pipeline.
func NewStreamService(cfg StreamServiceConfig) (*StreamService, error) {
	return stream.NewService(cfg)
}

// StreamServer is the HTTP JSON front-end used by cmd/swserver.
type StreamServer = stream.Server

// NewStreamServer wraps a StreamService in the HTTP JSON front-end as the
// default window of a single-window registry.
func NewStreamServer(svc *StreamService) *StreamServer { return stream.NewServer(svc) }

// StreamWindowRegistry manages many named streaming windows, resolved by
// name without a lock.
type StreamWindowRegistry = stream.WindowRegistry

// StreamRegistryConfig tunes a StreamWindowRegistry (window cap, template
// config new windows inherit from, durability, telemetry).
type StreamRegistryConfig = stream.RegistryConfig

// StreamWindowInfo is a public snapshot of one registered window.
type StreamWindowInfo = stream.WindowInfo

// NewStreamWindowRegistry returns an empty window registry.
func NewStreamWindowRegistry(cfg StreamRegistryConfig) *StreamWindowRegistry {
	return stream.NewRegistry(cfg)
}

// StreamPersistenceConfig enables the durability layer of a window
// registry: per-window write-ahead batch logs plus an atomic manifest,
// giving crash recovery by suffix replay.
type StreamPersistenceConfig = stream.PersistenceConfig

// StreamRecoveryReport summarizes a boot-time recovery pass (windows
// recovered, snapshot seeds, replayed log suffix, wall time).
type StreamRecoveryReport = stream.RecoveryReport

// StreamCheckpointStats summarizes one Checkpoint pass (windows covered,
// snapshots written, log segments and superseded snapshots pruned).
type StreamCheckpointStats = stream.CheckpointStats

// StreamPersistenceStats is the /stats snapshot of the durability layer.
type StreamPersistenceStats = stream.PersistenceStats

// StreamQuerySummary is one consistent multi-monitor read: every answer
// comes from the answers record published at one apply epoch.
type StreamQuerySummary = stream.QuerySummary

// OpenStreamRegistry builds a registry from its durable state: each
// manifest window is seeded from its newest valid live-edge snapshot
// (when one exists) and the unexpired log suffix after it is replayed;
// with a nil Persistence config it degenerates to
// NewStreamWindowRegistry.
func OpenStreamRegistry(cfg StreamRegistryConfig) (*StreamWindowRegistry, *StreamRecoveryReport, error) {
	return stream.OpenRegistry(cfg)
}

// StreamServerConfig tunes the HTTP front-end (default window name, body
// size cap).
type StreamServerConfig = stream.ServerConfig

// NewStreamRegistryServer wraps a window registry in the HTTP JSON
// front-end: every window is addressable under /windows/{name}/..., and
// the legacy single-window routes serve the default window.
func NewStreamRegistryServer(reg *StreamWindowRegistry, cfg StreamServerConfig) *StreamServer {
	return stream.NewRegistryServer(reg, cfg)
}

// IncConn is incremental (insert-only) connectivity with component counting
// via batch union-find (Table 1 column 1).
type IncConn = inc.Conn

// NewIncConn returns an incremental connectivity structure.
func NewIncConn(n int) *IncConn { return inc.NewConn(n) }

// IncBipartite is incremental bipartiteness.
type IncBipartite = inc.Bipartite

// NewIncBipartite returns an incremental bipartiteness monitor.
func NewIncBipartite(n int) *IncBipartite { return inc.NewBipartite(n) }

// IncCycleFree is incremental cycle detection.
type IncCycleFree = inc.CycleFree

// NewIncCycleFree returns an incremental cycle monitor.
func NewIncCycleFree(n int) *IncCycleFree { return inc.NewCycleFree(n) }

// IncKCert is the incremental k-certificate.
type IncKCert = inc.KCert

// NewIncKCert returns an incremental k-certificate structure.
func NewIncKCert(n, k int) *IncKCert { return inc.NewKCert(n, k) }
