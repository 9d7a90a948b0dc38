// Package stream turns the offline batch sliding-window structures of
// internal/sw into a concurrent multi-window streaming-graph service layer.
//
// Each window is one pipeline
//
//	producers → Ingester → Multiplexer ═╦═ monitors (internal/sw)
//	                ↑             ↑     ╚═ (parallel fork-join fan-out)
//	          re-batching   uniform timestamps
//
// and a WindowRegistry owns many named windows at once, hash-sharded across
// independent locks. The moving parts:
//
//   - Ingester: accepts individual timestamped edges from many concurrent
//     producers and coalesces them into batches by count threshold and time
//     deadline. This re-batching is what makes the paper's batch bound pay
//     off: one BatchInsert of ℓ edges costs O(ℓ·lg(1+n/ℓ)) work, so feeding
//     single edges (ℓ=1) forfeits the entire lg-factor saving.
//   - WindowManager: owns a Multiplexer of monitors behind a single-writer /
//     many-reader discipline. Batch inserts and expirations are serialized
//     through one writer (Apply); scalar queries read the answers record
//     it publishes after each apply, and connected and kcert read the
//     forest under its read lock. Timestamps advance uniformly: every
//     monitor sees every arrival, so one expiry count applies to all.
//   - Multiplexer: fans one ingested batch out to one slot per structure
//     the configured monitors need: forest (one k-certificate answering
//     connectivity, k-certificate and cycle-freeness), bipartite (the
//     double cover, compared with the forest's count) and msfweight. The
//     slots are independent, so the fan-out is a parallel region
//     (internal/parallel fork-join): the write lock is held for the max of
//     the slot apply costs, not the sum.
//   - WindowRegistry: creates, lists and drops named windows at runtime.
//     The name → window table is partitioned over independent lock shards,
//     so tenants addressing different windows never contend on registry
//     state, and each window keeps its own ingester, expiry ticker and
//     RWMutex.
//   - Persistence (OpenRegistry + internal/wal): optionally, every applied
//     batch is write-ahead logged and window configs + expiry watermarks
//     live in an atomic manifest, so a crashed or restarted registry
//     rebuilds every window by replaying its unexpired arrival suffix —
//     the recent-edge property makes the suffix a complete description of
//     the window state, so no structure serialization is ever needed.
//     Checkpoints bound restart time by compacting long suffixes into
//     live-edge snapshots: recovery seeds the window from the newest valid
//     snapshot with one mega-batch apply, replays only the records after
//     it, and segment GC reclaims everything the snapshot covers.
//
// cmd/swserver wraps a registry in an HTTP JSON front-end (windows
// addressed under /windows/{name}/..., legacy single-window routes served
// by a default window); cmd/swload drives it end-to-end and measures
// sustained throughput and query latency.
package stream

import (
	"strings"
	"time"
)

// Edge is one timestamped streaming edge arrival.
type Edge struct {
	// U, V are the endpoints; both must lie in [0, n) for the window the
	// edge is submitted to. Self-loops (U == V) are dropped by the
	// WindowManager (the underlying forests reject them anyway) and
	// counted in the window stats.
	U, V int32
	// W is the edge weight, used only by the msfweight monitor. Zero or
	// negative weights are treated as 1; weights above the monitor's
	// configured maximum are clamped to it.
	W int64
	// T is the event time, used by time-based window expiry. The zero
	// value means "stamp with the ingestion clock at submit time".
	T time.Time
}

// Monitor is the sliding-window structure behind one fan-out slot. All
// slots of a window share global timestamps: each sees every arrival of
// the shared stream (BatchInsert) and the same expiry counts (BatchExpire),
// mirroring the uniform windowing discipline of internal/sw.
type Monitor interface {
	// BatchInsert appends a batch of arrivals to the monitor's window.
	BatchInsert(edges []Edge)
	// BatchExpire expires the oldest delta arrivals.
	BatchExpire(delta int)
	// summarize fills this slot's fields of an epoch's published answers.
	summarize(a *answers)
}

// Monitor names accepted in Config.Monitors.
const (
	MonitorConn      = "conn"
	MonitorBipartite = "bipartite"
	MonitorMSFWeight = "msfweight"
	MonitorKCert     = "kcert"
	MonitorCycleFree = "cyclefree"
)

// AllMonitors lists every monitor name, in canonical order.
func AllMonitors() []string {
	return []string{MonitorConn, MonitorBipartite, MonitorMSFWeight, MonitorKCert, MonitorCycleFree}
}

// SlotForest names the slot whose one k-certificate answers conn, kcert
// and cyclefree, and holds bipartite's c(G); bipartite (its double cover)
// and msfweight have slots of their own name.
const SlotForest = "forest"

// AllSlots lists every fan-out slot name, in canonical order: the names
// per-structure telemetry, quarantine records and fault paths carry.
func AllSlots() []string { return []string{SlotForest, MonitorBipartite, MonitorMSFWeight} }

// SplitMonitors parses a comma-separated monitor list ("conn, kcert") into
// names, trimming whitespace and dropping empty entries. Validation of the
// names themselves happens in NewMultiplexer.
func SplitMonitors(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}
