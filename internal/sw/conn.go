package sw

import (
	"repro/internal/core"
	"repro/internal/ordset"
	"repro/internal/wgraph"
)

// Conn is the lazy sliding-window connectivity structure SW-Conn of
// Theorem 5.1: expiry is O(1) (a watermark bump) and connectivity queries
// test the recent-edge condition on the heaviest (oldest) path edge.
type Conn struct {
	msf     *core.BatchMSF
	tau     int64         // arrivals so far
	tw      int64         // expired prefix; the window is (tw, tau]
	scratch []wgraph.Edge // conversion buffer, reused across batches
}

// NewConn returns a lazy sliding-window connectivity structure over n
// vertices.
func NewConn(n int, seed uint64) *Conn {
	return &Conn{msf: core.New(n, seed)}
}

// BatchInsert appends a batch of edge arrivals to the window.
func (c *Conn) BatchInsert(edges []StreamEdge) {
	if len(edges) == 0 {
		return
	}
	batch := c.scratch[:0]
	for _, e := range edges {
		c.tau++
		batch = append(batch, windowEdge(e.U, e.V, c.tau))
	}
	c.scratch = batch
	c.msf.BatchInsert(batch)
}

// batchInsertAt inserts arrivals with caller-assigned global timestamps
// (used when this instance receives a subset of a shared stream). The taus
// need not be sorted; the window advances to the largest one.
func (c *Conn) batchInsertAt(edges []StreamEdge, taus []int64) {
	if len(edges) == 0 {
		return
	}
	batch := c.scratch[:0]
	maxTau := c.tau
	for i, e := range edges {
		if taus[i] > maxTau {
			maxTau = taus[i]
		}
		batch = append(batch, windowEdge(e.U, e.V, taus[i]))
	}
	c.scratch = batch
	c.tau = maxTau
	c.msf.BatchInsert(batch)
}

// BatchExpire expires the oldest delta arrivals in O(1).
func (c *Conn) BatchExpire(delta int) { c.expireTo(c.tw + int64(delta)) }

func (c *Conn) expireTo(tw int64) {
	if tw > c.tau {
		tw = c.tau
	}
	if tw > c.tw {
		c.tw = tw
	}
}

// IsConnected reports whether u and v are connected using only unexpired
// edges (Lemma 5.1): they must be forest-connected and the oldest edge on
// their forest path must still be in the window.
func (c *Conn) IsConnected(u, v int32) bool {
	if u == v {
		return true
	}
	e, ok := c.msf.PathMaxEdge(u, v)
	return ok && int64(e.ID) > c.tw
}

// WindowLen returns the number of unexpired arrivals.
func (c *Conn) WindowLen() int64 { return c.tau - c.tw }

// ConnEager is SW-Conn-Eager of Theorem 5.2: it additionally keeps the
// forest edges in an ordered set keyed by arrival time so that expiry can
// physically delete expired tree edges, which makes the component count
// available in O(1).
type ConnEager struct {
	msf     *core.BatchMSF
	d       *ordset.Set // unexpired forest edges keyed by τ
	n       int
	tau     int64
	tw      int64
	guard   writerGuard     // single-writer assert (see package comment)
	scratch []wgraph.Edge   // conversion buffer, reused across batches
	idBuf   []wgraph.EdgeID // expiry delete buffer, reused across expiries
}

// NewConnEager returns an eager sliding-window connectivity structure.
func NewConnEager(n int, seed uint64) *ConnEager {
	return &ConnEager{msf: core.New(n, seed), d: ordset.New(seed ^ 0x9e37), n: n}
}

// BatchInsert appends a batch of edge arrivals to the window.
// Single-writer: mutations must be externally serialized.
func (c *ConnEager) BatchInsert(edges []StreamEdge) {
	if len(edges) == 0 {
		return
	}
	c.guard.enter()
	defer c.guard.exit()
	batch := c.scratch[:0]
	for _, e := range edges {
		c.tau++
		batch = append(batch, windowEdge(e.U, e.V, c.tau))
	}
	c.scratch = batch
	c.applyBatch(batch)
}

// batchInsertAt inserts arrivals with caller-assigned global timestamps
// (used when this instance receives a subset of a shared stream — the
// bipartite double cover and the msfweight level router). The taus need not
// be sorted; the window advances to the largest one.
func (c *ConnEager) batchInsertAt(edges []StreamEdge, taus []int64) {
	if len(edges) == 0 {
		return
	}
	batch := c.scratch[:0]
	maxTau := c.tau
	for i, e := range edges {
		if taus[i] > maxTau {
			maxTau = taus[i]
		}
		batch = append(batch, windowEdge(e.U, e.V, taus[i]))
	}
	c.scratch = batch
	c.tau = maxTau
	c.applyBatch(batch)
}

// seedFrom inserts src's live forest at its original timestamps. With
// recency weights that forest is all of src's live state (Lemma 5.1), so c
// then holds exactly the forest src holds.
func (c *ConnEager) seedFrom(src *ConnEager) {
	batch := c.scratch[:0]
	src.ForestEdges(func(e wgraph.Edge) bool {
		batch = append(batch, e)
		return true
	})
	c.scratch = batch
	c.applyBatch(batch)
}

func (c *ConnEager) applyBatch(batch []wgraph.Edge) {
	added, removed, _ := c.msf.BatchInsert(batch)
	for _, e := range removed {
		c.d.Delete(int64(e.ID))
	}
	for _, e := range added {
		c.d.Insert(int64(e.ID), e)
	}
}

// BatchExpire expires the oldest delta arrivals, physically cutting expired
// forest edges. Safe without replacement search by the recent-edge property:
// any replacement would be older and hence also expired.
// Single-writer: mutations must be externally serialized.
func (c *ConnEager) BatchExpire(delta int) {
	c.guard.enter()
	defer c.guard.exit()
	c.expireTo(c.tw + int64(delta))
}

func (c *ConnEager) expireTo(tw int64) {
	if tw > c.tau {
		tw = c.tau
	}
	if tw <= c.tw {
		return
	}
	c.tw = tw
	evicted := c.d.SplitLeq(tw)
	if len(evicted) == 0 {
		return
	}
	ids := c.idBuf[:0]
	for _, e := range evicted {
		ids = append(ids, e.ID)
	}
	c.idBuf = ids
	c.msf.BatchDelete(ids)
}

// IsConnected reports window connectivity. After eager expiry the forest
// contains only unexpired edges, so this is a plain forest query.
func (c *ConnEager) IsConnected(u, v int32) bool { return c.msf.Connected(u, v) }

// NumComponents returns the number of connected components of the window
// graph in O(1): n minus the number of unexpired forest edges.
func (c *ConnEager) NumComponents() int { return c.n - c.d.Len() }

// ForestEdges visits the unexpired spanning-forest edges in arrival order.
func (c *ConnEager) ForestEdges(fn func(e wgraph.Edge) bool) {
	c.d.ForEach(func(_ int64, e wgraph.Edge) bool { return fn(e) })
}

// WindowLen returns the number of unexpired arrivals.
func (c *ConnEager) WindowLen() int64 { return c.tau - c.tw }
