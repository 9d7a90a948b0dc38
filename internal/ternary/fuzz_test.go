package ternary

import (
	"slices"
	"testing"

	"repro/internal/linkcut"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// FuzzForestBatches decodes bytes into at most 64 batches of cuts plus
// inserts on n <= 16 vertices and checks the adapter after every batch:
// Validate, Connected and PathMax for all pairs against a link-cut forest,
// and NumComponents against union-find. Endpoints lean towards vertex 0,
// so its gadget grows chains past degree 8 and drains them again. The batch
// cap bounds the work per input, however long.
//
// Encoding: byte 0 picks n in [2, 16]. Each batch starts with a header
// byte h: h&7 cuts of one byte each, naming a live edge by its index in
// insertion order, then h>>3 inserts of three bytes each: u and v (a byte
// below 128 is vertex 0, any other is the byte mod n) and a weight byte
// mod 8, so equal weights are common and ties fall to the ID. Inserts that
// are loops or would close a cycle are skipped.
func FuzzForestBatches(f *testing.F) {
	const maxBatches = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%15)
		data = data[1:]
		end := func(b byte) int32 {
			if b < 128 {
				return 0
			}
			return int32(int(b) % n)
		}
		fo := New(n, 17)
		lc := linkcut.New(n)
		var live []wgraph.Edge // insertion order
		next := wgraph.EdgeID(1)
		for batch := 0; batch < maxBatches && len(data) > 0; batch++ {
			h := data[0]
			data = data[1:]
			var cuts []wgraph.EdgeID
			for j := 0; j < int(h&7) && len(data) > 0 && len(live) > 0; j++ {
				i := int(data[0]) % len(live)
				data = data[1:]
				cuts = append(cuts, live[i].ID)
				lc.Cut(live[i].ID)
				live = slices.Delete(live, i, i+1)
			}
			uf := unionfind.New(n)
			for _, e := range live {
				uf.Union(e.U, e.V)
			}
			var ins []wgraph.Edge
			for j := 0; j < int(h>>3) && len(data) >= 3; j++ {
				e := wgraph.Edge{ID: next, U: end(data[0]), V: end(data[1]), W: int64(data[2] % 8)}
				data = data[3:]
				if e.U == e.V || !uf.Union(e.U, e.V) {
					continue
				}
				next++
				ins = append(ins, e)
				live = append(live, e)
				lc.Link(e)
			}

			fo.BatchUpdate(ins, cuts)
			if err := fo.Validate(); err != nil {
				t.Fatalf("batch %d (cuts %v, inserts %v): %v", batch, cuts, ins, err)
			}
			for u := range int32(n) {
				for v := range int32(n) {
					if got, want := fo.Connected(u, v), lc.Connected(u, v); got != want {
						t.Fatalf("batch %d: Connected(%d,%d)=%v, link-cut %v", batch, u, v, got, want)
					}
					gk, gok := fo.PathMax(u, v)
					we, wok := lc.PathMax(u, v)
					if gok != wok || (gok && gk != wgraph.KeyOf(we)) {
						t.Fatalf("batch %d: PathMax(%d,%d)=(%v,%v), link-cut (%v,%v)", batch, u, v, gk, gok, wgraph.KeyOf(we), wok)
					}
				}
			}
			ufc := unionfind.New(n)
			for _, e := range live {
				ufc.Union(e.U, e.V)
			}
			if got, want := fo.NumComponents(), ufc.NumComponents(); got != want {
				t.Fatalf("batch %d: NumComponents=%d, union-find %d", batch, got, want)
			}
		}
	})
}
