package repro

import (
	"testing"
	"time"
)

// TestStreamServiceReexports drives the re-exported streaming service end
// to end: submit through the ingester, flush, query the window.
func TestStreamServiceReexports(t *testing.T) {
	svc, err := NewStreamService(StreamServiceConfig{
		Window: StreamWindowConfig{N: 100, Seed: 1, MaxArrivals: 1000},
		Ingest: StreamIngesterConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if err := svc.Submit([]ServiceEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}}); err != nil {
		t.Fatal(err)
	}
	svc.Flush()

	conn, err := svc.Window().IsConnected(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Fatal("0 and 2 should be connected through 1")
	}
	cc, err := svc.Window().NumComponents()
	if err != nil {
		t.Fatal(err)
	}
	if cc != 98 {
		t.Fatalf("components = %d, want 98", cc)
	}
	if NewStreamServer(svc).Handler() == nil {
		t.Fatal("nil HTTP handler")
	}
}

// TestStreamRegistryReexports drives the re-exported multi-window registry:
// create two windows from a template, ingest into one, drop the other.
func TestStreamRegistryReexports(t *testing.T) {
	reg := NewStreamWindowRegistry(StreamRegistryConfig{
		Template: StreamServiceConfig{
			Window: StreamWindowConfig{N: 50, Seed: 2},
			Ingest: StreamIngesterConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
		},
	})
	defer reg.Close()

	a, err := reg.Create("a", StreamServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", StreamServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit([]ServiceEdge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if conn, err := a.Window().IsConnected(0, 1); err != nil || !conn {
		t.Fatalf("registry window query: %v %v", conn, err)
	}
	if err := reg.Drop("b"); err != nil {
		t.Fatal(err)
	}
	infos := reg.List()
	if len(infos) != 1 || infos[0].Name != "a" || infos[0].Window.Arrivals != 1 {
		t.Fatalf("List = %+v", infos)
	}
	if NewStreamRegistryServer(reg, StreamServerConfig{}).Handler() == nil {
		t.Fatal("nil registry HTTP handler")
	}
}
