package stream

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

func testRegistry(t *testing.T, cfg RegistryConfig) *WindowRegistry {
	t.Helper()
	if cfg.Template.Window.N == 0 {
		cfg.Template = ServiceConfig{
			Window: WindowConfig{N: 50, Seed: 9, Monitors: []string{MonitorConn}},
			Ingest: IngesterConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
		}
	}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	return reg
}

func TestRegistryLifecycle(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})

	svc, err := reg.Create("tenant-a", ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Window().N(); got != 50 {
		t.Fatalf("template N not inherited: %d", got)
	}
	if _, err := reg.Create("tenant-a", ServiceConfig{}); !errors.Is(err, ErrWindowExists) {
		t.Fatalf("duplicate create: %v, want ErrWindowExists", err)
	}
	got, ok := reg.Get("tenant-a")
	if !ok || got != svc {
		t.Fatal("Get did not return the created service")
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("Get of unknown name succeeded")
	}

	// The window is a live pipeline.
	if err := svc.Submit([]Edge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	svc.Flush()
	if conn, err := svc.Window().IsConnected(0, 2); err != nil || !conn {
		t.Fatalf("query through registry window: %v %v", conn, err)
	}

	if _, err := reg.Create("tenant-b", ServiceConfig{Window: WindowConfig{N: 7}}); err != nil {
		t.Fatal(err)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "tenant-a" || names[1] != "tenant-b" {
		t.Fatalf("Names = %v", names)
	}
	infos := reg.List()
	if len(infos) != 2 || infos[0].Name != "tenant-a" || infos[1].Name != "tenant-b" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Window.Arrivals != 2 || infos[1].N != 7 {
		t.Fatalf("List stats wrong: %+v", infos)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}

	// Drop closes the pipeline but a previously-fetched handle still
	// answers queries (ingest is rejected).
	if err := reg.Drop("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("tenant-a"); ok {
		t.Fatal("dropped window still resolvable")
	}
	if err := reg.Drop("tenant-a"); !errors.Is(err, ErrWindowNotFound) {
		t.Fatalf("double drop: %v, want ErrWindowNotFound", err)
	}
	if conn, err := svc.Window().IsConnected(0, 2); err != nil || !conn {
		t.Fatalf("query after drop: %v %v", conn, err)
	}
	if err := svc.Submit([]Edge{{U: 3, V: 4}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drop: %v, want ErrClosed", err)
	}
	if reg.Len() != 1 {
		t.Fatalf("Len after drop = %d", reg.Len())
	}
}

func TestRegistryNameValidation(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	for _, name := range []string{"", ".", "..", "a/b", "a b", "é", string(make([]byte, 129))} {
		if _, err := reg.Create(name, ServiceConfig{}); !errors.Is(err, ErrBadWindowName) {
			t.Errorf("Create(%q): %v, want ErrBadWindowName", name, err)
		}
	}
	for _, name := range []string{"a", "A-1", "x_y.z", "tenant-42"} {
		if _, err := reg.Create(name, ServiceConfig{}); err != nil {
			t.Errorf("Create(%q): %v", name, err)
		}
	}
}

func TestRegistryMaxWindowsAndClose(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{MaxWindows: 2})
	for _, name := range []string{"w0", "w1"} {
		if _, err := reg.Create(name, ServiceConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Create("w2", ServiceConfig{}); !errors.Is(err, ErrTooManyWindows) {
		t.Fatalf("over-cap create: %v, want ErrTooManyWindows", err)
	}
	if err := reg.Drop("w0"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("w2", ServiceConfig{}); err != nil {
		t.Fatalf("create after drop under cap: %v", err)
	}

	reg.Close()
	if reg.Len() != 0 {
		t.Fatalf("Len after Close = %d", reg.Len())
	}
	if _, err := reg.Create("w3", ServiceConfig{}); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("create after close: %v, want ErrRegistryClosed", err)
	}
	reg.Close() // idempotent
}

func TestRegistryTemplateOverrides(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	svc, err := reg.Create("big", ServiceConfig{
		Window: WindowConfig{N: 300, Monitors: []string{MonitorConn, MonitorBipartite}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Window().N() != 300 {
		t.Fatalf("override N = %d", svc.Window().N())
	}
	if mons := svc.Window().Monitors(); len(mons) != 2 {
		t.Fatalf("override monitors = %v", mons)
	}
	if _, err := reg.Create("bad", ServiceConfig{Window: WindowConfig{Monitors: []string{"nope"}}}); err == nil {
		t.Fatal("unknown monitor accepted")
	}
	if reg.Len() != 1 {
		t.Fatalf("failed create leaked a slot: Len = %d", reg.Len())
	}
}

func TestMergeTemplatePerField(t *testing.T) {
	tpl := ServiceConfig{
		Window: WindowConfig{N: 10, Monitor: MonitorConfig{Eps: 0.5, MaxWeight: 1 << 10, K: 3}},
		Ingest: IngesterConfig{MaxBatch: 32},
	}
	// Overriding one monitor field must not discard the template's others.
	got := mergeTemplate(ServiceConfig{Window: WindowConfig{Monitor: MonitorConfig{K: 5}}}, tpl)
	if want := (MonitorConfig{Eps: 0.5, MaxWeight: 1 << 10, K: 5}); got.Window.Monitor != want {
		t.Fatalf("monitor merge = %+v, want %+v", got.Window.Monitor, want)
	}
	if got.Window.N != 10 || got.Ingest.MaxBatch != 32 {
		t.Fatalf("merge lost fields: %+v", got)
	}
}

// TestRegistryConcurrent hammers create/get/drop from many goroutines; run
// under -race this checks the copy-on-write table discipline.
func TestRegistryConcurrent(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				svc, err := reg.Create(name, ServiceConfig{})
				if err != nil {
					t.Error(err)
					return
				}
				if err := svc.Submit([]Edge{{U: 0, V: 1}}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := reg.Get(name); !ok {
					t.Errorf("Get(%q) lost the window", name)
					return
				}
				_ = reg.Names()
				if i%2 == 0 {
					if err := reg.Drop(name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := reg.Len(), workers*perWorker/2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := len(reg.List()); got != reg.Len() {
		t.Fatalf("List length %d != Len %d", got, reg.Len())
	}
	// Racing creates of one name: exactly one winner.
	var created, dup int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := reg.Create("contended", ServiceConfig{})
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				created++
			} else if errors.Is(err, ErrWindowExists) {
				dup++
			}
		}()
	}
	wg.Wait()
	if created != 1 || dup != workers-1 {
		t.Fatalf("contended create: %d winners, %d dups", created, dup)
	}
}

// TestRegistryCreateRacesClose: a Create racing Close either wins — its
// window is registered (on a durable registry, in the manifest too) and
// Close then closes it — or fails with ErrRegistryClosed and leaves
// nothing behind. Close runs a little later each round, so that both
// outcomes occur.
func TestRegistryCreateRacesClose(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-memory", true: "durable"}[durable], func(t *testing.T) {
			const creators = 8
			won, lost := 0, 0
			// At least 20 rounds, and more (each with a longer delay) until
			// both outcomes have been seen.
			for round := 0; round < 20 || (won == 0 || lost == 0) && round < 200; round++ {
				cfg := RegistryConfig{Template: ServiceConfig{
					Window: WindowConfig{N: 2000, Seed: 9, Monitors: []string{MonitorConn}},
					Ingest: IngesterConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
				}}
				dir := t.TempDir()
				if durable {
					cfg.Persistence = &PersistenceConfig{Dir: dir, Fsync: FsyncOff}
				}
				reg, _, err := OpenRegistry(cfg)
				if err != nil {
					t.Fatal(err)
				}
				svcs := make([]*Service, creators)
				errs := make([]error, creators)
				var wg sync.WaitGroup
				for i := range svcs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						svcs[i], errs[i] = reg.Create(fmt.Sprintf("w%d", i), ServiceConfig{})
					}()
				}
				time.Sleep(time.Duration(round) * 100 * time.Microsecond)
				reg.Close()
				wg.Wait()
				if n := reg.Len(); n != 0 {
					t.Fatalf("round %d: Len after Close = %d", round, n)
				}
				var winners []string
				for i, svc := range svcs {
					switch {
					case errs[i] == nil:
						winners = append(winners, fmt.Sprintf("w%d", i))
						if err := svc.Submit([]Edge{{U: 0, V: 1}}); !errors.Is(err, ErrClosed) {
							t.Fatalf("round %d: submit to w%d after Close: %v, want ErrClosed", round, i, err)
						}
					case !errors.Is(errs[i], ErrRegistryClosed):
						t.Fatalf("round %d: create w%d: %v, want success or ErrRegistryClosed", round, i, errs[i])
					}
				}
				won += len(winners)
				lost += creators - len(winners)
				if durable {
					m, err := wal.LoadManifest(dir)
					if err != nil {
						t.Fatal(err)
					}
					var listed []string
					for name := range m.Windows {
						listed = append(listed, name)
					}
					slices.Sort(listed)
					if !slices.Equal(listed, winners) {
						t.Fatalf("round %d: manifest lists %v, winning creates %v", round, listed, winners)
					}
				}
			}
			if won == 0 || lost == 0 {
				t.Fatalf("%d creates won and %d lost; want both outcomes", won, lost)
			}
			t.Logf("%d creates won, %d lost", won, lost)
		})
	}
}
