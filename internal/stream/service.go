package stream

import (
	"context"
	"sync"
	"time"

	"repro/internal/trace"
)

// ServiceConfig assembles a full pipeline.
type ServiceConfig struct {
	Window WindowConfig
	Ingest IngesterConfig
	// Telemetry, when set, instruments the whole pipeline (ingester,
	// apply path, fan-out). nil runs the zero-overhead no-op bundle.
	Telemetry *Metrics

	// flight, when set, records every batch and query of this pipeline
	// into the recorder's per-window rings. Injected by the registry
	// (always on there); standalone services run unrecorded.
	flight *trace.Recorder
}

// Service wires producers → Ingester → WindowManager: the ingester's flush
// goroutine is the window's single writer, and when time-based expiry is
// configured a background ticker ages the window out even while the stream
// is idle.
type Service struct {
	wm    *WindowManager
	ing   *Ingester
	clock Clock

	stopTicker chan struct{}
	tickerWG   sync.WaitGroup
	closeOnce  sync.Once
}

// withClockDefaults cross-defaults the two clocks so a single injected
// clock drives both the ingester and the window.
func (cfg ServiceConfig) withClockDefaults() ServiceConfig {
	if cfg.Ingest.Clock == nil {
		cfg.Ingest.Clock = cfg.Window.Clock
	}
	if cfg.Window.Clock == nil {
		cfg.Window.Clock = cfg.Ingest.Clock
	}
	return cfg
}

// NewService builds and starts a streaming service.
func NewService(cfg ServiceConfig) (*Service, error) {
	cfg = cfg.withClockDefaults()
	wm, err := NewWindowManager(cfg.Window)
	if err != nil {
		return nil, err
	}
	return newServiceWith(wm, cfg), nil
}

// newServiceWith starts the pipeline over an existing window manager; the
// recovery path uses it after replaying the WAL into a fresh manager
// (replay must not flow through an ingester that is already accepting new
// edges). cfg must already have its clock defaults applied and must be the
// config wm was built from.
func newServiceWith(wm *WindowManager, cfg ServiceConfig) *Service {
	s := &Service{
		wm:         wm,
		clock:      wm.cfg.Clock,
		stopTicker: make(chan struct{}),
	}
	// Telemetry attaches before the ingester starts (so no live batch can
	// race the bundle swap) and — on the recovery path — after replay, so
	// replay mega-batches don't pollute the live-traffic histograms. The
	// flight rings attach at the same point (and for the same reason:
	// recovery replay is not live traffic and records no traces).
	wm.setTelemetry(cfg.Telemetry)
	var onFlush func(enqNS, admitNS int64)
	if cfg.flight != nil {
		names := wm.mux.slotNames()
		wm.setFlight(
			cfg.flight.Ring(wm.cfg.Name, trace.KindBatch, names),
			cfg.flight.Ring(wm.cfg.Name, trace.KindQuery, names),
		)
		onFlush = wm.noteEnqueueTime
	}
	s.ing = newIngesterWith(cfg.Ingest, wm.Apply, cfg.Telemetry, onFlush)
	if cfg.Window.MaxAge > 0 {
		period := cfg.Window.MaxAge / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		s.tickerWG.Add(1)
		go s.expireLoop(period)
	}
	return s
}

func (s *Service) expireLoop(period time.Duration) {
	defer s.tickerWG.Done()
	for {
		select {
		case <-s.clock.After(period):
			s.wm.ExpireByAge(s.clock.Now())
		case <-s.stopTicker:
			return
		}
	}
}

// Submit enqueues edges for ingestion (callable from many goroutines). The
// slice is copied; the caller keeps ownership.
func (s *Service) Submit(edges []Edge) error { return s.ing.SubmitBatch(edges) }

// submitOwned enqueues a slice whose ownership transfers to the pipeline,
// skipping the defensive copy; for callers that build a fresh batch per
// call (the HTTP handler).
func (s *Service) submitOwned(edges []Edge) error { return s.ing.submitOwned(edges) }

// submitOwnedDurable enqueues an owned slice and blocks until the batch
// holding it is durably applied (WAL append + fsync) — the sync-ack
// ingest path. See Ingester.submitOwnedDurable for the ctx semantics.
func (s *Service) submitOwnedDurable(ctx context.Context, edges []Edge) error {
	return s.ing.submitOwnedDurable(ctx, edges)
}

// setDurableSync attaches the durability escalator durable acks wait on;
// the persistence layer wires the window's wal.Log.Sync through it.
func (s *Service) setDurableSync(fn func() error) { s.ing.setDurableSync(fn) }

// Durable reports whether the pipeline has a durability layer — whether a
// sync ack can actually mean "fsynced".
func (s *Service) Durable() bool { return s.ing.durable() }

// SyncAckDefault reports whether this window acknowledges durably by
// default (WindowConfig.SyncAck); requests override per-call.
func (s *Service) SyncAckDefault() bool { return s.wm.cfg.SyncAck }

// Flush synchronously pushes everything submitted so far into the window.
func (s *Service) Flush() { s.ing.Flush() }

// Window exposes the query surface.
func (s *Service) Window() *WindowManager { return s.wm }

// IngestStats returns edges accepted and batches flushed by the ingester.
func (s *Service) IngestStats() (edges, batches int64) { return s.ing.Stats() }

// QueueDepth returns the ingest queue depth in submissions and edges.
func (s *Service) QueueDepth() (batches, edges int64) { return s.ing.QueueDepth() }

// QueueCap returns the ingest submission-queue capacity.
func (s *Service) QueueCap() int { return s.ing.QueueCap() }

// QueueBudget returns the configured edge admission budget (0 = unlimited).
func (s *Service) QueueBudget() int64 { return s.ing.QueueBudget() }

// RejectStats returns submissions and edges turned away by admission
// control.
func (s *Service) RejectStats() (subs, edges int64) { return s.ing.RejectStats() }

// Close drains the ingester, stops the pipeline and releases the window's
// flight rings.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.ing.Close()
		close(s.stopTicker)
		s.tickerWG.Wait()
		s.wm.flight.Release()
		s.wm.qflight.Release()
	})
}
